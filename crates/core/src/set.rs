//! [`PnbBstSet`]: the paper's exact interface — a concurrent *set* with
//! `Insert`, `Delete`, `Find` and `RangeScan` — as a thin wrapper over
//! the keyed map [`PnbBst`].

use std::ops::Bound;

use crate::snapshot::Snapshot;
use crate::stats::StatsSnapshot;
use crate::tree::PnbBst;

/// A linearizable concurrent ordered set with non-blocking updates and
/// wait-free range queries (the paper's PNB-BST, set flavour).
///
/// # Example
///
/// ```
/// use pnb_bst::PnbBstSet;
///
/// let set: PnbBstSet<i32> = PnbBstSet::new();
/// assert!(set.insert(3));
/// assert!(set.insert(1));
/// assert!(!set.insert(3)); // already present
/// assert!(set.contains(&1));
/// assert_eq!(set.range_scan(&0, &10), vec![1, 3]);
/// assert!(set.delete(&1));
/// assert!(!set.contains(&1));
/// ```
pub struct PnbBstSet<K> {
    map: PnbBst<K, ()>,
}

impl<K> Default for PnbBstSet<K>
where
    K: Ord + Clone + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K> PnbBstSet<K>
where
    K: Ord + Clone + 'static,
{
    /// Create an empty set.
    pub fn new() -> Self {
        PnbBstSet { map: PnbBst::new() }
    }

    /// Insert `key`; `true` iff it was absent (paper `Insert`).
    pub fn insert(&self, key: K) -> bool {
        self.map.insert(key, ())
    }

    /// Remove `key`; `true` iff it was present (paper `Delete`).
    pub fn delete(&self, key: &K) -> bool {
        self.map.delete(key)
    }

    /// Membership test (paper `Find`).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains(key)
    }

    /// Wait-free range query over `[lo, hi]`, ascending (paper
    /// `RangeScan`).
    pub fn range_scan(&self, lo: &K, hi: &K) -> Vec<K> {
        let mut out = Vec::new();
        self.map
            .snapshot()
            .range_scan_with(Bound::Included(lo), Bound::Included(hi), |k, _| {
                out.push(k.clone())
            });
        out
    }

    /// Point-in-time snapshot; see [`PnbBst::snapshot`]. Every other
    /// multi-key read (`len`, `keys`, visitor scans, ordered queries)
    /// goes through it.
    pub fn snapshot(&self) -> Snapshot<'_, K, ()> {
        self.map.snapshot()
    }

    /// Current phase number (diagnostics).
    pub fn phase(&self) -> u64 {
        self.map.phase()
    }

    /// The set's counters (see [`PnbBst::stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.map.stats()
    }

    /// Access the underlying map (e.g. for snapshot APIs that need it).
    pub fn as_map(&self) -> &PnbBst<K, ()> {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics() {
        let s: PnbBstSet<u16> = PnbBstSet::new();
        assert!(s.snapshot().is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(9));
        assert_eq!(s.snapshot().len(), 2);
        assert_eq!(s.snapshot().keys(), vec![5, 9]);
        assert!(s.delete(&5));
        assert!(!s.delete(&5));
        assert_eq!(s.snapshot().keys(), vec![9]);
    }

    #[test]
    fn set_range_scan() {
        let s: PnbBstSet<i32> = PnbBstSet::new();
        for k in (0..50).step_by(5) {
            s.insert(k);
        }
        let before = s.phase();
        assert_eq!(s.range_scan(&10, &30), vec![10, 15, 20, 25, 30]);
        assert_eq!(s.phase(), before + 1, "one scan, one phase");
        let mut collected = Vec::new();
        s.snapshot()
            .range_scan_with(Bound::Excluded(&10), Bound::Excluded(&30), |k, _| {
                collected.push(*k)
            });
        assert_eq!(collected, vec![15, 20, 25]);
    }

    #[test]
    fn set_snapshot() {
        let s: PnbBstSet<u8> = PnbBstSet::new();
        s.insert(1);
        s.insert(2);
        let snap = s.snapshot();
        s.delete(&1);
        assert_eq!(snap.keys(), vec![1, 2]);
        assert_eq!(s.snapshot().keys(), vec![2]);
    }
}
