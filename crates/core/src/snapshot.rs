//! Point-in-time snapshots — the persistence dividend.
//!
//! The paper's range scans already reconstruct the version-`seq` tree
//! `T_seq`; a [`Snapshot`] simply *holds on* to such a version: it ends
//! the current phase (like a scan) and keeps an epoch guard pinned so the
//! nodes of its version cannot be reclaimed. All reads through the
//! snapshot — point lookups, range scans, full iteration — are wait-free
//! and mutually consistent: they all observe exactly the abstract set as
//! of the snapshot's linearization point, no matter how many updates have
//! happened since.
//!
//! This is an *extension* the paper explicitly enables ("in a persistent
//! data structure … one can access any old version", §1) but does not
//! spell out; it reuses `ScanHelper`'s traversal and helping rules, so
//! the same correctness argument (paper Lemma 44) applies.
//!
//! A snapshot is the one multi-key read surface besides the lazy
//! [`Handle::range`](crate::Handle::range): `len`, `to_vec`, `keys`,
//! visitor scans and ordered queries are written here once, and a caller
//! that wants one of them on the live tree takes `tree.snapshot()` first.
//!
//! A long-lived snapshot delays epoch reclamation of every node retired
//! after its creation — treat it like holding a read lock on memory
//! (never on other threads' progress).

use crossbeam_epoch::{self as epoch, Guard};
use std::ops::Bound;
use std::sync::atomic::Ordering::Acquire;

use crate::info::state;
use crate::iter::Walk;
use crate::node::Node;
use crate::tree::PnbBst;

/// A wait-free, immutable view of a [`PnbBst`] as of its creation.
///
/// Not `Send`: it embeds the creating thread's epoch guard.
///
/// # Example
///
/// ```
/// use pnb_bst::PnbBst;
///
/// let tree: PnbBst<u32, u32> = PnbBst::new();
/// tree.insert(1, 10);
/// let snap = tree.snapshot();
/// tree.insert(2, 20);
/// tree.delete(&1);
/// // The snapshot still shows the old state...
/// assert_eq!(snap.get(&1), Some(10));
/// assert_eq!(snap.get(&2), None);
/// assert_eq!(snap.len(), 1);
/// // ...while the tree has moved on.
/// assert_eq!(tree.get(&1), None);
/// assert_eq!(tree.get(&2), Some(20));
/// ```
pub struct Snapshot<'t, K, V> {
    tree: &'t PnbBst<K, V>,
    guard: Guard,
    seq: u64,
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Take a linearizable snapshot of the current contents. Ends the
    /// current phase exactly like a range scan does.
    pub fn snapshot(&self) -> Snapshot<'_, K, V> {
        let guard = epoch::pin();
        Snapshot {
            tree: self,
            guard,
            seq: self.close_phase(),
        }
    }
}

impl<K, V> Snapshot<'_, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// The phase this snapshot belongs to (its sequence number).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The leaf on `key`'s search path in the snapshot's version of the
    /// tree. A degenerate `ScanHelper`: walk version-`seq` children toward
    /// the key, helping in-progress updates along the path so that every
    /// update of phase ≤ `seq` is observed.
    fn leaf_for(&self, key: &K) -> &Node<K, V> {
        let guard = &self.guard;
        // SAFETY: the root is never replaced (Observation 1) and lives as
        // long as the tree, which outlives the snapshot.
        let mut node = unsafe { &*self.tree.root };
        let mut hops = 0;
        while !node.is_leaf() {
            // Scanner-side load (`load_update_scan`): this walk reads
            // the closed phase `seq`, same obligations as `ScanHelper`.
            let w = node.load_update_scan(guard);
            // SAFETY: update words point to live Infos while pinned.
            // Acquire: pairs with the AcqRel state transitions.
            let st = unsafe { (*w.info()).state.load(Acquire) };
            if st == state::UNDECIDED || st == state::TRY {
                self.tree.help(w.info(), guard);
            }
            let left = node.key.fin_lt(key);
            let child = self.tree.read_child(node, left, self.seq, guard, &mut hops);
            // SAFETY: read_child returns a non-null node reachable under
            // the snapshot's pinned guard.
            node = unsafe { child.deref() };
        }
        self.tree.stats.search_prev_hops(hops);
        node
    }

    /// Wait-free point lookup in the snapshot's version of the tree.
    pub fn get(&self, key: &K) -> Option<V> {
        let leaf = self.leaf_for(key);
        if leaf.key.fin_eq(key) {
            leaf.value().cloned()
        } else {
            None
        }
    }

    /// Whether `key` was present when the snapshot was taken.
    pub fn contains(&self, key: &K) -> bool {
        self.leaf_for(key).key.fin_eq(key)
    }

    /// Range query `[lo, hi]` within the snapshot (ascending order).
    pub fn range_scan(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range_scan_with(Bound::Included(lo), Bound::Included(hi), |k, v| {
            out.push((k.clone(), v.clone()))
        });
        out
    }

    /// Visitor-style range query within the snapshot, in ascending key
    /// order; clones neither keys nor values.
    pub fn range_scan_with<F: FnMut(&K, &V)>(&self, lo: Bound<&K>, hi: Bound<&K>, mut f: F) {
        let mut walk = Walk::<_, _, false>::new(self.tree, &self.guard, self.seq);
        while let Some((k, v)) = walk.next_leaf(lo, hi) {
            f(k, v);
        }
    }

    /// Lazy, wait-free range iteration within the snapshot over any
    /// [`RangeBounds`](std::ops::RangeBounds) — the snapshot's phase is
    /// already closed, so (unlike [`Handle::range`](crate::Handle::range))
    /// this does not advance the counter and any number of iterations
    /// observe the same version.
    pub fn range<R: std::ops::RangeBounds<K>>(&self, range: R) -> crate::Range<'_, K, V> {
        let (lo, hi) = crate::iter::cloned_bounds(&range);
        crate::Range::new(self.tree, &self.guard, self.seq, lo, hi)
    }

    /// Lazy iteration over the whole snapshot (`range(..)`), ascending.
    pub fn iter(&self) -> crate::Range<'_, K, V> {
        self.range(..)
    }

    /// All key/value pairs in the snapshot, ascending.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range_scan_with(Bound::Unbounded, Bound::Unbounded, |k, v| {
            out.push((k.clone(), v.clone()))
        });
        out
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.range_scan_with(Bound::Unbounded, Bound::Unbounded, |_, _| n += 1);
        n
    }

    /// Whether the snapshot is empty. The walk stops at its first leaf.
    pub fn is_empty(&self) -> bool {
        Walk::<_, _, false>::new(self.tree, &self.guard, self.seq)
            .next_leaf(Bound::Unbounded, Bound::Unbounded)
            .is_none()
    }

    /// Keys only, ascending.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.range_scan_with(Bound::Unbounded, Bound::Unbounded, |k, _| {
            out.push(k.clone())
        });
        out
    }

    /// The first entry within the bounds: the smallest, or the largest
    /// when `DESC`. The walk stops at its first leaf.
    fn first<const DESC: bool>(&self, lo: Bound<&K>, hi: Bound<&K>) -> Option<(K, V)> {
        Walk::<_, _, DESC>::new(self.tree, &self.guard, self.seq)
            .next_leaf(lo, hi)
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    /// Smallest entry in the snapshot.
    pub fn first_key_value(&self) -> Option<(K, V)> {
        self.first::<false>(Bound::Unbounded, Bound::Unbounded)
    }

    /// Largest entry in the snapshot.
    pub fn last_key_value(&self) -> Option<(K, V)> {
        self.first::<true>(Bound::Unbounded, Bound::Unbounded)
    }

    /// Smallest entry with key strictly greater than `key`.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        self.first::<false>(Bound::Excluded(key), Bound::Unbounded)
    }

    /// Largest entry with key strictly smaller than `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        self.first::<true>(Bound::Unbounded, Bound::Excluded(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> PnbBst<i64, i64> {
        let t = PnbBst::new();
        for k in [8, 3, 10, 1, 6, 14, 4, 7, 13] {
            assert!(t.insert(k, k * 100));
        }
        t
    }

    #[test]
    fn every_phase_close_counts_as_a_scan() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        t.insert(1, 1);
        let (phase, scans) = (t.phase(), t.stats().scans);
        let snap = t.snapshot();
        // Reads of a snapshot close no phase of their own.
        assert_eq!(snap.range_scan(&0, &9), vec![(1, 1)]);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.to_vec(), vec![(1, 1)]);
        assert_eq!(snap.first_key_value(), Some((1, 1)));
        assert_eq!(snap.predecessor(&2), Some((1, 1)));
        assert_eq!(t.pin().range(..).count(), 1);
        assert_eq!(t.snapshot().get(&1), Some(1));
        assert_eq!(t.phase() - phase, 3);
        assert_eq!(t.stats().scans - scans, 3);
    }

    #[test]
    fn each_snapshot_closes_one_phase() {
        let t = populated();
        let before = t.phase();
        let snap = t.snapshot();
        let _ = snap.range_scan(&0, &100);
        let _ = snap.len();
        let _ = snap.to_vec();
        let _ = snap.successor(&3);
        assert_eq!(t.phase(), before + 1);
        let _ = t.snapshot().len();
        let _ = t.pin().range(0..100).count();
        assert_eq!(t.phase(), before + 3);
    }

    #[test]
    fn range_scan_returns_sorted_inclusive_range() {
        let t = populated();
        assert_eq!(
            t.snapshot().range_scan(&3, &10),
            vec![(3, 300), (4, 400), (6, 600), (7, 700), (8, 800), (10, 1000)]
        );
    }

    #[test]
    fn range_scan_full_and_empty_ranges() {
        let t = populated();
        let s = t.snapshot();
        assert_eq!(s.keys(), vec![1, 3, 4, 6, 7, 8, 10, 13, 14]);
        assert!(s.range_scan(&20, &30).is_empty());
        assert!(s.range_scan(&5, &5).is_empty()); // point query, absent
        assert_eq!(s.range_scan(&6, &6), vec![(6, 600)]); // present
        assert!(s.range_scan(&10, &3).is_empty()); // inverted bounds
    }

    #[test]
    fn range_scan_with_exclusive_bounds() {
        let t = populated();
        let s = t.snapshot();
        let keys = |lo, hi| {
            let mut got = Vec::new();
            s.range_scan_with(lo, hi, |k, _| got.push(*k));
            got
        };
        assert_eq!(
            keys(Bound::Excluded(&3), Bound::Excluded(&10)),
            vec![4, 6, 7, 8]
        );
        assert_eq!(
            keys(Bound::Excluded(&1), Bound::Unbounded),
            vec![3, 4, 6, 7, 8, 10, 13, 14]
        );
        assert_eq!(
            keys(Bound::Unbounded, Bound::Excluded(&8)),
            vec![1, 3, 4, 6, 7]
        );
    }

    #[test]
    fn visitor_count_matches_range_scan_len() {
        let t = populated();
        let s = t.snapshot();
        for (lo, hi) in [(3, 10), (-100, 0), (0, 100), (14, 14)] {
            let mut n = 0;
            s.range_scan_with(Bound::Included(&lo), Bound::Included(&hi), |_, _| n += 1);
            assert_eq!(n, s.range_scan(&lo, &hi).len(), "[{lo}, {hi}]");
            assert_eq!(n, s.range(lo..=hi).count(), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn len_excludes_sentinels() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        let s = t.snapshot();
        assert!(s.to_vec().is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        t.insert(1, 1);
        let s = t.snapshot();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn snapshot_sees_updates_from_earlier_phases() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        t.insert(1, 1);
        let _ = t.snapshot(); // close phase 0
        t.insert(2, 2);
        t.delete(&1);
        assert_eq!(t.snapshot().range_scan(&0, &10), vec![(2, 2)]);
    }

    #[test]
    fn snapshot_is_frozen_in_time() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        for k in 0..10 {
            t.insert(k, k);
        }
        let snap = t.snapshot();
        for k in 10..20 {
            t.insert(k, k);
        }
        for k in 0..5 {
            t.delete(&k);
        }
        assert_eq!(snap.len(), 10);
        assert_eq!(snap.keys(), (0..10).collect::<Vec<_>>());
        assert_eq!(t.snapshot().len(), 15);
        // Point lookups agree with the frozen view.
        assert_eq!(snap.get(&3), Some(3));
        assert!(snap.contains(&3));
        assert_eq!(snap.get(&15), None);
        assert!(!snap.contains(&15));
    }

    #[test]
    fn ordered_queries_read_the_frozen_version() {
        use std::collections::BTreeMap;
        let t: PnbBst<i64, i64> = PnbBst::new();
        let empty = t.snapshot();
        for k in [8, 3, 10, 1, 6, 14, 4, 7, 13] {
            t.insert(k, k * 100);
        }
        let snap = t.snapshot();
        for k in [3, 8, 14] {
            t.delete(&k);
        }
        for k in [0, 5, 9, 16] {
            t.insert(k, -k);
        }
        assert!(empty.is_empty());
        assert_eq!(snap.keys(), vec![1, 3, 4, 6, 7, 8, 10, 13, 14]);
        for s in [&empty, &snap] {
            let model: BTreeMap<i64, i64> = s.to_vec().into_iter().collect();
            let pair = |e: Option<(&i64, &i64)>| e.map(|(k, v)| (*k, *v));
            assert_eq!(s.first_key_value(), pair(model.first_key_value()));
            assert_eq!(s.last_key_value(), pair(model.last_key_value()));
            for probe in -1..=17 {
                let succ = pair(model.range(probe + 1..).next());
                let pred = pair(model.range(..probe).next_back());
                assert_eq!(s.successor(&probe), succ, "successor of {probe}");
                assert_eq!(s.predecessor(&probe), pred, "predecessor of {probe}");
            }
        }
    }

    #[test]
    fn ordered_queries_on_empty_and_single() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        let s = t.snapshot();
        assert_eq!(s.first_key_value(), None);
        assert_eq!(s.last_key_value(), None);
        assert_eq!(s.successor(&0), None);
        assert_eq!(s.predecessor(&0), None);
        t.insert(7, 70);
        let s = t.snapshot();
        assert_eq!(s.first_key_value(), Some((7, 70)));
        assert_eq!(s.last_key_value(), Some((7, 70)));
        assert_eq!(s.successor(&7), None);
        assert_eq!(s.successor(&6), Some((7, 70)));
        assert_eq!(s.predecessor(&7), None);
        assert_eq!(s.predecessor(&8), Some((7, 70)));
    }

    #[test]
    fn multiple_snapshots_capture_distinct_versions() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        t.insert(1, 1);
        let s1 = t.snapshot();
        t.insert(2, 2);
        let s2 = t.snapshot();
        t.delete(&1);
        let s3 = t.snapshot();
        assert_eq!(s1.keys(), vec![1]);
        assert_eq!(s2.keys(), vec![1, 2]);
        assert_eq!(s3.keys(), vec![2]);
        assert!(s1.seq() < s2.seq() && s2.seq() < s3.seq());
    }

    #[test]
    fn snapshot_range_queries() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        for k in 0..20 {
            t.insert(k, -k);
        }
        let snap = t.snapshot();
        for k in 0..20 {
            t.delete(&k);
        }
        assert!(t.snapshot().is_empty());
        assert_eq!(
            snap.range_scan(&5, &8),
            vec![(5, -5), (6, -6), (7, -7), (8, -8)]
        );
        assert_eq!(snap.len(), 20);
        assert!(!snap.is_empty());
    }

    #[test]
    fn snapshot_of_empty_tree() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        let snap = t.snapshot();
        t.insert(1, 1);
        assert!(snap.is_empty());
        assert_eq!(snap.get(&1), None);
        assert_eq!(snap.to_vec(), vec![]);
    }
}
