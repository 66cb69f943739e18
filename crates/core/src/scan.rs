//! Wait-free range queries: `RangeScan` / `ScanHelper` (paper Figure 4,
//! lines 129–146).
//!
//! A scan atomically fetches-and-increments the shared `Counter`; the
//! fetched value `seq` is its sequence number and the increment closes
//! phase `seq`. The scan then traverses the *version-seq* tree `T_seq`,
//! helping any in-progress update it encounters (this, together with the
//! updaters' handshake, is what makes the scan linearizable at the end of
//! phase `seq` — §4.1).
//!
//! Wait-freedom (paper Theorem 47): `T_seq` contains only nodes created
//! by operations that read `Counter ≤ seq`, and after the increment every
//! *new* update attempt gets a larger sequence number — so the subgraph
//! the scan can possibly traverse is finite and acyclic, regardless of
//! how fast concurrent updates run.
//!
//! Each scan here takes a [`Snapshot`](crate::Snapshot) — which closes
//! the phase ([`PnbBst::close_phase`]) — and reads it once; the traversal
//! itself is the `Walk` in [`crate::iter`]. This module keeps the bounds
//! pruning that walk applies.

use std::ops::Bound;

use crate::key::SKey;
use crate::tree::PnbBst;

/// Descent/filter logic for generalized range bounds.
///
/// The paper scans closed intervals `[a, b]` and prunes with
/// `a > key ⇒ right only`, `b < key ⇒ left only`. These helpers implement
/// the same pruning for arbitrary `Bound`s, slightly tightened (at
/// `a == key` the left subtree, whose keys are strictly below `key`,
/// cannot contain a match and is skipped). Pruning may only ever be
/// *conservative*: the per-leaf filter [`bounds_contain`] makes the final
/// decision.
#[inline]
pub(crate) fn skip_left<K: Ord>(lo: &Bound<&K>, key: &SKey<K>) -> bool {
    match lo {
        Bound::Unbounded => false,
        // Left subtree keys are < key; a match needs x >= a (or > a):
        // impossible iff a >= key.
        Bound::Included(a) | Bound::Excluded(a) => !key.fin_lt(a), // a >= key
    }
}

#[inline]
pub(crate) fn skip_right<K: Ord>(hi: &Bound<&K>, key: &SKey<K>) -> bool {
    match hi {
        Bound::Unbounded => false,
        // Right subtree keys are >= key; a match needs x <= b: impossible
        // iff b < key.
        Bound::Included(b) => key.fin_lt(b),
        // ... or x < b: impossible iff b <= key.
        Bound::Excluded(b) => key.cmp_fin(b) != std::cmp::Ordering::Less,
    }
}

/// Whether a finite leaf key lies within the requested bounds.
#[inline]
pub(crate) fn bounds_contain<K: Ord>(lo: &Bound<&K>, hi: &Bound<&K>, k: &K) -> bool {
    let lo_ok = match lo {
        Bound::Unbounded => true,
        Bound::Included(a) => k >= a,
        Bound::Excluded(a) => k > a,
    };
    let hi_ok = match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => k <= b,
        Bound::Excluded(b) => k < b,
    };
    lo_ok && hi_ok
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Wait-free range query over the closed interval `[lo, hi]` (the
    /// paper's `RangeScan(a, b)`). Returns the matching key/value pairs
    /// in ascending key order, as of the scan's linearization point (the
    /// end of its phase).
    ///
    /// Compat wrapper: materializes the full result `Vec` and pins an
    /// epoch guard per call. New code should prefer the lazy
    /// [`Handle::range`](crate::Handle::range) (`tree.pin().range(a..=b)`),
    /// which streams matches without allocating the result set.
    pub fn range_scan(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.snapshot().range_scan(lo, hi)
    }

    /// Wait-free range query with arbitrary bounds, streaming matches to
    /// a visitor in ascending key order. This is the paper's remark that
    /// a scan "may print keys (or perform some processing of the nodes)"
    /// without materializing a result set.
    pub fn range_scan_with<F: FnMut(&K, &V)>(&self, lo: Bound<&K>, hi: Bound<&K>, f: F) {
        self.snapshot().range_scan_with(lo, hi, f)
    }

    /// Count keys in `[lo, hi]` without cloning (wait-free).
    pub fn scan_count(&self, lo: &K, hi: &K) -> usize {
        self.snapshot().scan_count(lo, hi)
    }

    /// Snapshot the entire contents in ascending key order (wait-free).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.snapshot().to_vec()
    }

    /// Number of keys currently in the set, observed atomically
    /// (wait-free, O(n) — this is a linearizable scan, not a counter).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the set is empty (linearizable; see [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The smallest key and its value (wait-free, linearizable).
    pub fn first_key_value(&self) -> Option<(K, V)> {
        self.snapshot().first_key_value()
    }

    /// The largest key and its value (wait-free, linearizable).
    pub fn last_key_value(&self) -> Option<(K, V)> {
        self.snapshot().last_key_value()
    }

    /// The smallest entry with key strictly greater than `key`
    /// (wait-free, linearizable).
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        self.snapshot().successor(key)
    }

    /// The largest entry with key strictly smaller than `key`
    /// (wait-free, linearizable).
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        self.snapshot().predecessor(key)
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
    fn scan_returns_sorted_inclusive_range() {
        let t = populated();
        let r = t.range_scan(&3, &10);
        assert_eq!(
            r,
            vec![(3, 300), (4, 400), (6, 600), (7, 700), (8, 800), (10, 1000)]
        );
    }

    #[test]
    fn scan_full_and_empty_ranges() {
        let t = populated();
        let all: Vec<i64> = t.to_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(all, vec![1, 3, 4, 6, 7, 8, 10, 13, 14]);
        assert!(t.range_scan(&20, &30).is_empty());
        assert!(t.range_scan(&5, &5).is_empty()); // point query, absent
        assert_eq!(t.range_scan(&6, &6), vec![(6, 600)]); // present
        assert!(t.range_scan(&10, &3).is_empty()); // inverted bounds
    }

    #[test]
    fn scan_excludes_sentinels_with_unbounded_range() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        assert!(t.to_vec().is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        t.insert(1, 1);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn scan_with_exclusive_bounds() {
        let t = populated();
        let mut got = Vec::new();
        t.range_scan_with(Bound::Excluded(&3), Bound::Excluded(&10), |k, _| {
            got.push(*k)
        });
        assert_eq!(got, vec![4, 6, 7, 8]);
        let mut got = Vec::new();
        t.range_scan_with(Bound::Excluded(&1), Bound::Unbounded, |k, _| got.push(*k));
        assert_eq!(got, vec![3, 4, 6, 7, 8, 10, 13, 14]);
        let mut got = Vec::new();
        t.range_scan_with(Bound::Unbounded, Bound::Excluded(&8), |k, _| got.push(*k));
        assert_eq!(got, vec![1, 3, 4, 6, 7]);
    }

    #[test]
    fn each_scan_advances_the_phase() {
        let t = populated();
        let before = t.phase();
        let _ = t.range_scan(&0, &100);
        let _ = t.scan_count(&0, &100);
        let _ = t.len();
        assert_eq!(t.phase(), before + 3);
    }

    #[test]
    fn scan_count_matches_scan_len() {
        let t = populated();
        assert_eq!(t.scan_count(&3, &10), t.range_scan(&3, &10).len());
        assert_eq!(t.scan_count(&-100, &0), 0);
    }

    #[test]
    fn scan_sees_updates_from_earlier_phases() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        t.insert(1, 1);
        let _ = t.range_scan(&0, &10); // close phase 0
        t.insert(2, 2);
        t.delete(&1);
        let r = t.range_scan(&0, &10);
        assert_eq!(r, vec![(2, 2)]);
    }

    #[test]
    fn ordered_queries_match_btreemap() {
        use std::collections::BTreeMap;
        let t = populated();
        let model: BTreeMap<i64, i64> = t.to_vec().into_iter().collect();
        assert_eq!(
            t.first_key_value(),
            model.first_key_value().map(|(k, v)| (*k, *v))
        );
        assert_eq!(
            t.last_key_value(),
            model.last_key_value().map(|(k, v)| (*k, *v))
        );
        for probe in -1..=16 {
            let succ = model.range(probe + 1..).next().map(|(k, v)| (*k, *v));
            let pred = model.range(..probe).next_back().map(|(k, v)| (*k, *v));
            assert_eq!(t.successor(&probe), succ, "successor of {probe}");
            assert_eq!(t.predecessor(&probe), pred, "predecessor of {probe}");
        }
    }

    #[test]
    fn ordered_queries_on_empty_and_single() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        assert_eq!(t.first_key_value(), None);
        assert_eq!(t.last_key_value(), None);
        assert_eq!(t.successor(&0), None);
        assert_eq!(t.predecessor(&0), None);
        t.insert(7, 70);
        assert_eq!(t.first_key_value(), Some((7, 70)));
        assert_eq!(t.last_key_value(), Some((7, 70)));
        assert_eq!(t.successor(&7), None);
        assert_eq!(t.successor(&6), Some((7, 70)));
        assert_eq!(t.predecessor(&7), None);
        assert_eq!(t.predecessor(&8), Some((7, 70)));
    }

    #[test]
    fn early_exit_stops_traversal() {
        let t = populated();
        let h = t.pin();
        let visited: Vec<i64> = h.range(..).take(3).map(|(k, _)| k).collect();
        assert_eq!(visited, vec![1, 3, 4]);
    }

    #[test]
    fn bounds_helpers_truth_table() {
        // skip_left: can the left subtree (keys < key) contain a match?
        assert!(skip_left(&Bound::Included(&5), &SKey::Fin(5)));
        assert!(skip_left(&Bound::Included(&6), &SKey::Fin(5)));
        assert!(!skip_left(&Bound::Included(&4), &SKey::Fin(5)));
        assert!(!skip_left(&Bound::Unbounded, &SKey::Fin(5)));
        assert!(!skip_left(&Bound::Included(&5), &SKey::Inf1));
        // skip_right: can the right subtree (keys >= key) contain a match?
        assert!(skip_right(&Bound::Included(&4), &SKey::Fin(5)));
        assert!(!skip_right(&Bound::Included(&5), &SKey::Fin(5)));
        assert!(skip_right(&Bound::Excluded(&5), &SKey::Fin(5)));
        assert!(!skip_right(&Bound::Excluded(&6), &SKey::Fin(5)));
        assert!(!skip_right(&Bound::Unbounded, &SKey::Fin(5)));
        // A sentinel-keyed internal node: all finite upper bounds skip it.
        assert!(skip_right(&Bound::Included(&i64::MAX), &SKey::Inf1));
        // bounds_contain composes both sides.
        assert!(bounds_contain(
            &Bound::Included(&1),
            &Bound::Included(&3),
            &2
        ));
        assert!(!bounds_contain(
            &Bound::Excluded(&2),
            &Bound::Included(&3),
            &2
        ));
        assert!(!bounds_contain(
            &Bound::Included(&1),
            &Bound::Excluded(&2),
            &2
        ));
        assert!(bounds_contain(&Bound::Unbounded, &Bound::Unbounded, &2));
    }
}
