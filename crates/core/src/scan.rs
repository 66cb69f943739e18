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
//! A scan is a [`Snapshot`](crate::Snapshot) or a lazy
//! [`Handle::range`](crate::Handle::range), each of which closes the
//! phase ([`close_phase`](crate::PnbBst::close_phase)); the traversal
//! itself is the `Walk` in [`crate::iter`]. This module holds the bounds
//! pruning that walk applies.

use std::ops::Bound;

use crate::key::SKey;

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

#[cfg(test)]
mod tests {
    use super::*;

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
