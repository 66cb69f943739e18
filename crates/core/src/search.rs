//! `Search` and `ReadChild` (paper Figure 3, lines 32–48).
//!
//! `ReadChild(p, dir, seq)` is the persistence primitive: it loads the
//! *current* child pointer and then walks `prev` pointers until it finds
//! the first node whose sequence number is `≤ seq` — the *version-seq*
//! child (§4.1). Both routines are wait-free in isolation (the `prev`
//! chains are acyclic and finite; paper Lemma 46).

use crossbeam_epoch::{Guard, Shared};

use crate::node::Node;
use crate::tree::PnbBst;

/// The `(gp, p, l)` triple returned by `Search` (paper line 41).
pub(crate) type SearchTriple<'g, K, V> = (
    Shared<'g, Node<K, V>>,
    Shared<'g, Node<K, V>>,
    Shared<'g, Node<K, V>>,
);

/// A phase `seq` read from `Counter` and the triple `Search(k, seq)`
/// returned: what an attempt validates and executes from.
pub(crate) type Located<'g, K, V> = (u64, SearchTriple<'g, K, V>);

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// `seq := Counter; Search(k, seq)` (lines 74–75, 155, 177): the
    /// locate step of every singleton `Find` and update attempt.
    #[inline]
    pub(crate) fn search_now<'g>(&self, k: &K, guard: &'g Guard) -> Located<'g, K, V> {
        let seq = self.read_phase();
        (seq, self.search(k, seq, guard))
    }

    /// Paper `Search(k, seq)` (lines 32–42): traverse a branch of
    /// `T_seq` from the root to a leaf, returning `(gp, p, l)`.
    ///
    /// `gp` is null iff the traversal took fewer than two steps (i.e.
    /// `p == root`); `p` and `l` are always non-null (Invariant 4.2/4.3).
    pub(crate) fn search<'g>(&self, k: &K, seq: u64, guard: &'g Guard) -> SearchTriple<'g, K, V> {
        let mut gp: Shared<'g, Node<K, V>> = Shared::null();
        let mut p: Shared<'g, Node<K, V>> = Shared::null();
        let mut l: Shared<'g, Node<K, V>> = Shared::from(self.root);
        let mut hops = 0;
        loop {
            // SAFETY: l starts at the root and every subsequent value
            // comes from `read_child`, which returns nodes reachable
            // under the pinned guard (Invariant 4.2).
            let l_ref = unsafe { l.deref() };
            if l_ref.is_leaf() {
                break;
            }
            gp = p; // line 37
            p = l; // line 38
                   // line 39: descend to the version-seq child.
            l = self.read_child(l_ref, l_ref.key.fin_lt(k), seq, guard, &mut hops);
        }
        self.stats.search_prev_hops(hops);
        (gp, p, l)
    }

    /// Paper `ReadChild(p, left, seq)` (lines 43–48).
    ///
    /// Precondition (4.1): `p.seq <= seq`; consequently the prev chain
    /// from either child reaches a node with `seq ≤ p.seq ≤ seq`
    /// (Invariant 4.10), so the walk terminates at a non-null node.
    ///
    /// Structured as a branch-free-ish fast path plus a `#[cold]` chain
    /// walk: whenever the *current* child already satisfies
    /// `child.seq <= seq` — every read in the scan-free regime, and the
    /// overwhelmingly common case otherwise — no `prev` pointer is ever
    /// touched and the whole call inlines into the search loop. The
    /// `prev` hops taken are added to `hops`.
    #[inline]
    pub(crate) fn read_child<'g>(
        &self,
        p: &Node<K, V>,
        left: bool,
        seq: u64,
        guard: &'g Guard,
        hops: &mut u64,
    ) -> Shared<'g, Node<K, V>> {
        debug_assert!(p.seq <= seq, "ReadChild precondition: p.seq <= seq");
        debug_assert!(!p.is_leaf(), "ReadChild on a leaf");
        let l = p.load_child(left, guard); // line 45
                                           // SAFETY: the current child is reachable under the guard.
        let l_ref = unsafe { l.deref() };
        if l_ref.seq <= seq {
            return l; // fast path: current child is already version-visible
        }
        Self::read_child_slow(l_ref, seq, hops)
    }

    /// The `prev`-chain walk of `ReadChild` (line 46), out of line: only
    /// reached when a concurrent (or past) scan closed a phase below a
    /// newer child — keeping it `#[cold]` keeps the fast path's code
    /// size inside the inlined search loop. Adds its hops to `hops`.
    #[cold]
    pub(crate) fn read_child_slow<'g>(
        mut l_ref: &'g Node<K, V>,
        seq: u64,
        hops: &mut u64,
    ) -> Shared<'g, Node<K, V>> {
        loop {
            *hops += 1;
            debug_assert!(!l_ref.prev.is_null(), "prev chain must reach seq <= seq");
            // SAFETY: each prev-target was unlinked no earlier than our
            // pin (see DESIGN.md §3: any unlink with seq' <= seq
            // happened while a node with seq' is already in the chain
            // above us). `prev` is immutable, so a plain field read
            // after the Acquire child load is fully ordered.
            let prev = unsafe { &*l_ref.prev };
            if prev.seq <= seq {
                return Shared::from(l_ref.prev); // line 46 terminates
            }
            l_ref = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SKey;
    use crossbeam_epoch as epoch;

    #[test]
    fn search_on_empty_tree_lands_on_inf1() {
        let t: PnbBst<i32, ()> = PnbBst::new();
        let guard = &epoch::pin();
        let (gp, p, l) = t.search(&5, 0, guard);
        assert!(gp.is_null());
        assert!(std::ptr::eq(p.as_raw(), t.root));
        let leaf = unsafe { l.deref() };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.key, SKey::Inf1);
    }

    #[test]
    fn search_finds_inserted_leaf_and_parents() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        for k in [50, 25, 75, 10, 60] {
            t.insert(k, k);
        }
        let guard = &epoch::pin();
        let seq = t.phase();
        for k in [50, 25, 75, 10, 60] {
            let (_gp, p, l) = t.search(&k, seq, guard);
            let leaf = unsafe { l.deref() };
            assert!(leaf.is_leaf());
            assert_eq!(leaf.key, SKey::Fin(k), "search must land on the key's leaf");
            let parent = unsafe { p.deref() };
            assert!(!parent.is_leaf());
        }
        // A missing key lands on a leaf that would be its neighbour.
        let (_, _, l) = t.search(&55, seq, guard);
        let leaf = unsafe { l.deref() };
        assert!(leaf.is_leaf());
        assert_ne!(leaf.key, SKey::Fin(55));
    }

    #[test]
    fn read_child_respects_versions() {
        // After an insert in phase 0 and a scan bump to phase 1 plus an
        // insert in phase 1, reading with seq=0 must see the phase-0
        // child while seq=1 sees the new one.
        let t: PnbBst<i32, i32> = PnbBst::new();
        t.insert(10, 10); // phase 0

        // Bump the phase the way a RangeScan would.
        let _ = t.snapshot().range_scan(&0, &0);
        assert_eq!(t.phase(), 1);
        t.insert(5, 5); // phase 1: replaces the leaf 10's position
        let guard = &epoch::pin();
        // The leaf 10 in phase 0: search with seq 0.
        let (_, _, l0) = t.search(&5, 0, guard);
        let leaf0 = unsafe { l0.deref() };
        // In T_0, key 5 does not exist; the search for 5 must land on
        // whatever leaf covered that range in phase 0 — the leaf 10.
        assert_eq!(leaf0.key, SKey::Fin(10));
        assert_eq!(leaf0.seq, 0);
        // In T_1 it exists.
        let (_, _, l1) = t.search(&5, 1, guard);
        let leaf1 = unsafe { l1.deref() };
        assert_eq!(leaf1.key, SKey::Fin(5));
    }
}
