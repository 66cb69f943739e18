//! The one traversal of a tree version, and its lazy iterator form.
//!
//! [`Walk`] is the paper's `ScanHelper` (Figure 4, lines 134–146): an
//! explicit-stack walk of the version-`seq` tree that helps on the way
//! down, prunes by bounds and yields one matching leaf per call, by
//! reference. Every read of a closed phase runs on it — [`Range`] keeps
//! one alive between `next` calls, and the [`Snapshot`](crate::Snapshot)
//! visitors and ordered queries drive one to completion or to its first
//! leaf. Nothing proportional to the result set is ever allocated; the
//! descent stack is bounded by the tree height (the tree is not
//! balanced, so recursion could reach O(n)).
//!
//! The wait-freedom argument: the walk's phase was closed before it
//! started (the counter was incremented, or the snapshot it reads from
//! closed one earlier), so the subgraph it can traverse is finite and
//! immutable no matter how fast concurrent updates run. Helping on the
//! way down (lines 139–140) happens per `next_leaf` call, exactly as it
//! would inside one long scan.

use crossbeam_epoch::Guard;
use std::iter::FusedIterator;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering::Acquire;

use crate::arena::ScanStack;
use crate::info::state;
use crate::key::SKey;
use crate::node::Node;
use crate::scan::{bounds_contain, skip_left, skip_right};
use crate::tree::PnbBst;

/// Clone a `RangeBounds` into owned start/end bounds.
pub(crate) fn cloned_bounds<K: Clone, R: RangeBounds<K>>(range: &R) -> (Bound<K>, Bound<K>) {
    (range.start_bound().cloned(), range.end_bound().cloned())
}

/// `ScanHelper` over the version-`seq` tree, in ascending key order, or
/// descending when `DESC`. The direction is a const parameter so the
/// ascending instance carries no direction test in its loop.
pub(crate) struct Walk<'a, K, V, const DESC: bool> {
    tree: &'a PnbBst<K, V>,
    guard: &'a Guard,
    seq: u64,
    /// Subtrees still to visit; the top is the next one. Pooled
    /// (`arena::ScanStack`): a warm walk allocates nothing.
    stack: ScanStack<Node<K, V>>,
}

impl<'a, K, V, const DESC: bool> Walk<'a, K, V, DESC>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Walk the version-`seq` tree. The caller is responsible for `seq`
    /// being a *closed* phase (a counter value that has already been
    /// incremented past), which is what makes the traversal wait-free.
    pub(crate) fn new(tree: &'a PnbBst<K, V>, guard: &'a Guard, seq: u64) -> Self {
        let mut stack = ScanStack::new();
        stack.push(tree.root);
        Walk {
            tree,
            guard,
            seq,
            stack,
        }
    }

    /// The next leaf whose key lies within the bounds `lo` and `hi`, or
    /// `None` once the walk is exhausted. Callers pass the same bounds on
    /// every call.
    #[inline]
    pub(crate) fn next_leaf(&mut self, lo: Bound<&K>, hi: Bound<&K>) -> Option<(&'a K, &'a V)> {
        while let Some(ptr) = self.stack.pop() {
            // SAFETY: every stacked pointer is the root or came from
            // `read_child` under `self.guard`, which outlives `'a`.
            let node: &'a Node<K, V> = unsafe { &*ptr };
            if node.is_leaf() {
                // Line 137: {node.key} ∩ bounds — sentinels never match.
                if let SKey::Fin(k) = &node.key {
                    if bounds_contain(&lo, &hi, k) {
                        return Some((k, node.value().expect("finite leaf has a value")));
                    }
                }
                continue;
            }
            // Lines 139–140: help in-progress updates before descending
            // so this phase's cut stays consistent. SeqCst load: the
            // scanner half of the handshake pair (`load_update_scan`).
            let w = node.load_update_scan(self.guard);
            // SAFETY: update words point at live Infos while pinned.
            // Acquire: pairs with the AcqRel state transitions.
            let st = unsafe { (*w.info()).state.load(Acquire) };
            if st == state::UNDECIDED || st == state::TRY {
                self.tree.stats.scan_helps();
                self.tree.help(w.info(), self.guard);
            }
            // Lines 141–144: descend into the version-seq children that
            // may intersect the bounds. The child pushed last pops first:
            // ascending pushes right then left, descending the reverse.
            if DESC {
                if !skip_left(&lo, &node.key) {
                    self.push_child(node, true);
                }
                if !skip_right(&hi, &node.key) {
                    self.push_child(node, false);
                }
            } else {
                if !skip_right(&hi, &node.key) {
                    self.push_child(node, false);
                }
                if !skip_left(&lo, &node.key) {
                    self.push_child(node, true);
                }
            }
        }
        None
    }

    #[inline]
    fn push_child(&mut self, node: &Node<K, V>, left: bool) {
        let child = self.tree.read_child(node, left, self.seq, self.guard);
        self.stack.push(child.as_raw());
    }
}

/// A lazy, wait-free iterator over the key/value pairs of one tree
/// version, in ascending key order.
///
/// Created by [`Handle::range`](crate::Handle::range) /
/// [`Handle::iter`](crate::Handle::iter) (which close the current phase,
/// like a scan) or by [`Snapshot::range`](crate::Snapshot::range) /
/// [`Snapshot::iter`](crate::Snapshot::iter) (which reuse the snapshot's
/// already-closed phase). Yields clones; keys and values never alias
/// tree memory, so items stay valid after the iterator, its handle, or
/// its snapshot are gone.
///
/// Dropping the iterator early is free — traversal work is done in
/// `next`, so `take(n)`/`find(..)` pay only for what they consume.
pub struct Range<'a, K, V> {
    walk: Walk<'a, K, V, false>,
    lo: Bound<K>,
    hi: Bound<K>,
}

impl<'a, K, V> Range<'a, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Build an iterator over the version-`seq` tree, which must be a
    /// closed phase (see [`Walk::new`]).
    pub(crate) fn new(
        tree: &'a PnbBst<K, V>,
        guard: &'a Guard,
        seq: u64,
        lo: Bound<K>,
        hi: Bound<K>,
    ) -> Self {
        Range {
            walk: Walk::new(tree, guard, seq),
            lo,
            hi,
        }
    }

    /// The phase (sequence number) this iterator reads.
    pub fn seq(&self) -> u64 {
        self.walk.seq
    }
}

impl<K, V> Iterator for Range<'_, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        self.walk
            .next_leaf(self.lo.as_ref(), self.hi.as_ref())
            .map(|(k, v)| (k.clone(), v.clone()))
    }
}

impl<K, V> FusedIterator for Range<'_, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
}

impl<K, V> std::fmt::Debug for Range<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Range")
            .field("seq", &self.walk.seq)
            .field("pending_subtrees", &self.walk.stack.len())
            .finish()
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Start a lazy range scan under a caller-provided guard: closes the
    /// current phase and returns the iterator over its version of the
    /// tree.
    pub(crate) fn range_in<'a>(
        &'a self,
        lo: Bound<K>,
        hi: Bound<K>,
        guard: &'a Guard,
    ) -> Range<'a, K, V> {
        Range::new(self, guard, self.close_phase(), lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    fn populated() -> PnbBst<i64, i64> {
        let t = PnbBst::new();
        for k in [8, 3, 10, 1, 6, 14, 4, 7, 13] {
            assert!(t.insert(k, k * 100));
        }
        t
    }

    #[test]
    fn lazy_range_matches_eager_scan() {
        let t = populated();
        let guard = &epoch::pin();
        let lazy: Vec<(i64, i64)> = t
            .range_in(Bound::Included(3), Bound::Included(10), guard)
            .collect();
        assert_eq!(lazy, t.range_scan(&3, &10));
    }

    #[test]
    fn descending_scan_reverses_ascending() {
        fn keys<const DESC: bool>(t: &PnbBst<i64, i64>, guard: &Guard, seq: u64) -> Vec<i64> {
            let mut walk = Walk::<_, _, DESC>::new(t, guard, seq);
            let mut out = Vec::new();
            while let Some((k, _)) = walk.next_leaf(Bound::Unbounded, Bound::Unbounded) {
                out.push(*k);
            }
            out
        }
        let t = populated();
        let guard = &epoch::pin();
        let seq = t.close_phase();
        let asc = keys::<false>(&t, guard, seq);
        let mut desc = keys::<true>(&t, guard, seq);
        desc.reverse();
        assert_eq!(asc, desc);
        assert!(!asc.is_empty());
    }

    #[test]
    fn iterator_is_lazy_and_fused() {
        let t = populated();
        let guard = &epoch::pin();
        let mut it = t.range_in(Bound::Unbounded, Bound::Unbounded, guard);
        assert_eq!(it.next().map(|(k, _)| k), Some(1));
        assert_eq!(it.next().map(|(k, _)| k), Some(3));
        // Abandon early: remaining work is simply never done.
        drop(it);
        let mut it = t.range_in(Bound::Included(100), Bound::Unbounded, guard);
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None); // fused
    }

    #[test]
    fn each_lazy_range_closes_a_phase() {
        let t = populated();
        let before = t.phase();
        let guard = &epoch::pin();
        let _ = t.range_in(Bound::Unbounded, Bound::Unbounded, guard);
        let _ = t.range_in(Bound::Unbounded, Bound::Unbounded, guard);
        assert_eq!(t.phase(), before + 2);
    }

    #[test]
    fn inverted_bounds_yield_empty_without_panicking() {
        let t = populated();
        let guard = &epoch::pin();
        let got: Vec<_> = t
            .range_in(Bound::Included(10), Bound::Included(3), guard)
            .collect();
        assert!(got.is_empty());
        let got: Vec<_> = t
            .range_in(Bound::Excluded(5), Bound::Excluded(5), guard)
            .collect();
        assert!(got.is_empty());
    }
}
