//! Lazy, wait-free range iteration over the version-`seq` tree.
//!
//! [`Range`] is the iterator form of the paper's `ScanHelper` (Figure 4,
//! lines 134–146): instead of materializing a `Vec` or driving a
//! visitor, it keeps the explicit traversal stack alive between `next`
//! calls and yields one matching leaf at a time, in ascending key order.
//! Nothing proportional to the result set is ever allocated — the only
//! allocation is the descent stack, which is bounded by the tree height.
//!
//! The wait-freedom argument is unchanged: the iterator's phase was
//! closed when it was created (the counter was incremented, or the
//! [`Snapshot`](crate::Snapshot) it reads from closed one earlier), so
//! the subgraph it can traverse is finite and immutable no matter how
//! fast concurrent updates run. Helping on the way down (lines 139–140)
//! happens per `next` call, exactly as it would inside one long scan.

use crossbeam_epoch::Guard;
use std::iter::FusedIterator;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering::{Acquire, SeqCst};

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
    tree: &'a PnbBst<K, V>,
    guard: &'a Guard,
    seq: u64,
    lo: Bound<K>,
    hi: Bound<K>,
    /// Descent stack over the version-`seq` tree; the top is the next
    /// subtree to visit, ascending order ⇒ left pushed last. Pooled
    /// (`arena::ScanStack`): warm iteration allocates nothing.
    stack: ScanStack<Node<K, V>>,
}

impl<'a, K, V> Range<'a, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Build an iterator over the version-`seq` tree. The caller is
    /// responsible for `seq` being a *closed* phase (a counter value that
    /// has already been incremented past), which is what makes the
    /// traversal wait-free.
    pub(crate) fn new(
        tree: &'a PnbBst<K, V>,
        guard: &'a Guard,
        seq: u64,
        lo: Bound<K>,
        hi: Bound<K>,
    ) -> Self {
        let mut stack = ScanStack::new();
        stack.push(tree.root);
        Range {
            tree,
            guard,
            seq,
            lo,
            hi,
            stack,
        }
    }

    /// The phase (sequence number) this iterator reads.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl<K, V> Iterator for Range<'_, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        while let Some(ptr) = self.stack.pop() {
            // SAFETY: every stacked pointer is the root or came from
            // `read_child` under `self.guard`, which outlives `self`.
            let node = unsafe { &*ptr };
            if node.is_leaf() {
                // Line 137: {node.key} ∩ bounds — sentinels never match.
                if let SKey::Fin(k) = &node.key {
                    if bounds_contain(&self.lo.as_ref(), &self.hi.as_ref(), k) {
                        let v = node.value().cloned().expect("finite leaf has a value");
                        return Some((k.clone(), v));
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
            // may intersect the bounds; right first so left pops first.
            if !skip_right(&self.hi.as_ref(), &node.key) {
                self.stack.push(
                    self.tree
                        .read_child(node, false, self.seq, self.guard)
                        .as_raw(),
                );
            }
            if !skip_left(&self.lo.as_ref(), &node.key) {
                self.stack.push(
                    self.tree
                        .read_child(node, true, self.seq, self.guard)
                        .as_raw(),
                );
            }
        }
        None
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
            .field("seq", &self.seq)
            .field("pending_subtrees", &self.stack.len())
            .finish()
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Start a lazy range scan under a caller-provided guard: closes the
    /// current phase (fetch-and-increment, paper lines 130–131) and
    /// returns the iterator over its version of the tree.
    pub(crate) fn range_in<'a>(
        &'a self,
        lo: Bound<K>,
        hi: Bound<K>,
        guard: &'a Guard,
    ) -> Range<'a, K, V> {
        self.stats.scans();
        // sc-ok: phase close — the scanner half of the handshake pair
        // (§4.1); see `PnbBst::range_scan_with`.
        let seq = self.counter.fetch_add(1, SeqCst); // sc-ok: phase close
        Range::new(self, guard, seq, lo, hi)
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
