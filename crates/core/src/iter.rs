//! The one traversal of a tree version, and its lazy iterator form.
//!
//! [`Walk`] is the paper's `ScanHelper` (Figure 4, lines 134–146): an
//! explicit-stack walk of the version-`seq` tree that helps on the way
//! down, prunes by bounds and yields one matching leaf per call, by
//! reference. Every read of a closed phase runs on it — [`Range`] keeps
//! one alive between `next` calls, and the [`Snapshot`](crate::Snapshot)
//! visitors and ordered queries drive one to completion or to its first
//! leaf. Nothing proportional to the result set is ever allocated.
//!
//! # Lock-step lanes
//!
//! A depth-first walk waits on one dependent cache miss per internal
//! node: the node's `Info` line, then its children's lines. So the walk
//! expands pending subtrees in rounds of up to [`LANES`] internal nodes,
//! gathered from the top [`WINDOW`] pending subtrees (DESIGN.md §11.4).
//! Pass 1 reads each lane's update word and prefetches its `Info` and
//! both child lines; pass 2 runs the per-node body — help, then
//! `ReadChild` — on lines that are by then in flight together. Each node
//! still does the paper's steps in the paper's order; only steps on
//! disjoint subtrees interleave, so the walk reads and helps the same
//! nodes a depth-first one would, in a different order, and still
//! yields leaves in key order.
//!
//! Each pending subtree is two stack words: the node, then a flag word
//! that says whether it is a leaf (set when `ReadChild` returns it), so
//! gathering lanes reads only the stack, and no node's address waits on
//! a load from its own line. A round raises the stack by at most
//! `LANES` subtrees, and a walk keeps about `LANES` of them per tree
//! level: the stack stays within `LANES × (height + 1)` subtrees (the
//! tests check it on balanced, random and path-shaped trees) — never a
//! recursion, which an unbalanced tree could make O(n) deep.
//!
//! The wait-freedom argument: the walk's phase was closed before it
//! started (the counter was incremented, or the snapshot it reads from
//! closed one earlier), so the subgraph it can traverse is finite and
//! immutable no matter how fast concurrent updates run. Helping on the
//! way down (lines 139–140) happens per `next_leaf` call, exactly as it
//! would inside one long scan.

use crossbeam_epoch::Guard;
use std::iter::FusedIterator;
use std::mem::MaybeUninit;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering::Acquire;

use crate::arena::ScanStack;
use crate::info::{state, InfoPtr};
use crate::key::SKey;
use crate::node::{prefetch, Node};
use crate::scan::{bounds_contain, skip_left, skip_right};
use crate::tree::PnbBst;

/// Most internal nodes one round of [`Walk::next_leaf`] expands: the
/// `Info` and child lines of up to 16 nodes are in flight at once, as
/// many as a batch's lock-step walk keeps (DESIGN.md §11.4).
const LANES: usize = 16;

/// Most pending subtrees one round looks through for its lanes. Leaves
/// in between stay where they are; about half of a walk's subtrees are
/// leaves, so twice `LANES` usually fills every lane.
const WINDOW: usize = 2 * LANES;

/// Clone a `RangeBounds` into owned start/end bounds.
pub(crate) fn cloned_bounds<K: Clone, R: RangeBounds<K>>(range: &R) -> (Bound<K>, Bound<K>) {
    (range.start_bound().cloned(), range.end_bound().cloned())
}

/// The flag word stored after a node on the walk's stack: address 1
/// for a leaf, 0 for an internal node. Never dereferenced.
#[inline]
fn leaf_flag<K, V>(node: &Node<K, V>) -> *const Node<K, V> {
    std::ptr::without_provenance(usize::from(node.is_leaf()))
}

/// `ScanHelper` over the version-`seq` tree, in ascending key order, or
/// descending when `DESC`. The direction is a const parameter so the
/// ascending instance carries no direction test in its loop.
pub(crate) struct Walk<'a, K, V, const DESC: bool> {
    tree: &'a PnbBst<K, V>,
    guard: &'a Guard,
    seq: u64,
    /// Subtrees still to visit, each a node and its [`leaf_flag`]; the
    /// top one is the next. Pooled (`arena::ScanStack`): a warm walk
    /// allocates nothing.
    stack: ScanStack<Node<K, V>>,
    /// Nodes visited: internal nodes expanded plus leaves consumed.
    /// Added to the tree's counters when the walk ends, with `prev_hops`.
    nodes_read: u64,
    /// `prev` hops taken inside `ReadChild`.
    prev_hops: u64,
}

impl<K, V, const DESC: bool> Walk<'_, K, V, DESC> {
    /// Subtrees still to visit.
    fn pending(&self) -> usize {
        self.stack.len() / 2
    }
}

impl<K, V, const DESC: bool> Drop for Walk<'_, K, V, DESC> {
    fn drop(&mut self) {
        self.tree.stats.walk(self.nodes_read, self.prev_hops);
    }
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
        // SAFETY: the root is never replaced and lives as long as the tree.
        stack.extend([tree.root, leaf_flag(unsafe { &*tree.root })]);
        Walk {
            tree,
            guard,
            seq,
            stack,
            nodes_read: 0,
            prev_hops: 0,
        }
    }

    /// The next leaf whose key lies within the bounds `lo` and `hi`, or
    /// `None` once the walk is exhausted. Callers pass the same bounds on
    /// every call.
    #[inline]
    pub(crate) fn next_leaf(&mut self, lo: Bound<&K>, hi: Bound<&K>) -> Option<(&'a K, &'a V)> {
        loop {
            let &[node, flag] = self.stack.last_chunk()?;
            if flag.is_null() {
                self.round(lo, hi);
                continue;
            }
            let n = self.stack.len();
            self.stack.truncate(n - 2);
            self.nodes_read += 1;
            // SAFETY: every stacked node is the root or came from
            // `read_child` under `self.guard`, which outlives `'a`.
            let leaf: &'a Node<K, V> = unsafe { &*node };
            // Line 137: {leaf.key} ∩ bounds — sentinels never match.
            if let SKey::Fin(k) = &leaf.key {
                if bounds_contain(&lo, &hi, k) {
                    return Some((k, leaf.value().expect("finite leaf has a value")));
                }
            }
        }
    }

    /// Expand up to [`LANES`] internal nodes from the top [`WINDOW`]
    /// pending subtrees in lock-step; the top one is internal. Each lane
    /// is replaced in place by its in-bound children, so the stack stays
    /// in key order.
    fn round(&mut self, lo: Bound<&K>, hi: Bound<&K>) {
        let guard = self.guard;
        let top = self.pending();
        let words = self.stack.as_mut_ptr();
        // SAFETY (both): `i < top`, so both words are initialised.
        let node_at = |i: usize| unsafe { &**words.add(2 * i) };
        let is_leaf_at = |i: usize| unsafe { !(*words.add(2 * i + 1)).is_null() };
        // Gather, top down, the positions of the internal subtrees, as
        // offsets above `floor`. A leaf's offset is written and then
        // overwritten: no branch.
        let floor = top.saturating_sub(WINDOW);
        let mut lanes = [0u8; LANES];
        lanes[0] = (top - 1 - floor) as u8;
        let (mut m, mut i) = (1, top - 1);
        while m < LANES && i > floor {
            i -= 1;
            lanes[m] = (i - floor) as u8;
            m += usize::from(!is_leaf_at(i));
        }

        // Pass 1: line 139's read of each lane's update word, the lines
        // pass 2 reads requested together, and the children to descend
        // into (lines 141–144), the one that pops first first.
        let mut infos = [const { MaybeUninit::<InfoPtr<K, V>>::uninit() }; LANES];
        let mut kids = [(false, false); LANES];
        let mut grow = 0;
        for (j, &at) in lanes[..m].iter().enumerate() {
            // SAFETY: as in `next_leaf`.
            let node = node_at(floor + usize::from(at));
            // SeqCst load: the scanner half of the handshake pair
            // (`load_update_scan`).
            let info = node.load_update_scan(guard).info();
            infos[j].write(info);
            prefetch(info);
            prefetch(node.load_child(true, guard).as_raw());
            prefetch(node.load_child(false, guard).as_raw());
            let (left, right) = (!skip_left(&lo, &node.key), !skip_right(&hi, &node.key));
            if !left && !right {
                // Only an empty range prunes both sides: nothing can match.
                self.stack.clear();
                return;
            }
            kids[j] = if DESC { (right, left) } else { (left, right) };
            grow += usize::from(left && right);
        }

        // Pass 2, top lane first: the stack is rebuilt from the top
        // down, each lane's children taking its place and every subtree
        // between lanes moving up by the growth still below it, so no
        // word is overwritten before it is read.
        self.stack.reserve(2 * grow);
        let words = self.stack.as_mut_ptr();
        // SAFETY (both): callers keep `r < top` (initialised) and
        // `w < top + grow` (within the capacity just reserved).
        let read = |r: usize| unsafe { [*words.add(2 * r), *words.add(2 * r + 1)] };
        let write = |w: usize, [node, flag]: [*const Node<K, V>; 2]| unsafe {
            words.add(2 * w).write(node);
            words.add(2 * w + 1).write(flag);
        };
        let (mut r, mut w) = (top, top + grow);
        for (j, &at) in lanes[..m].iter().enumerate() {
            let at = floor + usize::from(at);
            while r > at + 1 {
                r -= 1;
                w -= 1;
                write(w, read(r));
            }
            r = at;
            // SAFETY: as in `next_leaf`; pass 1 wrote `infos[j]`.
            let (node, info) = unsafe { (&*read(at)[0], infos[j].assume_init()) };
            // Lines 139–140: help in-progress updates before descending
            // so this phase's cut stays consistent. SAFETY: update words
            // point at live Infos while pinned. Acquire: pairs with the
            // AcqRel state transitions.
            let st = unsafe { (*info).state.load(Acquire) };
            if st == state::UNDECIDED || st == state::TRY {
                self.tree.stats.scan_helps();
                self.tree.help(info, guard);
            }
            self.nodes_read += 1;
            // Lines 141–144: the version-seq children, the one that pops
            // first on top: left when ascending, right when descending.
            // The lane's words were read above, and `at <= w`.
            let (first, second) = kids[j];
            if first {
                w -= 1;
                write(w, self.read_child(node, !DESC));
            }
            if second {
                w -= 1;
                write(w, self.read_child(node, DESC));
            }
        }
        debug_assert_eq!(r, w);
        // SAFETY: every subtree up to `top + grow` is now written.
        unsafe { self.stack.set_len(2 * (top + grow)) };
    }

    /// `ReadChild(node, left, seq)`, as the child's two stack words.
    #[inline]
    fn read_child(&mut self, node: &Node<K, V>, left: bool) -> [*const Node<K, V>; 2] {
        let child = self
            .tree
            .read_child(node, left, self.seq, self.guard, &mut self.prev_hops);
        // SAFETY: read_child returns a non-null node reachable under the
        // guard, whose `seq` it has just read.
        [child.as_raw(), leaf_flag(unsafe { child.deref() })]
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
            .field("pending_subtrees", &self.walk.pending())
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
        assert_eq!(lazy, t.snapshot().range_scan(&3, &10));
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

    /// What a walk over `T_seq` within `lo..=hi` must read, counted by a
    /// recursion that shares no code with [`Walk`]: the nodes whose key
    /// interval `[a, b)` meets the bounds, the `prev` hops `ReadChild`
    /// takes to reach them, and the height of `T_seq`. Sentinel keys
    /// count as `i128::MAX`.
    fn reference(
        node: &Node<i64, i64>,
        seq: u64,
        (a, b): (i128, i128),
        (lo, hi): (i128, i128),
        guard: &Guard,
    ) -> (u64, u64, usize) {
        if node.is_leaf() {
            return (1, 0, 0);
        }
        let k = match node.key {
            SKey::Fin(k) => i128::from(k),
            _ => i128::MAX,
        };
        let (mut nodes, mut hops, mut height) = (1, 0, 0);
        for (left, (ca, cb)) in [(true, (a, k)), (false, (k, b))] {
            if ca > hi || lo >= cb {
                continue;
            }
            let mut child = node.load_child(left, guard).as_raw();
            // SAFETY: reachable under the caller's guard.
            while unsafe { (*child).seq } > seq {
                child = unsafe { (*child).prev };
                hops += 1;
            }
            let (n, h, d) = reference(unsafe { &*child }, seq, (ca, cb), (lo, hi), guard);
            nodes += n;
            hops += h;
            height = height.max(d + 1);
        }
        (nodes, hops, height)
    }

    /// Run `walk` to the end; returns the keys and the deepest stack.
    fn drain<const DESC: bool>(
        walk: &mut Walk<'_, i64, i64, DESC>,
        lo: Bound<&i64>,
        hi: Bound<&i64>,
    ) -> (Vec<i64>, usize) {
        let (mut keys, mut deepest) = (Vec::new(), walk.pending());
        while let Some((k, _)) = walk.next_leaf(lo, hi) {
            keys.push(*k);
            deepest = deepest.max(walk.pending());
        }
        (keys, deepest)
    }

    #[test]
    fn walk_reads_exactly_the_version_nodes_its_bounds_meet() {
        let t = PnbBst::from_sorted((0..4096).map(|k| (2 * k, k)).collect());
        let snap = t.snapshot();
        let seq = snap.seq();
        let expected = t.snapshot().to_vec();
        // Updates the snapshot never sees: odd inserts, even deletes, and
        // a few pointers replaced several times, so `prev` chains grow.
        for i in 0..1500i64 {
            let k = (i * 37) % 8192;
            if k % 2 == 1 {
                t.insert(k, -k);
            } else {
                t.delete(&k);
            }
        }
        for k in [1001i64, 5051] {
            for _ in 0..5 {
                t.delete(&k);
                t.insert(k, k);
            }
        }
        let guard = &epoch::pin();
        // SAFETY: the root lives as long as the tree.
        let root = unsafe { &*t.root };
        let all = (i128::MIN, i128::MAX);
        let mut total_hops = 0;
        for (lo, hi) in [(i64::MIN, i64::MAX), (1000, 3000), (5001, 5100)] {
            let (lo_b, hi_b) = if lo == i64::MIN {
                (Bound::Unbounded, Bound::Unbounded)
            } else {
                (Bound::Included(&lo), Bound::Included(&hi))
            };
            let before = t.stats();
            let mut walk = Walk::<_, _, false>::new(&t, guard, seq);
            let (keys, _) = drain(&mut walk, lo_b, hi_b);
            drop(walk);
            let read = t.stats();
            let want: Vec<i64> = expected
                .iter()
                .map(|&(k, _)| k)
                .filter(|k| (lo..=hi).contains(k))
                .collect();
            assert_eq!(keys, want, "{lo}..={hi}: the snapshot's keys");
            let bounds = if lo == i64::MIN {
                all
            } else {
                (lo.into(), hi.into())
            };
            let (nodes, hops, _) = reference(root, seq, all, bounds, guard);
            let nodes_read = read.walk_nodes - before.walk_nodes;
            let prev_hops = read.walk_prev_hops - before.walk_prev_hops;
            let helps = read.scan_helps - before.scan_helps;
            assert_eq!(nodes_read, nodes, "{lo}..={hi}: nodes read");
            assert_eq!(prev_hops, hops, "{lo}..={hi}: prev hops");
            assert_eq!(helps, 0, "{lo}..={hi}: nothing was in flight");
            total_hops += hops;
        }
        assert!(total_hops > 0, "the updates must have grown prev chains");
        drop(snap);
    }

    #[test]
    fn first_keys_read_a_bounded_prefix() {
        let t = PnbBst::from_sorted((0..4096).map(|k| (k, k)).collect());
        let guard = &epoch::pin();
        let seq = t.close_phase();
        // SAFETY: the root lives as long as the tree.
        let (_, _, height) = reference(
            unsafe { &*t.root },
            seq,
            (i128::MIN, i128::MAX),
            (i128::MIN, i128::MAX),
            guard,
        );
        let bound = (height as u64 + 1) * LANES as u64;
        let mut it = Range::new(&t, guard, seq, Bound::Unbounded, Bound::Unbounded);
        let first: Vec<i64> = it.by_ref().take(3).map(|(k, _)| k).collect();
        assert_eq!(first, [0, 1, 2]);
        assert!(
            it.walk.nodes_read <= bound,
            "take(3) read {} > {bound}",
            it.walk.nodes_read
        );
        // What `first_key_value` runs: one leaf of an ascending walk.
        let mut walk = Walk::<_, _, false>::new(&t, guard, seq);
        assert_eq!(
            walk.next_leaf(Bound::Unbounded, Bound::Unbounded)
                .map(|(k, _)| *k),
            Some(0)
        );
        assert!(
            walk.nodes_read <= bound,
            "first key read {} > {bound}",
            walk.nodes_read
        );
    }

    #[test]
    fn stack_stays_within_lanes_per_level() {
        let sorted = PnbBst::from_sorted((0..1 << 14).map(|k| (k, k)).collect());
        let random = PnbBst::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1 << 14 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % (1 << 16)) as i64;
            random.insert(k, k);
        }
        let path = PnbBst::new();
        for k in 0..512 {
            path.insert(k, k);
        }
        for t in [&sorted, &random, &path] {
            let guard = &epoch::pin();
            let seq = t.close_phase();
            let all = (i128::MIN, i128::MAX);
            // SAFETY: the root lives as long as the tree.
            let (_, _, height) = reference(unsafe { &*t.root }, seq, all, all, guard);
            let bound = (height + 1) * LANES;
            let (keys, deepest) = drain(
                &mut Walk::<_, _, false>::new(t, guard, seq),
                Bound::Unbounded,
                Bound::Unbounded,
            );
            assert_eq!(keys.len(), t.snapshot().len());
            assert!(deepest <= bound, "stack reached {deepest} > {bound}");
            let (_, deepest) = drain(
                &mut Walk::<_, _, true>::new(t, guard, seq),
                Bound::Unbounded,
                Bound::Unbounded,
            );
            assert!(
                deepest <= bound,
                "descending stack reached {deepest} > {bound}"
            );
        }
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
