//! Batched hot-path operations: `multi_get` / `apply_batch` over a
//! shared descent prefix (DESIGN.md §11).
//!
//! A singleton operation pays a full root-to-leaf descent. A batch
//! sorted by key walks the tree in key order, so consecutive operations
//! usually share most of their descent path; this module retains the
//! internal nodes of the previous descent on a pooled stack and resumes
//! from the deepest frame whose subtree still covers the next key.
//!
//! # Why resuming from a retained frame is safe
//!
//! Routing fields (`key`, and a node's position once linked) are
//! immutable (paper Observation 1), so a retained pointer still *routes*
//! correctly — the only hazard is that a retained node has been detached
//! from the current tree by a concurrent (or our own) update. Every
//! detachment in the PNB-BST protocol permanently *marks* the detached
//! node first (mark permanence, paper Lemma 23), and `validate_leaf`
//! fails on any frozen parent/grandparent, so an update or read resumed
//! below a detached frame can never commit: it fails validation,
//! retreats strictly above the frame it resumed from (see
//! [`PrefixStack::retreat`] for why popping just one frame is not
//! enough to guarantee progress) and retries, degenerating to the
//! singleton root descent in the worst case. Prefix reuse is therefore
//! purely a performance device — linearizability is still carried
//! entirely by the freeze-validate-CAS protocol.
//!
//! Each operation in the batch re-reads the phase counter, so a batch
//! does **not** form an atomic multi-op transaction: it linearizes as
//! the sequence of its constituent operations (duplicate keys resolve in
//! batch order thanks to the stable sort).
//!
//! # Overlapping the misses
//!
//! A descent is a chain of dependent loads, so one descent waits on one
//! cache miss at a time. Before executing each window of at most
//! [`WARM_LANES`] sorted operations, [`PnbBst::warm_paths`] walks the
//! window's root-to-leaf paths in lock-step, prefetching every child it
//! moves to, so the window's misses are in flight together and the
//! execution that follows finds its lines in cache (DESIGN.md §11.4).
//! The walk is only a cache hint: it reads immutable routing fields and
//! child words, never `prev`, an `update` word or an `Info`, and it
//! writes nothing.

use crossbeam_epoch::{Guard, Shared};

use crate::arena::ScanStack;
use crate::node::{prefetch, Node};
use crate::search::SearchTriple;
use crate::tree::{PnbBst, Update};

/// Most operations one [`PnbBst::warm_paths`] walk covers: a shard
/// bucket of a 64-op frame (≈ 8 ops) fits in one window, and 16 lanes
/// stay within the core's outstanding-miss buffers (DESIGN.md §11.4).
const WARM_LANES: usize = 16;

/// One operation in an [`apply_batch`](crate::Handle::apply_batch) call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp<K, V> {
    /// Look up the key (the paper's `Find`).
    Get(K),
    /// Set-semantics insert: succeeds iff the key is absent.
    Insert(K, V),
    /// Atomic insert-or-replace, returning the displaced value.
    Upsert(K, V),
    /// Remove the key, returning its value.
    Delete(K),
}

impl<K, V> BatchOp<K, V> {
    /// The key this operation targets.
    pub fn key(&self) -> &K {
        match self {
            BatchOp::Get(k) | BatchOp::Delete(k) => k,
            BatchOp::Insert(k, _) | BatchOp::Upsert(k, _) => k,
        }
    }
}

/// Per-operation result of a batch, positionally matching the input
/// slice (results are scattered back to submission order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome<V> {
    /// Result of a [`BatchOp::Get`].
    Get(Option<V>),
    /// Result of a [`BatchOp::Insert`]: `true` iff the key was absent.
    Inserted(bool),
    /// Result of a [`BatchOp::Upsert`]: the displaced value.
    Upserted(Option<V>),
    /// Result of a [`BatchOp::Delete`]: the removed value.
    Removed(Option<V>),
}

/// Descent-sharing telemetry for batch calls: how many operations ran
/// and how many of them had to start their descent from the root. The
/// ratio is the direct measure of the prefix sharing the batch API
/// exists for (experiment E13's `ops_per_descent` column).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Operations executed.
    pub ops: u64,
    /// Descents that started at the root (no reusable prefix frame).
    pub root_descents: u64,
}

impl BatchReport {
    /// Operations amortized per root descent (`ops == root_descents`
    /// means no sharing happened; higher is better).
    pub fn ops_per_descent(&self) -> f64 {
        if self.root_descents == 0 {
            0.0
        } else {
            self.ops as f64 / self.root_descents as f64
        }
    }

    /// Accumulate another report into this one.
    pub fn merge(&mut self, other: BatchReport) {
        self.ops += other.ops;
        self.root_descents += other.root_descents;
    }
}

/// Retained descent prefix: frames of `(node, hi)` pairs flattened into
/// one pooled [`ScanStack`] buffer (`node` below `hi`). `node` is an
/// internal node on the previous descent path; `hi` is its exclusive
/// upper bound — the nearest ancestor the path went *left* at (null for
/// the root frame, which is never popped). A frame covers key `k` iff
/// `k < hi.key`; bounds tighten monotonically with depth, so checking
/// the top frame suffices.
struct PrefixStack<K, V> {
    buf: ScanStack<Node<K, V>>,
    /// Frame count at the most recent resume point (recorded by
    /// [`PnbBst::descend_shared`] after its bound-popping, before the
    /// descent pushes deeper frames). [`retreat`](Self::retreat) uses it
    /// to guarantee each failed attempt resumes strictly shallower.
    resume: usize,
}

impl<K, V> PrefixStack<K, V> {
    fn new() -> Self {
        PrefixStack {
            buf: ScanStack::new(),
            resume: 0,
        }
    }

    fn frames(&self) -> usize {
        self.buf.len() / 2
    }

    /// Retreat strictly above the last resume point after a failed
    /// attempt. Popping only the top frame would not be enough: the
    /// failed descent re-pushes the frames it traverses, so from a
    /// permanently detached (marked) resume frame a pop-one policy
    /// re-descends the same dead subtree forever. Truncating to one
    /// frame *above* the resume point instead makes every retry resume
    /// strictly shallower, bottoming out at an empty stack — a fresh
    /// root descent — after at most `depth` failures.
    fn retreat(&mut self) {
        let target = self.resume.saturating_sub(1);
        while self.frames() > target {
            self.pop();
        }
    }

    fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    #[inline]
    fn push(&mut self, node: *const Node<K, V>, hi: *const Node<K, V>) {
        self.buf.push(node);
        self.buf.push(hi);
    }

    #[inline]
    fn pop(&mut self) {
        self.buf.pop();
        self.buf.pop();
    }

    /// `(node, hi)` of the top frame. Callers check `is_empty` first.
    #[inline]
    fn top(&self) -> (*const Node<K, V>, *const Node<K, V>) {
        let hi = self.buf.peek_from_top(0).expect("non-empty prefix stack");
        let node = self.buf.peek_from_top(1).expect("frames are pairs");
        (node, hi)
    }

    /// The `node` of the frame one below the top (the resume point's
    /// parent), if any.
    #[inline]
    fn parent_of_top(&self) -> Option<*const Node<K, V>> {
        self.buf.peek_from_top(3)
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Batched `Find` under a caller-provided guard: results in
    /// submission order.
    pub(crate) fn multi_get_in(
        &self,
        keys: &[K],
        guard: &Guard,
        report: &mut BatchReport,
    ) -> Vec<Option<V>> {
        report.ops += keys.len() as u64;
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        let mut stack: PrefixStack<K, V> = PrefixStack::new();
        for window in order.chunks(WARM_LANES) {
            self.warm_paths(window.iter().map(|&oi| &keys[oi as usize]), guard);
            for &oi in window {
                let k = &keys[oi as usize];
                let locate =
                    |seq, retry| self.descend_shared(k, seq, retry, &mut stack, report, guard);
                out[oi as usize] = self.find(k, locate, guard).and_then(|l| l.value().cloned());
            }
        }
        out
    }

    /// Batched mixed updates under a caller-provided guard: outcomes in
    /// submission order; duplicate keys resolve in batch order (stable
    /// sort).
    pub(crate) fn apply_batch_in(
        &self,
        ops: &[BatchOp<K, V>],
        guard: &Guard,
        report: &mut BatchReport,
    ) -> Vec<BatchOutcome<V>> {
        report.ops += ops.len() as u64;
        let mut order: Vec<u32> = (0..ops.len() as u32).collect();
        order.sort_by(|&a, &b| ops[a as usize].key().cmp(ops[b as usize].key()));
        let mut out: Vec<Option<BatchOutcome<V>>> = (0..ops.len()).map(|_| None).collect();
        let mut stack: PrefixStack<K, V> = PrefixStack::new();
        for window in order.chunks(WARM_LANES) {
            self.warm_paths(window.iter().map(|&oi| ops[oi as usize].key()), guard);
            for &oi in window {
                let op = &ops[oi as usize];
                out[oi as usize] = Some(self.apply_one_shared(op, &mut stack, report, guard));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every op produced an outcome"))
            .collect()
    }

    /// Walk the *current* root-to-leaf paths of up to [`WARM_LANES`]
    /// keys in lock-step, one step per lane per round, prefetching each
    /// child a lane moves to — so the window's cache misses overlap
    /// instead of queueing one descent behind another. A window of one
    /// key is not walked: it has nothing to overlap with.
    ///
    /// Only a cache hint (DESIGN.md §11.4): it reads each node's routing
    /// key and leaf tag and the child word the key routes to, exactly as
    /// `Search` does, and nothing else — no `prev`, no `update` word, no
    /// `Info`, no help, no CAS, no [`BatchReport`] count. The operations
    /// that follow descend and validate on their own.
    ///
    /// Returns `(rounds, nodes)`: the lock-step rounds taken and the
    /// nodes read, the leaves included (`nodes / rounds` is the overlap).
    fn warm_paths<'k>(&self, keys: impl Iterator<Item = &'k K>, guard: &Guard) -> (u32, u32) {
        let mut keys = keys.take(WARM_LANES);
        let Some(first) = keys.next() else {
            return (0, 0);
        };
        let mut lanes: [(*const Node<K, V>, &K); WARM_LANES] = [(self.root, first); WARM_LANES];
        let mut n = 1;
        for k in keys {
            lanes[n].1 = k;
            n += 1;
        }
        if n == 1 {
            return (0, 0);
        }
        let (mut rounds, mut nodes) = (0, 0);
        while n > 0 {
            rounds += 1;
            let mut i = 0;
            while i < n {
                let (node, k) = lanes[i];
                nodes += 1;
                // SAFETY: every lane starts at the root and moves only to
                // a child loaded under this pinned guard, so `node` is
                // not reclaimed before the guard unpins.
                let node = unsafe { &*node };
                if node.is_leaf() {
                    // This lane is done: the last live lane takes its slot.
                    n -= 1;
                    lanes[i] = lanes[n];
                    continue;
                }
                let child = node.load_child(node.key.fin_lt(k), guard).as_raw();
                prefetch(child);
                lanes[i].0 = child;
                i += 1;
            }
        }
        (rounds, nodes)
    }

    /// Run one batch operation to completion from the shared prefix.
    fn apply_one_shared(
        &self,
        op: &BatchOp<K, V>,
        stack: &mut PrefixStack<K, V>,
        report: &mut BatchReport,
        guard: &Guard,
    ) -> BatchOutcome<V> {
        let k = op.key();
        let locate = |seq, retry| self.descend_shared(k, seq, retry, stack, report, guard);
        match op {
            BatchOp::Get(_) => {
                BatchOutcome::Get(self.find(k, locate, guard).and_then(|l| l.value().cloned()))
            }
            BatchOp::Insert(_, v) => {
                BatchOutcome::Inserted(self.drive(&Update::Insert(k, v), locate, guard).is_some())
            }
            BatchOp::Upsert(_, v) => {
                BatchOutcome::Upserted(self.drive(&Update::Upsert(k, v), locate, guard).flatten())
            }
            BatchOp::Delete(_) => {
                let removed = self.drive(&Update::Delete(k), locate, guard);
                if removed.is_some() {
                    // The committed delete detached p (the top frame):
                    // drop it so the next op does not pay a guaranteed
                    // validation failure.
                    stack.pop();
                }
                BatchOutcome::Removed(removed.flatten())
            }
        }
    }

    /// Resume a search for `k` from the retained prefix (root descent if
    /// the stack is empty), pushing every internal node traversed. A
    /// `retry` after a failed attempt first retreats, so it resumes
    /// strictly shallower than the attempt that failed.
    ///
    /// Frames are popped first until the top frame's `hi` bound covers
    /// `k`; because the batch is processed in ascending key order, the
    /// direction previously taken at every retained ancestor is still
    /// the direction a fresh search for `k` would take (left-descent
    /// ancestors bound `k` from above via `hi`; right-descent ancestors
    /// have keys `≤` an earlier batch key `≤ k`).
    fn descend_shared<'g>(
        &self,
        k: &K,
        seq: u64,
        retry: bool,
        stack: &mut PrefixStack<K, V>,
        report: &mut BatchReport,
        guard: &'g Guard,
    ) -> SearchTriple<'g, K, V> {
        if retry {
            stack.retreat();
        }
        if stack.is_empty() {
            stack.push(self.root, std::ptr::null());
            report.root_descents += 1;
        } else {
            loop {
                let (_, hi) = stack.top();
                if hi.is_null() {
                    break; // root frame: covers every key
                }
                // SAFETY: `hi` was reached by a descent under this
                // pinned guard; keys are immutable (Observation 1).
                if unsafe { (*hi).key.fin_lt(k) } {
                    break; // k < hi.key: subtree still covers k
                }
                stack.pop();
            }
        }
        stack.resume = stack.frames(); // retreat target on failure
        let (p_raw, mut hi) = stack.top();
        let mut gp: Shared<'g, Node<K, V>> = match stack.parent_of_top() {
            Some(g) => Shared::from(g),
            None => Shared::null(),
        };
        let mut p: Shared<'g, Node<K, V>> = Shared::from(p_raw);
        // SAFETY: frames hold internal nodes read under this guard.
        let p_ref = unsafe { &*p_raw };
        let mut left = p_ref.key.fin_lt(k);
        let mut l = self.read_child(p_ref, left, seq, guard);
        loop {
            // SAFETY: read_child returns non-null reachable nodes.
            let l_ref = unsafe { l.deref() };
            if l_ref.is_leaf() {
                break;
            }
            // Descending left tightens the bound to the node we leave.
            let child_hi = if left { p.as_raw() } else { hi };
            gp = p;
            p = l;
            hi = child_hi;
            stack.push(p.as_raw(), child_hi);
            left = l_ref.key.fin_lt(k);
            l = self.read_child(l_ref, left, seq, guard);
        }
        (gp, p, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn batch_tree(n: u32) -> PnbBst<u32, u32> {
        let t = PnbBst::new();
        for k in 0..n {
            t.insert(k * 2, k * 20);
        }
        t
    }

    #[test]
    fn multi_get_matches_singletons_and_shares_descents() {
        let t = batch_tree(256);
        let h = t.pin();
        let keys: Vec<u32> = (0..512).collect();
        let (got, report) = h.multi_get_reported(&keys);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(got[i], h.get(k), "key {k}");
        }
        assert_eq!(report.ops, 512);
        assert!(
            report.root_descents < report.ops,
            "a sorted batch over a warm tree must share descents: {report:?}"
        );
    }

    #[test]
    fn multi_get_unsorted_input_keeps_submission_order() {
        let t = batch_tree(64);
        let h = t.pin();
        let keys: Vec<u32> = vec![100, 0, 62, 2, 200, 62];
        let got = h.multi_get(&keys);
        assert_eq!(
            got,
            keys.iter().map(|k| h.get(k)).collect::<Vec<_>>(),
            "results must be scattered back to submission order"
        );
    }

    #[test]
    fn apply_batch_matches_btreemap_oracle() {
        let t: PnbBst<u32, u64> = PnbBst::new();
        let h = t.pin();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut x: u64 = 0xFEED_5EED;
        for round in 0..40 {
            let mut ops = Vec::new();
            for i in 0..50u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = ((x >> 33) % 48) as u32;
                let v = round * 1000 + i;
                ops.push(match (x >> 13) % 4 {
                    0 => BatchOp::Get(k),
                    1 => BatchOp::Insert(k, v),
                    2 => BatchOp::Upsert(k, v),
                    _ => BatchOp::Delete(k),
                });
            }
            let outs = h.apply_batch(&ops);
            for (op, out) in ops.iter().zip(&outs) {
                match (op, out) {
                    (BatchOp::Get(k), BatchOutcome::Get(v)) => {
                        assert_eq!(*v, model.get(k).copied(), "get {k}");
                    }
                    (BatchOp::Insert(k, v), BatchOutcome::Inserted(ok)) => {
                        assert_eq!(*ok, !model.contains_key(k), "insert {k}");
                        model.entry(*k).or_insert(*v);
                    }
                    (BatchOp::Upsert(k, v), BatchOutcome::Upserted(old)) => {
                        assert_eq!(*old, model.insert(*k, *v), "upsert {k}");
                    }
                    (BatchOp::Delete(k), BatchOutcome::Removed(old)) => {
                        assert_eq!(*old, model.remove(k), "delete {k}");
                    }
                    _ => panic!("outcome variant must match op variant"),
                }
            }
        }
        assert_eq!(t.check_invariants(), model.len());
        let snap: Vec<(u32, u64)> = h.range(..).collect();
        assert_eq!(snap, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_keys_resolve_in_batch_order() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        let ops = vec![
            BatchOp::Upsert(7, 1),
            BatchOp::Upsert(7, 2),
            BatchOp::Get(7),
            BatchOp::Delete(7),
            BatchOp::Insert(7, 3),
            BatchOp::Upsert(7, 4),
        ];
        let outs = h.apply_batch(&ops);
        assert_eq!(
            outs,
            vec![
                BatchOutcome::Upserted(None),
                BatchOutcome::Upserted(Some(1)),
                BatchOutcome::Get(Some(2)),
                BatchOutcome::Removed(Some(2)),
                BatchOutcome::Inserted(true),
                BatchOutcome::Upserted(Some(3)),
            ]
        );
        assert_eq!(h.get(&7), Some(4));
    }

    #[test]
    fn batch_of_deletes_drains_the_tree() {
        let t = batch_tree(128);
        let h = t.pin();
        let ops: Vec<BatchOp<u32, u32>> = (0..128).map(|k| BatchOp::Delete(k * 2)).collect();
        let (outs, report) = h.apply_batch_reported(&ops);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(*out, BatchOutcome::Removed(Some(i as u32 * 20)));
        }
        assert_eq!(report.ops, 128);
        assert_eq!(t.check_invariants(), 0);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        let (got, r1) = h.multi_get_reported(&[]);
        assert!(got.is_empty());
        assert_eq!(r1, BatchReport::default());
        assert_eq!(r1.ops_per_descent(), 0.0);
        let (outs, r2) = h.apply_batch_reported(&[]);
        assert!(outs.is_empty());
        assert_eq!(r2, BatchReport::default());
    }

    #[test]
    fn batches_interleave_with_scans_and_snapshots() {
        // Phase bumps between ops of one batch must not confuse the
        // per-op fresh phase reads.
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        let ops: Vec<BatchOp<u32, u32>> = (0..64).map(|k| BatchOp::Upsert(k, k)).collect();
        h.apply_batch(&ops);
        let snap = t.snapshot();
        let ops2: Vec<BatchOp<u32, u32>> = (0..64).map(|k| BatchOp::Upsert(k, k + 100)).collect();
        let outs = h.apply_batch(&ops2);
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(*out, BatchOutcome::Upserted(Some(k as u32)));
        }
        // The snapshot still sees the pre-batch values.
        for k in 0..64 {
            assert_eq!(snap.get(&k), Some(k));
        }
        assert_eq!(t.check_invariants(), 64);
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = BatchReport {
            ops: 10,
            root_descents: 2,
        };
        a.merge(BatchReport {
            ops: 6,
            root_descents: 1,
        });
        assert_eq!(a.ops, 16);
        assert_eq!(a.root_descents, 3);
        assert!((a.ops_per_descent() - 16.0 / 3.0).abs() < 1e-9);
    }

    /// Liveness regression: retreating only one frame per validation
    /// failure is not enough, because the failed re-descent pushes the
    /// frames it traverses back — from a permanently detached (marked)
    /// resume frame, a pop-one policy re-walks the same dead subtree
    /// forever. Two update-only writers on a small key space reproduced
    /// the livelock within milliseconds; with the retreat-above-resume
    /// rule every retry chain bottoms out at a fresh root descent.
    #[test]
    fn contended_batches_stay_live_across_detached_prefixes() {
        let t: std::sync::Arc<PnbBst<u32, u32>> = std::sync::Arc::new(PnbBst::new());
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    let h = t.pin();
                    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid + 1);
                    for round in 0..1_500u32 {
                        let mut ops = Vec::with_capacity(4);
                        for _ in 0..4 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let k = ((x >> 33) % 64) as u32;
                            ops.push(if (x >> 13) & 1 == 0 {
                                BatchOp::Insert(k, round)
                            } else {
                                BatchOp::Delete(k)
                            });
                        }
                        h.apply_batch(&ops);
                    }
                });
            }
            // A reader whose lock-step walks race the detaching deletes.
            let t = std::sync::Arc::clone(&t);
            s.spawn(move || {
                let h = t.pin();
                let keys: Vec<u32> = (0..64).collect();
                for _ in 0..1_500 {
                    for v in h.multi_get(&keys).into_iter().flatten() {
                        assert!(v < 1_500, "{v} is no round a writer used");
                    }
                }
            });
        });
        t.check_invariants();
    }

    /// Root-to-leaf length (internal nodes passed) of `k`'s path in the
    /// current tree, counted along `Search`'s own steps.
    fn path_len(t: &PnbBst<u32, u32>, k: u32, guard: &Guard) -> u32 {
        let seq = t.phase();
        let mut node = unsafe { &*t.root };
        let mut len = 0;
        while !node.is_leaf() {
            node = unsafe { t.read_child(node, node.key.fin_lt(&k), seq, guard).deref() };
            len += 1;
        }
        let (_, _, l) = t.search(&k, seq, guard);
        assert!(
            std::ptr::eq(node, l.as_raw()),
            "the count follows Search's path"
        );
        len
    }

    /// Zero-spread counter for the overlap claim: a 16-key window reads
    /// every node of its 16 paths, in as many rounds as the deepest path
    /// has nodes — so ≈ 16 nodes are in flight per round.
    #[test]
    fn warm_walk_visits_every_path_node_in_lock_step() {
        let t = PnbBst::from_sorted((0..4_096u32).map(|k| (k, k)).collect());
        let guard = &crossbeam_epoch::pin();
        let window: Vec<u32> = (0..16).map(|i| i * 256 + 17).collect();
        let (rounds, nodes) = t.warm_paths(window.iter(), guard);
        let lens: Vec<u32> = window.iter().map(|&k| path_len(&t, k, guard)).collect();
        assert_eq!(nodes, lens.iter().map(|d| d + 1).sum::<u32>());
        assert_eq!(rounds, lens.iter().max().unwrap() + 1);
        assert!(
            nodes >= 15 * rounds,
            "overlap {nodes}/{rounds} must be ≈ 16"
        );
        assert_eq!(t.warm_paths([5u32].iter(), guard), (0, 0));
        assert_eq!(t.warm_paths([].iter(), guard), (0, 0));

        // The walk counts nothing in the report: these are the numbers
        // the batch path reported before the walk existed.
        let ops: Vec<BatchOp<u32, u32>> = (0..64u32)
            .map(|i| match i % 4 {
                0 => BatchOp::Get(i * 61),
                1 => BatchOp::Insert(i * 61 + 4_096, i),
                2 => BatchOp::Upsert(i * 61, i),
                _ => BatchOp::Delete(i * 61),
            })
            .collect();
        let h = t.pin();
        let (_, report) = h.apply_batch_reported(&ops);
        assert_eq!(
            report,
            BatchReport {
                ops: 64,
                root_descents: 1
            }
        );
        let (_, report) = h.multi_get_reported(&window);
        assert_eq!(
            report,
            BatchReport {
                ops: 16,
                root_descents: 1
            }
        );
    }
}
