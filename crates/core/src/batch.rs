//! Batched hot-path operations (DESIGN.md §11): [`apply_batch_across`],
//! behind `Handle::{apply_batch, multi_get}` and the sharded session's.
//!
//! The ops are stable-sorted by (tree, key) and run in windows of at
//! most [`LANES`]; a window may span trees. [`search_lanes`] first runs
//! each op's `seq := Counter; Search(k, seq)` (paper Figure 3, lines
//! 32–42), interleaved with the window's other lanes so that their cache
//! misses overlap (DESIGN.md §11.4); each op's first attempt then
//! validates and executes from its lane's `(gp, p, l)` at that `seq`.
//! The delay is one the asynchronous model allows: a triple gone stale
//! meanwhile (an earlier op of the frame, a concurrent update, a closed
//! phase) fails validation or the handshake, as a slow singleton's does.
//!
//! A retry re-descends from a retained prefix: the internal nodes of the
//! tree's previous retry, resuming from the deepest frame whose subtree
//! still covers the key, so lanes that go stale behind one another share
//! their re-descents. Routing fields are immutable (paper Observation 1),
//! so a retained pointer still routes correctly; a retained node may have
//! been detached, but every detachment marks the node first (Lemma 23)
//! and `validate_leaf` fails on a frozen parent or grandparent, so an op
//! resumed below a detached frame cannot commit: it retreats strictly
//! above its resume frame ([`PrefixStack::retreat`]) and retries, down to
//! a root descent. Linearizability rests on freeze-validate-CAS alone; a
//! batch is the sequence of its ops, not a transaction.

use crossbeam_epoch::{Guard, Shared};

use crate::arena::ScanStack;
use crate::handle::Handle;
use crate::node::{prefetch, Node};
use crate::search::{Located, SearchTriple};
use crate::tree::{PnbBst, Update};

/// Most ops one lock-step search runs: 16 lanes stay within the core's
/// outstanding-miss buffers (DESIGN.md §11.4).
const LANES: usize = 16;

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

impl<V> BatchOutcome<V> {
    /// The value the outcome carries: what a `Get` found, an `Upsert`
    /// displaced or a `Delete` removed (`None` for an `Insert`).
    pub fn into_value(self) -> Option<V> {
        match self {
            BatchOutcome::Get(v) | BatchOutcome::Upserted(v) | BatchOutcome::Removed(v) => v,
            BatchOutcome::Inserted(_) => None,
        }
    }
}

/// Descent telemetry for batch calls (experiment E13's `ops_per_descent`
/// is `ops / root_descents`). `root_descents` counts walks from a root:
/// one per distinct tree in each lock-step window of ≤ 16 ops, plus one
/// per retry whose prefix stack was empty — about one per 16 ops on one
/// uncontended tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Operations executed.
    pub ops: u64,
    /// Walks that started at a root.
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
}

/// Apply a mixed batch across the trees `handles` pin: one
/// [`BatchOutcome`] per op in submission order, and the telemetry.
/// `tree_of` names each op's tree (an index into `handles`), once per op.
/// The ops run in stable (tree, key) order — duplicates of a key in batch
/// order, trees ascending (the sharded map's writer-side convention,
/// DESIGN.md §6.4) — located 16 at a time by one lock-step `Search`.
pub fn apply_batch_across<K, V>(
    handles: &[Handle<'_, K, V>],
    ops: &[BatchOp<K, V>],
    mut tree_of: impl FnMut(&BatchOp<K, V>) -> usize,
) -> (Vec<BatchOutcome<V>>, BatchReport)
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    let mut order: Vec<(u32, u32)> = (ops.iter().enumerate())
        .map(|(oi, op)| (tree_of(op) as u32, oi as u32))
        .collect();
    order.sort_by(|a, b| {
        (a.0.cmp(&b.0)).then_with(|| ops[a.1 as usize].key().cmp(ops[b.1 as usize].key()))
    });
    let mut report = BatchReport {
        ops: ops.len() as u64,
        root_descents: 0,
    };
    let mut out: Vec<Option<BatchOutcome<V>>> = (0..ops.len()).map(|_| None).collect();
    let mut lanes: Vec<Lane<'_, K, V>> = Vec::with_capacity(LANES);
    let mut stack: PrefixStack<K, V> = PrefixStack::new();
    let mut stack_tree = None;
    for window in order.chunks(LANES) {
        lanes.clear();
        for (i, &(t, oi)) in window.iter().enumerate() {
            if i == 0 || window[i - 1].0 != t {
                report.root_descents += 1; // this tree's lanes start at its root
            }
            let h = &handles[t as usize];
            lanes.push(Lane::new(h, ops[oi as usize].key()));
        }
        search_lanes(&mut lanes);
        for (lane, &(t, oi)) in lanes.iter().zip(window) {
            if stack_tree != Some(t) {
                stack.reset(); // frames of another tree never route this one
                stack_tree = Some(t);
            }
            let located = (lane.seq, (lane.gp, lane.p, lane.l));
            let (op, guard) = (&ops[oi as usize], &lane.h.guard);
            let outcome = lane
                .h
                .tree
                .run_op(op, located, &mut stack, &mut report, guard);
            out[oi as usize] = Some(outcome);
        }
    }
    let out = out.into_iter().map(|o| o.expect("every op ran"));
    (out.collect(), report)
}

/// One op's `Search(k, seq)` in a lock-step window. While the lane
/// walks, `l` is the node its last step loaded, whose `seq` the next
/// round checks; once done, `(gp, p, l)` is what `Search` returns.
struct Lane<'a, K, V> {
    h: &'a Handle<'a, K, V>,
    key: &'a K,
    seq: u64,
    gp: Shared<'a, Node<K, V>>,
    p: Shared<'a, Node<K, V>>,
    l: Shared<'a, Node<K, V>>,
    /// Nodes read (a node per step, the leaf included) and `prev` hops
    /// taken, for the tree's counters.
    nodes: u64,
    hops: u64,
}

impl<'a, K, V> Lane<'a, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// `seq := Counter` and a walk about to start at the root.
    fn new(h: &'a Handle<'a, K, V>, key: &'a K) -> Self {
        Lane {
            h,
            key,
            seq: h.tree.read_phase(),
            gp: Shared::null(),
            p: Shared::null(),
            l: Shared::from(h.tree.root),
            nodes: 0,
            hops: 0,
        }
    }
}

/// Paper `Search(k, seq)` (lines 32–42) for every lane, in lock-step:
/// each round takes one `ReadChild(·, ·, seq)` step per unfinished lane,
/// split across rounds so that the load it waits on is in flight with
/// the other lanes' — check the `seq` of the node the previous round
/// loaded and follow `prev` to the version-`seq` node (line 46), then
/// load and prefetch the child the key routes to (line 45). At its leaf
/// a lane prefetches, without dereferencing, the `Info` lines its
/// `p`/`gp` update words name, which the attempt's validation reads
/// next. Each lane ends on exactly the triple `search(k, seq)` returns.
/// The lanes' reads go to their trees' counters, once per tree; returns
/// the rounds taken.
fn search_lanes<K, V>(lanes: &mut [Lane<'_, K, V>]) -> u64
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    debug_assert!(lanes.len() <= LANES);
    // Unfinished lanes; a finished one gives its slot to the last.
    let mut live: [u8; LANES] = std::array::from_fn(|i| i as u8);
    let mut n = lanes.len();
    let mut rounds = 0;
    while n > 0 {
        rounds += 1;
        let mut i = 0;
        while i < n {
            let lane = &mut lanes[live[i] as usize];
            let guard = &lane.h.guard;
            // SAFETY: every lane starts at its root and moves only to
            // nodes loaded under its handle's pinned guard, which the
            // batch holds until it returns.
            let mut node = unsafe { lane.l.deref() };
            if node.seq > lane.seq {
                lane.l = PnbBst::read_child_slow(node, lane.seq, &mut lane.hops);
                // SAFETY: as above; the `prev` chain ends at a non-null
                // node (Invariant 4.10).
                node = unsafe { lane.l.deref() };
            }
            lane.nodes += 1;
            if node.is_leaf() {
                // SAFETY: as above; p is non-null at a leaf (the root is
                // internal), and gp is null only when p is the root.
                let (p, gp) = unsafe { (lane.p.deref(), lane.gp.as_raw().as_ref()) };
                prefetch(p.load_update(guard).info());
                if let Some(gp) = gp {
                    prefetch(gp.load_update(guard).info());
                }
                n -= 1;
                live[i] = live[n];
                continue;
            }
            let child = node.load_child(node.key.fin_lt(lane.key), guard);
            prefetch(child.as_raw());
            (lane.gp, lane.p, lane.l) = (lane.p, lane.l, child);
            i += 1;
        }
    }
    // The window's lanes are sorted by tree: one add per tree.
    for run in lanes.chunk_by(|a, b| std::ptr::eq(a.h.tree, b.h.tree)) {
        let stats = &run[0].h.tree.stats;
        stats.search_nodes(run.iter().map(|l| l.nodes).sum());
        stats.search_prev_hops(run.iter().map(|l| l.hops).sum());
    }
    rounds
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

    /// Drop every frame: the next retry descends from the root.
    fn reset(&mut self) {
        self.buf.clear();
        self.resume = 0;
    }

    /// Retreat strictly above the last resume point after a failed
    /// attempt. Popping only the top frame is not enough: the failed
    /// descent re-pushes the frames it traverses, so from a detached
    /// (marked) resume frame a pop-one policy re-descends the same dead
    /// subtree forever. This way every retry resumes strictly shallower,
    /// down to an empty stack — a root descent — after ≤ `depth` failures.
    fn retreat(&mut self) {
        let target = self.resume.saturating_sub(1);
        while self.frames() > target {
            self.pop();
        }
    }

    fn push(&mut self, node: *const Node<K, V>, hi: *const Node<K, V>) {
        self.buf.push(node);
        self.buf.push(hi);
    }

    fn pop(&mut self) {
        self.buf.pop();
        self.buf.pop();
    }

    /// `(node, hi)` of the top frame. Callers check `frames` first.
    fn top(&self) -> (*const Node<K, V>, *const Node<K, V>) {
        let hi = self.buf.peek_from_top(0).expect("non-empty prefix stack");
        let node = self.buf.peek_from_top(1).expect("frames are pairs");
        (node, hi)
    }

    /// The `node` of the frame one below the top (the resume point's
    /// parent), if any.
    fn parent_of_top(&self) -> Option<*const Node<K, V>> {
        self.buf.peek_from_top(3)
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Run one batch op to completion: the first attempt validates and
    /// executes from `located`, its lane's search; every retry reads a
    /// fresh phase and re-descends through the shared prefix `stack`.
    fn run_op<'g>(
        &self,
        op: &BatchOp<K, V>,
        located: Located<'g, K, V>,
        stack: &mut PrefixStack<K, V>,
        report: &mut BatchReport,
        guard: &'g Guard,
    ) -> BatchOutcome<V> {
        let k = op.key();
        let mut first = Some(located);
        let mut retried = false;
        let locate = || {
            first.take().unwrap_or_else(|| {
                let seq = self.read_phase();
                let triple = self.descend_shared(k, seq, retried, stack, report, guard);
                retried = true;
                (seq, triple)
            })
        };
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
                if removed.is_some() && retried {
                    // The delete detached p, its re-descent's top frame:
                    // drop it, or the next retry resumes there and fails.
                    stack.pop();
                }
                BatchOutcome::Removed(removed.flatten())
            }
        }
    }

    /// Resume a search for `k` from the retained prefix (a root descent
    /// if it is empty), pushing every internal node traversed; with
    /// `retreat` (a further retry of the same op) it first retreats above
    /// the last resume point. Frames are popped until the top frame's `hi`
    /// covers `k`: a tree's ops run in ascending key order, so each
    /// retained ancestor still routes `k` the way a fresh search would
    /// (left turns bound `k` via `hi`; right turns have keys ≤ an earlier
    /// batch key ≤ `k`).
    fn descend_shared<'g>(
        &self,
        k: &K,
        seq: u64,
        retreat: bool,
        stack: &mut PrefixStack<K, V>,
        report: &mut BatchReport,
        guard: &'g Guard,
    ) -> SearchTriple<'g, K, V> {
        if retreat {
            stack.retreat();
        }
        if stack.frames() == 0 {
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
        let mut gp = stack.parent_of_top().map_or(Shared::null(), Shared::from);
        let mut p: Shared<'g, Node<K, V>> = Shared::from(p_raw);
        // SAFETY: frames hold internal nodes read under this guard.
        let p_ref = unsafe { &*p_raw };
        let mut left = p_ref.key.fin_lt(k);
        let mut hops = 0;
        let mut l = self.read_child(p_ref, left, seq, guard, &mut hops);
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
            l = self.read_child(l_ref, left, seq, guard, &mut hops);
        }
        self.stats.search_prev_hops(hops);
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

    /// Root-to-leaf length (internal nodes passed) of `k`'s path in
    /// `T_seq`, counted along `Search`'s own steps.
    fn path_len(t: &PnbBst<u32, u32>, k: u32, seq: u64, guard: &Guard) -> u64 {
        let mut node = unsafe { &*t.root };
        let mut len = 0;
        while !node.is_leaf() {
            let left = node.key.fin_lt(&k);
            node = unsafe { t.read_child(node, left, seq, guard, &mut 0).deref() };
            len += 1;
        }
        len
    }

    /// Run one lock-step window over `keys` at `seq`; returns each lane's
    /// triple as raw pointers and the `(rounds, nodes, prev hops)` taken.
    #[allow(clippy::type_complexity)]
    fn lanes_at(
        h: &Handle<'_, u32, u32>,
        keys: &[u32],
        seq: u64,
    ) -> (Vec<[*const Node<u32, u32>; 3]>, (u64, u64, u64)) {
        let mut lanes: Vec<Lane<'_, u32, u32>> = keys.iter().map(|k| Lane::new(h, k)).collect();
        for lane in &mut lanes {
            lane.seq = seq;
        }
        let before = h.tree.stats();
        let rounds = search_lanes(&mut lanes);
        let after = h.tree.stats();
        let nodes = after.search_nodes - before.search_nodes;
        let hops = after.search_prev_hops - before.search_prev_hops;
        let triples = (lanes.iter()).map(|l| [l.gp.as_raw(), l.p.as_raw(), l.l.as_raw()]);
        let triples = triples.collect();
        (triples, (rounds, nodes, hops))
    }

    /// Zero-spread counter for the lock-step search: every lane returns
    /// exactly `search(k, seq)`'s triple, at a held snapshot's old phase
    /// (through `prev` hops) as at the current one, reads exactly
    /// path length + 1 nodes, and a window of 16 takes (deepest path + 1)
    /// rounds — so ≈ 16 nodes are in flight per round (240 nodes in 15
    /// rounds at the old phase, 237 in 16 at the current one).
    #[test]
    fn lanes_return_search_triples_and_read_each_path_node_once() {
        let t = PnbBst::from_sorted((0..4_096u32).map(|k| (2 * k, k)).collect());
        let snap = t.snapshot();
        let old = snap.seq();
        // Updates the snapshot never sees: odd inserts, even deletes.
        for i in 0..1_500u32 {
            let k = (i * 37) % 8_192;
            if k % 2 == 1 {
                t.insert(k, k);
            } else {
                t.delete(&k);
            }
        }
        let h = t.pin();
        let guard = &h.guard;
        let keys: Vec<u32> = (0..16).map(|i| i * 509 + 3).collect();
        let mut old_hops = 0;
        for seq in [old, t.phase()] {
            let (triples, (rounds, nodes, hops)) = lanes_at(&h, &keys, seq);
            let before = t.stats().search_prev_hops;
            for (k, got) in keys.iter().zip(&triples) {
                let (gp, p, l) = t.search(k, seq, guard);
                assert_eq!(*got, [gp.as_raw(), p.as_raw(), l.as_raw()], "{k} @ {seq}");
            }
            let search_hops = t.stats().search_prev_hops - before;
            assert_eq!(
                hops, search_hops,
                "@ {seq}: the lanes hop where Search does"
            );
            let lens: Vec<u64> = keys.iter().map(|&k| path_len(&t, k, seq, guard)).collect();
            assert_eq!(nodes, lens.iter().map(|d| d + 1).sum::<u64>(), "@ {seq}");
            assert_eq!(rounds, lens.iter().max().unwrap() + 1, "@ {seq}");
            assert!(
                nodes >= 14 * rounds,
                "overlap {nodes}/{rounds} must be ≈ 16"
            );
            if seq == old {
                old_hops = hops;
            }
        }
        assert!(old_hops > 0, "the old-phase lanes must take prev hops");
        drop(snap);
    }

    /// A one-thread 64-op frame whose lanes stay valid reads Σ (path + 1)
    /// nodes — each path once — and walks from the root once per window.
    #[test]
    fn lock_step_frame_reads_each_path_once() {
        let t = PnbBst::from_sorted((0..4_096u32).map(|k| (2 * k, k)).collect());
        // Keys 128 apart: no op changes another lane's path.
        let ops: Vec<BatchOp<u32, u32>> = (0..64u32)
            .map(|i| match i % 4 {
                0 => BatchOp::Get(i * 128),
                1 => BatchOp::Insert(i * 128 + 1, i),
                2 => BatchOp::Upsert(i * 128, i),
                _ => BatchOp::Delete(i * 128),
            })
            .collect();
        let h = t.pin();
        let seq = t.phase();
        let want: u64 = ops
            .iter()
            .map(|op| path_len(&t, *op.key(), seq, &h.guard) + 1)
            .sum();
        let n0 = t.stats().search_nodes;
        let (outs, report) = h.apply_batch_reported(&ops);
        let n1 = t.stats().search_nodes;
        assert_eq!(n1 - n0, want);
        assert_eq!(
            report,
            BatchReport {
                ops: 64,
                root_descents: 4
            }
        );
        assert_eq!(report.ops_per_descent(), 16.0);
        for (i, out) in outs.iter().enumerate() {
            let v = i as u32 * 64;
            let want = match i % 4 {
                0 => BatchOutcome::Get(Some(v)),
                1 => BatchOutcome::Inserted(true),
                2 => BatchOutcome::Upserted(Some(v)),
                _ => BatchOutcome::Removed(Some(v)),
            };
            assert_eq!(*out, want, "op {i}");
        }
        let (_, report) = h.multi_get_reported(&[5, 1, 3]);
        assert_eq!(
            report,
            BatchReport {
                ops: 3,
                root_descents: 1
            }
        );
    }

    /// Frames whose sub-ops go stale behind earlier sub-ops of the same
    /// frame, over two trees (keys < 1,000 on tree 0): results match a
    /// `BTreeMap` applied in (tree, key, submission) order, and
    /// `root_descents` is one per distinct tree per window plus one per
    /// retry that found the prefix stack empty.
    #[test]
    fn own_frame_staleness_matches_oracle() {
        type Op = BatchOp<u32, u32>;
        let frames: Vec<(&str, Vec<u32>, Vec<Op>, u64)> = vec![
            // One window over both trees (2), and one empty-stack retry
            // on tree 0: its later lanes resume from retained frames.
            (
                "duplicate keys",
                vec![1_500],
                vec![
                    BatchOp::Upsert(7, 1),
                    BatchOp::Get(1_500),
                    BatchOp::Upsert(7, 2),
                    BatchOp::Get(7),
                    BatchOp::Delete(7),
                    BatchOp::Insert(7, 3),
                    BatchOp::Upsert(7, 4),
                    BatchOp::Delete(1_500),
                ],
                3,
            ),
            // k + 1's lane still names the leaf k replaced.
            (
                "neighbours under one leaf",
                vec![10, 1_010],
                vec![
                    BatchOp::Insert(11, 1),
                    BatchOp::Insert(12, 2),
                    BatchOp::Insert(1_011, 3),
                    BatchOp::Insert(1_012, 4),
                ],
                4,
            ),
            // 20 and 21 share a parent: the first delete marks it.
            (
                "both children of one parent deleted",
                vec![20, 21, 1_020, 1_021],
                vec![
                    BatchOp::Delete(21),
                    BatchOp::Delete(20),
                    BatchOp::Delete(1_020),
                    BatchOp::Delete(1_021),
                ],
                4,
            ),
        ];
        for (name, present, ops, descents) in frames {
            let trees = [PnbBst::new(), PnbBst::new()];
            let tree_of = |k: &u32| usize::from(*k >= 1_000);
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for k in present {
                trees[tree_of(&k)].insert(k, k);
                model.insert(k, k);
            }
            let handles: Vec<Handle<'_, u32, u32>> = trees.iter().map(|t| t.pin()).collect();
            let (outs, report) = apply_batch_across(&handles, &ops, |op| tree_of(op.key()));
            let mut order: Vec<usize> = (0..ops.len()).collect();
            order.sort_by_key(|&i| (tree_of(ops[i].key()), *ops[i].key()));
            for i in order {
                let want = match ops[i] {
                    BatchOp::Get(k) => BatchOutcome::Get(model.get(&k).copied()),
                    BatchOp::Insert(k, v) => {
                        let absent = !model.contains_key(&k);
                        model.entry(k).or_insert(v);
                        BatchOutcome::Inserted(absent)
                    }
                    BatchOp::Upsert(k, v) => BatchOutcome::Upserted(model.insert(k, v)),
                    BatchOp::Delete(k) => BatchOutcome::Removed(model.remove(&k)),
                };
                assert_eq!(outs[i], want, "{name}: op {i}");
            }
            assert_eq!(report.root_descents, descents, "{name}");
            let len: usize = trees.iter().map(|t| t.check_invariants()).sum();
            assert_eq!(len, model.len(), "{name}");
        }
    }

    /// 32 ascending upserts into an empty tree: every lane but each
    /// window's first goes stale behind the op before it. The re-descents
    /// share the prefix stack, so each window pays at most one retry
    /// from the root: 2 windows + 1 such retry.
    #[test]
    fn ascending_upserts_share_their_retries() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        let ops: Vec<BatchOp<u32, u32>> = (0..32).map(|k| BatchOp::Upsert(k, k)).collect();
        let (outs, report) = h.apply_batch_reported(&ops);
        assert!(outs.iter().all(|o| *o == BatchOutcome::Upserted(None)));
        assert_eq!(
            report,
            BatchReport {
                ops: 32,
                root_descents: 3
            }
        );
        assert_eq!(t.check_invariants(), 32);
    }
}
