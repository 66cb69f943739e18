//! Pinned session handles — the amortized-epoch hot-path API.
//!
//! Every per-call point operation on [`PnbBst`] (`insert`, `get`, …)
//! pins and drops an epoch guard: correct, but pure overhead in a loop,
//! where the pin/unpin pair can rival the cost of the tree operation
//! itself under read-mostly mixes. A [`Handle`] hoists that cost out of
//! the loop: it pins **once** and runs point operations, batches and the
//! lazy [`range`](Handle::range) against the held guard, so the
//! per-operation epoch cost drops to zero.
//!
//! Those are a map's two read surfaces: a handle for point reads and
//! lazy ranges, and a [`Snapshot`] (`tree.snapshot()`) for every other
//! multi-key read — `len`, `to_vec`, `keys`, visitor scans and ordered
//! queries. There is no third, per-call copy of either.
//!
//! The price of a pin is that reclamation of memory retired *after* it
//! cannot complete while the guard lives. A handle used for a bounded
//! batch is free; a handle held across millions of updates delays
//! reclamation of everything those updates retire. Call
//! [`Handle::refresh`] between batches to let the collector advance —
//! the workload drivers in this repository do so every few dozen
//! operations.

use crossbeam_epoch::{self as epoch, Guard};
use std::ops::RangeBounds;

use crate::batch::{apply_batch_across, BatchOp, BatchOutcome, BatchReport};
use crate::iter::{cloned_bounds, Range};
use crate::snapshot::Snapshot;
use crate::tree::PnbBst;

/// A pinned session on a [`PnbBst`]: one epoch guard amortized over any
/// number of operations.
///
/// Not `Send` (the guard is tied to the pinning thread): create one
/// handle per thread, typically right after entering a work loop.
/// Operations on different handles to the same tree run fully
/// concurrently — a handle adds no synchronization whatsoever, it only
/// caches the epoch pin.
///
/// # Example
///
/// ```
/// use pnb_bst::PnbBst;
///
/// let tree: PnbBst<u64, &str> = PnbBst::new();
/// let h = tree.pin();
/// assert!(h.insert(2, "two"));
/// assert_eq!(h.upsert(2, "TWO"), Some("two")); // atomic replace
/// assert_eq!(h.get(&2), Some("TWO"));
/// assert_eq!(h.range(..).count(), 1); // lazy, wait-free iteration
/// assert!(h.delete(&2));
/// ```
pub struct Handle<'t, K, V> {
    pub(crate) tree: &'t PnbBst<K, V>,
    pub(crate) guard: Guard,
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Pin the current thread's epoch and return a session [`Handle`]
    /// exposing the whole operation set without per-call pinning.
    pub fn pin(&self) -> Handle<'_, K, V> {
        Handle {
            tree: self,
            guard: epoch::pin(),
        }
    }
}

impl<'t, K, V> Handle<'t, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// The underlying tree.
    pub fn tree(&self) -> &'t PnbBst<K, V> {
        self.tree
    }

    /// Look up `key` (paper `Find`); see [`PnbBst::get`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.tree.get_in(key, &self.guard)
    }

    /// Whether `key` is present; see [`PnbBst::contains`].
    pub fn contains(&self, key: &K) -> bool {
        self.tree.contains_in(key, &self.guard)
    }

    /// Insert without replacement (set semantics); see
    /// [`PnbBst::insert`].
    pub fn insert(&self, key: K, value: V) -> bool {
        self.tree.insert_in(&key, &value, &self.guard)
    }

    /// Atomically insert or replace, returning the displaced value; see
    /// [`PnbBst::upsert`].
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        self.tree.upsert_in(&key, &value, &self.guard)
    }

    /// Remove `key`; `true` iff it was present. See [`PnbBst::delete`].
    pub fn delete(&self, key: &K) -> bool {
        self.remove(key).is_some()
    }

    /// Remove `key`, returning its value. See [`PnbBst::remove`].
    pub fn remove(&self, key: &K) -> Option<V> {
        self.tree.remove_in(key, &self.guard)
    }

    /// Batched lookup: one `Option<V>` per key, in submission order — a
    /// batch of [`BatchOp::Get`]s (see [`apply_batch`](Self::apply_batch)).
    pub fn multi_get(&self, keys: &[K]) -> Vec<Option<V>> {
        self.multi_get_reported(keys).0
    }

    /// [`multi_get`](Self::multi_get) plus descent telemetry.
    pub fn multi_get_reported(&self, keys: &[K]) -> (Vec<Option<V>>, BatchReport) {
        let gets: Vec<BatchOp<K, V>> = keys.iter().map(|k| BatchOp::Get(k.clone())).collect();
        let (outs, report) = self.apply_batch_reported(&gets);
        let values = outs.into_iter().map(BatchOutcome::into_value);
        (values.collect(), report)
    }

    /// Apply a mixed batch of operations, returning one
    /// [`BatchOutcome`] per operation in submission order.
    ///
    /// The batch is stable-sorted by key (duplicates resolve in batch
    /// order); each window of 16 ops is located by one lock-step run of
    /// the paper's `Search`, so their cache misses overlap, and an op
    /// that fails validation re-descends from the deepest still-valid
    /// ancestor of a shared prefix, falling back to the root. A batch is
    /// a *sequence* of individually-linearizable operations, not an
    /// atomic transaction (`DESIGN.md` §11).
    pub fn apply_batch(&self, ops: &[BatchOp<K, V>]) -> Vec<BatchOutcome<V>> {
        self.apply_batch_reported(ops).0
    }

    /// [`apply_batch`](Self::apply_batch) plus descent telemetry
    /// ([`BatchReport::ops_per_descent`] is experiment E13's column):
    /// [`apply_batch_across`] over this one tree.
    pub fn apply_batch_reported(
        &self,
        ops: &[BatchOp<K, V>],
    ) -> (Vec<BatchOutcome<V>>, BatchReport) {
        apply_batch_across(std::slice::from_ref(self), ops, |_| 0)
    }

    /// Wait-free lazy range query over any [`RangeBounds`] — `..`,
    /// `a..`, `..=b`, `a..b`, `(Bound::Excluded(a), Bound::Included(b))`,
    /// and friends. Closes the current phase (like every scan) and
    /// yields matches in ascending key order without materializing the
    /// result set.
    ///
    /// Inverted or empty bounds yield an empty iterator (no panic, in
    /// contrast to `BTreeMap::range`).
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Range<'_, K, V> {
        let (lo, hi) = cloned_bounds(&range);
        self.tree.range_in(lo, hi, &self.guard)
    }

    /// Lazy iteration over the whole map (`range(..)`), ascending.
    pub fn iter(&self) -> Range<'_, K, V> {
        self.range(..)
    }

    /// Take a [`Snapshot`] of the tree. The snapshot pins its own guard,
    /// so it is independent of this handle and may outlive it.
    pub fn snapshot(&self) -> Snapshot<'t, K, V> {
        self.tree.snapshot()
    }

    /// The current phase number (diagnostics); see [`PnbBst::phase`].
    pub fn phase(&self) -> u64 {
        self.tree.phase()
    }

    /// Re-pin the session's epoch guard so memory reclamation can
    /// advance past everything retired since the last pin. Cheap (two
    /// atomic stores when this is the thread's only guard); call it
    /// between batches in long-lived loops.
    ///
    /// Taking `&mut self` is what makes this safe: outstanding
    /// [`Range`] iterators borrow the handle immutably, so the borrow
    /// checker proves no traversal is in flight across the re-pin.
    pub fn refresh(&mut self) {
        self.guard.repin();
    }

    /// Seal this thread's deferred garbage into the global queue and
    /// attempt a collection pass (see `crossbeam_epoch::Guard::flush`).
    pub fn flush(&self) {
        self.guard.flush();
    }
}

impl<K, V> std::fmt::Debug for Handle<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_covers_the_operation_set() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        let h = t.pin();
        assert!(h.iter().next().is_none());
        assert!(h.insert(5, 50));
        assert!(!h.insert(5, 51)); // set semantics preserved
        assert_eq!(h.upsert(5, 55), Some(50));
        assert_eq!(h.upsert(6, 60), None);
        assert_eq!(h.get(&5), Some(55));
        assert!(h.contains(&6));
        assert_eq!(h.range(0..=10).collect::<Vec<_>>(), vec![(5, 55), (6, 60)]);
        assert_eq!(h.snapshot().len(), 2);
        assert_eq!(h.remove(&5), Some(55));
        assert!(!h.delete(&5));
        assert_eq!(h.tree().snapshot().len(), 1);
    }

    #[test]
    fn counting_scans_clone_nothing() {
        use std::ops::Bound;
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        struct Loud;
        impl Clone for Loud {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Relaxed);
                Loud
            }
        }
        let t: PnbBst<u32, Loud> = PnbBst::new();
        let h = t.pin();
        for k in 0..1000 {
            h.insert(k, Loud);
        }
        let built = CLONES.load(Relaxed);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1000);
        assert!(!snap.is_empty());
        let mut n = 0;
        snap.range_scan_with(Bound::Included(&100), Bound::Included(&899), |_, _| n += 1);
        assert_eq!(n, 800);
        // Keys are `u32`: `keys` clones only those, never a value.
        assert_eq!(snap.keys().len(), 1000);
        assert_eq!(CLONES.load(Relaxed), built, "counting cloned values");
    }

    /// Key and value clones per operation, on each path an operation can
    /// take: a zero-spread count of what every update builds. A duplicate
    /// insert or an absent delete clones nothing.
    #[test]
    fn updates_clone_exactly_what_they_build() {
        use crate::batch::{BatchOp, BatchOutcome};
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        static KEYS: AtomicUsize = AtomicUsize::new(0);
        static VALS: AtomicUsize = AtomicUsize::new(0);
        #[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
        struct K(u32);
        impl Clone for K {
            fn clone(&self) -> Self {
                KEYS.fetch_add(1, Relaxed);
                K(self.0)
            }
        }
        #[derive(PartialEq, Debug)]
        struct V(u32);
        impl Clone for V {
            fn clone(&self) -> Self {
                VALS.fetch_add(1, Relaxed);
                V(self.0)
            }
        }
        #[derive(Clone, Copy, Debug)]
        enum Op {
            Insert(u32),
            Upsert(u32),
            Delete(u32),
            Get(u32),
            Contains(u32),
        }
        #[derive(Clone, Copy, Debug)]
        enum Path {
            Handle,
            Batch,
            Paused,
        }
        // (op, its result, key clones, value clones)
        let expected = [
            (Op::Insert(25), 1, 4, 2),
            (Op::Insert(25), 0, 0, 0),
            (Op::Upsert(35), 0, 4, 2),
            (Op::Upsert(35), 1, 1, 2),
            (Op::Delete(35), 1, 1, 2),
            (Op::Delete(36), 0, 0, 0),
            (Op::Get(25), 1, 0, 1),
            (Op::Get(26), 0, 0, 0),
            (Op::Contains(25), 1, 0, 0),
        ];
        // Run `op` on `path`; 1 for a true/`Some` result, 0 otherwise.
        fn run(t: &PnbBst<K, V>, path: Path, op: Op) -> u32 {
            let h = t.pin();
            let some = |v: Option<V>| v.is_some() as u32;
            let batch = |op: BatchOp<K, V>| h.apply_batch(&[op]).pop().expect("one outcome");
            match (path, op) {
                (Path::Handle, Op::Insert(k)) => h.insert(K(k), V(k)) as u32,
                (Path::Handle, Op::Upsert(k)) => some(h.upsert(K(k), V(k))),
                (Path::Handle, Op::Delete(k)) => some(h.remove(&K(k))),
                // Reads have no paused form, and `contains` no batched one.
                (Path::Handle | Path::Paused, Op::Get(k)) => some(h.get(&K(k))),
                (_, Op::Contains(k)) => h.contains(&K(k)) as u32,
                (Path::Batch, Op::Insert(k)) => match batch(BatchOp::Insert(K(k), V(k))) {
                    BatchOutcome::Inserted(b) => b as u32,
                    o => panic!("{o:?}"),
                },
                (Path::Batch, Op::Upsert(k)) => match batch(BatchOp::Upsert(K(k), V(k))) {
                    BatchOutcome::Upserted(v) => some(v),
                    o => panic!("{o:?}"),
                },
                (Path::Batch, Op::Delete(k)) => match batch(BatchOp::Delete(K(k))) {
                    BatchOutcome::Removed(v) => some(v),
                    o => panic!("{o:?}"),
                },
                (Path::Batch, Op::Get(k)) => {
                    let keys = KEYS.load(Relaxed);
                    let got = h.multi_get(&[K(k)]).pop().expect("one result");
                    // A multi-get is a batch of `Get`s, built with one
                    // key clone each: count the batch's own clones only.
                    assert_eq!(KEYS.fetch_sub(1, Relaxed) - keys, 1, "multi_get");
                    match batch(BatchOp::Get(K(k))) {
                        BatchOutcome::Get(v) => assert_eq!(v, got),
                        o => panic!("{o:?}"),
                    }
                    // Both lookups cloned the value: count one.
                    VALS.fetch_sub(got.is_some() as usize, Relaxed);
                    some(got)
                }
                #[cfg(feature = "testing-internals")]
                (Path::Paused, Op::Insert(k)) => resumed(t.insert_paused(K(k), V(k))),
                #[cfg(feature = "testing-internals")]
                (Path::Paused, Op::Upsert(k)) => resumed(t.upsert_paused(K(k), V(k))),
                #[cfg(feature = "testing-internals")]
                (Path::Paused, Op::Delete(k)) => resumed(t.delete_paused(&K(k))),
                #[cfg(not(feature = "testing-internals"))]
                (Path::Paused, _) => unreachable!("the paused path needs testing-internals"),
            }
        }
        #[cfg(feature = "testing-internals")]
        fn resumed(out: crate::testing::PauseOutcome<'_, K, V>) -> u32 {
            match out {
                crate::testing::PauseOutcome::Completed(b) => b as u32,
                crate::testing::PauseOutcome::Paused(p) => p.resume() as u32,
            }
        }
        let paths = [Path::Handle, Path::Batch, Path::Paused];
        let n = if cfg!(feature = "testing-internals") {
            3
        } else {
            2
        };
        for path in paths.into_iter().take(n) {
            let t: PnbBst<K, V> = PnbBst::new();
            for k in [10, 20, 30, 40] {
                t.insert(K(k), V(k));
            }
            for &(op, result, keys, vals) in &expected {
                let before = (KEYS.load(Relaxed), VALS.load(Relaxed));
                let got = run(&t, path, op);
                let after = (KEYS.load(Relaxed), VALS.load(Relaxed));
                let counts = (after.0 - before.0, after.1 - before.1);
                // `resume` reports the commit, not the displaced value.
                let result = match (path, op) {
                    (Path::Paused, Op::Upsert(_)) => 1,
                    _ => result,
                };
                assert_eq!(
                    (got, counts),
                    (result, (keys, vals)),
                    "{path:?}: {op:?} (result, (key clones, value clones))"
                );
            }
            assert_eq!(t.check_invariants(), 5);
        }
    }

    #[test]
    fn handle_range_bounds_flavours() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        let h = t.pin();
        for k in 0..10 {
            h.insert(k, k);
        }
        let keys = |it: Range<'_, i32, i32>| it.map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(h.range(..)), (0..10).collect::<Vec<_>>());
        assert_eq!(keys(h.range(3..7)), vec![3, 4, 5, 6]);
        assert_eq!(keys(h.range(3..=7)), vec![3, 4, 5, 6, 7]);
        assert_eq!(keys(h.range(8..)), vec![8, 9]);
        assert_eq!(keys(h.range(..2)), vec![0, 1]);
        use std::ops::Bound;
        assert_eq!(
            keys(h.range((Bound::Excluded(3), Bound::Excluded(7)))),
            vec![4, 5, 6]
        );
    }

    #[test]
    fn range_early_exit_stops_traversal() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        for k in [8, 3, 10, 1, 6, 14, 4, 7, 13] {
            t.insert(k, k * 100);
        }
        let h = t.pin();
        let visited: Vec<i64> = h.range(..).take(3).map(|(k, _)| k).collect();
        assert_eq!(visited, vec![1, 3, 4]);
    }

    #[test]
    fn refresh_keeps_the_session_usable() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        let mut h = t.pin();
        for k in 0..100 {
            h.insert(k, k);
            if k.is_multiple_of(10) {
                h.refresh();
            }
        }
        h.flush();
        assert_eq!(h.iter().count(), 100);
        assert_eq!(t.check_invariants(), 100);
    }

    #[test]
    fn updates_interleave_with_live_iteration() {
        // A Range reads a closed phase: updates made through the same
        // handle while it is being consumed must not disturb it.
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        for k in 0..20 {
            h.insert(k, k);
        }
        let mut seen = Vec::new();
        for (k, _) in h.range(..) {
            h.delete(&k); // mutate mid-iteration
            h.insert(1000 + k, k); // and grow elsewhere
            seen.push(k);
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(h.tree().check_invariants(), 20); // the 1000+ keys
    }

    #[test]
    fn snapshot_outlives_handle() {
        let t: PnbBst<u8, u8> = PnbBst::new();
        let snap = {
            let h = t.pin();
            h.insert(1, 1);
            h.snapshot()
        };
        t.insert(2, 2);
        assert_eq!(snap.keys(), vec![1]);
    }
}
