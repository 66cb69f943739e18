//! Pinned sessions over every shard — the sharded hot-path API.

use std::ops::RangeBounds;

use pnb_bst::{apply_batch_across, BatchOp, BatchOutcome, BatchReport, Handle, Range};

use crate::map::ShardedPnbBst;
use crate::merge::MergeRange;
use crate::partition::Partitioner;
use crate::snapshot::ShardedSnapshot;

/// A pinned session over a [`ShardedPnbBst`]: one [`Handle`] per shard,
/// opened once and amortized over any number of operations.
///
/// Point operations route to exactly one shard's handle. Cross-shard
/// [`range`](Self::range) closes one phase per participating shard (in
/// descending shard order — the creation discipline behind the
/// prefix-consistency guarantee, see the crate docs) and merges the
/// per-shard lazy iterators by ascending key.
///
/// Like [`Handle`], a session is not `Send`: open one per thread.
///
/// # Reclamation
///
/// The epoch pin is per-thread and *nested*: while a session holds `N`
/// shard handles, the thread's pin count is `N`, and
/// [`Handle::refresh`]'s `Guard::repin` would be a no-op. The session's
/// own [`refresh`](Self::refresh) therefore drops **all** of its
/// handles (pin count reaches zero) before re-pinning, which is what
/// actually lets the collector advance past garbage retired since the
/// pin. Call it between batches in long-lived loops, exactly as you
/// would with a single-tree handle.
pub struct ShardedSession<'t, K, V, P = crate::RangePrefixPartitioner> {
    map: &'t ShardedPnbBst<K, V, P>,
    /// One handle per shard, index-aligned with `map.shards`. Only ever
    /// empty transiently inside `refresh`.
    handles: Vec<Handle<'t, K, V>>,
}

impl<'t, K, V, P> ShardedSession<'t, K, V, P>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
    P: Partitioner<K>,
{
    pub(crate) fn new(map: &'t ShardedPnbBst<K, V, P>) -> Self {
        ShardedSession {
            map,
            handles: map.shards.iter().map(|t| t.pin()).collect(),
        }
    }

    /// The underlying sharded map.
    pub fn map(&self) -> &'t ShardedPnbBst<K, V, P> {
        self.map
    }

    /// The key's shard index.
    #[inline]
    fn route(&self, key: &K) -> usize {
        let i = self.map.shard_of(key);
        debug_assert!(i < self.handles.len());
        i
    }

    /// Look up `key` in its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        let i = self.route(key);
        self.handles[i].get(key)
    }

    /// Whether `key` is present in its shard.
    pub fn contains(&self, key: &K) -> bool {
        let i = self.route(key);
        self.handles[i].contains(key)
    }

    /// Insert without replacement (set semantics); `true` iff `key` was
    /// absent.
    pub fn insert(&self, key: K, value: V) -> bool {
        let i = self.route(&key);
        self.handles[i].insert(key, value)
    }

    /// Atomically insert or replace, returning the displaced value.
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        let i = self.route(&key);
        self.handles[i].upsert(key, value)
    }

    /// Remove `key`; `true` iff it was present.
    pub fn delete(&self, key: &K) -> bool {
        let i = self.route(key);
        self.handles[i].delete(key)
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let i = self.route(key);
        self.handles[i].remove(key)
    }

    /// Batched lookup across shards: one `Option<V>` per key, in
    /// submission order — a batch of [`BatchOp::Get`]s (see
    /// [`apply_batch`](Self::apply_batch)). Each lookup still linearizes
    /// individually.
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

    /// Apply a mixed batch across shards, returning one
    /// [`BatchOutcome`] per operation in submission order.
    ///
    /// One [`apply_batch_across`] over every shard's handle: the ops
    /// sort by (shard, key) (stable, so duplicates of one key keep batch
    /// order), and each window of 16 is located by one lock-step
    /// `Search` that may span shards. Shards execute in **ascending**
    /// order — the writer-side convention that, combined with
    /// snapshots/scans closing phases in *descending* shard order,
    /// yields prefix-consistent cross-shard cuts (crate docs): an
    /// observer that misses this batch's ops on shard `i` cannot have
    /// seen its ops on any `j > i`. A batch is a sequence of
    /// individually-linearizable operations, not an atomic transaction.
    pub fn apply_batch(&self, ops: &[BatchOp<K, V>]) -> Vec<BatchOutcome<V>> {
        self.apply_batch_reported(ops).0
    }

    /// [`apply_batch`](Self::apply_batch) plus descent telemetry over
    /// the participating shards.
    pub fn apply_batch_reported(
        &self,
        ops: &[BatchOp<K, V>],
    ) -> (Vec<BatchOutcome<V>>, BatchReport) {
        apply_batch_across(&self.handles, ops, |op| self.route(op.key()))
    }

    /// Cross-shard lazy range query over any [`RangeBounds`], ascending
    /// by key.
    ///
    /// Asks the partitioner which shards can hold keys in the bounds
    /// (skipping the rest), closes one phase per participating shard in
    /// **descending shard order**, and returns the k-way merge of the
    /// per-shard wait-free iterators. Each per-shard view is
    /// linearizable; the combined view is the prefix-consistent cut
    /// described in the crate docs.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> MergeRange<'_, K, V> {
        let lo = range.start_bound().cloned();
        let hi = range.end_bound().cloned();
        let targets =
            self.map
                .partitioner
                .shards_for_range(lo.as_ref(), hi.as_ref(), self.handles.len());
        let mut ranges: Vec<Range<'_, K, V>> = Vec::new();
        match targets {
            // Consistency discipline: phases close in descending shard
            // order (creating a `Range` closes the phase; it traverses
            // nothing until polled).
            None => {
                for h in self.handles.iter().rev() {
                    ranges.push(h.range((lo.clone(), hi.clone())));
                }
            }
            Some(mut idx) => {
                idx.sort_unstable_by(|a, b| b.cmp(a)); // descending
                idx.dedup();
                for i in idx {
                    ranges.push(self.handles[i].range((lo.clone(), hi.clone())));
                }
            }
        }
        MergeRange::new(ranges)
    }

    /// Lazy iteration over the whole map (`range(..)`), ascending.
    pub fn iter(&self) -> MergeRange<'_, K, V> {
        self.range(..)
    }

    /// Take a cross-shard snapshot (independent of this session; it
    /// pins its own guards and may outlive the session). See
    /// [`ShardedPnbBst::snapshot`].
    pub fn snapshot(&self) -> ShardedSnapshot<'t, K, V, P> {
        self.map.snapshot()
    }

    /// Re-pin the session so memory reclamation can advance past
    /// everything retired since the last pin.
    ///
    /// Drops every shard handle *first* (the thread's pin count must
    /// reach zero — `Guard::repin` is a no-op while sibling guards
    /// exist) and then re-pins all shards. `&mut self` proves no
    /// borrowed iterator is in flight across the re-pin.
    pub fn refresh(&mut self) {
        self.handles.clear(); // pin count → 0: the epoch can move
        self.handles.extend(self.map.shards.iter().map(|t| t.pin()));
    }

    /// Seal this thread's deferred garbage and attempt a collection
    /// pass (see `crossbeam_epoch::Guard::flush`). The flush is a
    /// thread-level operation, so one handle's flush covers the whole
    /// session.
    pub fn flush(&self) {
        if let Some(h) = self.handles.first() {
            h.flush();
        }
    }

    /// How many shard handles this session holds (always the map's
    /// shard count; diagnostics).
    pub fn shard_handles(&self) -> usize {
        self.handles.len()
    }
}

impl<K, V, P> std::fmt::Debug for ShardedSession<'_, K, V, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.handles.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangePrefixPartitioner;
    use std::ops::Bound;

    fn map(shards: usize) -> ShardedPnbBst<u64, u64> {
        ShardedPnbBst::with_partitioner(shards, RangePrefixPartitioner::with_block_bits(8))
    }

    #[test]
    fn session_covers_the_operation_set() {
        let m = map(4);
        let s = m.pin();
        assert!(s.iter().next().is_none());
        assert!(s.insert(5, 50));
        assert!(!s.insert(5, 51));
        assert_eq!(s.upsert(5, 55), Some(50));
        assert_eq!(s.upsert(6_000, 60), None);
        assert_eq!(s.get(&5), Some(55));
        assert!(s.contains(&6_000));
        let all: Vec<(u64, u64)> = s.range(0..=10_000).collect();
        assert_eq!(all, vec![(5, 55), (6_000, 60)]);
        assert_eq!(s.snapshot().len(), 2);
        assert_eq!(s.remove(&5), Some(55));
        assert!(!s.delete(&5));
        assert_eq!(s.map().check_invariants(), 1);
    }

    #[test]
    fn merged_range_is_globally_ascending() {
        let m = map(8);
        let s = m.pin();
        // Stride past the block size so consecutive keys hit different
        // shards and the merge has real interleaving to do.
        let keys: Vec<u64> = (0..200u64).map(|i| i * 257).collect();
        for &k in &keys {
            s.insert(k, k * 10);
        }
        let got: Vec<u64> = s.range(..).map(|(k, _)| k).collect();
        assert_eq!(got, keys);
        // Sub-ranges agree with a filtered model across all bound kinds.
        let got: Vec<u64> = s.range(1_000..5_000).map(|(k, _)| k).collect();
        let expect: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| (1_000..5_000).contains(k))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(
            s.range((Bound::Excluded(257), Bound::Included(1028)))
                .map(|(k, _)| k)
                .collect::<Vec<_>>(),
            vec![514, 771, 1028]
        );
    }

    #[test]
    fn narrow_ranges_skip_shards() {
        let m = map(8); // 256-key blocks
        let s = m.pin();
        for k in 0..2_048u64 {
            s.insert(k, k);
        }
        // A range inside one block touches at most two shards.
        let r = s.range(10u64..100);
        assert!(r.width() <= 2, "width {}", r.width());
        assert_eq!(r.count(), 90);
        // An unbounded range visits all of them.
        assert_eq!(s.range(..).width(), 8);
        // An inverted range yields nothing (bounds invert inside one
        // 256-key block, so at most that block's shard participates).
        // Explicit Bound pairs: a reversed range *literal* is a denied
        // lint, and rightly so outside this deliberate edge-case test.
        let r = s.range((Bound::Included(500u64), Bound::Excluded(400u64)));
        assert!(r.width() <= 1);
        assert_eq!(r.count(), 0);
        // Inverted across blocks: provably empty, no shard visited.
        let r = s.range((Bound::Included(1_500u64), Bound::Excluded(400u64)));
        assert_eq!(r.width(), 0);
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn refresh_keeps_the_session_usable() {
        let m = map(3);
        let mut s = m.pin();
        for k in 0..300u64 {
            s.insert(k, k);
            if k.is_multiple_of(50) {
                s.refresh();
            }
        }
        s.flush();
        assert_eq!(s.iter().count(), 300);
        assert_eq!(s.shard_handles(), 3);
        assert_eq!(m.check_invariants(), 300);
    }

    #[test]
    fn updates_interleave_with_live_merged_iteration() {
        // A MergeRange reads closed phases: updates through the same
        // session while it is consumed must not disturb it.
        let m = map(4);
        let s = m.pin();
        for k in 0..40u64 {
            s.insert(k * 300, k);
        }
        let mut seen = Vec::new();
        for (k, _) in s.range(..) {
            s.delete(&k);
            s.insert(1_000_000 + k, k);
            seen.push(k);
        }
        assert_eq!(seen, (0..40u64).map(|k| k * 300).collect::<Vec<_>>());
        assert_eq!(m.check_invariants(), 40);
    }

    #[test]
    fn snapshot_outlives_session() {
        let m = map(2);
        let snap = {
            let s = m.pin();
            s.insert(1, 1);
            s.snapshot()
        };
        m.insert(2, 2);
        assert_eq!(snap.to_vec(), vec![(1, 1)]);
    }
}
