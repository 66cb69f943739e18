//! Cross-shard snapshots: per-shard [`Snapshot`]s captured in the
//! consistency-preserving order and read as one view.

use std::ops::RangeBounds;

use pnb_bst::Snapshot;

use crate::map::ShardedPnbBst;
use crate::merge::MergeRange;
use crate::partition::Partitioner;

/// A wait-free, immutable cross-shard view of a [`ShardedPnbBst`].
///
/// Holds one [`Snapshot`] per shard, captured in **descending shard
/// order** at creation. Each per-shard view is linearizable; the
/// combined view is a *prefix-consistent cut*: any sequence of writes
/// issued in ascending shard order is observed prefix-closed — if the
/// snapshot shows a transaction's write to shard `i`, it shows that
/// transaction's writes to every shard `j < i` too (crate docs,
/// "Consistency model").
///
/// Like [`Snapshot`], it is not `Send` (it embeds the creating thread's
/// epoch guards), and holding it long delays reclamation of everything
/// retired after its creation — in every shard.
///
/// # Example
///
/// ```
/// use pnb_shard::ShardedPnbBst;
///
/// let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
/// let s = map.pin();
/// for k in 0..100u64 {
///     s.insert(k * 1000, k);
/// }
/// let snap = map.snapshot();
/// for k in 0..100u64 {
///     s.delete(&(k * 1000));
/// }
/// assert!(map.is_empty());        // the map has moved on...
/// assert_eq!(snap.len(), 100);    // ...the snapshot has not
/// assert_eq!(snap.get(&5_000), Some(5));
/// ```
pub struct ShardedSnapshot<'t, K, V, P = crate::RangePrefixPartitioner> {
    map: &'t ShardedPnbBst<K, V, P>,
    /// Index-aligned with `map.shards`; *captured* in descending shard
    /// order (the vector is then reversed back into index order).
    snaps: Vec<Snapshot<'t, K, V>>,
}

impl<'t, K, V, P> ShardedSnapshot<'t, K, V, P>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
    P: Partitioner<K>,
{
    pub(crate) fn new(map: &'t ShardedPnbBst<K, V, P>) -> Self {
        // Capture order IS the consistency mechanism: highest shard
        // first, shard 0 last (see the type docs / crate docs §model).
        let mut snaps: Vec<Snapshot<'t, K, V>> =
            map.shards.iter().rev().map(|t| t.snapshot()).collect();
        snaps.reverse(); // back to index order for routing
        ShardedSnapshot { map, snaps }
    }

    /// The underlying sharded map.
    pub fn map(&self) -> &'t ShardedPnbBst<K, V, P> {
        self.map
    }

    /// The per-shard phase (sequence number) each component snapshot
    /// reads, index-aligned with the shards (diagnostics).
    pub fn seqs(&self) -> Vec<u64> {
        self.snaps.iter().map(|s| s.seq()).collect()
    }

    /// One shard's component snapshot (diagnostics and tests).
    pub fn shard(&self, index: usize) -> &Snapshot<'t, K, V> {
        &self.snaps[index]
    }

    /// Wait-free point lookup in the snapshot's version of the key's
    /// shard.
    pub fn get(&self, key: &K) -> Option<V> {
        self.snaps[self.map.shard_of(key)].get(key)
    }

    /// Whether `key` was present when its shard was captured.
    pub fn contains(&self, key: &K) -> bool {
        self.snaps[self.map.shard_of(key)].contains(key)
    }

    /// Cross-shard lazy range iteration within the snapshot, ascending.
    /// The phases are already closed, so (unlike
    /// [`ShardedSession::range`](crate::ShardedSession::range)) this
    /// advances no counters and any number of iterations observe the
    /// same cut.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> MergeRange<'_, K, V> {
        let lo = range.start_bound().cloned();
        let hi = range.end_bound().cloned();
        let targets =
            self.map
                .partitioner
                .shards_for_range(lo.as_ref(), hi.as_ref(), self.snaps.len());
        let indices: Vec<usize> = match targets {
            None => (0..self.snaps.len()).collect(),
            Some(mut idx) => {
                idx.sort_unstable();
                idx.dedup();
                idx
            }
        };
        MergeRange::new(
            indices
                .into_iter()
                .map(|i| self.snaps[i].range((lo.clone(), hi.clone())))
                .collect(),
        )
    }

    /// Lazy iteration over the whole snapshot (`range(..)`), ascending.
    pub fn iter(&self) -> MergeRange<'_, K, V> {
        self.range(..)
    }

    /// All key/value pairs in the snapshot, ascending.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.iter().collect()
    }

    /// Keys only, ascending.
    pub fn keys(&self) -> Vec<K> {
        self.iter().map(|(k, _)| k).collect()
    }

    /// Number of keys in the snapshot (sum of per-shard cardinalities).
    pub fn len(&self) -> usize {
        self.snaps.iter().map(|s| s.len()).sum()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snaps.iter().all(|s| s.is_empty())
    }
}

impl<K, V, P> std::fmt::Debug for ShardedSnapshot<'_, K, V, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSnapshot")
            .field("shards", &self.snaps.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize) -> ShardedPnbBst<u64, u64> {
        ShardedPnbBst::with_partitioner(shards, crate::RangePrefixPartitioner::with_block_bits(8))
    }

    #[test]
    fn snapshot_is_frozen_in_time() {
        let m = map(4);
        let s = m.pin();
        for k in 0..64u64 {
            s.insert(k * 300, k);
        }
        let snap = m.snapshot();
        for k in 0..64u64 {
            s.delete(&(k * 300));
            s.insert(k * 300 + 1, k);
        }
        assert_eq!(snap.len(), 64);
        assert_eq!(snap.keys(), (0..64u64).map(|k| k * 300).collect::<Vec<_>>());
        assert_eq!(snap.get(&600), Some(2));
        assert!(!snap.contains(&601)); // written after the capture
        assert!(!snap.is_empty());
        assert_eq!(snap.seqs().len(), 4);
    }

    #[test]
    fn snapshot_ranges_merge_ascending_and_skip_shards() {
        let m = map(8);
        let s = m.pin();
        for k in 0..1_024u64 {
            s.insert(k, k);
        }
        let snap = m.snapshot();
        // Narrow range: at most two 256-key blocks participate.
        let r = snap.range(100u64..200);
        assert!(r.width() <= 2);
        assert_eq!(r.count(), 100);
        let got: Vec<u64> = snap.range(..).map(|(k, _)| k).collect();
        assert_eq!(got, (0..1_024).collect::<Vec<_>>());
        // Re-iteration observes the same cut (phases already closed).
        assert_eq!(snap.range(..).count(), 1_024);
    }

    #[test]
    fn multiple_snapshots_capture_distinct_versions() {
        let m = map(2);
        m.insert(1, 1);
        let s1 = m.snapshot();
        m.insert(2_000, 2);
        let s2 = m.snapshot();
        m.delete(&1);
        let s3 = m.snapshot();
        assert_eq!(s1.keys(), vec![1]);
        assert_eq!(s2.keys(), vec![1, 2_000]);
        assert_eq!(s3.keys(), vec![2_000]);
    }

    #[test]
    fn empty_snapshot() {
        let m = map(3);
        let snap = m.snapshot();
        m.insert(1, 1);
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.get(&1), None);
        assert_eq!(snap.to_vec(), vec![]);
    }
}
