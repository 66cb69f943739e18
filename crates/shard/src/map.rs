//! The sharded map itself: construction, routing, and the per-call
//! point operations.

use pnb_bst::PnbBst;

use crate::partition::{Partitioner, RangePrefixPartitioner};
use crate::session::ShardedSession;
use crate::snapshot::ShardedSnapshot;
use crate::stats::ShardOpStats;

/// A sharded front-end over `N` independent [`PnbBst`] instances.
///
/// The key space is partitioned by a pluggable [`Partitioner`] (default:
/// [`RangePrefixPartitioner`], which keeps narrow range queries
/// shard-local); every point operation routes to exactly one shard, so
/// point-op throughput scales with the shard count (each shard has its
/// own phase counter, its own CAS traffic, its own helping traffic).
/// Cross-shard [`range`](ShardedSession::range) and
/// [`snapshot`](ShardedPnbBst::snapshot) stitch per-shard linearizable
/// views into one ascending, *prefix-consistent* view — see the crate
/// docs for the exact consistency model and its proof sketch.
///
/// # Example
///
/// ```
/// use pnb_shard::ShardedPnbBst;
///
/// let map: ShardedPnbBst<u64, &str> = ShardedPnbBst::new(8);
/// let s = map.pin(); // one session, all shards
/// s.insert(1, "one");
/// s.insert(60_000, "far away");          // routed to another shard
/// assert_eq!(s.get(&1), Some("one"));
/// let all: Vec<u64> = s.range(..).map(|(k, _)| k).collect();
/// assert_eq!(all, vec![1, 60_000]);      // merged, ascending
/// ```
pub struct ShardedPnbBst<K, V, P = RangePrefixPartitioner> {
    pub(crate) shards: Box<[PnbBst<K, V>]>,
    pub(crate) partitioner: P,
}

impl<V> ShardedPnbBst<u64, V>
where
    V: Clone + 'static,
{
    /// A sharded map over `u64` keys with `shards` shards and the
    /// default [`RangePrefixPartitioner`]. Other key types pick their
    /// routing policy explicitly via
    /// [`with_partitioner`](Self::with_partitioner).
    ///
    /// # Panics
    ///
    /// If `shards == 0`.
    pub fn new(shards: usize) -> Self {
        Self::with_partitioner(shards, RangePrefixPartitioner::default())
    }
}

impl<K, V, P> ShardedPnbBst<K, V, P>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
    P: Partitioner<K>,
{
    /// A sharded map with `shards` shards routed by `partitioner`.
    ///
    /// # Panics
    ///
    /// If `shards == 0`.
    pub fn with_partitioner(shards: usize, partitioner: P) -> Self {
        assert!(shards > 0, "a sharded map needs at least one shard");
        ShardedPnbBst {
            shards: (0..shards).map(|_| PnbBst::new()).collect(),
            partitioner,
        }
    }

    /// The number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing policy.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// The shard index `key` routes to (diagnostics and tests; normal
    /// operations route internally).
    pub fn shard_of(&self, key: &K) -> usize {
        let s = self.partitioner.shard_of(key, self.shards.len());
        debug_assert!(s < self.shards.len(), "partitioner routed out of range");
        s
    }

    /// Direct access to one shard's tree (diagnostics and tests).
    pub fn shard(&self, index: usize) -> &PnbBst<K, V> {
        &self.shards[index]
    }

    /// Open a pinned session over every shard: the hot-path API. See
    /// [`ShardedSession`].
    pub fn pin(&self) -> ShardedSession<'_, K, V, P> {
        ShardedSession::new(self)
    }

    /// Per-shard operation totals, one entry per shard in index order,
    /// read from each shard tree's counters ([`PnbBst::stats`]); a
    /// shard's `scans` are the phases its tree closed. Feed the result
    /// to [`crate::load_imbalance`] for the max/mean balance ratio.
    pub fn shard_stats(&self) -> Vec<ShardOpStats> {
        let per_tree = |t: &PnbBst<K, V>| {
            let s = t.stats();
            ShardOpStats {
                gets: s.finds,
                inserts: s.inserts,
                upserts: s.upserts,
                deletes: s.deletes,
                scans: s.scans,
            }
        };
        self.shards.iter().map(per_tree).collect()
    }

    /// Take a cross-shard snapshot: per-shard [`pnb_bst::Snapshot`]s
    /// captured in **descending shard order**, which is what makes the
    /// combined view prefix-consistent for writers that update shards
    /// in ascending order (crate docs, "Consistency model").
    pub fn snapshot(&self) -> ShardedSnapshot<'_, K, V, P> {
        ShardedSnapshot::new(self)
    }

    // --- per-call point operations (each call opens a session) -------

    /// Look up `key` (pins per call; loops should use [`pin`](Self::pin)).
    pub fn get(&self, key: &K) -> Option<V> {
        self.pin().get(key)
    }

    /// Whether `key` is present (pins per call).
    pub fn contains(&self, key: &K) -> bool {
        self.pin().contains(key)
    }

    /// Insert without replacement — set semantics (pins per call).
    pub fn insert(&self, key: K, value: V) -> bool {
        self.pin().insert(key, value)
    }

    /// Atomically insert or replace, returning the displaced value
    /// (pins per call).
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        self.pin().upsert(key, value)
    }

    /// Remove `key`; `true` iff it was present (pins per call).
    pub fn delete(&self, key: &K) -> bool {
        self.pin().delete(key)
    }

    /// Remove `key`, returning its value (pins per call).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.pin().remove(key)
    }

    /// Cardinality: the sum of one [`ShardedSnapshot`]'s per-shard
    /// counts, which clone nothing and merge nothing.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the map holds no keys, through one [`ShardedSnapshot`].
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Run every shard's structural validation; returns the total key
    /// count. Quiescent use only (see [`PnbBst::check_invariants`]).
    pub fn check_invariants(&self) -> usize {
        self.shards.iter().map(|t| t.check_invariants()).sum()
    }
}

impl<K, V, P> std::fmt::Debug for ShardedPnbBst<K, V, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPnbBst")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_surface() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
        assert_eq!(m.shard_count(), 4);
        assert!(m.is_empty());
        assert!(m.insert(7, 70));
        assert!(!m.insert(7, 71)); // set semantics
        assert_eq!(m.upsert(7, 77), Some(70));
        assert_eq!(m.upsert(9, 90), None);
        assert!(m.contains(&7));
        assert_eq!(m.get(&9), Some(90));
        assert_eq!(m.len(), 2);
        assert_eq!(m.snapshot().to_vec(), vec![(7, 77), (9, 90)]);
        assert_eq!(m.remove(&7), Some(77));
        assert!(!m.delete(&7));
        assert_eq!(m.check_invariants(), 1);
    }

    #[test]
    fn len_clones_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        struct Loud;
        impl Clone for Loud {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Relaxed);
                Loud
            }
        }
        // 256-key blocks: the 1,000 keys spread over all four shards.
        let m = ShardedPnbBst::with_partitioner(4, RangePrefixPartitioner::with_block_bits(8));
        let s = m.pin();
        for k in 0..1000u64 {
            s.insert(k, Loud);
        }
        drop(s);
        let built = CLONES.load(Relaxed);
        assert_eq!(m.len(), 1000);
        assert!(!m.is_empty());
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1000);
        assert!(!snap.is_empty());
        assert_eq!(CLONES.load(Relaxed), built, "counting cloned values");
    }

    #[test]
    fn keys_actually_spread_over_shards() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(8);
        let s = m.pin();
        // Spread keys block-by-block so the prefix partitioner sees
        // many distinct blocks.
        for k in (0..(64u64 << 12)).step_by(1 << 12) {
            s.insert(k, k);
        }
        drop(s);
        let populated = (0..8)
            .filter(|&i| !m.shard(i).snapshot().is_empty())
            .count();
        assert!(populated >= 4, "only {populated}/8 shards used");
        let total: usize = (0..8).map(|i| m.shard(i).check_invariants()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn shard_stats_shape_matches_shard_count() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
        let s = m.pin();
        assert!(s.insert(1, 1));
        assert_eq!(s.get(&1), Some(1));
        assert_eq!(s.range(0..=10).collect::<Vec<_>>(), vec![(1, 1)]);
        drop(s);
        let st = m.shard_stats();
        assert_eq!(st.len(), 4);
        let total: u64 = st.iter().map(crate::ShardOpStats::total).sum();
        // 1 insert + 1 get + one scan participation per shard the
        // partitioner visited (at least one).
        assert!(total >= 3, "expected counted ops, got {st:?}");
        assert!((1.0..=4.0).contains(&crate::load_imbalance(&st)));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(0);
    }

    #[test]
    fn routing_agrees_with_the_partitioner() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(5);
        let s = m.pin();
        for k in (0..200_000u64).step_by(4_096) {
            s.insert(k, k);
        }
        drop(s);
        for k in (0..200_000u64).step_by(4_096) {
            let shard = m.shard_of(&k);
            assert_eq!(m.shard(shard).get(&k), Some(k));
            for other in (0..5).filter(|&i| i != shard) {
                assert_eq!(m.shard(other).get(&k), None);
            }
        }
    }
}
