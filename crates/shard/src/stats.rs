//! Per-shard operation totals.
//!
//! The sharded front-end's scaling argument rests on the partitioner
//! spreading load evenly; these totals make the spread *observable*.
//! [`ShardedPnbBst::shard_stats`](crate::ShardedPnbBst::shard_stats)
//! returns one [`ShardOpStats`] per shard, read from that shard tree's
//! own always-on counters ([`pnb_bst::StatsSnapshot`]), and
//! [`load_imbalance`] reduces them to the max/mean ratio the reports
//! print (1.0 = perfect balance). The routing layer counts nothing of
//! its own.

/// One shard's operation totals, as its tree counts them (a retried
/// CAS inside the tree still counts once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardOpStats {
    /// Point reads served here (`get` + `contains`, batched too).
    pub gets: u64,
    /// Set-semantics inserts served here.
    pub inserts: u64,
    /// Upserts served here.
    pub upserts: u64,
    /// Deletes/removes served here.
    pub deletes: u64,
    /// Phases this shard closed: range queries and snapshots it took
    /// part in.
    pub scans: u64,
}

impl ShardOpStats {
    /// All operations this shard served.
    pub fn total(&self) -> u64 {
        self.gets + self.inserts + self.upserts + self.deletes + self.scans
    }
}

/// Max/mean ratio of per-shard totals: 1.0 is a perfect spread, `N` is
/// everything on one of `N` shards. Returns 0.0 when no shard has
/// served any operation, so reports can distinguish "balanced" from
/// "nothing served".
pub fn load_imbalance(stats: &[ShardOpStats]) -> f64 {
    let totals: Vec<u64> = stats.iter().map(ShardOpStats::total).collect();
    let sum: u64 = totals.iter().sum();
    if sum == 0 || totals.is_empty() {
        return 0.0;
    }
    let max = *totals.iter().max().expect("non-empty") as f64;
    let mean = sum as f64 / totals.len() as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedPnbBst;
    use pnb_bst::BatchOp;

    #[test]
    fn snapshot_defaults_to_zero() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(3);
        assert_eq!(m.shard_stats(), vec![ShardOpStats::default(); 3]);
        assert_eq!(load_imbalance(&m.shard_stats()), 0.0);
    }

    #[test]
    fn counters_record() {
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(1);
        let s = m.pin();
        s.get(&1);
        s.contains(&1);
        s.insert(1, 1);
        s.upsert(1, 2);
        s.remove(&1);
        s.delete(&1);
        assert_eq!(s.range(..).count(), 0);
        let ops = [
            BatchOp::Get(2),
            BatchOp::Insert(2, 2),
            BatchOp::Upsert(2, 3),
            BatchOp::Delete(2),
        ];
        s.apply_batch(&ops);
        assert!(m.snapshot().is_empty());
        let counted = ShardOpStats {
            gets: 3,
            inserts: 2,
            upserts: 2,
            deletes: 3,
            scans: 2,
        };
        assert_eq!(m.shard_stats(), [counted]);
        assert_eq!(counted.total(), 12);
    }

    #[test]
    fn imbalance_of_nothing_is_zero() {
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(load_imbalance(&[ShardOpStats::default(); 4]), 0.0);
    }

    #[test]
    fn imbalance_ratio_is_max_over_mean() {
        let mk = |gets| ShardOpStats {
            gets,
            ..Default::default()
        };
        // Perfect balance.
        assert!((load_imbalance(&[mk(10), mk(10)]) - 1.0).abs() < 1e-12);
        // Everything on one of four shards: ratio = N.
        let skew = [mk(100), mk(0), mk(0), mk(0)];
        assert!((load_imbalance(&skew) - 4.0).abs() < 1e-12);
    }
}
