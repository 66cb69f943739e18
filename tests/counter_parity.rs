//! Counter parity: one fixed single-thread sequence — inserts, an
//! upsert, deletes, gets, a range, a held snapshot read after the
//! updates and a 16-op batch — on a `PnbBst` and on a 4-shard map, with
//! the exact value of every counter the trees, the shard layer and the
//! arena report.
//!
//! The expected values are what the counters read before counting was
//! always on: the trees' `stats`-feature atomics, the shard layer's
//! routing counters, and the test-only walk and lock-step read counters
//! (summed over the map's shards, which those did not split), except
//! `helps`: a failed validation that meets a committed mark no longer
//! counts one, so on one thread it reads 0. One test in its own binary,
//! so the process-global arena counters see nothing but this sequence.

use pnb_bst::{arena_stats, ArenaStats, BatchOp, PnbBst, StatsSnapshot};
use pnb_shard::{ShardOpStats, ShardedPnbBst};

/// Run the sequence on `$map` (a `PnbBst` or a `ShardedPnbBst` of
/// `u64 → u64`); returns what the reads saw.
macro_rules! sequence {
    ($map:expr) => {{
        let map = $map;
        let s = map.pin();
        for k in 0..64u64 {
            assert!(s.insert(k * 1_000, k));
        }
        let held = map.snapshot();
        assert_eq!(s.upsert(10_000, 100), Some(10));
        for k in 0..8u64 {
            assert!(s.delete(&(k * 8_000)));
        }
        let found = (0..16u64).filter(|k| s.get(&(k * 4_000)).is_some()).count();
        let ranged = s.range(20_000..40_000).count();
        let batch: Vec<BatchOp<u64, u64>> = (0..16u64)
            .map(|i| match i % 4 {
                0 => BatchOp::Insert(i * 4_000 + 500, i),
                1 => BatchOp::Upsert(i * 4_000, i),
                2 => BatchOp::Delete(i * 3_000),
                _ => BatchOp::Get(i * 1_000),
            })
            .collect();
        let outs = s.apply_batch(&batch);
        drop(s);
        // The held snapshot reads its own version through `prev` links.
        assert_eq!(held.get(&10_000), Some(10));
        assert_eq!(held.get(&8_000), Some(8));
        (found, ranged, outs.len(), held.len(), map.snapshot().len())
    }};
}

fn arena_delta(before: ArenaStats) -> ArenaStats {
    let after = arena_stats();
    ArenaStats {
        pool_hits: after.pool_hits - before.pool_hits,
        pool_misses: after.pool_misses - before.pool_misses,
        recycled_bytes: after.recycled_bytes - before.recycled_bytes,
    }
}

/// One tree's counters with the always-zero abort and CAS-failure
/// fields filled in.
fn stats(
    [update_attempts, helps, validation_failures, scans]: [u64; 4],
    [finds, inserts, upserts, deletes]: [u64; 4],
    [walk_nodes, walk_prev_hops, search_nodes, search_prev_hops]: [u64; 4],
) -> StatsSnapshot {
    StatsSnapshot {
        update_attempts,
        handshake_aborts: 0,
        freeze_aborts: 0,
        helps,
        freeze_cas_failures: 0,
        validation_failures,
        scans,
        scan_helps: 0,
        finds,
        inserts,
        upserts,
        deletes,
        walk_nodes,
        walk_prev_hops,
        search_nodes,
        search_prev_hops,
    }
}

#[test]
fn one_sequence_reads_the_same_counts_as_before() {
    let before = arena_stats();
    let tree: PnbBst<u64, u64> = PnbBst::new();
    assert_eq!(sequence!(&tree), (8, 18, 16, 64, 56));
    // No helps: the sequence runs on one thread, so every record is
    // decided before the next operation starts, and the 3 validation
    // failures each meet a committed delete's permanent mark, which
    // has nothing left to help.
    assert_eq!(
        tree.stats(),
        stats([87, 0, 3, 3], [20, 68, 5, 12], [301, 15, 356, 7])
    );
    // 395 blocks: 224 nodes (the root and two sentinels, three per
    // insert, one per upsert and per delete: 3 + 68 * 3 + 5 + 12), 86
    // `Info` headers (the Dummy and one per published attempt: all 85
    // updates publish once) and 85 bodies. One miss per class — node,
    // header, body — maps its first slab; the rest are hits.
    let tree_arena = ArenaStats {
        pool_hits: 392,
        pool_misses: 3,
        recycled_bytes: 0,
    };
    assert_eq!(arena_delta(before), tree_arena);

    let before = arena_stats();
    let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
    assert_eq!(sequence!(&map), (8, 18, 16, 64, 56));
    let per_shard: Vec<StatsSnapshot> = (0..4).map(|i| map.shard(i).stats()).collect();
    let ops = |gets, inserts, upserts, deletes, scans| ShardOpStats {
        gets,
        inserts,
        upserts,
        deletes,
        scans,
    };
    assert_eq!(
        map.shard_stats(),
        [
            ops(2, 8, 0, 1, 3),
            ops(5, 15, 0, 4, 2),
            ops(7, 26, 3, 3, 3),
            ops(6, 19, 2, 4, 3),
        ]
    );
    assert!((pnb_shard::load_imbalance(&map.shard_stats()) - 1.448_275_862).abs() < 1e-9);
    let kept: Vec<[u64; 4]> = (per_shard.iter())
        .map(|s| [s.update_attempts, s.helps, s.validation_failures, s.scans])
        .collect();
    assert_eq!(
        kept,
        [[9, 0, 0, 3], [19, 0, 1, 2], [33, 0, 1, 3], [26, 0, 1, 3]]
    );
    for s in &per_shard {
        let zero = (s.handshake_aborts, s.freeze_aborts, s.freeze_cas_failures);
        assert_eq!((zero, s.scan_helps), ((0, 0, 0), 0));
    }
    // Each shard's operation counts are its `ShardOpStats` above.
    for (s, o) in per_shard.iter().zip(map.shard_stats()) {
        let counted = [s.finds, s.inserts, s.upserts, s.deletes, s.scans];
        assert_eq!(counted, [o.gets, o.inserts, o.upserts, o.deletes, o.scans]);
    }
    let reads: Vec<[u64; 4]> = (per_shard.iter())
        .map(|s| {
            [
                s.walk_nodes,
                s.walk_prev_hops,
                s.search_nodes,
                s.search_prev_hops,
            ]
        })
        .collect();
    // Summed over the shards: 319 walk nodes, 18 walk hops, 153
    // lock-step nodes and 3 other hops.
    assert_eq!(
        reads,
        [
            [51, 1, 0, 0],
            [56, 4, 32, 2],
            [127, 7, 71, 1],
            [85, 6, 50, 0]
        ]
    );
    // 407 blocks, all from the slabs the tree's sequence mapped: 233
    // nodes (4 shards' three, then the same 221 as the tree), 89 headers
    // (4 Dummies, 85 attempts) and 85 bodies. The recycled bytes are the
    // tree sequence's first sealed bag, which ripens here: the leaves its
    // 64 ascending inserts replaced, each retired in one entry with its
    // attempt's body, 64 * (64 + 80) B.
    let map_arena = ArenaStats {
        pool_hits: 407,
        pool_misses: 0,
        recycled_bytes: 9_216,
    };
    assert_eq!(arena_delta(before), map_arena);
}
