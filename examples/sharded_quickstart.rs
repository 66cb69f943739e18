//! Sharded quickstart: partition the key space over independent
//! PNB-BSTs and read it back as one map.
//!
//! ```sh
//! cargo run --release --example sharded_quickstart
//! ```
//!
//! Shows: construction + routing, per-thread sharded sessions, merged
//! cross-shard range queries, cross-shard snapshots, and the
//! prefix-consistency idiom for multi-shard updates ("commit record
//! last": write the highest shard last, then its presence in any
//! snapshot implies every earlier piece is present too).

use pnbbst_repro::{RangePrefixPartitioner, ShardedPnbBst};
use std::sync::Arc;
use std::thread;

fn main() {
    // --- Construction and routing -----------------------------------
    // 8 independent PNB-BSTs behind one map. The default partitioner
    // hashes the key's 4096-key block, so narrow ranges stay
    // shard-local while blocks spread uniformly.
    let map: Arc<ShardedPnbBst<u64, u64>> = Arc::new(ShardedPnbBst::new(8));
    println!(
        "8 shards; key 0 routes to shard {}, key 1_000_000 to shard {}",
        map.shard_of(&0),
        map.shard_of(&1_000_000)
    );

    // --- Sessions: the hot-path API ---------------------------------
    // One session pins every shard once; point ops route to exactly
    // one shard's tree and inherit its lock-free guarantees.
    let s = map.pin();
    for k in 0..50u64 {
        s.insert(k * 10_000, k); // spread over many blocks → many shards
    }
    assert_eq!(s.get(&70_000), Some(7));
    assert_eq!(s.upsert(70_000, 777), Some(7)); // atomic, per-shard
    assert!(s.delete(&480_000));

    // Cross-shard lazy range: one phase close per participating shard
    // (descending shard order — the consistency discipline), merged
    // ascending. Narrow ranges skip shards entirely.
    let narrow = s.range(60_000u64..=62_000).width();
    println!("narrow range touches {narrow} of 8 shards");
    assert!(narrow <= 2); // spans at most two 4096-key blocks
    let keys: Vec<u64> = s.range(100_000u64..200_000).map(|(k, _)| k).collect();
    assert_eq!(keys, (10..20u64).map(|k| k * 10_000).collect::<Vec<_>>());
    assert_eq!(s.snapshot().len(), 49);
    drop(s);

    // --- Cross-shard snapshots --------------------------------------
    let snap = map.snapshot();
    map.insert(999_999, 42);
    assert_eq!(snap.len(), 49); // frozen: the late key is invisible
    assert_eq!(map.len(), 50);
    println!(
        "snapshot froze {} keys across per-shard phases {:?}",
        snap.len(),
        snap.seqs()
    );
    drop(snap);

    // --- The prefix-consistency idiom -------------------------------
    // A writer updating shards in ASCENDING order is seen prefix-closed
    // by every cross-shard read (which captures shards in DESCENDING
    // order): if a snapshot shows the write to shard i, it shows every
    // write to shards j < i of the same "transaction". Writing a
    // commit record into the HIGHEST shard last therefore publishes
    // the whole transaction atomically-in-effect.
    let mut by_shard: Vec<Option<u64>> = vec![None; 8];
    let mut found = 0;
    for block in 0..100_000u64 {
        let k = block * 4_096;
        let sh = map.shard_of(&k);
        if by_shard[sh].is_none() {
            by_shard[sh] = Some(k);
            found += 1;
            if found == 8 {
                break;
            }
        }
    }
    let txn_keys: Vec<u64> = by_shard.into_iter().map(Option::unwrap).collect();

    let writer = {
        let map = Arc::clone(&map);
        let txn_keys = txn_keys.clone();
        thread::spawn(move || {
            let mut session = map.pin();
            for version in 1..=500u64 {
                for &k in &txn_keys {
                    // ascending shard order
                    session.upsert(k, version);
                }
                if version.is_multiple_of(64) {
                    session.refresh();
                }
            }
        })
    };

    // Concurrent snapshots may catch a transaction half-done, but only
    // ever as a prefix: versions along shard order never increase.
    let mut checked = 0u32;
    for _ in 0..200 {
        let snap = map.snapshot();
        let versions: Vec<u64> = txn_keys.iter().map(|k| snap.get(k).unwrap_or(0)).collect();
        for w in versions.windows(2) {
            assert!(w[0] >= w[1], "torn cross-shard view: {versions:?}");
        }
        checked += 1;
    }
    writer.join().unwrap();
    println!("{checked} concurrent snapshots, every one a consistent prefix cut");

    // --- Custom partitioners ----------------------------------------
    // The routing policy is pluggable; here, coarser 64Ki-key blocks
    // keep even wide ranges on one shard.
    let coarse: ShardedPnbBst<u64, u64, RangePrefixPartitioner> =
        ShardedPnbBst::with_partitioner(4, RangePrefixPartitioner::with_block_bits(16));
    let s = coarse.pin();
    for k in 0..1_000u64 {
        s.insert(k, k);
    }
    let r = s.range(0u64..1_000);
    assert_eq!(r.width(), 1); // whole range inside one block → one shard
    assert_eq!(r.count(), 1_000);
    println!(
        "coarse partitioner: block size {} keys, range width 1 shard",
        coarse.partitioner().block_size()
    );

    println!("sharded_quickstart OK");
}
