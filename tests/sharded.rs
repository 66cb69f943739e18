//! Cross-shard correctness battery for `pnb_shard::ShardedPnbBst`.
//!
//! Three layers:
//!
//! * **Proptest oracle** — random mixed sequences of point ops and
//!   range queries must produce byte-identical results to a `BTreeMap`
//!   at 1, 2 and 8 shards *simultaneously* (the same action sequence
//!   drives all three maps, so a routing bug at any shard count
//!   diverges from the model immediately).
//! * **Cut consistency under concurrency** — a writer updating one
//!   designated key per shard in *ascending* shard order must be
//!   observed *prefix-closed* by every cross-shard snapshot and every
//!   cross-shard merged range (which capture per-shard views in
//!   descending shard order): seeing transaction `v`'s write to shard
//!   `i` implies seeing its writes to every shard `j < i`. Torn
//!   observations (a later shard ahead of an earlier one) fail the
//!   test. See the `pnb-shard` crate docs, "Consistency model".
//! * **Concurrent mixed hammer** — sessions on every thread churn all
//!   shards; afterwards the union of shard contents must equal a
//!   sequential replay and pass every shard's structural validation.
//!
//! Iteration counts scale with `PNBBST_TEST_ITERS` (multiplier,
//! default 1), like the other concurrency suites.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pnbbst_repro::ShardedPnbBst;

/// `n` scaled by the `PNBBST_TEST_ITERS` multiplier (default 1).
fn scaled(n: u64) -> u64 {
    let scale = std::env::var("PNBBST_TEST_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    n * scale
}

#[derive(Clone, Debug)]
enum Action {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
    Get(u64),
    Scan(u64, u64),
    Count,
}

/// Keys spread over many partitioner blocks (the default block is 4096
/// keys wide): multiply a small key index up so consecutive indices
/// land in different blocks and every shard sees traffic.
const KEY_STRIDE: u64 = 5_000;

fn action_strategy(key_space: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..key_space, any::<u64>()).prop_map(|(k, v)| Action::Insert(k * KEY_STRIDE, v)),
        2 => (0..key_space, any::<u64>()).prop_map(|(k, v)| Action::Upsert(k * KEY_STRIDE, v)),
        3 => (0..key_space).prop_map(|k| Action::Remove(k * KEY_STRIDE)),
        2 => (0..key_space).prop_map(|k| Action::Get(k * KEY_STRIDE)),
        1 => (0..key_space, 0..key_space)
            .prop_map(|(a, b)| Action::Scan(a.min(b) * KEY_STRIDE, a.max(b) * KEY_STRIDE)),
        1 => Just(Action::Count),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_matches_btreemap_at_1_2_and_8_shards(
        actions in prop::collection::vec(action_strategy(64), 1..300)
    ) {
        let maps: Vec<ShardedPnbBst<u64, u64>> =
            [1usize, 2, 8].into_iter().map(ShardedPnbBst::new).collect();
        let sessions: Vec<_> = maps.iter().map(|m| m.pin()).collect();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for a in &actions {
            match a {
                Action::Insert(k, v) => {
                    let absent = !model.contains_key(k);
                    for s in &sessions {
                        prop_assert_eq!(s.insert(*k, *v), absent);
                    }
                    model.entry(*k).or_insert(*v);
                }
                Action::Upsert(k, v) => {
                    let displaced = model.insert(*k, *v);
                    for s in &sessions {
                        prop_assert_eq!(s.upsert(*k, *v), displaced);
                    }
                }
                Action::Remove(k) => {
                    let removed = model.remove(k);
                    for s in &sessions {
                        prop_assert_eq!(s.remove(k), removed);
                    }
                }
                Action::Get(k) => {
                    for s in &sessions {
                        prop_assert_eq!(s.get(k), model.get(k).copied());
                    }
                }
                Action::Scan(lo, hi) => {
                    let expect: Vec<(u64, u64)> =
                        model.range(*lo..=*hi).map(|(k, v)| (*k, *v)).collect();
                    for s in &sessions {
                        // Both the lazy merged iterator and a snapshot's
                        // range must agree with the model.
                        let lazy: Vec<(u64, u64)> = s.range(*lo..=*hi).collect();
                        prop_assert_eq!(lazy, expect.clone());
                        let snap: Vec<(u64, u64)> = s.snapshot().range(*lo..=*hi).collect();
                        prop_assert_eq!(snap, expect.clone());
                    }
                }
                Action::Count => {
                    for s in &sessions {
                        prop_assert_eq!(s.snapshot().len(), model.len());
                    }
                }
            }
        }

        // Final whole-map iteration and per-shard structural checks.
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        for s in &sessions {
            let got: Vec<(u64, u64)> = s.iter().collect();
            prop_assert_eq!(got, expect.clone());
        }
        drop(sessions);
        for m in &maps {
            prop_assert_eq!(m.check_invariants(), model.len());
        }
    }

    #[test]
    fn sharded_snapshots_freeze_their_cut(
        actions in prop::collection::vec(action_strategy(48), 1..150)
    ) {
        let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(8);
        let session = map.pin();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut snaps = Vec::new();

        for (i, a) in actions.iter().enumerate() {
            match a {
                Action::Insert(k, v) => {
                    session.insert(*k, *v);
                    model.entry(*k).or_insert(*v);
                }
                Action::Upsert(k, v) => {
                    session.upsert(*k, *v);
                    model.insert(*k, *v);
                }
                Action::Remove(k) => {
                    session.remove(k);
                    model.remove(k);
                }
                _ => {}
            }
            if i.is_multiple_of(40) && snaps.len() < 4 {
                snaps.push((map.snapshot(), model.clone()));
            }
        }

        // Every live snapshot still reflects exactly its frozen model.
        for (snap, frozen) in &snaps {
            let expect: Vec<(u64, u64)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(snap.to_vec(), expect);
            prop_assert_eq!(snap.len(), frozen.len());
            for k in [0u64, 7 * KEY_STRIDE, 23 * KEY_STRIDE, 47 * KEY_STRIDE] {
                prop_assert_eq!(snap.get(&k), frozen.get(&k).copied());
            }
        }
    }
}

/// One designated key per shard, so a "transaction" can touch every
/// shard exactly once in ascending shard order.
fn designated_keys(map: &ShardedPnbBst<u64, u64>) -> Vec<u64> {
    let n = map.shard_count();
    let mut keys: Vec<Option<u64>> = vec![None; n];
    // Walk block-aligned keys (the default partitioner routes per
    // 4096-key block) until every shard has a representative.
    let mut found = 0;
    for block in 0..100_000u64 {
        let k = block * 4_096;
        let s = map.shard_of(&k);
        if keys[s].is_none() {
            keys[s] = Some(k);
            found += 1;
            if found == n {
                break;
            }
        }
    }
    keys.into_iter()
        .map(|k| k.expect("every shard reachable within the scanned blocks"))
        .collect()
}

/// The cut-consistency stress: writers update one key per shard in
/// ascending shard order; concurrent cross-shard snapshots and merged
/// ranges must observe those writes prefix-closed (versions monotone
/// non-increasing along the shard order). A single torn observation
/// fails.
fn cut_consistency_at(shards: usize) {
    let map: Arc<ShardedPnbBst<u64, u64>> = Arc::new(ShardedPnbBst::new(shards));
    let keys = designated_keys(&map);
    assert_eq!(keys.len(), shards);
    // Transaction 0: every key present with version 0 (so readers never
    // see "absent", only versions).
    {
        let s = map.pin();
        for &k in &keys {
            s.upsert(k, 0);
        }
    }

    let txns = scaled(2_000);
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Writer: ascending shard order, version v per transaction.
        let writer = {
            let map = Arc::clone(&map);
            let keys = keys.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut session = map.pin();
                for v in 1..=txns {
                    for &k in &keys {
                        session.upsert(k, v);
                    }
                    if v.is_multiple_of(64) {
                        session.refresh();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            })
        };

        // Readers: alternate between snapshots and session ranges.
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let map = Arc::clone(&map);
                let keys = keys.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut session = map.pin();
                    let mut observed = 0u64;
                    let mut rounds = 0u64;
                    // At least one round always runs, even if the
                    // writer finishes before this thread is scheduled
                    // (routine on a single-core box).
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let versions: Vec<u64> = if (rounds + r).is_multiple_of(2) {
                            let snap = session.snapshot();
                            keys.iter()
                                .map(|k| snap.get(k).expect("designated keys never vanish"))
                                .collect()
                        } else {
                            // The merged range reads the same descending
                            // capture discipline through the session.
                            let mut by_key: BTreeMap<u64, u64> = session.range(..).collect();
                            keys.iter()
                                .map(|k| by_key.remove(k).expect("designated keys never vanish"))
                                .collect()
                        };
                        // Prefix-closedness: monotone non-increasing
                        // along ascending shard order.
                        for w in versions.windows(2) {
                            assert!(
                                w[0] >= w[1],
                                "torn cross-shard view: versions {versions:?} \
                                 (a later shard is ahead of an earlier one)"
                            );
                        }
                        observed = observed.max(versions[0]);
                        rounds += 1;
                        session.refresh();
                        if done {
                            break;
                        }
                    }
                    (rounds, observed)
                })
            })
            .collect();

        writer.join().unwrap();
        let mut total_rounds = 0;
        for h in readers {
            let (rounds, observed) = h.join().unwrap();
            total_rounds += rounds;
            assert!(observed <= txns);
        }
        assert!(total_rounds > 0, "readers never completed a round");
    });

    // Quiescent: the final transaction is fully visible everywhere.
    let s = map.pin();
    for &k in &keys {
        assert_eq!(s.get(&k), Some(txns));
    }
    drop(s);
    assert_eq!(map.check_invariants(), shards);
}

#[test]
fn cross_shard_cut_consistency_1_shard() {
    cut_consistency_at(1);
}

#[test]
fn cross_shard_cut_consistency_2_shards() {
    cut_consistency_at(2);
}

#[test]
fn cross_shard_cut_consistency_8_shards() {
    cut_consistency_at(8);
}

/// Concurrent mixed hammer over all shards: per-thread sessions, every
/// operation class, then a sequential replay check and per-shard
/// structural validation.
#[test]
fn concurrent_mixed_hammer_preserves_shard_invariants() {
    let shards = 8;
    let map: Arc<ShardedPnbBst<u64, u64>> = Arc::new(ShardedPnbBst::new(shards));
    let nthreads = 4;
    let per_thread = scaled(8_000);

    std::thread::scope(|scope| {
        for t in 0..nthreads as u64 {
            let map = Arc::clone(&map);
            scope.spawn(move || {
                let mut session = map.pin();
                // Thread-disjoint stripes keyed far apart so every
                // thread's traffic spans many blocks (and so the final
                // contents are deterministic despite concurrency).
                for i in 0..per_thread {
                    let k = (t * per_thread + i) * 1_003;
                    session.insert(k, t);
                    if i.is_multiple_of(3) {
                        session.delete(&k);
                    }
                    if i.is_multiple_of(5) {
                        session.upsert(k, t + 100);
                    }
                    if i.is_multiple_of(256) {
                        let _ = session.range(k.saturating_sub(10_000)..=k).count();
                        session.refresh();
                    }
                }
            });
        }
    });

    // Sequential replay of one thread's stripe semantics.
    let mut expect_live = 0u64;
    for i in 0..per_thread {
        let mut present = true;
        if i.is_multiple_of(3) {
            present = false;
        }
        if i.is_multiple_of(5) {
            present = true; // upsert revives it
        }
        if present {
            expect_live += 1;
        }
    }

    let s = map.pin();
    let total = s.snapshot().len() as u64;
    drop(s);
    assert_eq!(total, expect_live * nthreads as u64);
    assert_eq!(map.check_invariants() as u64, total);
}
