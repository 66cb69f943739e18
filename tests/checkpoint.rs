//! Durable-checkpoint battery: roundtrip fidelity against a `BTreeMap`
//! oracle, the file format pinned byte by byte, and every state a
//! crash can leave a generation in.
//!
//! Three layers:
//!
//! * **Proptest oracle** — random point-op sequences drive a
//!   `ShardedPnbBst` at 1, 2 and 8 shards alongside a `BTreeMap`;
//!   after a `checkpoint` → `restore` cycle each restored map must
//!   reproduce the model exactly (full contents, merged range queries,
//!   point lookups), and must remain a fully functional map (updates
//!   and a second checkpoint still work).
//! * **The format** — a `CHECKPOINT` file assembled by hand from
//!   DESIGN §9.1's table restores, and is byte-identical to what
//!   `checkpoint` writes; a file whose shard count disagrees with its
//!   runs is a typed error.
//! * **Torn files and crash states** — a bit-flipped or truncated
//!   `CHECKPOINT` must surface as a *typed* `CheckpointError` and must
//!   never stop an older intact generation from loading; each state the
//!   writer can crash in (an empty `gen-N`, a partial or complete
//!   `CHECKPOINT.tmp`, the renamed file) restores the last committed
//!   generation, and a later checkpoint's pruning leaves the debris
//!   alone (DESIGN §9.2).
//!
//! Crash states and damage are made with raw `std::fs`, exactly the way
//! a crash or bitrot would leave them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use pnb_bst::persist;
use pnbbst_repro::{CheckpointError, PnbBst, ShardedPnbBst};

/// Fresh scratch dir under the system temp root, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnb_ckpt_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[derive(Clone, Debug)]
enum Action {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
}

/// Spread keys across partitioner blocks (default block = 4096 keys)
/// so every shard sees traffic at 2 and 8 shards.
const KEY_STRIDE: u64 = 5_000;

fn action_strategy(key_space: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..key_space, any::<u64>()).prop_map(|(k, v)| Action::Insert(k * KEY_STRIDE, v)),
        2 => (0..key_space, any::<u64>()).prop_map(|(k, v)| Action::Upsert(k * KEY_STRIDE, v)),
        2 => (0..key_space).prop_map(|k| Action::Remove(k * KEY_STRIDE)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn checkpoint_restore_matches_btreemap_at_1_2_and_8_shards(
        actions in prop::collection::vec(action_strategy(64), 1..200)
    ) {
        let maps: Vec<ShardedPnbBst<u64, u64>> =
            [1usize, 2, 8].into_iter().map(ShardedPnbBst::new).collect();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let mut sessions: Vec<_> = maps.iter().map(|m| m.pin()).collect();
            for a in &actions {
                match *a {
                    Action::Insert(k, v) => {
                        let want = !model.contains_key(&k);
                        if want {
                            model.insert(k, v);
                        }
                        for s in &mut sessions {
                            prop_assert_eq!(s.insert(k, v), want);
                        }
                    }
                    Action::Upsert(k, v) => {
                        let prev = model.insert(k, v);
                        for s in &mut sessions {
                            prop_assert_eq!(s.upsert(k, v), prev);
                        }
                    }
                    Action::Remove(k) => {
                        let want = model.remove(&k).is_some();
                        for s in &mut sessions {
                            prop_assert_eq!(s.delete(&k), want);
                        }
                    }
                }
            }
        }

        for (i, map) in maps.iter().enumerate() {
            let dir = scratch(&format!("prop_{i}"));
            let report = map.checkpoint(&dir).expect("checkpoint");
            prop_assert_eq!(report.entries, model.len() as u64);

            let restored: ShardedPnbBst<u64, u64> =
                ShardedPnbBst::restore(&dir).expect("restore");
            restored.check_invariants();

            // Full contents, via the merged cross-shard snapshot.
            let got: Vec<(u64, u64)> = restored.snapshot().to_vec();
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&got, &want);

            let s = restored.pin();
            // Point lookups agree with the model (hit and miss).
            for k in (0..64u64).map(|k| k * KEY_STRIDE) {
                prop_assert_eq!(s.get(&k), model.get(&k).copied());
            }
            // Merged range query over a middle window.
            let (lo, hi) = (10 * KEY_STRIDE, 40 * KEY_STRIDE);
            let got_range: Vec<(u64, u64)> = s.range(lo..=hi).collect();
            let want_range: Vec<(u64, u64)> =
                model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&got_range, &want_range);

            // The restored map is live: mutate it and checkpoint again.
            s.upsert(7, 7);
            drop(s);
            let again = restored.checkpoint(&dir).expect("second checkpoint");
            prop_assert_eq!(again.generation, report.generation + 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Checkpoint a fresh 4-shard map holding `n` keys to `dir` and return
/// the map.
fn seeded(dir: &Path, n: u64) -> ShardedPnbBst<u64, u64> {
    let map: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
    {
        let s = map.pin();
        for k in 0..n {
            assert!(s.insert(k * KEY_STRIDE, k));
        }
    }
    map.checkpoint(dir).expect("seed checkpoint");
    map
}

/// The committed file of generation `n` under `dir`.
fn checkpoint_file(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("gen-{n:06}")).join("CHECKPOINT")
}

fn restored_len(dir: &Path) -> Result<usize, CheckpointError> {
    ShardedPnbBst::<u64, u64>::restore(dir).map(|m| m.snapshot().len())
}

#[test]
fn damaged_checkpoint_is_typed_and_prior_generation_still_loads() {
    type Damage = fn(&mut Vec<u8>);
    let flip: Damage = |b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
    };
    let tear: Damage = |b| b.truncate(b.len() - 5);
    for (tag, damage) in [("bitflip", flip), ("truncate", tear)] {
        let dir = scratch(tag);
        let map = seeded(&dir, 50);
        assert!(map.insert(999 * KEY_STRIDE, 999));
        assert_eq!(map.checkpoint(&dir).expect("gen 2").generation, 2);
        let file = checkpoint_file(&dir, 2);
        let mut bytes = std::fs::read(&file).expect("read checkpoint");
        damage(&mut bytes);
        std::fs::write(&file, &bytes).expect("rewrite checkpoint");

        // Restore falls back to generation 1 — 50 entries, not 51.
        assert_eq!(restored_len(&dir).expect("fallback"), 50, "{tag}");
        // Alone, the damaged generation is a typed error naming it.
        std::fs::remove_dir_all(dir.join("gen-000001")).expect("drop gen 1");
        match (tag, restored_len(&dir)) {
            ("bitflip", Err(CheckpointError::CrcMismatch { path }))
            | ("truncate", Err(CheckpointError::Truncated { path })) => assert_eq!(path, file),
            (_, other) => panic!("{tag}: got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Where the writer can stop: after claiming `gen-N`, part-way through
/// writing `CHECKPOINT.tmp`, after writing it, after renaming it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CrashState {
    EmptyGeneration,
    PartialTmp,
    CompleteTmp,
    Committed,
}

/// Leave generation `n` under `dir` as a writer that stopped at `state`
/// would, from `bytes`, the complete file it was writing.
fn leave_generation(dir: &Path, n: u64, state: CrashState, bytes: &[u8]) -> PathBuf {
    let gen = dir.join(format!("gen-{n:06}"));
    std::fs::create_dir(&gen).expect("claim the generation");
    let tmp = gen.join("CHECKPOINT.tmp");
    match state {
        CrashState::EmptyGeneration => {}
        CrashState::PartialTmp => std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap(),
        CrashState::CompleteTmp => std::fs::write(&tmp, bytes).unwrap(),
        CrashState::Committed => std::fs::write(gen.join("CHECKPOINT"), bytes).unwrap(),
    }
    gen
}

/// Names and lengths of the files in `dir`.
fn listing(dir: &Path) -> Vec<(std::ffi::OsString, u64)> {
    let entries = std::fs::read_dir(dir)
        .expect("list")
        .map(|e| e.expect("entry"));
    let mut out: Vec<_> = entries
        .map(|e| (e.file_name(), e.metadata().expect("metadata").len()))
        .collect();
    out.sort();
    out
}

#[test]
fn every_crash_state_of_the_writer_restores_the_last_committed_generation() {
    use CrashState::*;
    for state in [EmptyGeneration, PartialTmp, CompleteTmp, Committed] {
        let dir = scratch(&format!("crash_{state:?}"));
        // Gen 1 holds 50 keys, gen 2 51, and gen 3's complete file,
        // as its writer would have produced it, 52.
        let map = seeded(&dir, 50);
        assert!(map.insert(1_000 * KEY_STRIDE, 1));
        map.checkpoint(&dir).expect("gen 2");
        assert!(map.insert(1_001 * KEY_STRIDE, 2));
        let side = scratch(&format!("crash_{state:?}_side"));
        map.checkpoint(&side).expect("side checkpoint");
        let bytes = std::fs::read(checkpoint_file(&side, 1)).expect("read side file");
        let _ = std::fs::remove_dir_all(&side);

        let gen3 = leave_generation(&dir, 3, state, &bytes);
        let debris = listing(&gen3);
        let want = if state == Committed { 52 } else { 51 };
        assert_eq!(restored_len(&dir).expect("restore"), want, "{state:?}");

        // The next checkpoint claims gen 4 and prunes committed
        // generations beyond the newest two; uncommitted debris stays.
        assert_eq!(map.checkpoint(&dir).expect("gen 4").generation, 4);
        let kept: Vec<bool> = (1..=4).map(|n| checkpoint_file(&dir, n).exists()).collect();
        if state == Committed {
            assert_eq!(kept, [false, false, true, true]);
        } else {
            assert_eq!(kept, [false, true, false, true], "{state:?}");
            assert_eq!(listing(&gen3), debris, "{state:?}: prune touched gen 3");
        }
        let _ = std::fs::remove_dir_all(&dir);

        // With no committed generation before it, the debris alone is
        // no checkpoint at all.
        if state != Committed {
            let lone = scratch(&format!("crash_{state:?}_lone"));
            leave_generation(&lone, 1, state, &bytes);
            match restored_len(&lone) {
                Err(CheckpointError::NoCheckpoint { .. }) => {}
                other => panic!("{state:?}: expected NoCheckpoint, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&lone);
        }
    }
}

#[test]
fn unsharded_tree_checkpoint_roundtrips_through_the_facade() {
    let dir = scratch("core_tree");
    let tree: PnbBst<u64, u64> = PnbBst::new();
    for k in 0..100u64 {
        assert!(tree.insert(k * 3, k));
    }
    let report = tree.checkpoint(&dir).expect("checkpoint");
    assert_eq!(report.entries, 100);
    let back: PnbBst<u64, u64> = PnbBst::restore(&dir).expect("restore");
    assert_eq!(
        back.snapshot().to_vec(),
        (0..100u64).map(|k| (k * 3, k)).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `CHECKPOINT` file assembled field by field from DESIGN §9.1's
/// table: all integers little-endian, the CRC-32 over every byte
/// before it.
fn design_table_file(shard_count: u32, tag: u32, param: u64, runs: &[&[(u64, u64)]]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"PNBK");
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&shard_count.to_le_bytes());
    bytes.extend_from_slice(&tag.to_le_bytes());
    bytes.extend_from_slice(&param.to_le_bytes());
    for run in runs {
        bytes.extend_from_slice(&(run.len() as u64).to_le_bytes());
        for (k, v) in *run {
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = persist::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn checkpoint_file_built_byte_by_byte_from_the_design_table_restores() {
    let dir = scratch("handmade");
    let entries: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k * k)).collect();
    let bytes = design_table_file(1, 0, 0, &[&entries]);
    let gen1 = dir.join("gen-000001");
    std::fs::create_dir_all(&gen1).expect("gen dir");
    std::fs::write(gen1.join("CHECKPOINT"), &bytes).expect("write");
    let back: PnbBst<u64, u64> = PnbBst::restore(&dir).expect("restore handmade");
    assert_eq!(back.snapshot().to_vec(), entries);

    // `checkpoint` writes exactly these bytes, as generation 2.
    assert_eq!(back.checkpoint(&dir).expect("checkpoint").generation, 2);
    assert_eq!(std::fs::read(checkpoint_file(&dir, 2)).unwrap(), bytes);

    // One file's counts must consume it exactly: a shard count the
    // runs do not fill, or one they overrun, is a typed error.
    let restore_gen3 = |bytes: &[u8]| {
        let gen3 = dir.join("gen-000003");
        std::fs::create_dir_all(&gen3).expect("gen dir");
        std::fs::write(gen3.join("CHECKPOINT"), bytes).expect("write");
        std::fs::remove_dir_all(dir.join("gen-000002")).ok();
        std::fs::remove_dir_all(&gen1).ok();
        PnbBst::<u64, u64>::restore(&dir).map(|_| ())
    };
    match restore_gen3(&design_table_file(2, 0, 0, &[&entries])) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    match restore_gen3(&design_table_file(1, 0, 0, &[&entries, &entries])) {
        Err(CheckpointError::CrcMismatch { .. }) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
