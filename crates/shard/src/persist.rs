//! Durable sharded checkpoints: one consistent cross-shard cut on disk,
//! restored shard-by-shard with O(n) bulk loads.
//!
//! The on-disk format is `pnb_bst::persist`'s and only that module
//! knows it: this module hands it the partitioner's `(tag, param)` and
//! one sorted run per shard, and gets the same values back. It adds
//! the two things only the sharded layer knows:
//!
//! * **the cut**: [`checkpoint`](ShardedPnbBst::checkpoint) serializes
//!   a [`ShardedSnapshot`](crate::ShardedSnapshot) — per-shard
//!   snapshots captured in descending shard order, so the on-disk image
//!   is exactly one prefix-consistent view (crate docs, "Consistency
//!   model"), frozen while writers proceed;
//! * **the routing config**: the checkpoint records the partitioner's
//!   identity and parameter via [`PersistentPartitioner`], and
//!   [`restore`](ShardedPnbBst::restore) re-derives the partitioner
//!   from it — then *verifies* it, rejecting any key that does not
//!   route to the shard whose run holds it
//!   ([`CheckpointError::MisroutedKey`]). A checkpoint taken under one
//!   routing config can never be silently reinterpreted under another.

use std::path::Path;

use pnb_bst::persist::{
    load_latest, write_generation, CheckpointError, CheckpointReport, LoadedGeneration,
};
use pnb_bst::PnbBst;

use crate::map::ShardedPnbBst;
use crate::partition::{HashPartitioner, Partitioner, RangePrefixPartitioner};

/// A partitioner whose configuration can be recorded in a checkpoint
/// and re-derived on restore.
///
/// The pair `(TAG, persist_param())` must identify the routing function
/// completely: [`from_persist`](Self::from_persist) of that pair must
/// route every key exactly as the original did, or restore would file
/// keys in shards where lookups cannot find them. (Restore additionally
/// cross-checks every loaded key against the re-derived route, so a
/// broken implementation fails loudly rather than losing keys.)
pub trait PersistentPartitioner: Partitioner<u64> + Sized {
    /// The tag written to the checkpoint (tag 0 is reserved for
    /// unsharded single-tree checkpoints).
    const TAG: u32;

    /// The single `u64` parameter that, with [`Self::TAG`], fully
    /// reconstructs this partitioner.
    fn persist_param(&self) -> u64;

    /// Rebuild the partitioner from its persisted parameter.
    fn from_persist(param: u64) -> Self;
}

impl PersistentPartitioner for RangePrefixPartitioner {
    const TAG: u32 = 1;

    fn persist_param(&self) -> u64 {
        u64::from(self.block_size().trailing_zeros())
    }

    fn from_persist(param: u64) -> Self {
        RangePrefixPartitioner::with_block_bits(param.min(63) as u32)
    }
}

impl PersistentPartitioner for HashPartitioner {
    const TAG: u32 = 2;

    fn persist_param(&self) -> u64 {
        0
    }

    fn from_persist(_param: u64) -> Self {
        HashPartitioner::new()
    }
}

impl<P> ShardedPnbBst<u64, u64, P>
where
    P: PersistentPartitioner,
{
    /// Checkpoint the map to `dir`: take one cross-shard
    /// [`snapshot`](ShardedPnbBst::snapshot) (the descending-capture
    /// prefix-consistent cut; updates keep running), serialize each
    /// shard's frozen view as a sorted run of one checkpoint file, and
    /// commit it as a new generation by renaming the file into place,
    /// so a crash anywhere before the rename leaves the previous
    /// checkpoint loadable.
    pub fn checkpoint(&self, dir: &Path) -> Result<CheckpointReport, CheckpointError> {
        let snap = self.snapshot();
        let shards: Vec<Vec<(u64, u64)>> = (0..self.shard_count())
            .map(|i| snap.shard(i).to_vec())
            .collect();
        write_generation(dir, P::TAG, self.partitioner().persist_param(), &shards)
    }

    /// Rebuild a sharded map from the newest loadable checkpoint
    /// generation in `dir`. The shard count and partitioner
    /// configuration come from the checkpoint (the caller only fixes the
    /// partitioner *type*; a checkpoint recording a different type is
    /// rejected with [`CheckpointError::PartitionerMismatch`]). Each
    /// shard is bulk-loaded in O(n) via [`PnbBst::from_sorted`], and
    /// every key is verified to route to the shard whose run held it —
    /// a failure anywhere yields a typed error, naming the loaded file,
    /// and no map.
    pub fn restore(dir: &Path) -> Result<Self, CheckpointError> {
        let LoadedGeneration {
            path,
            partitioner_tag,
            partitioner_param,
            shards,
        } = load_latest(dir)?;
        if partitioner_tag != P::TAG {
            return Err(CheckpointError::PartitionerMismatch {
                path,
                found: partitioner_tag,
            });
        }
        let partitioner = P::from_persist(partitioner_param);
        let shard_count = shards.len();
        for (i, entries) in shards.iter().enumerate() {
            if let Some(&(key, _)) = entries
                .iter()
                .find(|(k, _)| partitioner.shard_of(k, shard_count) != i)
            {
                return Err(CheckpointError::MisroutedKey {
                    path,
                    shard: i as u32,
                    key,
                });
            }
        }
        Ok(ShardedPnbBst {
            shards: shards.into_iter().map(PnbBst::from_sorted).collect(),
            partitioner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pnbshard-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("create test dir");
        d
    }

    #[test]
    fn sharded_roundtrip_preserves_content_and_routing() {
        for shard_count in [1usize, 2, 8] {
            let d = tmpdir(&format!("rt{shard_count}"));
            let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(shard_count);
            let s = m.pin();
            for k in (0..100_000u64).step_by(97) {
                s.insert(k, k + 1);
            }
            drop(s);
            let report = m.checkpoint(&d).expect("checkpoint");
            assert_eq!(report.entries as usize, m.len());
            let r: ShardedPnbBst<u64, u64> = ShardedPnbBst::restore(&d).expect("restore");
            assert_eq!(r.shard_count(), shard_count);
            assert_eq!(r.check_invariants(), m.len());
            let rs = r.pin();
            let ms = m.pin();
            let got: Vec<(u64, u64)> = rs.range(..).collect();
            let want: Vec<(u64, u64)> = ms.range(..).collect();
            assert_eq!(got, want);
            // Routing survives: point lookups find every key.
            for k in (0..100_000u64).step_by(97) {
                assert_eq!(rs.get(&k), Some(k + 1), "shards={shard_count} key={k}");
            }
            let _ = fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn partitioner_config_comes_from_the_manifest() {
        let d = tmpdir("param");
        let m: ShardedPnbBst<u64, u64> =
            ShardedPnbBst::with_partitioner(4, RangePrefixPartitioner::with_block_bits(8));
        let s = m.pin();
        for k in (0..10_000u64).step_by(13) {
            s.insert(k, k);
        }
        drop(s);
        m.checkpoint(&d).expect("checkpoint");
        let r: ShardedPnbBst<u64, u64> = ShardedPnbBst::restore(&d).expect("restore");
        // The non-default block size was re-derived, not defaulted.
        assert_eq!(r.partitioner().block_size(), 1 << 8);
        let rs = r.pin();
        for k in (0..10_000u64).step_by(13) {
            assert_eq!(rs.get(&k), Some(k));
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn wrong_partitioner_type_is_rejected() {
        let d = tmpdir("ptype");
        let m: ShardedPnbBst<u64, u64, HashPartitioner> =
            ShardedPnbBst::with_partitioner(2, HashPartitioner::new());
        m.insert(1, 1);
        m.checkpoint(&d).expect("checkpoint");
        // Restoring as the (default) range-prefix type must fail loudly.
        let err = ShardedPnbBst::<u64, u64>::restore(&d).unwrap_err();
        assert!(
            matches!(err, CheckpointError::PartitionerMismatch { found: 2, .. }),
            "got {err}"
        );
        // The matching type restores fine.
        let r: ShardedPnbBst<u64, u64, HashPartitioner> =
            ShardedPnbBst::restore(&d).expect("restore");
        assert_eq!(r.get(&1), Some(1));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn hash_partitioner_roundtrips() {
        let d = tmpdir("hash");
        let m: ShardedPnbBst<u64, u64, HashPartitioner> =
            ShardedPnbBst::with_partitioner(8, HashPartitioner::new());
        let s = m.pin();
        for k in 0..5_000u64 {
            s.insert(k, k * 2);
        }
        drop(s);
        m.checkpoint(&d).expect("checkpoint");
        let r: ShardedPnbBst<u64, u64, HashPartitioner> =
            ShardedPnbBst::restore(&d).expect("restore");
        assert_eq!(r.check_invariants(), 5_000);
        let rs = r.pin();
        assert_eq!(rs.range(..).count(), 5_000);
        assert_eq!(rs.get(&4_999), Some(9_998));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn misrouted_key_is_rejected() {
        let d = tmpdir("misroute");
        // A committed generation whose shard 0 holds every key — under
        // any 2-shard partitioner some key must misroute.
        let entries: Vec<(u64, u64)> = (0..64u64).map(|k| (k << 12, k)).collect();
        write_generation(&d, RangePrefixPartitioner::TAG, 12, &[entries, vec![]]).unwrap();
        match ShardedPnbBst::<u64, u64>::restore(&d) {
            Err(CheckpointError::MisroutedKey {
                path,
                shard: 0,
                key,
            }) => {
                assert!(
                    path.exists(),
                    "{} must name the loaded file",
                    path.display()
                );
                assert_eq!(path, d.join("gen-000001").join("CHECKPOINT"));
                let routed = RangePrefixPartitioner::with_block_bits(12).shard_of(&key, 2);
                assert_ne!(routed, 0, "key {key} routes to shard 0 after all");
            }
            other => panic!("expected MisroutedKey, got {:?}", other.err()),
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn restored_map_accepts_updates_and_snapshots() {
        let d = tmpdir("live");
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(4);
        let s = m.pin();
        for k in (0..50_000u64).step_by(50) {
            s.insert(k, k);
        }
        drop(s);
        m.checkpoint(&d).expect("checkpoint");
        let r: ShardedPnbBst<u64, u64> = ShardedPnbBst::restore(&d).expect("restore");
        let rs = r.pin();
        assert!(rs.insert(7, 7));
        assert_eq!(rs.upsert(0, 99), Some(0));
        assert!(rs.delete(&50));
        let snap = rs.snapshot();
        rs.delete(&100);
        assert_eq!(snap.get(&100), Some(100)); // frozen cut survives
        assert_eq!(r.check_invariants(), 999); // 1000 + 1 - 1 - 1
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn second_checkpoint_of_a_restored_map_roundtrips() {
        // checkpoint → restore → mutate → checkpoint → restore: the
        // full restart-with-state cycle, twice.
        let d = tmpdir("cycle");
        let m: ShardedPnbBst<u64, u64> = ShardedPnbBst::new(2);
        m.insert(1, 1);
        m.checkpoint(&d).expect("first checkpoint");
        let r1: ShardedPnbBst<u64, u64> = ShardedPnbBst::restore(&d).expect("first restore");
        r1.insert(2, 2);
        let report = r1.checkpoint(&d).expect("second checkpoint");
        assert_eq!(report.generation, 2);
        let r2: ShardedPnbBst<u64, u64> = ShardedPnbBst::restore(&d).expect("second restore");
        assert_eq!(r2.get(&1), Some(1));
        assert_eq!(r2.get(&2), Some(2));
        assert_eq!(r2.len(), 2);
        let _ = fs::remove_dir_all(&d);
    }
}
