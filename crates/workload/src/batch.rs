//! Batched closed-loop throughput driver (experiment E13's engine).
//!
//! [`run_batched_throughput`] is [`run_throughput`](crate::run_throughput)
//! with the inner loop replaced by [`MapSession::apply_batch`] calls of
//! a fixed batch size: each worker draws `batch_size` operations from
//! the mix, submits them as one batch, and records the batch call
//! latency. Batch size 1 through this driver *is* the singleton
//! baseline — identical timing and refresh cadence — so a sweep over
//! batch sizes isolates exactly the descent-sharing and amortization
//! effects.
//!
//! The figure of merit is [`BatchedMeasurement::ops_per_descent`]: how
//! many operations each walk from a root served (1.0 for the singleton
//! fallback, ≈ 16 for the PNB tree's lock-step windows of 16 ops).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::dist::KeyDist;
use crate::histogram::HdrHistogram;
use crate::mix::{Mix, Op};
use crate::runner::prefill;
use crate::seed;
use crate::{CapabilityError, ConcurrentMap, MapSession};

/// One operation of a batch, in the harness's uniform `u64` key/value
/// domain (mirrors `pnb_bst::BatchOp`, which adapters convert to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Lookup.
    Get(u64),
    /// Insert without replacement (set semantics).
    Insert(u64, u64),
    /// Atomic insert-or-replace.
    Upsert(u64, u64),
    /// Remove.
    Delete(u64),
}

/// What a batch cost: operation count and root-to-leaf descents
/// (mirrors `pnb_bst::BatchReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Operations executed.
    pub ops: u64,
    /// Root-to-leaf descents performed (≤ `ops` when prefix sharing
    /// engages; == `ops` for the singleton fallback).
    pub root_descents: u64,
}

impl BatchReport {
    /// Operations served per descent (the E13 figure of merit).
    pub fn ops_per_descent(&self) -> f64 {
        if self.root_descents == 0 {
            0.0
        } else {
            self.ops as f64 / self.root_descents as f64
        }
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: BatchReport) {
        self.ops += other.ops;
        self.root_descents += other.root_descents;
    }
}

/// Configuration for one batched throughput run.
#[derive(Clone, Debug)]
pub struct BatchedRunConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Key distribution (also defines the key space).
    pub key_dist: KeyDist,
    /// Operation mix (must be range-free: a range scan is not a batch
    /// op).
    pub mix: Mix,
    /// Operations per `apply_batch` call (1 = singleton baseline).
    pub batch_size: usize,
    /// Fraction of the key space inserted before measurement.
    pub prefill_fraction: f64,
    /// Base RNG seed (per-thread streams via [`seed::worker_seed`]).
    pub seed: u64,
}

impl BatchedRunConfig {
    /// Conventional defaults: prefill 50%, seed 42.
    pub fn new(
        threads: usize,
        duration: Duration,
        key_dist: KeyDist,
        mix: Mix,
        batch_size: usize,
    ) -> Self {
        BatchedRunConfig {
            threads,
            duration,
            key_dist,
            mix,
            batch_size: batch_size.max(1),
            prefill_fraction: 0.5,
            seed: 42,
        }
    }
}

/// Result of one batched throughput run.
#[derive(Clone, Debug, Serialize)]
pub struct BatchedMeasurement {
    /// Structure name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Operations per batch call.
    pub batch_size: usize,
    /// Measured wall-clock seconds (mean per-thread window).
    pub elapsed_secs: f64,
    /// Batch calls completed.
    pub batches: u64,
    /// Total operations completed.
    pub total_ops: u64,
    /// Root-to-leaf descents performed.
    pub root_descents: u64,
    /// Operations per descent (1.0 = no sharing; the E13 figure of
    /// merit).
    pub ops_per_descent: f64,
    /// Aggregate throughput in operations (not batches) per second.
    pub ops_per_sec: f64,
    /// Median per-batch call latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-batch call latency in nanoseconds.
    pub p99_ns: u64,
}

/// Run the timed batched workload; returns counts, descent telemetry
/// and per-batch latency percentiles.
///
/// The mix must be range-free (a range scan is not a batch operation)
/// and is checked against the structure's capabilities up front, like
/// every driver in this crate.
pub fn run_batched_throughput<M: ConcurrentMap>(
    map: &M,
    cfg: &BatchedRunConfig,
) -> Result<BatchedMeasurement, CapabilityError> {
    map.capabilities().check(&cfg.mix, map.name())?;
    if cfg.mix.uses_ranges() {
        // Reuse the typed error: the batched driver cannot drive range
        // scans on any structure.
        return Err(CapabilityError::RangeScan {
            structure: map.name(),
        });
    }
    let batch = cfg.batch_size.max(1);
    let key_space = cfg.key_dist.key_space();
    prefill(map, key_space, cfg.prefill_fraction, cfg.seed);

    let stop = AtomicBool::new(false);
    let start_line = std::sync::Barrier::new(cfg.threads + 1);
    // Keep the refresh/stop-flag cadence at ~64 ops regardless of batch
    // size, mirroring the singleton driver.
    let batches_per_check = (64 / batch).max(1);

    let totals: Vec<(u64, BatchReport, HdrHistogram, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let stop = &stop;
                let start_line = &start_line;
                let mix = cfg.mix;
                let dist = cfg.key_dist.clone();
                let wseed = seed::worker_seed(cfg.seed, tid as u64);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut session = map.pin();
                    let mut ops_buf: Vec<BatchOp> = Vec::with_capacity(batch);
                    let mut report = BatchReport::default();
                    let mut hist = HdrHistogram::new();
                    let mut batches = 0u64;
                    start_line.wait();
                    let t0 = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..batches_per_check {
                            ops_buf.clear();
                            for _ in 0..batch {
                                let k = dist.sample(&mut rng);
                                ops_buf.push(match mix.sample(&mut rng) {
                                    Op::Insert => BatchOp::Insert(k, k),
                                    Op::Upsert => BatchOp::Upsert(k, k),
                                    Op::Delete => BatchOp::Delete(k),
                                    Op::Find => BatchOp::Get(k),
                                    Op::RangeScan => unreachable!("range-free mix enforced"),
                                });
                            }
                            let b0 = Instant::now();
                            let r = session.apply_batch(&ops_buf);
                            hist.record_duration(b0.elapsed());
                            report.merge(r);
                            batches += 1;
                        }
                        session.refresh();
                    }
                    (batches, report, hist, t0.elapsed())
                })
            })
            .collect();

        start_line.wait();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut report = BatchReport::default();
    let mut hist = HdrHistogram::new();
    let mut batches = 0u64;
    let mut rate = 0.0;
    for (b, r, h, dt) in &totals {
        batches += b;
        report.merge(*r);
        hist.merge(h);
        rate += r.ops as f64 / dt.as_secs_f64();
    }
    let elapsed =
        totals.iter().map(|(.., dt)| dt.as_secs_f64()).sum::<f64>() / totals.len().max(1) as f64;
    let (p50_ns, p99_ns, _) = hist.summary();
    Ok(BatchedMeasurement {
        name: map.name().to_string(),
        threads: cfg.threads,
        batch_size: batch,
        elapsed_secs: elapsed,
        batches,
        total_ops: report.ops,
        root_descents: report.root_descents,
        ops_per_descent: report.ops_per_descent(),
        ops_per_sec: rate,
        p50_ns,
        p99_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Caps;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct LockedMap(Mutex<BTreeMap<u64, u64>>);
    struct LockedSession<'a>(&'a LockedMap);

    impl MapSession for LockedSession<'_> {
        fn insert(&mut self, k: u64, v: u64) -> bool {
            let mut m = self.0 .0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(k) {
                e.insert(v);
                true
            } else {
                false
            }
        }
        fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
            self.0 .0.lock().unwrap().insert(k, v)
        }
        fn delete(&mut self, k: &u64) -> bool {
            self.0 .0.lock().unwrap().remove(k).is_some()
        }
        fn get(&mut self, k: &u64) -> Option<u64> {
            self.0 .0.lock().unwrap().get(k).copied()
        }
        fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
            self.0 .0.lock().unwrap().range(*lo..=*hi).count()
        }
    }

    impl ConcurrentMap for LockedMap {
        type Session<'a> = LockedSession<'a>;
        fn pin(&self) -> LockedSession<'_> {
            LockedSession(self)
        }
        fn capabilities(&self) -> Caps {
            Caps {
                range_scan: true,
                upsert: true,
                snapshot: false,
                batched: false, // exercises the singleton fallback
            }
        }
        fn name(&self) -> &'static str {
            "locked-btreemap"
        }
    }

    #[test]
    fn default_apply_batch_falls_back_to_singletons() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let mut s = m.pin();
        let r = s.apply_batch(&[
            BatchOp::Insert(1, 10),
            BatchOp::Upsert(1, 11),
            BatchOp::Get(1),
            BatchOp::Delete(1),
        ]);
        assert_eq!(r.ops, 4);
        assert_eq!(r.root_descents, 4);
        assert!((r.ops_per_descent() - 1.0).abs() < f64::EPSILON);
        assert!(m.0.lock().unwrap().is_empty());
    }

    #[test]
    fn batched_driver_counts_and_times() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = BatchedRunConfig::new(
            2,
            Duration::from_millis(80),
            KeyDist::uniform(1_000),
            Mix::update_only(),
            16,
        );
        let meas = run_batched_throughput(&m, &cfg).expect("range-free update mix");
        assert_eq!(meas.batch_size, 16);
        assert!(meas.batches > 0);
        assert_eq!(meas.total_ops, meas.batches * 16);
        assert_eq!(meas.root_descents, meas.total_ops); // fallback: 1 op/descent
        assert!((meas.ops_per_descent - 1.0).abs() < f64::EPSILON);
        assert!(meas.ops_per_sec > 0.0);
        assert!(meas.p99_ns >= meas.p50_ns);
        assert!(meas.p50_ns > 0);
    }

    #[test]
    fn batched_driver_rejects_range_mixes() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = BatchedRunConfig::new(
            1,
            Duration::from_millis(10),
            KeyDist::uniform(64),
            Mix::with_ranges(8),
            4,
        );
        assert!(run_batched_throughput(&m, &cfg).is_err());
    }
}
