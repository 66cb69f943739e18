//! Timed multi-threaded throughput driver (the setbench protocol):
//! prefill the structure to a target density, then run `threads` workers
//! for a fixed wall-clock duration, each drawing operations from the mix
//! and keys from the distribution, and report aggregate counts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::dist::KeyDist;
use crate::mix::{Mix, Op};
use crate::seed;
use crate::{CapabilityError, ConcurrentMap, MapSession};

/// Configuration for one throughput run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Key distribution (also defines the key space).
    pub key_dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Fraction of the key space inserted before measurement (setbench
    /// convention: 0.5, so inserts and deletes both succeed ~half the
    /// time and the size stays stationary).
    pub prefill_fraction: f64,
    /// Base RNG seed. Per-thread streams are derived through
    /// [`seed::worker_seed`] (worker `i` uses stream `i`, prefill uses
    /// [`seed::PREFILL_STREAM`]), identically across all drivers.
    pub seed: u64,
}

impl RunConfig {
    /// Conventional defaults: prefill 50%, seed 42.
    pub fn new(threads: usize, duration: Duration, key_dist: KeyDist, mix: Mix) -> Self {
        RunConfig {
            threads,
            duration,
            key_dist,
            mix,
            prefill_fraction: 0.5,
            seed: 42,
        }
    }
}

/// Result of one throughput run.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Structure name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Measured wall-clock seconds.
    pub elapsed_secs: f64,
    /// Completed operations by type.
    pub inserts: u64,
    /// Completed upserts.
    pub upserts: u64,
    /// Completed deletes.
    pub deletes: u64,
    /// Completed finds.
    pub finds: u64,
    /// Completed range scans.
    pub scans: u64,
    /// Total keys returned by all range scans.
    pub scanned_keys: u64,
    /// Total operations.
    pub total_ops: u64,
    /// Aggregate throughput (operations per second).
    pub ops_per_sec: f64,
}

#[derive(Default)]
struct Counts {
    inserts: u64,
    upserts: u64,
    deletes: u64,
    finds: u64,
    scans: u64,
    scanned_keys: u64,
}

/// Deterministically prefill `map` with `fraction` of the key space,
/// inserting in a *shuffled* order (seeded). Insertion order matters: an
/// ascending prefill would degenerate the unbalanced leaf-oriented BSTs
/// into an O(n)-deep spine, which is not the setbench steady state —
/// random insertion order yields the expected O(log n) depth.
pub fn prefill<M: ConcurrentMap>(map: &M, key_space: u64, fraction: f64, seed: u64) {
    use rand::seq::SliceRandom;
    // The prefill pass runs on its own reserved stream so no worker's
    // operation stream can alias the shuffle order.
    let mut rng = SmallRng::seed_from_u64(seed::worker_seed(seed, seed::PREFILL_STREAM));
    let mut keys: Vec<u64> = (0..key_space).collect();
    keys.shuffle(&mut rng);
    let target = (key_space as f64 * fraction).round() as usize;
    let mut session = map.pin();
    for (i, &k) in keys.iter().take(target).enumerate() {
        session.insert(k, k);
        if (i + 1).is_multiple_of(1024) {
            session.refresh();
        }
    }
}

/// Run the timed workload; returns aggregate counts and throughput.
///
/// The mix is checked against the structure's declared capabilities
/// *before* any operation runs; a mismatch is a configuration error, not
/// a mid-run panic.
pub fn run_throughput<M: ConcurrentMap>(
    map: &M,
    cfg: &RunConfig,
) -> Result<Measurement, CapabilityError> {
    map.capabilities().check(&cfg.mix, map.name())?;
    let key_space = cfg.key_dist.key_space();
    prefill(map, key_space, cfg.prefill_fraction, cfg.seed);

    let stop = AtomicBool::new(false);
    let start_line = std::sync::Barrier::new(cfg.threads + 1);
    // Workers whose clock is running; the controller's sleep starts once
    // it reaches `threads` (workers never wait on it).
    let clocks_started = AtomicUsize::new(0);

    let totals: Vec<(Counts, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let stop = &stop;
                let start_line = &start_line;
                let clocks_started = &clocks_started;
                let mix = cfg.mix;
                let dist = cfg.key_dist.clone();
                let wseed = seed::worker_seed(cfg.seed, tid as u64);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut c = Counts::default();
                    // One pinned session for the whole run: the per-op
                    // guard churn never lands on the measured path.
                    let mut session = map.pin();
                    start_line.wait();
                    // Each worker times its own window, barrier release
                    // → stop observed. Timing after the joins would
                    // also charge every worker's post-stop partial
                    // batch and the join scheduling jitter to the
                    // denominator, coupling reported throughput to
                    // thread-exit order.
                    let t0 = Instant::now();
                    // Release: the clock read stays before the count the
                    // controller's Acquire load observes.
                    clocks_started.fetch_add(1, Ordering::Release);
                    while !stop.load(Ordering::Relaxed) {
                        // Batch 64 ops per stop-flag check to keep the
                        // flag off the hot path.
                        for _ in 0..64 {
                            let k = dist.sample(&mut rng);
                            match mix.sample(&mut rng) {
                                Op::Insert => {
                                    session.insert(k, k);
                                    c.inserts += 1;
                                }
                                Op::Upsert => {
                                    std::hint::black_box(session.upsert(k, k));
                                    c.upserts += 1;
                                }
                                Op::Delete => {
                                    session.delete(&k);
                                    c.deletes += 1;
                                }
                                Op::Find => {
                                    std::hint::black_box(session.get(&k));
                                    c.finds += 1;
                                }
                                Op::RangeScan => {
                                    let hi = k.saturating_add(mix.range_width.saturating_sub(1));
                                    c.scanned_keys += session.range_scan(&k, &hi) as u64;
                                    c.scans += 1;
                                }
                            }
                        }
                        // Between batches: let epoch reclamation advance.
                        session.refresh();
                    }
                    // Stop the clock at the moment this worker observes
                    // the stop flag — its final partial batch runs
                    // after, off the books on both axes.
                    (c, t0.elapsed())
                })
            })
            .collect();

        start_line.wait();
        // A worker takes `t0` when it is first scheduled after the
        // barrier, which on a loaded box is later than this thread's
        // release: sleep only once every clock is running, so each
        // window is at least the configured duration by construction.
        while clocks_started.load(Ordering::Acquire) < cfg.threads {
            std::thread::yield_now();
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut m = Measurement {
        name: map.name().to_string(),
        threads: cfg.threads,
        elapsed_secs: 0.0,
        inserts: 0,
        upserts: 0,
        deletes: 0,
        finds: 0,
        scans: 0,
        scanned_keys: 0,
        total_ops: 0,
        ops_per_sec: 0.0,
    };
    // Aggregate rate = Σ per-thread rates over each thread's own
    // measured window; elapsed_secs reports the mean window (within
    // batch granularity of the configured duration).
    let mut rate = 0.0;
    for (c, dt) in &totals {
        let ops = c.inserts + c.upserts + c.deletes + c.finds + c.scans;
        m.inserts += c.inserts;
        m.upserts += c.upserts;
        m.deletes += c.deletes;
        m.finds += c.finds;
        m.scans += c.scans;
        m.scanned_keys += c.scanned_keys;
        rate += ops as f64 / dt.as_secs_f64();
    }
    m.total_ops = m.inserts + m.upserts + m.deletes + m.finds + m.scans;
    m.elapsed_secs =
        totals.iter().map(|(_, dt)| dt.as_secs_f64()).sum::<f64>() / totals.len().max(1) as f64;
    m.ops_per_sec = rate;
    Ok(m)
}

/// Configuration for the scan/update interference experiment (E6):
/// dedicated scanner threads against dedicated updater threads.
#[derive(Clone, Debug)]
pub struct ScanUpdaterConfig {
    /// Number of updater threads (uniform 50/50 insert/delete over the
    /// whole key space).
    pub updaters: usize,
    /// Number of scanner threads.
    pub scanners: usize,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Key-space size.
    pub key_space: u64,
    /// `true`: scanner `i` repeatedly scans its own 1/scanners slice of
    /// the key space (the paper's "scans on different parts of the tree
    /// do not interfere" claim). `false`: every scanner scans the full
    /// key space.
    pub disjoint: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a scan/update interference run.
#[derive(Clone, Debug, Serialize)]
pub struct ScanUpdaterMeasurement {
    /// Structure name.
    pub name: String,
    /// Updater thread count.
    pub updaters: usize,
    /// Scanner thread count.
    pub scanners: usize,
    /// Whether scanners worked disjoint slices.
    pub disjoint: bool,
    /// Completed update operations.
    pub update_ops: u64,
    /// Completed scans.
    pub scan_ops: u64,
    /// Total keys returned by scans.
    pub scanned_keys: u64,
    /// Measured seconds.
    pub elapsed_secs: f64,
    /// Updates per second.
    pub updates_per_sec: f64,
    /// Scans per second.
    pub scans_per_sec: f64,
}

/// Partition `[0, key_space)` into `scanners` contiguous closed
/// intervals that are pairwise disjoint and jointly cover the whole key
/// space: slice `i` gets `key_space / scanners` keys plus one of the
/// `key_space % scanners` remainder keys while they last. A scanner
/// whose slice is empty (`key_space < scanners`) gets `None`.
///
/// This replaces the old inline `slice = n / scanners` arithmetic,
/// which (a) underflowed `lo + slice - 1` when `key_space < scanners`
/// (u64 overflow panic in debug builds) and (b) assigned the last
/// `n % scanners` keys to *no* scanner, silently violating the
/// "disjoint slices cover the key space" contract the experiment's
/// conclusions rest on.
pub fn disjoint_slices(key_space: u64, scanners: usize) -> Vec<Option<(u64, u64)>> {
    let s = scanners.max(1) as u64;
    let base = key_space / s;
    let rem = key_space % s;
    let mut lo = 0u64;
    (0..s)
        .map(|i| {
            let len = base + u64::from(i < rem);
            if len == 0 {
                None
            } else {
                let slice = (lo, lo + len - 1);
                lo += len;
                Some(slice)
            }
        })
        .collect()
}

/// Run the scan/update interference experiment.
pub fn run_scan_updater<M: ConcurrentMap>(
    map: &M,
    cfg: &ScanUpdaterConfig,
) -> Result<ScanUpdaterMeasurement, CapabilityError> {
    if !map.capabilities().range_scan {
        return Err(CapabilityError::RangeScan {
            structure: map.name(),
        });
    }
    prefill(map, cfg.key_space, 0.5, cfg.seed);

    let stop = AtomicBool::new(false);
    let nthreads = cfg.updaters + cfg.scanners;
    let start_line = std::sync::Barrier::new(nthreads + 1);
    let mut elapsed = Duration::ZERO;

    let (update_ops, scan_results) = std::thread::scope(|s| {
        let upd_handles: Vec<_> = (0..cfg.updaters)
            .map(|tid| {
                let stop = &stop;
                let start_line = &start_line;
                let wseed = seed::worker_seed(cfg.seed, tid as u64);
                let n = cfg.key_space;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut ops = 0u64;
                    let mut session = map.pin();
                    start_line.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            let k = rng.gen_range(0..n);
                            if rng.gen_bool(0.5) {
                                session.insert(k, k);
                            } else {
                                session.delete(&k);
                            }
                            ops += 1;
                        }
                        session.refresh();
                    }
                    ops
                })
            })
            .collect();

        let slices = disjoint_slices(cfg.key_space, cfg.scanners);
        let scan_handles: Vec<_> = (0..cfg.scanners)
            .map(|tid| {
                let stop = &stop;
                let start_line = &start_line;
                let n = cfg.key_space;
                let slice = if cfg.disjoint {
                    slices[tid]
                } else {
                    Some((0, n.saturating_sub(1)))
                };
                s.spawn(move || {
                    let mut scans = 0u64;
                    let mut keys = 0u64;
                    let mut session = map.pin();
                    start_line.wait();
                    match slice {
                        Some((lo, hi)) => {
                            while !stop.load(Ordering::Relaxed) {
                                keys += session.range_scan(&lo, &hi) as u64;
                                scans += 1;
                                session.refresh();
                            }
                        }
                        // More scanners than keys: this one has no
                        // slice. Idle until stop instead of scanning
                        // someone else's keys (which would break
                        // disjointness) or panicking (which is what the
                        // old underflow did).
                        None => {
                            while !stop.load(Ordering::Relaxed) {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                    (scans, keys)
                })
            })
            .collect();

        start_line.wait();
        let t0 = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        let u: u64 = upd_handles.into_iter().map(|h| h.join().unwrap()).sum();
        let sr: Vec<(u64, u64)> = scan_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        elapsed = t0.elapsed();
        (u, sr)
    });

    let scan_ops: u64 = scan_results.iter().map(|(s, _)| s).sum();
    let scanned_keys: u64 = scan_results.iter().map(|(_, k)| k).sum();
    let secs = elapsed.as_secs_f64();
    Ok(ScanUpdaterMeasurement {
        name: map.name().to_string(),
        updaters: cfg.updaters,
        scanners: cfg.scanners,
        disjoint: cfg.disjoint,
        update_ops,
        scan_ops,
        scanned_keys,
        elapsed_secs: secs,
        updates_per_sec: update_ops as f64 / secs,
        scans_per_sec: scan_ops as f64 / secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Caps;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// A trivial reference structure to exercise the driver itself.
    struct LockedMap(Mutex<BTreeMap<u64, u64>>);

    /// Trivial session: lock-based maps have no guard to amortize.
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
                batched: false,
            }
        }
        fn name(&self) -> &'static str {
            "locked-btreemap"
        }
    }

    #[test]
    fn prefill_density_is_close() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        prefill(&m, 10_000, 0.5, 7);
        let n = m.0.lock().unwrap().len();
        assert!((4_500..=5_500).contains(&n), "density off: {n}");
    }

    #[test]
    fn throughput_run_counts_ops() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = RunConfig::new(
            2,
            Duration::from_millis(100),
            KeyDist::uniform(1_000),
            Mix::with_ranges(16),
        );
        let meas = run_throughput(&m, &cfg).expect("caps cover the mix");
        assert_eq!(meas.threads, 2);
        assert!(meas.total_ops > 0);
        assert_eq!(
            meas.total_ops,
            meas.inserts + meas.upserts + meas.deletes + meas.finds + meas.scans
        );
        assert!(meas.ops_per_sec > 0.0);
        // Mix shares should be roughly honoured.
        assert!(meas.finds > meas.scans);
    }

    #[test]
    fn throughput_run_drives_upserts() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = RunConfig::new(
            2,
            Duration::from_millis(60),
            KeyDist::uniform(512),
            Mix::upsert_heavy(),
        );
        let meas = run_throughput(&m, &cfg).unwrap();
        assert!(meas.upserts > 0);
        assert_eq!(meas.inserts, 0);
        assert_eq!(meas.scans, 0);
    }

    #[test]
    fn throughput_elapsed_tracks_configured_duration() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let dur = Duration::from_millis(100);
        let cfg = RunConfig::new(2, dur, KeyDist::uniform(1_000), Mix::read_mostly());
        let meas = run_throughput(&m, &cfg).unwrap();
        // Per-thread windows close when the worker *observes* stop, so
        // the reported elapsed is the duration plus at most one batch +
        // scheduling slack — not the old join-ordering-dependent value
        // that also swallowed every worker's post-stop partial batch.
        assert!(
            meas.elapsed_secs >= dur.as_secs_f64(),
            "window shorter than configured: {}",
            meas.elapsed_secs
        );
        assert!(
            meas.elapsed_secs <= 3.0 * dur.as_secs_f64(),
            "window far exceeds configured duration: {}",
            meas.elapsed_secs
        );
    }

    #[test]
    fn disjoint_slices_cover_and_do_not_overlap() {
        for (n, s) in [
            (1_000u64, 7usize), // remainder 6: the old code dropped keys 994..=999
            (10, 3),
            (16, 16),
            (5, 1),
            (64, 2),
        ] {
            let slices = disjoint_slices(n, s);
            assert_eq!(slices.len(), s);
            let mut next = 0u64;
            for (i, sl) in slices.iter().enumerate() {
                let (lo, hi) = sl.unwrap_or_else(|| panic!("slice {i} empty for n={n} s={s}"));
                assert_eq!(lo, next, "gap before slice {i} (n={n} s={s})");
                assert!(hi >= lo);
                next = hi + 1;
            }
            // Union is exactly [0, n): contiguous from 0 and ends at n-1.
            assert_eq!(next, n, "slices do not cover the key space (n={n} s={s})");
        }
    }

    #[test]
    fn disjoint_slices_handle_more_scanners_than_keys() {
        // The old arithmetic underflowed `lo + slice - 1` here.
        let slices = disjoint_slices(2, 4);
        assert_eq!(
            slices,
            vec![Some((0, 0)), Some((1, 1)), None, None],
            "two keys, four scanners: two singleton slices, two idle"
        );
        assert!(disjoint_slices(0, 3).iter().all(Option::is_none));
    }

    #[test]
    fn scan_updater_survives_key_space_smaller_than_scanners() {
        // Regression: this configuration panicked with a u64 underflow
        // in debug builds before slices were computed via
        // `disjoint_slices`.
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = ScanUpdaterConfig {
            updaters: 1,
            scanners: 4,
            duration: Duration::from_millis(40),
            key_space: 2,
            disjoint: true,
            seed: 9,
        };
        let meas = run_scan_updater(&m, &cfg).expect("range-capable");
        assert!(meas.scan_ops > 0, "the two non-empty slices still scan");
    }

    /// Records every (lo, hi) interval passed to `range_scan`, so a test
    /// can check what the scanners actually asked for.
    struct RecordingMap {
        inner: LockedMap,
        intervals: Mutex<std::collections::BTreeSet<(u64, u64)>>,
    }
    struct RecordingSession<'a> {
        inner: LockedSession<'a>,
        intervals: &'a Mutex<std::collections::BTreeSet<(u64, u64)>>,
    }
    impl MapSession for RecordingSession<'_> {
        fn insert(&mut self, k: u64, v: u64) -> bool {
            self.inner.insert(k, v)
        }
        fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
            self.inner.upsert(k, v)
        }
        fn delete(&mut self, k: &u64) -> bool {
            self.inner.delete(k)
        }
        fn get(&mut self, k: &u64) -> Option<u64> {
            self.inner.get(k)
        }
        fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
            self.intervals.lock().unwrap().insert((*lo, *hi));
            self.inner.range_scan(lo, hi)
        }
    }
    impl ConcurrentMap for RecordingMap {
        type Session<'a> = RecordingSession<'a>;
        fn pin(&self) -> RecordingSession<'_> {
            RecordingSession {
                inner: self.inner.pin(),
                intervals: &self.intervals,
            }
        }
        fn capabilities(&self) -> Caps {
            self.inner.capabilities()
        }
        fn name(&self) -> &'static str {
            "recording-btreemap"
        }
    }

    #[test]
    fn scan_updater_disjoint_scans_cover_the_full_key_space() {
        // Regression: with key_space % scanners != 0 the old slicing
        // left the last `n % scanners` keys unscanned by anyone.
        let m = RecordingMap {
            inner: LockedMap(Mutex::new(BTreeMap::new())),
            intervals: Mutex::new(std::collections::BTreeSet::new()),
        };
        let n = 10u64;
        let cfg = ScanUpdaterConfig {
            updaters: 0,
            scanners: 3,
            duration: Duration::from_millis(40),
            key_space: n,
            disjoint: true,
            seed: 5,
        };
        run_scan_updater(&m, &cfg).unwrap();
        let intervals = m.intervals.lock().unwrap();
        // Scanners repeat their own fixed interval, so the distinct set
        // is exactly the slice partition: disjoint and covering [0, n).
        let mut next = 0u64;
        for &(lo, hi) in intervals.iter() {
            assert_eq!(lo, next, "gap or overlap at key {next}");
            next = hi + 1;
        }
        assert_eq!(next, n, "keys {next}..{n} were never scanned");
    }

    #[test]
    fn scan_updater_run_reports_both_sides() {
        let m = LockedMap(Mutex::new(BTreeMap::new()));
        let cfg = ScanUpdaterConfig {
            updaters: 1,
            scanners: 1,
            duration: Duration::from_millis(80),
            key_space: 1_000,
            disjoint: true,
            seed: 3,
        };
        let meas = run_scan_updater(&m, &cfg).expect("range-capable");
        assert!(meas.update_ops > 0);
        assert!(meas.scan_ops > 0);
        assert!(meas.scanned_keys > 0);
    }

    /// A structure that declares point ops only.
    struct NoScan;
    struct NoScanSession;
    impl MapSession for NoScanSession {
        fn insert(&mut self, _: u64, _: u64) -> bool {
            true
        }
        fn upsert(&mut self, _: u64, _: u64) -> Option<u64> {
            None
        }
        fn delete(&mut self, _: &u64) -> bool {
            false
        }
        fn get(&mut self, _: &u64) -> Option<u64> {
            None
        }
        fn range_scan(&mut self, _: &u64, _: &u64) -> usize {
            0
        }
    }
    impl ConcurrentMap for NoScan {
        type Session<'a> = NoScanSession;
        fn pin(&self) -> NoScanSession {
            NoScanSession
        }
        fn capabilities(&self) -> Caps {
            Caps::point_ops()
        }
        fn name(&self) -> &'static str {
            "noscan"
        }
    }

    #[test]
    fn unsupported_mixes_fail_typed_at_config_time() {
        let cfg = RunConfig::new(
            1,
            Duration::from_millis(10),
            KeyDist::uniform(10),
            Mix::with_ranges(4),
        );
        assert_eq!(
            run_throughput(&NoScan, &cfg).unwrap_err(),
            CapabilityError::RangeScan {
                structure: "noscan"
            }
        );
        let cfg = RunConfig::new(
            1,
            Duration::from_millis(10),
            KeyDist::uniform(10),
            Mix::upsert_heavy(),
        );
        assert_eq!(
            run_throughput(&NoScan, &cfg).unwrap_err(),
            CapabilityError::Upsert {
                structure: "noscan"
            }
        );
        let err = run_scan_updater(
            &NoScan,
            &ScanUpdaterConfig {
                updaters: 1,
                scanners: 1,
                duration: Duration::from_millis(10),
                key_space: 16,
                disjoint: false,
                seed: 1,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("noscan"));
    }
}
