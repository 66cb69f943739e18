//! Open-loop, target-rate workload engine — latency-honest measurement.
//!
//! Every other driver in this crate is **closed-loop**: each worker
//! fires its next operation the instant the previous one returns, so
//! the offered load adapts itself to however slow the structure is.
//! That feedback silently edits the latency record — when one operation
//! stalls for 10 ms, the ~10 000 operations that *would have arrived*
//! during the stall are simply never issued, and none of them report
//! the queueing delay they would have seen. This is *coordinated
//! omission* (Tene), and it makes closed-loop percentiles an answer to
//! the wrong question. The production question is: *at a fixed offered
//! rate, what latency does the p999 request see?*
//!
//! [`run_open_loop`] answers it the way cql-stress / YCSB-with-intended
//! -timestamps do:
//!
//! * each worker owns an [`OpSchedule`] that derives operation `i`'s
//!   **intended start** `start + i/rate` from the configured target
//!   rate — arrivals are a fixed metronome, independent of how the
//!   structure behaves;
//! * latency is recorded from the **intended** start to completion, not
//!   from whenever the worker got around to issuing it — if the worker
//!   falls behind, the backlog wait is charged to the structure, which
//!   is exactly where a queueing-delayed production request would feel
//!   it;
//! * workers record into thread-local [`HdrHistogram`]s flushed into a
//!   [`ShardedHistogram`] at batch boundaries, merged at reporting
//!   time;
//! * the report carries **offered vs achieved** rate, so saturation is
//!   visible instead of silently renormalizing the percentiles.
//!
//! One honest caveat, stated rather than hidden: issuing stops at the
//! configured deadline, so arrivals scheduled-but-never-issued at
//! cutoff (only possible when the structure is saturated) do not
//! contribute samples. Their absence is visible as `achieved <
//! offered`; the samples that *are* recorded still carry their full
//! queueing delay, which is what eliminates the omission bias at every
//! sub-saturation rate.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::dist::KeyDist;
use crate::histogram::{HdrHistogram, ShardedHistogram};
use crate::mix::{Mix, Op};
use crate::runner::prefill;
use crate::seed;
use crate::{CapabilityError, ConcurrentMap, MapSession};

/// Derives intended-start timestamps for one worker from a target rate:
/// operation `i` is due at `origin + phase + i/rate`. Pure arithmetic —
/// the schedule never drifts with execution, which is the property the
/// whole open-loop design rests on.
#[derive(Clone, Debug)]
pub struct OpSchedule {
    origin: Instant,
    /// Nanoseconds between intended starts.
    interval_ns: f64,
    /// Constant phase offset in nanoseconds (staggers workers so their
    /// metronomes interleave instead of thundering together).
    phase_ns: f64,
    next_index: u64,
}

impl OpSchedule {
    /// Schedule starting at `origin` with `rate` intended starts per
    /// second.
    pub fn new(origin: Instant, rate: f64) -> Self {
        Self::with_phase(origin, rate, 0.0)
    }

    /// Schedule offset by `phase` (in fractions of one interval,
    /// `[0, 1)`): worker `t` of `n` passes `t / n` so the combined
    /// arrival process is an even comb rather than `n` coincident
    /// ticks.
    pub fn with_phase(origin: Instant, rate: f64, phase: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "target rate must be positive"
        );
        let interval_ns = 1e9 / rate;
        OpSchedule {
            origin,
            interval_ns,
            phase_ns: interval_ns * phase,
            next_index: 0,
        }
    }

    /// Intended start of operation `i`.
    #[inline]
    pub fn intended(&self, i: u64) -> Instant {
        // f64 keeps sub-nanosecond rate precision; offsets stay well
        // under 2^53 ns (~104 days) so the arithmetic is exact enough.
        let off = self.phase_ns + i as f64 * self.interval_ns;
        self.origin + Duration::from_nanos(off as u64)
    }

    /// Claim the next operation's intended start.
    #[inline]
    pub fn next_intended(&mut self) -> Instant {
        let t = self.intended(self.next_index);
        self.next_index += 1;
        t
    }

    /// Number of intended starts claimed so far.
    pub fn issued(&self) -> u64 {
        self.next_index
    }
}

/// Sleep-then-spin until `t`: coarse sleep while far out (leaving slack
/// for the scheduler's wake-up jitter), spin for the final stretch.
/// Returns immediately when `t` is already past — the backlogged case.
#[inline]
fn wait_until(t: Instant) {
    const SPIN_WINDOW: Duration = Duration::from_micros(300);
    const SLEEP_SLACK: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let gap = t - now;
        if gap > SPIN_WINDOW {
            std::thread::sleep(gap - SLEEP_SLACK);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Where and how often [`run_open_loop`] appends per-interval timeseries
/// rows (see [`OpenLoopConfig::interval_log`]).
#[derive(Clone, Debug)]
pub struct IntervalLogConfig {
    /// JSONL file the rows are appended to (created if absent).
    pub path: PathBuf,
    /// Reporting interval (default 1 s).
    pub interval: Duration,
}

impl IntervalLogConfig {
    /// Log to `path` at the conventional 1-second interval.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_interval(path, Duration::from_secs(1))
    }

    /// Log to `path` every `interval`.
    pub fn with_interval(path: impl Into<PathBuf>, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        IntervalLogConfig {
            path: path.into(),
            interval,
        }
    }
}

/// The interval-log reporter: every `il.interval`, merge the sharded
/// histograms, diff against the previous cumulative snapshot, and append
/// one JSONL row describing *that interval* — `t_secs` (end of interval,
/// relative to the start line), `achieved_rate` (completions/sec within
/// the interval), `p50_ns` and `p99_ns` (of the interval's samples). A final
/// partial-interval row is emitted at shutdown so the tail is never
/// dropped. IO failures are reported to stderr and disable logging
/// rather than aborting the measurement.
fn interval_reporter(
    il: &IntervalLogConfig,
    stats: &ShardedHistogram,
    done: &AtomicBool,
    start_line: &std::sync::Barrier,
) {
    let mut file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&il.path)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "interval log disabled: cannot open {}: {e}",
                il.path.display()
            );
            start_line.wait();
            return;
        }
    };
    start_line.wait();
    let t0 = Instant::now();
    let mut prev = HdrHistogram::new();
    let mut prev_t = t0;
    let mut next_tick = t0 + il.interval;
    loop {
        // Sleep toward the tick in short slices so shutdown is prompt.
        let finishing = loop {
            if done.load(Ordering::Acquire) {
                break true;
            }
            let now = Instant::now();
            if now >= next_tick {
                break false;
            }
            std::thread::sleep((next_tick - now).min(Duration::from_millis(20)));
        };
        let now = Instant::now();
        let mut cum = HdrHistogram::new();
        for h in stats.merged() {
            cum.merge(&h);
        }
        let interval = cum.diff(&prev);
        let dt = (now - prev_t).as_secs_f64();
        // The final row covers whatever partial interval remains; skip
        // it only when it holds no samples at all.
        if !(finishing && interval.is_empty()) && dt > 0.0 {
            let row = format!(
                "{{\"t_secs\": {:.3}, \"achieved_rate\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}\n",
                (now - t0).as_secs_f64(),
                interval.len() as f64 / dt,
                interval.value_at_percentile(0.50).unwrap_or(0),
                interval.value_at_percentile(0.99).unwrap_or(0),
            );
            if let Err(e) = file.write_all(row.as_bytes()) {
                eprintln!("interval log write failed ({}): {e}", il.path.display());
                return;
            }
        }
        if finishing {
            return;
        }
        prev = cum;
        prev_t = now;
        next_tick += il.interval;
    }
}

/// Configuration for one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Total offered rate in operations per second, split evenly across
    /// the workers (each runs its own phase-staggered metronome at
    /// `target_rate / threads`).
    pub target_rate: f64,
    /// Wall-clock issuing window.
    pub duration: Duration,
    /// Key distribution (also defines the key space).
    pub key_dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Fraction of the key space inserted before measurement.
    pub prefill_fraction: f64,
    /// Base RNG seed (per-worker streams via [`seed::worker_seed`]).
    pub seed: u64,
    /// Optional per-interval timeseries log: while the run is live, a
    /// reporter thread appends one JSONL row per interval —
    /// `{"t_secs": …, "achieved_rate": …, "p50_ns": …, "p99_ns": …}` — computed from
    /// the *difference* of consecutive cumulative histogram snapshots,
    /// so each row describes that interval alone (a saturation collapse
    /// shows up in its own rows instead of being averaged away). Used
    /// by `pnb-load --interval-log`.
    pub interval_log: Option<IntervalLogConfig>,
}

impl OpenLoopConfig {
    /// Conventional defaults: prefill 50%, seed 42, no interval log.
    pub fn new(
        threads: usize,
        target_rate: f64,
        duration: Duration,
        key_dist: KeyDist,
        mix: Mix,
    ) -> Self {
        OpenLoopConfig {
            threads,
            target_rate,
            duration,
            key_dist,
            mix,
            prefill_fraction: 0.5,
            seed: 42,
            interval_log: None,
        }
    }
}

/// Latency summary for one operation class.
#[derive(Clone, Debug, Serialize)]
pub struct OpenLoopClass {
    /// Operation class label (`insert`, `upsert`, `delete`, `find`,
    /// `range_scan`).
    pub class: String,
    /// Recorded samples.
    pub count: u64,
    /// Median latency (intended start → completion), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Worst recorded latency, nanoseconds.
    pub max_ns: u64,
}

/// Result of one open-loop run.
#[derive(Clone, Debug, Serialize)]
pub struct OpenLoopMeasurement {
    /// Structure name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Configured arrival rate (ops/sec).
    pub offered_rate: f64,
    /// Completed rate (ops/sec); below `offered_rate` means the
    /// structure saturated and a backlog formed.
    pub achieved_rate: f64,
    /// Mean per-worker measured seconds.
    pub elapsed_secs: f64,
    /// Completed operations.
    pub total_ops: u64,
    /// Per-class latency summaries (classes the mix never drew are
    /// omitted).
    pub classes: Vec<OpenLoopClass>,
}

/// Class labels, indexed like the per-class histogram arrays.
pub(crate) const CLASS_LABELS: [&str; 5] = ["insert", "upsert", "delete", "find", "range_scan"];

/// Run the open-loop driver: prefill, then offer `cfg.target_rate`
/// ops/sec for `cfg.duration`, recording intended-start latency per
/// operation class. The mix is checked against the structure's
/// capabilities before anything runs.
pub fn run_open_loop<M: ConcurrentMap>(
    map: &M,
    cfg: &OpenLoopConfig,
) -> Result<OpenLoopMeasurement, CapabilityError> {
    map.capabilities().check(&cfg.mix, map.name())?;
    prefill(
        map,
        cfg.key_dist.key_space(),
        cfg.prefill_fraction,
        cfg.seed,
    );

    let threads = cfg.threads.max(1);
    let stats = ShardedHistogram::new(threads, CLASS_LABELS.len());
    // Workers + the coordinating thread + (optionally) the interval
    // reporter all release from the same line, so t=0 means the same
    // instant to every participant.
    let reporter_threads = usize::from(cfg.interval_log.is_some());
    let start_line = std::sync::Barrier::new(threads + 1 + reporter_threads);
    let done = AtomicBool::new(false);

    let per_thread: Vec<(u64, Duration)> = std::thread::scope(|s| {
        let reporter = cfg.interval_log.as_ref().map(|il| {
            let stats = &stats;
            let done = &done;
            let start_line = &start_line;
            let il = il.clone();
            s.spawn(move || interval_reporter(&il, stats, done, start_line))
        });
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let start_line = &start_line;
                let stats = &stats;
                let dist = cfg.key_dist.clone();
                let mix = cfg.mix;
                let rate = cfg.target_rate / threads as f64;
                let phase = tid as f64 / threads as f64;
                let wseed = seed::worker_seed(cfg.seed, tid as u64);
                let duration = cfg.duration;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut local: [HdrHistogram; 5] = std::array::from_fn(|_| HdrHistogram::new());
                    let mut session = map.pin();
                    start_line.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + duration;
                    let mut sched = OpSchedule::with_phase(t0, rate, phase);
                    let mut ops = 0u64;
                    let mut since_flush = 0u32;
                    // Supplement the count-based flush with a time-based
                    // one so interval reporting stays live at low rates
                    // (256 ops can span many seconds at a trickle).
                    const FLUSH_INTERVAL: Duration = Duration::from_millis(250);
                    let mut last_flush = t0;
                    loop {
                        let intended = sched.next_intended();
                        if intended >= deadline {
                            break;
                        }
                        wait_until(intended);
                        // Issuing cutoff: when saturated the backlog
                        // would otherwise keep executing long past the
                        // window (see module docs).
                        if Instant::now() >= deadline {
                            break;
                        }
                        let k = dist.sample(&mut rng);
                        let class = match mix.sample(&mut rng) {
                            Op::Insert => {
                                std::hint::black_box(session.insert(k, k));
                                0
                            }
                            Op::Upsert => {
                                std::hint::black_box(session.upsert(k, k));
                                1
                            }
                            Op::Delete => {
                                std::hint::black_box(session.delete(&k));
                                2
                            }
                            Op::Find => {
                                std::hint::black_box(session.get(&k));
                                3
                            }
                            Op::RangeScan => {
                                let hi = k.saturating_add(mix.range_width.saturating_sub(1));
                                std::hint::black_box(session.range_scan(&k, &hi));
                                4
                            }
                        };
                        // Intended-start accounting: queueing delay
                        // (intended → actual issue) plus service time.
                        local[class].record_duration(intended.elapsed());
                        ops += 1;
                        since_flush += 1;
                        // Outside any timing window: reclamation
                        // catch-up every 64 ops, and a stats flush
                        // every 256 so reporting intervals can read a
                        // live merge.
                        if ops.is_multiple_of(64) {
                            session.refresh();
                        }
                        if since_flush == 256 || intended >= last_flush + FLUSH_INTERVAL {
                            stats.flush(tid, &mut local);
                            since_flush = 0;
                            last_flush = intended;
                        }
                    }
                    let elapsed = t0.elapsed();
                    stats.flush(tid, &mut local);
                    (ops, elapsed)
                })
            })
            .collect();
        start_line.wait();
        let per_thread = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Workers have final-flushed; let the reporter emit its closing
        // interval row from the complete merge, then stop.
        done.store(true, Ordering::Release);
        if let Some(r) = reporter {
            r.join().unwrap();
        }
        per_thread
    });

    let total_ops: u64 = per_thread.iter().map(|(o, _)| o).sum();
    let achieved_rate: f64 = per_thread
        .iter()
        .map(|(o, e)| *o as f64 / e.as_secs_f64())
        .sum();
    let elapsed_secs =
        per_thread.iter().map(|(_, e)| e.as_secs_f64()).sum::<f64>() / threads as f64;

    let classes = stats
        .merged()
        .into_iter()
        .zip(CLASS_LABELS)
        .filter(|(h, _)| !h.is_empty())
        .map(|(h, label)| {
            let (p50, p99, p999) = h.summary();
            OpenLoopClass {
                class: label.to_string(),
                count: h.len(),
                p50_ns: p50,
                p99_ns: p99,
                p999_ns: p999,
                max_ns: h.max(),
            }
        })
        .collect();

    Ok(OpenLoopMeasurement {
        name: map.name().to_string(),
        threads,
        offered_rate: cfg.target_rate,
        achieved_rate,
        elapsed_secs,
        total_ops,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Caps;
    use std::sync::{Mutex, MutexGuard};

    /// The tests that run the engine measure wall-clock rates and tails,
    /// and a NoopMap worker spin-waits for nearly its whole run. Run
    /// them one at a time so no sibling steals the core another is
    /// measuring on.
    fn open_loop_serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn schedule_is_monotone_and_rate_accurate() {
        let origin = Instant::now();
        let rate = 10_000.0;
        let mut sched = OpSchedule::new(origin, rate);
        let mut prev = sched.next_intended();
        for _ in 0..9_999 {
            let next = sched.next_intended();
            assert!(next >= prev, "intended starts must be monotone");
            prev = next;
        }
        // After 10 000 claims at 10 kHz, the last intended start sits
        // one second out (within a tick of rounding).
        let off = prev - origin;
        let expected = Duration::from_nanos((9_999.0 * 1e9 / rate) as u64);
        let err = off.abs_diff(expected);
        assert!(
            err < Duration::from_micros(1),
            "schedule drifted: {off:?} vs {expected:?}"
        );
        assert_eq!(sched.issued(), 10_000);
    }

    #[test]
    fn phase_staggers_workers_within_one_interval() {
        let origin = Instant::now();
        let a = OpSchedule::with_phase(origin, 1_000.0, 0.0);
        let b = OpSchedule::with_phase(origin, 1_000.0, 0.5);
        let gap = b.intended(0) - a.intended(0);
        assert_eq!(gap, Duration::from_nanos(500_000));
        // The comb interleaves: worker b's op 0 lands between a's 0 and 1.
        assert!(b.intended(0) < a.intended(1));
    }

    /// A map whose every operation busy-spins for a fixed service time:
    /// the controllable "stalled structure" for the coordinated-omission
    /// smoke test.
    struct StalledMap {
        service: Duration,
    }
    struct StalledSession {
        service: Duration,
    }
    impl StalledSession {
        fn serve(&self) {
            let t0 = Instant::now();
            while t0.elapsed() < self.service {
                std::hint::spin_loop();
            }
        }
    }
    impl MapSession for StalledSession {
        fn insert(&mut self, _: u64, _: u64) -> bool {
            self.serve();
            true
        }
        fn upsert(&mut self, _: u64, _: u64) -> Option<u64> {
            self.serve();
            None
        }
        fn delete(&mut self, _: &u64) -> bool {
            self.serve();
            false
        }
        fn get(&mut self, _: &u64) -> Option<u64> {
            self.serve();
            None
        }
        fn range_scan(&mut self, _: &u64, _: &u64) -> usize {
            self.serve();
            0
        }
    }
    impl ConcurrentMap for StalledMap {
        type Session<'a> = StalledSession;
        fn pin(&self) -> StalledSession {
            StalledSession {
                service: self.service,
            }
        }
        fn capabilities(&self) -> Caps {
            Caps::all()
        }
        fn name(&self) -> &'static str {
            "stalled-map"
        }
    }

    /// The open-loop honesty test: a fixed 300 µs service time gives a
    /// per-thread capacity of ~3.3 kops/s. Offered *below* capacity,
    /// recorded latency is just the service time; offered *above*
    /// capacity, a backlog forms and intended-start accounting must
    /// surface the queueing delay — p999 grows with offered rate. A
    /// closed-loop driver would report ~300 µs in both columns, which is
    /// exactly the lie this engine exists to stop telling.
    #[test]
    fn stalled_map_p999_reflects_queueing_delay() {
        let _serial = open_loop_serial();
        let service = Duration::from_micros(300);
        let map = StalledMap { service };
        let run = |rate: f64| {
            let cfg = OpenLoopConfig {
                threads: 1,
                target_rate: rate,
                duration: Duration::from_millis(250),
                key_dist: KeyDist::uniform(64),
                mix: Mix::new(0, 0, 100, 0, 0),
                prefill_fraction: 0.0,
                seed: 7,
                interval_log: None,
            };
            run_open_loop(&map, &cfg).expect("caps cover the mix")
        };
        let p999 = |m: &OpenLoopMeasurement| {
            m.classes
                .iter()
                .find(|c| c.class == "find")
                .expect("find class sampled")
                .p999_ns
        };

        let attempt = || -> Result<(), String> {
            let below = run(1_000.0); // 30% of capacity
            let above = run(20_000.0); // 6× capacity
            let p999_below = p999(&below);
            let p999_above = p999(&above);

            // Under capacity: service time plus scheduling noise,
            // nowhere near the multi-ms regime.
            if p999_below >= 10_000_000 {
                return Err(format!(
                    "sub-capacity p999 should be ~service time, got {p999_below} ns"
                ));
            }
            // Over capacity: the backlog at 6× load grows throughout
            // the 250 ms window, so the tail must reach tens of
            // milliseconds — visibly queueing delay, not service time.
            if p999_above <= 10_000_000 {
                return Err(format!(
                    "saturated p999 must show queueing delay, got {p999_above} ns"
                ));
            }
            if p999_above <= 10 * p999_below.max(1) {
                return Err(format!(
                    "p999 must grow with offered rate: {p999_below} -> {p999_above}"
                ));
            }
            // And saturation is visible in the rate columns.
            if above.achieved_rate >= 0.5 * above.offered_rate {
                return Err(format!(
                    "achieved ({}) should fall well short of offered ({})",
                    above.achieved_rate, above.offered_rate
                ));
            }
            if below.achieved_rate <= 0.7 * below.offered_rate {
                return Err(format!(
                    "sub-capacity run should keep up: {} vs {}",
                    below.achieved_rate, below.offered_rate
                ));
            }
            Ok(())
        };

        // The sub-capacity bound is genuinely timing-sensitive: one
        // 10 ms preemption of the single worker (routine on a loaded
        // 1-core CI box) lands in p999_below and fails an otherwise
        // healthy engine. Retry a bounded number of times — the
        // property under test (queueing delay visible at saturation,
        // absent below it) must hold on *some* quiet 500 ms window,
        // while a real engine bug fails every attempt.
        let mut last = String::new();
        for _ in 0..3 {
            match attempt() {
                Ok(()) => return,
                Err(e) => last = e,
            }
        }
        panic!("{last}");
    }

    /// A free-running map: with ~zero service time the engine must hit
    /// its offered rate and classify ops per the mix.
    struct NoopMap;
    struct NoopSession;
    impl MapSession for NoopSession {
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
    impl ConcurrentMap for NoopMap {
        type Session<'a> = NoopSession;
        fn pin(&self) -> NoopSession {
            NoopSession
        }
        fn capabilities(&self) -> Caps {
            Caps::all()
        }
        fn name(&self) -> &'static str {
            "noop-map"
        }
    }

    #[test]
    fn open_loop_hits_offered_rate_on_a_fast_map() {
        let _serial = open_loop_serial();
        let cfg = OpenLoopConfig {
            threads: 1,
            target_rate: 5_000.0,
            duration: Duration::from_millis(300),
            key_dist: KeyDist::uniform(128),
            mix: Mix::new(25, 25, 50, 0, 0),
            prefill_fraction: 0.0,
            seed: 3,
            interval_log: None,
        };
        let m = run_open_loop(&NoopMap, &cfg).unwrap();
        assert_eq!(m.name, "noop-map");
        assert_eq!(m.offered_rate, 5_000.0);
        // ~1500 arrivals scheduled; all should execute on a no-op map.
        assert!(
            m.total_ops >= 1_200 && m.total_ops <= 1_600,
            "op count off the schedule: {}",
            m.total_ops
        );
        let ratio = m.achieved_rate / m.offered_rate;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "achieved/offered = {ratio} (achieved {})",
            m.achieved_rate
        );
        // All three mixed classes sampled, none spurious.
        let labels: Vec<&str> = m.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(labels, vec!["insert", "delete", "find"]);
        assert_eq!(
            m.classes.iter().map(|c| c.count).sum::<u64>(),
            m.total_ops,
            "every op lands in exactly one class histogram"
        );
        for c in &m.classes {
            assert!(c.p50_ns <= c.p99_ns && c.p99_ns <= c.p999_ns && c.p999_ns <= c.max_ns);
        }
    }

    #[test]
    fn interval_log_appends_per_interval_rows() {
        let _serial = open_loop_serial();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "pnbbst_interval_log_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = OpenLoopConfig {
            threads: 1,
            target_rate: 4_000.0,
            duration: Duration::from_millis(450),
            key_dist: KeyDist::uniform(128),
            mix: Mix::new(25, 25, 50, 0, 0),
            prefill_fraction: 0.0,
            seed: 11,
            interval_log: Some(IntervalLogConfig::with_interval(
                &path,
                Duration::from_millis(100),
            )),
        };
        let m = run_open_loop(&NoopMap, &cfg).unwrap();
        let text = std::fs::read_to_string(&path).expect("interval log written");
        let _ = std::fs::remove_file(&path);
        let rows: Vec<&str> = text.lines().collect();
        // 450 ms at a 100 ms interval: at least 3 full intervals plus
        // the final partial row (scheduler jitter may drop one).
        assert!(rows.len() >= 3, "expected >=3 interval rows, got {text:?}");
        let mut total_rate_ops = 0.0f64;
        let mut prev_t = 0.0f64;
        for row in &rows {
            assert!(row.starts_with('{') && row.ends_with('}'), "bad row {row}");
            for field in [
                "\"t_secs\"",
                "\"achieved_rate\"",
                "\"p50_ns\"",
                "\"p99_ns\"",
            ] {
                assert!(row.contains(field), "{field} missing from {row}");
            }
            let t: f64 = row
                .split("\"t_secs\": ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(t > prev_t, "t_secs must be increasing in {text:?}");
            let rate: f64 = row
                .split("\"achieved_rate\": ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            total_rate_ops += rate * (t - prev_t);
            prev_t = t;
        }
        // The per-interval rates integrate back to roughly the run's
        // completed op count (flush timing makes the edges fuzzy).
        let recovered = total_rate_ops;
        assert!(
            recovered >= 0.5 * m.total_ops as f64 && recovered <= 1.5 * m.total_ops as f64,
            "interval rows integrate to {recovered}, run completed {}",
            m.total_ops
        );
    }

    #[test]
    fn open_loop_checks_capabilities_up_front() {
        struct NoUpsert;
        impl ConcurrentMap for NoUpsert {
            type Session<'a> = NoopSession;
            fn pin(&self) -> NoopSession {
                NoopSession
            }
            fn capabilities(&self) -> Caps {
                Caps::point_ops()
            }
            fn name(&self) -> &'static str {
                "no-upsert"
            }
        }
        let cfg = OpenLoopConfig::new(
            1,
            1_000.0,
            Duration::from_millis(10),
            KeyDist::uniform(16),
            Mix::upsert_heavy(),
        );
        assert_eq!(
            run_open_loop(&NoUpsert, &cfg).unwrap_err(),
            CapabilityError::Upsert {
                structure: "no-upsert"
            }
        );
    }
}
