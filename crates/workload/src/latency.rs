//! Per-operation latency measurement (tail-latency lens).
//!
//! Throughput hides exactly the effect wait-freedom exists to produce:
//! *bounded individual operation time*. A lock-based map can post great
//! averages while a scan stalls every writer behind it (and vice versa);
//! a wait-free scan's p99 stays flat no matter what updaters do.
//! [`run_latency`] records per-operation-class latency percentiles
//! under a mixed load into [`HdrHistogram`]s (~1.6% relative error).
//! It is the one latency driver: E8 runs it closed-loop, `pnb-load`
//! paced at a target rate.
//!
//! # Closed loop, paced loop and coordinated omission
//!
//! Closed-loop (`rate == None`), each worker fires its next operation
//! the instant the previous one returns, so the offered load adapts
//! itself to however slow the structure is. That feedback silently
//! edits the latency record: when one operation stalls for 10 ms, the
//! operations that *would have arrived* during the stall are never
//! issued, and none of them report the queueing delay they would have
//! seen. This is *coordinated omission* (Tene). Closed-loop latency is
//! measured from the issue instant and answers "how slow was an op once
//! the driver got around to issuing it".
//!
//! Paced (`rate == Some(r)`), each worker runs a metronome at
//! `r / threads`, phase-staggered by `tid / threads` of one interval
//! so the combined arrivals form an even comb: operation `i` is due at
//! `t0 + (i + tid/threads) · threads/r`, pure arithmetic that never
//! drifts with execution. Latency is recorded from that **intended**
//! start, so a worker that falls behind charges the backlog wait to the
//! structure, where a queue-delayed request would feel it. The report
//! carries the achieved rate, so saturation shows as `achieved <
//! offered` instead of silently renormalized percentiles.
//!
//! Issuing stops at the deadline, so arrivals scheduled but never
//! issued at cutoff (only possible once saturated) contribute no
//! samples. Their absence is the offered−achieved gap; the samples
//! that *are* recorded still carry their full queueing delay.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::histogram::HdrHistogram;
use crate::mix::Op;
use crate::runner::{prefill, RunConfig};
use crate::seed;
use crate::{CapabilityError, ConcurrentMap, MapSession};

/// Class labels, indexed like the per-class histogram arrays.
const CLASS_LABELS: [&str; 5] = ["insert", "upsert", "delete", "find", "range_scan"];

/// Latency summary for one operation class.
#[derive(Clone, Debug, Serialize)]
pub struct LatencyClass {
    /// Operation class label (`insert`, `upsert`, `delete`, `find`,
    /// `range_scan`).
    pub class: String,
    /// Recorded samples.
    pub count: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Worst recorded latency, nanoseconds.
    pub max_ns: u64,
}

/// Result of one [`run_latency`] run.
#[derive(Clone, Debug, Serialize)]
pub struct LatencyReport {
    /// Structure name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Mean per-worker measured seconds.
    pub elapsed_secs: f64,
    /// Completed operations per second, summed over the workers; below
    /// the offered rate means the structure saturated and a backlog
    /// formed.
    pub achieved_rate: f64,
    /// Per-class latency summaries (classes the mix never drew are
    /// omitted).
    pub classes: Vec<LatencyClass>,
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

/// Prefill, then run `cfg.mix` on `cfg.threads` workers for
/// `cfg.duration`, recording per-class operation latencies. `rate`
/// selects the accounting (see the module docs): `None` runs closed-loop
/// and times each operation from its issue instant; `Some(r)` offers `r`
/// ops/sec in total and times each operation from its intended start.
/// The mix is checked against the structure's capabilities before
/// anything runs.
pub fn run_latency<M: ConcurrentMap>(
    map: &M,
    cfg: &RunConfig,
    rate: Option<f64>,
) -> Result<LatencyReport, CapabilityError> {
    map.capabilities().check(&cfg.mix, map.name())?;
    prefill(
        map,
        cfg.key_dist.key_space(),
        cfg.prefill_fraction,
        cfg.seed,
    );
    let threads = cfg.threads.max(1);
    // Nanoseconds between one worker's intended starts.
    let interval_ns = rate.map(|r| 1e9 * threads as f64 / r);
    let start_line = Barrier::new(threads);

    let per_thread: Vec<([HdrHistogram; 5], u64, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let start_line = &start_line;
                let dist = cfg.key_dist.clone();
                let mix = cfg.mix;
                let phase = tid as f64 / threads as f64;
                let wseed = seed::worker_seed(cfg.seed, tid as u64);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut hists: [HdrHistogram; 5] = std::array::from_fn(|_| HdrHistogram::new());
                    let mut session = map.pin();
                    start_line.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + cfg.duration;
                    let mut ops = 0u64;
                    loop {
                        let start = match interval_ns {
                            Some(iv) => {
                                // f64 offsets stay well under 2^53 ns
                                // (~104 days), so the tick is exact
                                // enough.
                                let due =
                                    t0 + Duration::from_nanos(((ops as f64 + phase) * iv) as u64);
                                if due >= deadline {
                                    break;
                                }
                                wait_until(due);
                                // Issuing cutoff: when saturated the
                                // backlog would otherwise keep executing
                                // long past the window.
                                if Instant::now() >= deadline {
                                    break;
                                }
                                due
                            }
                            None => {
                                let now = Instant::now();
                                if now >= deadline {
                                    break;
                                }
                                now
                            }
                        };
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
                        hists[class].record_duration(start.elapsed());
                        ops += 1;
                        // Outside the timing windows: reclamation
                        // catch-up.
                        if ops.is_multiple_of(32) {
                            session.refresh();
                        }
                    }
                    (hists, ops, t0.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let achieved_rate = (per_thread.iter())
        .map(|(_, ops, e)| *ops as f64 / e.as_secs_f64())
        .sum();
    let elapsed_secs = per_thread
        .iter()
        .map(|(_, _, e)| e.as_secs_f64())
        .sum::<f64>()
        / threads as f64;
    let mut merged: [HdrHistogram; 5] = std::array::from_fn(|_| HdrHistogram::new());
    for (hs, _, _) in &per_thread {
        for (m, h) in merged.iter_mut().zip(hs.iter()) {
            m.merge(h);
        }
    }
    let classes = merged
        .iter()
        .zip(CLASS_LABELS)
        .filter(|(h, _)| !h.is_empty())
        .map(|(h, label)| {
            let (p50, p99, p999) = h.summary();
            LatencyClass {
                class: label.to_string(),
                count: h.len(),
                p50_ns: p50,
                p99_ns: p99,
                p999_ns: p999,
                max_ns: h.max(),
            }
        })
        .collect();
    Ok(LatencyReport {
        name: map.name().to_string(),
        threads,
        elapsed_secs,
        achieved_rate,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Caps, KeyDist, Mix};
    use std::sync::{Mutex, MutexGuard};

    /// The paced tests measure wall-clock rates and tails, and a
    /// NoopMap worker spin-waits for nearly its whole run. Run them one
    /// at a time so no sibling steals the core another is measuring on.
    fn open_loop_serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Single-thread run of `mix` over `keys` keys with no prefill.
    fn cfg(duration_ms: u64, keys: u64, mix: Mix, seed: u64) -> RunConfig {
        RunConfig {
            threads: 1,
            duration: Duration::from_millis(duration_ms),
            key_dist: KeyDist::uniform(keys),
            mix,
            prefill_fraction: 0.0,
            seed,
        }
    }

    fn total_ops(m: &LatencyReport) -> u64 {
        m.classes.iter().map(|c| c.count).sum()
    }

    #[test]
    fn latency_driver_produces_all_classes() {
        use std::collections::BTreeMap;
        struct M(Mutex<BTreeMap<u64, u64>>);
        struct S<'a>(&'a M);
        impl MapSession for S<'_> {
            fn insert(&mut self, k: u64, v: u64) -> bool {
                self.0 .0.lock().unwrap().insert(k, v).is_none()
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
        impl ConcurrentMap for M {
            type Session<'a> = S<'a>;
            fn pin(&self) -> S<'_> {
                S(self)
            }
            fn capabilities(&self) -> Caps {
                Caps::all()
            }
            fn name(&self) -> &'static str {
                "test-map"
            }
        }
        let m = M(Mutex::new(BTreeMap::new()));
        let cfg = RunConfig {
            seed: 9,
            ..RunConfig::new(
                2,
                Duration::from_millis(60),
                KeyDist::uniform(512),
                Mix::with_ranges(16),
            )
        };
        let rep = run_latency(&m, &cfg, None).expect("caps cover the mix");
        assert_eq!(rep.threads, 2);
        assert_eq!(rep.classes.len(), 4, "the four mixed classes sampled");
        for c in &rep.classes {
            assert!(c.count > 0, "{} unsampled", c.class);
            assert!(
                c.p50_ns <= c.p99_ns && c.p99_ns <= c.p999_ns,
                "{} percentiles ordered",
                c.class
            );
        }
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

    /// The honesty test: a fixed 300 µs service time gives a per-thread
    /// capacity of ~3.3 kops/s. Paced *below* capacity, recorded latency
    /// is just the service time; paced *above* capacity, a backlog
    /// forms and intended-start accounting must surface the queueing
    /// delay — p999 grows with offered rate. The closed loop at the same
    /// saturation reports ~300 µs, which is the omission the `rate`
    /// argument alone turns off.
    #[test]
    fn stalled_map_p999_reflects_queueing_delay() {
        let _serial = open_loop_serial();
        let service = Duration::from_micros(300);
        let map = StalledMap { service };
        let find_only = cfg(250, 64, Mix::new(0, 0, 100, 0, 0), 7);
        let run = |rate: Option<f64>| run_latency(&map, &find_only, rate).expect("caps");
        let p999 = |m: &LatencyReport| {
            m.classes
                .iter()
                .find(|c| c.class == "find")
                .expect("find class sampled")
                .p999_ns
        };

        let attempt = || -> Result<(), String> {
            let below = run(Some(1_000.0)); // 30% of capacity
            let above = run(Some(20_000.0)); // 6× capacity
            let closed = run(None); // saturated, omission on
            let p999_below = p999(&below);
            let p999_above = p999(&above);
            let p999_closed = p999(&closed);

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
            // The same saturated map, closed-loop: every op is timed
            // from its issue, so the tail is the service time again.
            if p999_closed >= 10_000_000 {
                return Err(format!(
                    "closed-loop p999 should be ~service time, got {p999_closed} ns"
                ));
            }
            // And saturation is visible in the rate columns.
            if above.achieved_rate >= 0.5 * 20_000.0 {
                return Err(format!(
                    "achieved ({}) should fall well short of offered (20000)",
                    above.achieved_rate
                ));
            }
            if below.achieved_rate <= 0.7 * 1_000.0 {
                return Err(format!(
                    "sub-capacity run should keep up: {} vs 1000",
                    below.achieved_rate
                ));
            }
            Ok(())
        };

        // The service-time bounds are genuinely timing-sensitive: one
        // 10 ms preemption of the single worker (routine on a loaded
        // 1-core CI box) lands in a 250 ms run's p999 and fails an
        // otherwise healthy driver. Retry a bounded number of times —
        // the property under test (queueing delay visible when paced
        // past saturation, absent below it and closed-loop) must hold
        // on *some* quiet window, while a real driver bug fails every
        // attempt.
        let mut last = String::new();
        for _ in 0..3 {
            match attempt() {
                Ok(()) => return,
                Err(e) => last = e,
            }
        }
        panic!("{last}");
    }

    /// A free-running map: with ~zero service time the paced driver
    /// must hit its offered rate and classify ops per the mix.
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
        let cfg = cfg(300, 128, Mix::new(25, 25, 50, 0, 0), 3);
        let m = run_latency(&NoopMap, &cfg, Some(5_000.0)).unwrap();
        assert_eq!(m.name, "noop-map");
        // ~1500 arrivals scheduled; all should execute on a no-op map.
        let total = total_ops(&m);
        assert!(
            (1_200..=1_600).contains(&total),
            "op count off the schedule: {total}"
        );
        let ratio = m.achieved_rate / 5_000.0;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "achieved/offered = {ratio} (achieved {})",
            m.achieved_rate
        );
        // All three mixed classes sampled, none spurious.
        let labels: Vec<&str> = m.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(labels, vec!["insert", "delete", "find"]);
        // One worker: the rate is its op count over its own elapsed
        // time, so the class histograms hold every op it counted.
        assert_eq!(
            (m.achieved_rate * m.elapsed_secs).round() as u64,
            total,
            "every op lands in exactly one class histogram"
        );
        for c in &m.classes {
            assert!(c.p50_ns <= c.p99_ns && c.p99_ns <= c.p999_ns && c.p999_ns <= c.max_ns);
        }
    }

    /// Each worker paces at `rate / threads`, so the offered rate is the
    /// total over all workers, not per worker.
    #[test]
    fn paced_rate_is_split_across_workers() {
        let _serial = open_loop_serial();
        let cfg = RunConfig {
            threads: 2,
            ..cfg(300, 128, Mix::new(25, 25, 50, 0, 0), 5)
        };
        let m = run_latency(&NoopMap, &cfg, Some(4_000.0)).unwrap();
        assert_eq!(m.threads, 2);
        // ~1200 arrivals in total (600 a worker); an unsplit rate would
        // schedule twice that.
        let total = total_ops(&m);
        assert!(
            (1_000..=1_300).contains(&total),
            "op count off the schedule: {total}"
        );
        let ratio = m.achieved_rate / 4_000.0;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "achieved/offered = {ratio} (achieved {})",
            m.achieved_rate
        );
    }

    /// Past saturation the backlog outgrows the window, and issuing
    /// still stops at the deadline: a 100 ms run at 6× the capacity of a
    /// 300 µs map schedules 2000 arrivals, 0.6 s of service, and must
    /// end one service time past its window, not drain them.
    #[test]
    fn paced_run_stops_issuing_at_the_deadline() {
        let _serial = open_loop_serial();
        let map = StalledMap {
            service: Duration::from_micros(300),
        };
        let m = run_latency(
            &map,
            &cfg(100, 64, Mix::new(0, 0, 100, 0, 0), 11),
            Some(20_000.0),
        )
        .unwrap();
        assert!(
            (0.1..0.3).contains(&m.elapsed_secs),
            "a saturated run must stop at its deadline: {} s",
            m.elapsed_secs
        );
        // At most one op a service time fits in the window.
        let total = total_ops(&m);
        assert!(total <= 100_000 / 300 + 1, "{total} ops in 100 ms");
    }

    /// Closed-loop, a worker runs until the deadline and the report's
    /// rate and elapsed time account for every op it recorded.
    #[test]
    fn closed_loop_reports_its_own_rate_and_elapsed_time() {
        let _serial = open_loop_serial();
        let cfg = cfg(50, 128, Mix::new(25, 25, 50, 0, 0), 13);
        let m = run_latency(&NoopMap, &cfg, None).unwrap();
        // The loop only leaves once the deadline has passed.
        assert!(
            (0.05..1.0).contains(&m.elapsed_secs),
            "elapsed {} s for a 50 ms run",
            m.elapsed_secs
        );
        let total = total_ops(&m);
        assert!(total > 0);
        assert_eq!(
            (m.achieved_rate * m.elapsed_secs).round() as u64,
            total,
            "every op lands in exactly one class histogram"
        );
    }

    /// The metronome never issues early, and a due time already past
    /// (the backlogged case) returns at once.
    #[test]
    fn wait_until_never_returns_early() {
        let now = Instant::now();
        wait_until(now);
        if let Some(past) = now.checked_sub(Duration::from_millis(5)) {
            wait_until(past);
        }
        for gap_us in [50, 250, 1_000, 3_000] {
            let due = Instant::now() + Duration::from_micros(gap_us);
            wait_until(due);
            assert!(
                Instant::now() >= due,
                "returned before a {gap_us} µs due time"
            );
        }
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
        let cfg = RunConfig::new(
            1,
            Duration::from_millis(10),
            KeyDist::uniform(16),
            Mix::upsert_heavy(),
        );
        assert_eq!(
            run_latency(&NoUpsert, &cfg, Some(1_000.0)).unwrap_err(),
            CapabilityError::Upsert {
                structure: "no-upsert"
            }
        );
    }
}
