//! Windowed recording: each load thread owns a [`Recorder`] that sorts
//! what it completes into fixed windows of the measured interval; when
//! the run ends the threads' windows are added up and every reported
//! rate is the **median window**, every reported percentile the
//! **median of the windows' percentiles**.
//!
//! Why not whole-run statistics: on a shared two-vCPU box one stalled
//! second (the hypervisor took the core, a page-cache flush) moves a
//! whole-run mean by a tenth and a whole-run p99 by a hundredfold; it
//! moves one window. The warm-up is not a window: recording starts at
//! the measured interval's origin.

use std::time::{Duration, Instant};

use crate::stats::{median, Histogram};

/// What one window of one thread saw.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub updates: u64,
    pub keys: u64,
    pub scan_keys: u64,
    pub latency: Histogram,
}

/// Counts of one completed request unit (a call, a scan, a frame).
#[derive(Clone, Copy, Debug, Default)]
pub struct Done {
    pub ops: u64,
    pub updates: u64,
    pub keys: u64,
    pub scan_keys: u64,
}

impl Done {
    /// One point operation.
    pub fn point(is_update: bool) -> Self {
        Done {
            ops: 1,
            updates: is_update as u64,
            keys: 1,
            scan_keys: 0,
        }
    }

    /// One scan that returned `entries` entries.
    pub fn scan(entries: u64) -> Self {
        Done {
            ops: 1,
            updates: 0,
            keys: entries,
            scan_keys: entries,
        }
    }

    pub fn add(&mut self, other: Done) {
        self.ops += other.ops;
        self.updates += other.updates;
        self.keys += other.keys;
        self.scan_keys += other.scan_keys;
    }
}

/// When a run warms up, measures and stops; shared by its threads.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    /// Start of the warm-up; span times and the open loop's schedule
    /// count from here.
    pub begin: Instant,
    /// Start of the measured interval.
    pub origin: Instant,
    /// End of the measured interval.
    pub stop: Instant,
    pub window: Duration,
    pub windows: usize,
}

/// Seconds of load before the measured interval: caches fill, the
/// arena pools reach their working set, the updater reaches its steady
/// state, the server's worker has refreshed its session a few times.
pub const WARMUP: Duration = Duration::from_secs(2);

impl Timeline {
    /// `seconds` of measurement in windows of `window` (shortened to the
    /// run when the run is shorter), starting after [`WARMUP`].
    pub fn start(seconds: f64, window: Duration) -> Self {
        let total = Duration::from_secs_f64(seconds);
        let window = window.min(total);
        let windows = (total.as_nanos() / window.as_nanos()).max(1) as usize;
        let begin = Instant::now();
        let origin = begin + WARMUP;
        Timeline {
            begin,
            origin,
            stop: origin + window * windows as u32,
            window,
            windows,
        }
    }
}

pub struct Recorder {
    origin: Instant,
    window_ns: u64,
    windows: Vec<Window>,
}

impl Recorder {
    pub fn new(t: &Timeline) -> Self {
        Recorder {
            origin: t.origin,
            window_ns: t.window.as_nanos() as u64,
            windows: vec![Window::default(); t.windows],
        }
    }

    /// Book `done`, completed at `at`, with `latency` if this unit was
    /// timed. Completions before the origin (warm-up) or after the last
    /// window are dropped.
    pub fn record(&mut self, at: Instant, done: Done, latency: Option<Duration>) {
        let Some(since) = at.checked_duration_since(self.origin) else {
            return;
        };
        let index = (since.as_nanos() as u64 / self.window_ns) as usize;
        let Some(w) = self.windows.get_mut(index) else {
            return;
        };
        w.ops += done.ops;
        w.updates += done.updates;
        w.keys += done.keys;
        w.scan_keys += done.scan_keys;
        if let Some(l) = latency {
            w.latency.record(l.as_nanos() as u64);
        }
    }
}

/// The end-to-end numbers of a run (set-up and memory aside).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub ops_per_s: f64,
    pub update_ops_per_s: f64,
    pub keys_per_s: f64,
    pub scan_keys_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Latency samples in the smallest window: says how far out a
    /// percentile the windows support.
    pub min_window_samples: u64,
    /// Operations per second of each window, in order, for the reader
    /// who wants to see a stall.
    pub window_ops_per_s: Vec<f64>,
}

/// Add the threads' windows up and take medians across windows.
pub fn summarise(recorders: &[Recorder]) -> Summary {
    let first = recorders.first().expect("at least one recorder");
    let secs = first.window_ns as f64 / 1e9;
    let mut merged = vec![Window::default(); first.windows.len()];
    for r in recorders {
        for (m, w) in merged.iter_mut().zip(&r.windows) {
            m.ops += w.ops;
            m.updates += w.updates;
            m.keys += w.keys;
            m.scan_keys += w.scan_keys;
            m.latency.merge(&w.latency);
        }
    }
    let rate = |f: fn(&Window) -> u64| {
        median(
            &merged
                .iter()
                .map(|w| f(w) as f64 / secs)
                .collect::<Vec<_>>(),
        )
    };
    let quantile_us = |p: f64| {
        let per_window: Vec<f64> = merged
            .iter()
            .filter_map(|w| w.latency.quantile(p))
            .map(|ns| ns / 1e3)
            .collect();
        median(&per_window)
    };
    Summary {
        ops_per_s: rate(|w| w.ops),
        update_ops_per_s: rate(|w| w.updates),
        keys_per_s: rate(|w| w.keys),
        scan_keys_per_s: rate(|w| w.scan_keys),
        p50_us: quantile_us(0.5),
        p95_us: quantile_us(0.95),
        p99_us: quantile_us(0.99),
        min_window_samples: merged.iter().map(|w| w.latency.count()).min().unwrap_or(0),
        window_ops_per_s: merged.iter().map(|w| w.ops as f64 / secs).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(windows: usize) -> Timeline {
        let begin = Instant::now();
        let window = Duration::from_millis(100);
        Timeline {
            begin,
            origin: begin + WARMUP,
            stop: begin + WARMUP + window * windows as u32,
            window,
            windows,
        }
    }

    #[test]
    fn warm_up_and_overrun_are_not_recorded() {
        let t = timeline(3);
        let mut r = Recorder::new(&t);
        let one = Done::point(true);
        r.record(t.begin, one, None); // warm-up
        r.record(t.origin, one, Some(Duration::from_micros(5)));
        r.record(t.origin + Duration::from_millis(250), one, None);
        r.record(t.stop, one, None); // past the last window
        let ops: Vec<u64> = r.windows.iter().map(|w| w.ops).collect();
        assert_eq!(ops, vec![1, 0, 1]);
        assert_eq!(r.windows[0].latency.count(), 1);
    }

    #[test]
    fn a_stalled_window_moves_neither_rate_nor_tail() {
        let t = timeline(5);
        let (mut a, mut b) = (Recorder::new(&t), Recorder::new(&t));
        for w in 0..5u32 {
            let at = t.origin + t.window * w + Duration::from_millis(1);
            // Window 2 stalls: a tenth of the work, a thousandfold latency.
            let (n, lat) = if w == 2 { (10, 500_000) } else { (100, 500) };
            for _ in 0..n {
                a.record(at, Done::point(false), Some(Duration::from_micros(lat)));
                b.record(at, Done::scan(8), None);
            }
        }
        let s = summarise(&[a, b]);
        assert_eq!(s.ops_per_s, 2000.0); // 200 per 0.1-s window
        assert_eq!(s.keys_per_s, 9000.0);
        assert_eq!(s.scan_keys_per_s, 8000.0);
        assert_eq!(s.update_ops_per_s, 0.0);
        assert!((s.p95_us - 500.0).abs() < 10.0, "p95 {}", s.p95_us);
        assert!((s.p99_us - 500.0).abs() < 10.0, "p99 {}", s.p99_us);
        assert_eq!(s.min_window_samples, 10);
    }

    #[test]
    fn timeline_fits_whole_windows_into_the_run() {
        let t = Timeline::start(3.5, Duration::from_secs(1));
        assert_eq!(t.windows, 3);
        assert_eq!(t.stop - t.origin, Duration::from_secs(3));
        let short = Timeline::start(0.5, Duration::from_secs(2));
        assert_eq!(short.windows, 1);
        assert_eq!(short.stop - short.origin, Duration::from_millis(500));
    }
}
