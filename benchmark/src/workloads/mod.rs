//! The workloads. Each one sets its system up (three times, timed),
//! warms it up, measures for `--seconds`, checks what came back and
//! returns an [`Outcome`]; `main` turns that into the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::measure::Summary;
use crate::spec::PER_LAYER;
use crate::stats::median;
use crate::trace::ThreadTrace;

pub mod mem;
pub mod net;

/// Shards of every map the benchmark builds or serves (the server's
/// default).
pub const SHARDS: usize = 8;
/// Key space of the small maps: 26 k entries, a few megabytes of nodes
/// — fits in the last-level cache. Only served workloads that wait on
/// the worker's idle sleep use it: on a shared host the neighbours evict
/// a shared cache, and work bound by a cache-resident map repeats worst
/// of all (1-s windows of a lone scanner spread +-15 % at 2^16 keys,
/// +-5 % at 2^18).
pub const SMALL_SPACE: u64 = 1 << 16;
/// Key space of `mem-scan`: 131 k even keys and the odd ones in flux,
/// ~100 MB of nodes — larger than any cache level, a third of the set-up
/// time of [`LARGE_SPACE`].
pub const MID_SPACE: u64 = 1 << 18;
/// Key space of the large maps: 424 k entries in ~260 MB of nodes,
/// larger than any cache level.
pub const LARGE_SPACE: u64 = 1 << 20;

/// The key space of `workload`'s map.
pub fn key_space(workload: &str) -> u64 {
    match workload {
        "mem-point" | "net-batch" => LARGE_SPACE,
        "mem-scan" => MID_SPACE,
        _ => SMALL_SPACE,
    }
}
/// Width of every scan: ~800 entries of a point map, 1000 + the odd
/// keys present on `mem-scan`.
pub const SCAN_WIDTH: u64 = 2000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// Key space of the workload's map.
    pub space: u64,
    /// Directory for checkpoints and trace files (inside the checkout).
    pub out_dir: PathBuf,
}

/// Attempts, failures and the first few failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Book `n` operations whose check is `verdict` (all of them fail
    /// together: a batch frame, say).
    pub fn book(&mut self, n: u64, verdict: Result<(), String>) {
        self.attempted += n;
        if let Err(e) = verdict {
            self.fail(n, e);
        }
    }

    /// Book `n` failures of operations already counted as attempted.
    pub fn fail(&mut self, n: u64, error: String) {
        self.failed += n;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Clone, Debug, Default)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: Layer) {
        self.0.extend(other.0);
    }
}

pub struct Outcome {
    pub tally: Tally,
    /// Structural checks that failed after the run (beyond `tally`).
    pub check_errors: Vec<String>,
    pub setup_s: f64,
    pub summary: Summary,
    pub peak_rss_mb: f64,
    /// What the traced run of this workload measured (zeros untraced).
    pub layer: Layer,
    pub traces: Vec<ThreadTrace>,
    /// Lines for the human reader: sample counts, lateness, pinning.
    pub notes: Vec<String>,
}

/// Run `build` [`SETUP_REPS`] times, timing each; keep the last result
/// and the median time. `discard` disposes of the earlier results and
/// is not timed.
pub fn timed_setups<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS >= 1"), median(&times))
}
