//! # workload — setbench-style workload generation and measurement
//!
//! The evaluation substrate for the PNB-BST reproduction: the authors
//! evaluated with a setbench-style driver (prefilled key space, per-thread
//! operation mixes, timed throughput measurement); this crate rebuilds
//! that driver in Rust.
//!
//! Pieces:
//!
//! * [`ConcurrentMap`] / [`MapSession`] — the uniform, *guard-aware*
//!   interface the harness drives: each worker thread opens one pinned
//!   session and runs every operation through it (implemented by
//!   adapters in the bench crate for every structure under test).
//! * [`Caps`] / [`CapabilityError`] — typed capability declarations;
//!   mixes that ask for unsupported operations are rejected at
//!   configuration time instead of panicking mid-run.
//! * [`Mix`] — an operation mix (insert/delete/find/range-query
//!   percentages and range width).
//! * [`KeyDist`] — uniform, Zipfian or scrambled-Zipfian key selection
//!   over a key space.
//! * [`run_throughput`] — the timed closed-loop driver; returns
//!   per-operation counts and aggregate throughput.
//! * [`run_open_loop`] — the open-loop, target-rate driver: arrivals on
//!   a fixed schedule, latency recorded from each op's *intended* start
//!   into an [`HdrHistogram`], so queueing delay is charged to the
//!   structure instead of silently omitted (see the
//!   [`schedule`] module docs on coordinated omission).
//! * [`seed`] — the one splitmix64-based seed spawner every driver
//!   derives per-thread RNG streams from.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod dist;
pub mod histogram;
pub mod json;
pub mod latency;
pub mod mix;
pub mod runner;
pub mod schedule;
pub mod seed;

pub use batch::{
    run_batched_throughput, BatchOp, BatchReport, BatchedMeasurement, BatchedRunConfig,
};
pub use dist::{KeyDist, ScrambledZipf, Zipf};
pub use histogram::{HdrHistogram, ShardedHistogram};
pub use latency::{run_latency, LatencyReport};
pub use mix::{Mix, Op};
pub use runner::{
    disjoint_slices, prefill, run_scan_updater, run_throughput, Measurement, RunConfig,
    ScanUpdaterConfig, ScanUpdaterMeasurement,
};
pub use schedule::{
    run_open_loop, IntervalLogConfig, OpSchedule, OpenLoopClass, OpenLoopConfig,
    OpenLoopMeasurement,
};

/// The uniform map interface driven by the harness: a *guard-aware*
/// factory of per-thread [`MapSession`]s plus a typed capability
/// declaration.
///
/// Two design points, both motivated by measurement fidelity:
///
/// * **Sessions, not per-op calls.** Each worker thread calls
///   [`pin`](ConcurrentMap::pin) once and drives every operation through
///   the returned session. Epoch-based structures amortize their guard
///   across the whole batch (the drivers call
///   [`MapSession::refresh`] between batches so reclamation still
///   advances); lock-based structures return a trivial borrow. Per-op
///   pin/drop never lands on the measured hot path.
/// * **Typed capabilities, not panics.** A structure declares what it
///   supports via [`capabilities`](ConcurrentMap::capabilities); drivers
///   check the declaration against the operation mix *at configuration
///   time* and return a [`CapabilityError`] instead of hitting an
///   `unreachable!` mid-run (NB-BST famously has no linearizable range
///   scan — a range mix over it must be rejected up front).
pub trait ConcurrentMap: Send + Sync {
    /// The per-thread session type; borrows the map for `'a`.
    type Session<'a>: MapSession
    where
        Self: 'a;

    /// Open a session (pin a guard, if the structure uses one). Called
    /// once per worker thread, outside the measured loop.
    fn pin(&self) -> Self::Session<'_>;

    /// What this structure supports; checked by the drivers before any
    /// operation runs.
    fn capabilities(&self) -> Caps;

    /// Structure name for reports.
    fn name(&self) -> &'static str;
}

/// One thread's pinned session on a [`ConcurrentMap`]: the operation
/// surface the measured loops drive. Methods take `&mut self` because a
/// session is thread-exclusive by construction.
pub trait MapSession {
    /// Insert `k → v`; `true` iff `k` was absent (set semantics).
    fn insert(&mut self, k: u64, v: u64) -> bool;
    /// Insert or replace `k → v`, returning the displaced value.
    ///
    /// Only driven when [`Caps::upsert`] is declared; structures without
    /// an atomic upsert may emulate (non-linearizably) or ignore, but
    /// must then declare `upsert: false` so no mix ever reaches it.
    fn upsert(&mut self, k: u64, v: u64) -> Option<u64>;
    /// Remove `k`; `true` iff it was present.
    fn delete(&mut self, k: &u64) -> bool;
    /// Lookup.
    fn get(&mut self, k: &u64) -> Option<u64>;
    /// Closed-interval range query; returns the number of matches (the
    /// harness measures traversal cost without retaining results).
    ///
    /// Only driven when [`Caps::range_scan`] is declared.
    fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize;
    /// Give the structure a chance to re-pin its guard so memory
    /// reclamation can advance; called between operation batches,
    /// outside the per-op timing windows. Default: no-op.
    fn refresh(&mut self) {}

    /// Apply a batch of operations and report how many root-to-leaf
    /// descents it cost. The default falls back to singleton calls
    /// (one descent per op, so `ops_per_descent == 1`) — structures
    /// with a fused batch path override this and declare
    /// [`Caps::batched`].
    fn apply_batch(&mut self, ops: &[BatchOp]) -> BatchReport {
        for op in ops {
            match *op {
                BatchOp::Get(k) => {
                    std::hint::black_box(self.get(&k));
                }
                BatchOp::Insert(k, v) => {
                    std::hint::black_box(self.insert(k, v));
                }
                BatchOp::Upsert(k, v) => {
                    std::hint::black_box(self.upsert(k, v));
                }
                BatchOp::Delete(k) => {
                    std::hint::black_box(self.delete(&k));
                }
            }
        }
        BatchReport {
            ops: ops.len() as u64,
            root_descents: ops.len() as u64,
        }
    }
}

/// Typed capability declaration of a structure under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Caps {
    /// Consistent closed-interval range queries: linearizable for a
    /// single structure, or a documented weaker-but-principled model
    /// for composites (the sharded front-end's scans are linearizable
    /// *per shard* and prefix-consistent across shards — see the
    /// declaring adapter's docs). What the flag rules out is the
    /// no-guarantee case: NB-BST's quiescent dump can tear arbitrarily
    /// and must declare `false`.
    pub range_scan: bool,
    /// Atomic insert-or-replace.
    pub upsert: bool,
    /// Point-in-time snapshots (informational; no mix drives it yet).
    pub snapshot: bool,
    /// Native batched operations (`multi_get`/`apply_batch` sharing
    /// their descents). Every structure can *run* a batch — the
    /// [`MapSession::apply_batch`] default falls back to singleton
    /// calls — so this flag marks structures whose batching is an
    /// actual fused hot path, which is what experiment E13 sweeps.
    pub batched: bool,
}

impl Caps {
    /// Everything the harness can drive.
    pub const fn all() -> Self {
        Caps {
            range_scan: true,
            upsert: true,
            snapshot: true,
            batched: true,
        }
    }

    /// Point operations only (insert/delete/get) — e.g. NB-BST.
    pub const fn point_ops() -> Self {
        Caps {
            range_scan: false,
            upsert: false,
            snapshot: false,
            batched: false,
        }
    }

    /// Check a mix against this declaration. `structure` names the map
    /// in the error.
    pub fn check(&self, mix: &Mix, structure: &'static str) -> Result<(), CapabilityError> {
        if mix.uses_ranges() && !self.range_scan {
            return Err(CapabilityError::RangeScan { structure });
        }
        if mix.uses_upserts() && !self.upsert {
            return Err(CapabilityError::Upsert { structure });
        }
        Ok(())
    }
}

/// A mix asked for an operation the structure does not support —
/// detected at configuration time, before any operation runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapabilityError {
    /// The mix contains range queries but the structure has no
    /// linearizable range scan.
    RangeScan {
        /// Name of the offending structure.
        structure: &'static str,
    },
    /// The mix contains upserts but the structure has no atomic
    /// insert-or-replace.
    Upsert {
        /// Name of the offending structure.
        structure: &'static str,
    },
}

impl std::fmt::Display for CapabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapabilityError::RangeScan { structure } => write!(
                f,
                "{structure} does not support linearizable range scans; \
                 exclude it from range-query mixes"
            ),
            CapabilityError::Upsert { structure } => write!(
                f,
                "{structure} does not support atomic upsert; \
                 exclude it from upsert mixes"
            ),
        }
    }
}

impl std::error::Error for CapabilityError {}
