//! Operation counters, always on: one [`Striped`] block per tree.
//!
//! The counters observe the paper's coordination mechanisms at work —
//! how often the handshake (§4.1) aborts an attempt, how often
//! operations help one another, how often freeze CAS steps fail — next
//! to what the tree served (finds, inserts, upserts, deletes, scans) and
//! what its reads cost (nodes read and `prev` hops taken by the scan
//! walk and by `Search`).
//!
//! Updates on different parts of the tree must not meet on a shared
//! counter line, so a block is striped: [`ROWS`] cache-line-padded rows,
//! and each thread bumps the row its process-wide thread index names
//! with a `Relaxed` `fetch_add`. Threads share a row only past `ROWS`
//! threads (the index is assigned round-robin on first use), and the
//! RMW keeps a shared row exact. A read sums the rows, so it is
//! monotone but not a snapshot of one instant. The hot loops (the scan
//! walk, the lock-step search, the `prev`-chain walk) count nodes and
//! hops in locals and add them once per walk or batch window.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Rows per block: threads past this many share rows.
pub(crate) const ROWS: usize = 16;

/// Next row to hand a thread that bumps a counter for the first time.
static NEXT_ROW: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's row in every block, assigned round-robin.
    static ROW: usize = NEXT_ROW.fetch_add(1, Relaxed) % ROWS;
}

/// This thread's row (row 0 while the thread is being torn down).
#[inline]
fn row() -> usize {
    ROW.try_with(|r| *r).unwrap_or(0)
}

/// `N` monotone counters striped over [`ROWS`] rows.
pub(crate) struct Striped<const N: usize> {
    rows: [CachePadded<[AtomicU64; N]>; ROWS],
}

impl<const N: usize> Striped<N> {
    /// All counters zero (`const`, so a block can be a `static`).
    pub(crate) const fn new() -> Self {
        Striped {
            rows: [const { CachePadded::new([const { AtomicU64::new(0) }; N]) }; ROWS],
        }
    }

    /// Add `n` to counter `i` in this thread's row.
    #[inline]
    pub(crate) fn add(&self, i: usize, n: u64) {
        self.rows[row()][i].fetch_add(n, Relaxed);
    }

    /// Every counter, summed over the rows.
    pub(crate) fn read(&self) -> [u64; N] {
        let mut sum = [0; N];
        for row in &self.rows {
            for (s, c) in sum.iter_mut().zip(row.iter()) {
                *s += c.load(Relaxed);
            }
        }
        sum
    }
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot of one tree's counters (monotone; assert on deltas).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Attempts (iterations of the retry loop) across all updates.
    pub update_attempts: u64,
    /// Attempts aborted by the handshake check (`Counter != seq` in `Help`).
    pub handshake_aborts: u64,
    /// Attempts aborted because a later freeze CAS failed.
    pub freeze_aborts: u64,
    /// Calls to `Help` made on behalf of *another* operation.
    pub helps: u64,
    /// Freeze CAS steps that failed.
    pub freeze_cas_failures: u64,
    /// Validation failures (stale leaf / frozen neighbourhood) causing retry.
    pub validation_failures: u64,
    /// Phases closed: range scans and snapshots.
    pub scans: u64,
    /// In-progress operations helped by scans specifically.
    pub scan_helps: u64,
    /// `Find`s: `get`, `contains` and a batch's `Get`s.
    pub finds: u64,
    /// Set-semantics inserts, singleton or batched.
    pub inserts: u64,
    /// Upserts, singleton or batched.
    pub upserts: u64,
    /// Deletes and removes, singleton or batched.
    pub deletes: u64,
    /// Nodes the scan walk read: internal nodes expanded plus leaves
    /// consumed.
    pub walk_nodes: u64,
    /// `prev` hops the scan walk's `ReadChild`s took.
    pub walk_prev_hops: u64,
    /// Nodes the lock-step (batch) search read, a node per step, the
    /// leaf included.
    pub search_nodes: u64,
    /// `prev` hops of every `ReadChild` outside the scan walk: `Search`
    /// (singleton, lock-step or a batch retry's re-descent), a snapshot's
    /// point lookup and a delete's sibling read.
    pub search_prev_hops: u64,
}

impl StatsSnapshot {
    /// Total aborted attempts (handshake + freeze failures).
    pub fn total_aborts(&self) -> u64 {
        self.handshake_aborts + self.freeze_aborts
    }
}

/// A tree's counter block: one [`Striped`] row set holding every
/// [`StatsSnapshot`] field, in field order.
#[derive(Default)]
pub(crate) struct Stats(Striped<16>);

macro_rules! counters {
    ($($name:ident = $i:expr),* $(,)?) => {
        impl Stats {
            $(
                #[inline]
                pub(crate) fn $name(&self) {
                    self.0.add($i, 1);
                }
            )*
        }
    };
}

counters!(
    update_attempts = 0,
    handshake_aborts = 1,
    freeze_aborts = 2,
    helps = 3,
    freeze_cas_failures = 4,
    validation_failures = 5,
    scans = 6,
    scan_helps = 7,
    finds = 8,
    inserts = 9,
    upserts = 10,
    deletes = 11,
);

impl Stats {
    /// One scan walk's reads, added when the walk ends.
    #[inline]
    pub(crate) fn walk(&self, nodes: u64, prev_hops: u64) {
        self.0.add(12, nodes);
        if prev_hops != 0 {
            self.0.add(13, prev_hops);
        }
    }

    /// Nodes one lock-step window read on this tree.
    #[inline]
    pub(crate) fn search_nodes(&self, nodes: u64) {
        self.0.add(14, nodes);
    }

    /// `prev` hops of `ReadChild`s outside the walk (no write when none).
    #[inline]
    pub(crate) fn search_prev_hops(&self, hops: u64) {
        if hops != 0 {
            self.0.add(15, hops);
        }
    }

    /// Read all counters.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let c = self.0.read();
        StatsSnapshot {
            update_attempts: c[0],
            handshake_aborts: c[1],
            freeze_aborts: c[2],
            helps: c[3],
            freeze_cas_failures: c[4],
            validation_failures: c[5],
            scans: c[6],
            scan_helps: c[7],
            finds: c[8],
            inserts: c[9],
            upserts: c[10],
            deletes: c[11],
            walk_nodes: c[12],
            walk_prev_hops: c[13],
            search_nodes: c[14],
            search_prev_hops: c[15],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_defaults_to_zero() {
        let s = Stats::default();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn counters_record() {
        let s = Stats::default();
        s.update_attempts();
        s.update_attempts();
        s.handshake_aborts();
        s.scans();
        s.walk(5, 0);
        s.search_prev_hops(0);
        s.search_prev_hops(2);
        let snap = s.snapshot();
        assert_eq!(snap.update_attempts, 2);
        assert_eq!(snap.handshake_aborts, 1);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.total_aborts(), 1);
        assert_eq!((snap.walk_nodes, snap.walk_prev_hops), (5, 0));
        assert_eq!(snap.search_prev_hops, 2);
    }

    /// 32 threads — twice the rows, so rows are shared — each bump one
    /// block `M` times, all at once: the read is exactly `32 · M`. A row
    /// bumped by a plain load and store would lose the sharing threads'
    /// updates.
    #[test]
    fn shared_rows_count_exactly() {
        const THREADS: u64 = 2 * ROWS as u64;
        const M: u64 = 50_000;
        let block: Striped<1> = Striped::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..M {
                        block.add(0, 1);
                    }
                });
            }
        });
        assert_eq!(block.read(), [THREADS * M]);
    }
}
