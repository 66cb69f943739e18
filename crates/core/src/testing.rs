//! Deterministic fault injection (feature `testing-internals`).
//!
//! The paper's progress and linearizability arguments hinge on what
//! happens when an operation stalls (or its process crashes) *between*
//! its first freeze CAS and the rest of its protocol — that is exactly
//! when other operations must help it (§4.1 walks through the
//! `Insert(1)` / `RangeScan` / `Find(1)` scenario). This module lets
//! tests create that window on demand:
//!
//! * [`PnbBst::insert_paused`] / [`PnbBst::delete_paused`] /
//!   [`PnbBst::upsert_paused`] run the production update loop until an
//!   attempt *publishes* its `Info` object (first freeze CAS succeeds)
//!   and then stop, returning a [`PausedUpdate`] handle.
//! * While paused, the operation is visible to every other thread exactly
//!   like a stalled process: `Find`s, updates and scans that encounter
//!   the flag will help (and may commit or handshake-abort the attempt).
//! * [`PausedUpdate::resume`] finishes the protocol (it may discover the
//!   attempt was already committed or aborted by helpers) — it performs
//!   one attempt only and reports the outcome rather than retrying.
//! * [`PausedUpdate::abandon`] (or dropping the handle) simulates a crash:
//!   the operation is never resumed; helpers remain responsible for it.
//!   Memory that only the crashed thread could free is intentionally
//!   leaked, mirroring the paper's crash-failure model.

use crossbeam_epoch::{self as epoch, Guard};
use std::sync::atomic::Ordering::Acquire;

use crate::info::{state, InfoPtr};
use crate::tree::{AttemptOutcome, PnbBst, Update};

/// Outcome of starting a pausable update.
pub enum PauseOutcome<'t, K, V> {
    /// The operation completed without ever publishing (e.g. inserting a
    /// duplicate / deleting a missing key): no pause window exists.
    Completed(bool),
    /// The operation is suspended right after its first freeze CAS.
    Paused(PausedUpdate<'t, K, V>),
}

/// Observable protocol state of a paused attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PausedState {
    /// `⊥` — nobody has performed the handshake yet.
    Undecided,
    /// Handshake done; freezing in progress.
    Try,
    /// A helper already committed the attempt.
    Committed,
    /// The attempt aborted (handshake failure or lost freeze CAS).
    Aborted,
}

/// A suspended update operation (see module docs).
pub struct PausedUpdate<'t, K, V> {
    tree: &'t PnbBst<K, V>,
    info: InfoPtr<K, V>,
    /// Pinned for the whole pause so the nodes recorded in `info` cannot
    /// be reclaimed even if helpers complete and retire them.
    guard: Guard,
}

// SAFETY: the handle only allows resuming/observing the protocol; all
// shared state it touches is atomics + epoch-protected memory.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for PausedUpdate<'_, K, V> {}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Start an insert and suspend it right after it publishes (first
    /// freeze CAS succeeds). Attempts that fail before publishing retry
    /// internally, exactly like a real insert.
    pub fn insert_paused(&self, key: K, value: V) -> PauseOutcome<'_, K, V> {
        self.start_paused(&Update::Insert(&key, &value))
    }

    /// Start a delete and suspend it right after it publishes.
    pub fn delete_paused(&self, key: &K) -> PauseOutcome<'_, K, V> {
        self.start_paused(&Update::Delete(key))
    }

    /// Start an upsert and suspend it right after it publishes. Upserts
    /// always publish (both the insert and the replace shape mutate the
    /// tree), so the outcome is always `Paused`.
    pub fn upsert_paused(&self, key: K, value: V) -> PauseOutcome<'_, K, V> {
        self.start_paused(&Update::Upsert(&key, &value))
    }

    /// Run the update retry loop on `op` up to its first publish.
    fn start_paused(&self, op: &Update<'_, K, V>) -> PauseOutcome<'_, K, V> {
        let guard = epoch::pin();
        let key = op.key();
        let outcome = self.attempt_until(op, || self.search_now(key, &guard), |_| true, &guard);
        match outcome {
            // A decided update changed nothing.
            AttemptOutcome::Decided => PauseOutcome::Completed(false),
            AttemptOutcome::Published { info, .. } => PauseOutcome::Paused(PausedUpdate {
                tree: self,
                info,
                guard,
            }),
        }
    }
}

impl<K, V> PausedUpdate<'_, K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// The attempt's sequence number (phase).
    pub fn seq(&self) -> u64 {
        // SAFETY: we hold the creation reference; `info` is alive.
        unsafe { (*self.info).seq }
    }

    /// Current protocol state (may be changed concurrently by helpers).
    pub fn state(&self) -> PausedState {
        // SAFETY: as above.
        // Acquire: pairs with the AcqRel state transitions.
        match unsafe { (*self.info).state.load(Acquire) } {
            state::UNDECIDED => PausedState::Undecided,
            state::TRY => PausedState::Try,
            state::COMMIT => PausedState::Committed,
            state::ABORT => PausedState::Aborted,
            _ => unreachable!("invalid state byte"),
        }
    }

    /// Finish the suspended attempt (run `Help` and clean up). Returns
    /// `true` iff this attempt committed — note that helpers may already
    /// have committed or aborted it while it was paused. Unlike a real
    /// update, an aborted attempt is *not* retried; the caller decides.
    pub fn resume(self) -> bool {
        self.tree.finish_published(self.info, &self.guard)
    }

    /// Simulate a crash: never resume. Helpers own the attempt's fate
    /// from here; memory only the crashed thread could have freed (its
    /// creation reference, and the replacement subtree if the attempt
    /// aborts) is leaked, which is the paper's crash model. Dropping the
    /// handle does the same.
    pub fn abandon(self) {}
}

/// A counting wrapper around the system allocator, for asserting the
/// arena's steady-state behaviour (see `tests/alloc_steady_state.rs`):
/// install it with `#[global_allocator]` in a test binary and diff
/// [`allocations`](CountingAllocator::allocations) around the region
/// under test. Read paths must show a delta of zero; update loops
/// only the collector's own allocations. [`live_bytes`] is what
/// `arena_trim` must bring back down (see `tests/arena_trim.rs`).
///
/// [`live_bytes`]: CountingAllocator::live_bytes
pub struct CountingAllocator {
    allocs: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
    live: std::sync::atomic::AtomicI64,
}

impl CountingAllocator {
    /// A fresh counting allocator (all counters zero).
    #[allow(clippy::new_without_default)] // const-init for statics
    pub const fn new() -> Self {
        CountingAllocator {
            allocs: std::sync::atomic::AtomicU64::new(0),
            bytes: std::sync::atomic::AtomicU64::new(0),
            live: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// Number of allocation calls (alloc + realloc) served so far.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total bytes requested from the global allocator so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> i64 {
        self.live.load(std::sync::atomic::Ordering::Relaxed)
    }
}

// SAFETY: delegates verbatim to `std::alloc::System`; the counters are
// plain relaxed atomics with no effect on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Relaxed);
        self.live.fetch_add(layout.size() as i64, Relaxed);
        unsafe { std::alloc::GlobalAlloc::alloc(&std::alloc::System, layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        let freed = layout.size() as i64;
        self.live
            .fetch_sub(freed, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::GlobalAlloc::dealloc(&std::alloc::System, ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(new_size as u64, Relaxed);
        self.live
            .fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        unsafe { std::alloc::GlobalAlloc::realloc(&std::alloc::System, ptr, layout, new_size) }
    }
}
