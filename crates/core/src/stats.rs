//! Optional operation statistics (compiled in with the `stats` feature).
//!
//! Used by the E7 ablation benchmark to observe the paper's coordination
//! mechanisms at work: how often the handshake (§4.1) aborts an attempt,
//! how often operations help one another, and how often freeze CAS steps
//! fail. The counters are shared atomics updated with `Relaxed` ordering;
//! they are feature-gated so they can never perturb the scalability
//! experiments (E1–E6), which build without `stats`.

#[cfg(feature = "stats")]
use crossbeam_utils::CachePadded;
#[cfg(feature = "stats")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of the statistics counters.
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
    /// Range scans executed.
    pub scans: u64,
    /// In-progress operations helped by scans specifically.
    pub scan_helps: u64,
}

impl StatsSnapshot {
    /// Total aborted attempts (handshake + freeze failures).
    pub fn total_aborts(&self) -> u64 {
        self.handshake_aborts + self.freeze_aborts
    }
}

/// Internal counter block. With the `stats` feature disabled this is a
/// zero-sized type and all recording methods compile to nothing.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    #[cfg(feature = "stats")]
    update_attempts: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    handshake_aborts: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    freeze_aborts: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    helps: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    freeze_cas_failures: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    validation_failures: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    scans: CachePadded<AtomicU64>,
    #[cfg(feature = "stats")]
    scan_helps: CachePadded<AtomicU64>,
}

macro_rules! bump_impl {
    ($($name:ident),* $(,)?) => {
        $(
            #[cfg(feature = "stats")]
            #[inline]
            pub(crate) fn $name(&self) {
                self.$name.fetch_add(1, Ordering::Relaxed);
            }
            #[cfg(not(feature = "stats"))]
            #[inline(always)]
            pub(crate) fn $name(&self) {}
        )*
    };
}

impl Stats {
    bump_impl!(
        update_attempts,
        handshake_aborts,
        freeze_aborts,
        helps,
        freeze_cas_failures,
        validation_failures,
        scans,
        scan_helps,
    );

    /// Read all counters. Without the `stats` feature this returns zeros.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        #[cfg(feature = "stats")]
        {
            StatsSnapshot {
                update_attempts: self.update_attempts.load(Ordering::Relaxed),
                handshake_aborts: self.handshake_aborts.load(Ordering::Relaxed),
                freeze_aborts: self.freeze_aborts.load(Ordering::Relaxed),
                helps: self.helps.load(Ordering::Relaxed),
                freeze_cas_failures: self.freeze_cas_failures.load(Ordering::Relaxed),
                validation_failures: self.validation_failures.load(Ordering::Relaxed),
                scans: self.scans.load(Ordering::Relaxed),
                scan_helps: self.scan_helps.load(Ordering::Relaxed),
            }
        }
        #[cfg(not(feature = "stats"))]
        {
            StatsSnapshot::default()
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

    #[cfg(feature = "stats")]
    #[test]
    fn counters_record() {
        let s = Stats::default();
        s.update_attempts();
        s.update_attempts();
        s.handshake_aborts();
        s.scans();
        let snap = s.snapshot();
        assert_eq!(snap.update_attempts, 2);
        assert_eq!(snap.handshake_aborts, 1);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.total_aborts(), 1);
    }
}
