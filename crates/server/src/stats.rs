//! Server-level counters: always-on, served by the Stats opcode.
//!
//! The trees count their own operations (`pnb_bst::StatsSnapshot`,
//! striped per thread); these count *server* events — connections,
//! requests, protocol errors — which the socket already makes far more
//! expensive than one relaxed `fetch_add`, so one shared atomic each is
//! enough, and CI can always health-check a running server.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared server counters (one instance per server, updated by every
/// worker with `Relaxed` ordering — totals, not synchronization).
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    shed: AtomicU64,
    slow_reader_disconnects: AtomicU64,
    peak_conn_pending_bytes: AtomicU64,
    wakeups: AtomicU64,
    io_syscalls: AtomicU64,
}

/// A point-in-time read of [`ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed (either side, including error closes).
    pub closed: u64,
    /// Well-formed requests served.
    pub requests: u64,
    /// Malformed frames answered with a typed error frame.
    pub protocol_errors: u64,
    /// Requests shed with a typed `Busy` frame by admission control
    /// (each one was answered, never silently dropped, and never
    /// executed).
    pub shed: u64,
    /// Connections dropped by the slow-reader policy: pending-write
    /// buffer over its cap for longer than the stall window.
    pub slow_reader_disconnects: u64,
    /// High-water mark of any single connection's pending-write buffer,
    /// bytes. Bounded by the per-connection write cap plus one maximal
    /// response — the overload tests assert exactly that.
    pub peak_conn_pending_bytes: u64,
    /// Returns from a *blocking* wait by any server thread (acceptor or
    /// worker). An idle server adds none. In-process only: not part of
    /// the wire `Stats` payload.
    pub wakeups: u64,
    /// `epoll_wait`, `epoll_ctl`, `accept`, `read` and `write` calls
    /// issued by server threads — four per low-rate request, however
    /// many idle connections the worker holds. In-process only.
    pub io_syscalls: u64,
}

impl ServerStats {
    /// Count an accepted connection.
    pub fn accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a closed connection.
    pub fn closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a served (well-formed) request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a protocol error answered with an error frame.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request shed with a typed `Busy` frame.
    pub fn shed(&self) {
        self.shed_n(1);
    }

    /// Count `n` shed operations at once. Shed accounting is
    /// *op-granular*: a refused `Batch` frame counts every contained
    /// sub-operation, so `requests_ok + shed` tallies operations the
    /// client submitted regardless of how they were framed.
    pub fn shed_n(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a connection dropped by the slow-reader policy.
    pub fn slow_reader_disconnect(&self) {
        self.slow_reader_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection's current pending-write depth; keeps the
    /// high-water mark.
    pub fn note_conn_pending(&self, bytes: u64) {
        self.peak_conn_pending_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Count a return from a blocking wait.
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` I/O system calls issued by a server thread.
    pub fn io_syscalls(&self, n: u64) {
        self.io_syscalls.fetch_add(n, Ordering::Relaxed);
    }

    /// Read every counter.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            slow_reader_disconnects: self.slow_reader_disconnects.load(Ordering::Relaxed),
            peak_conn_pending_bytes: self.peak_conn_pending_bytes.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            io_syscalls: self.io_syscalls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let s = ServerStats::default();
        assert_eq!(s.snapshot(), ServerStatsSnapshot::default());
        s.accepted();
        s.accepted();
        s.request();
        s.protocol_error();
        s.closed();
        s.shed();
        s.slow_reader_disconnect();
        s.note_conn_pending(100);
        s.note_conn_pending(40); // high-water mark keeps the max
        s.wakeup();
        s.io_syscalls(3);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.closed, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.slow_reader_disconnects, 1);
        assert_eq!(snap.peak_conn_pending_bytes, 100);
        assert_eq!((snap.wakeups, snap.io_syscalls), (1, 3));
    }
}
