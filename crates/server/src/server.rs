//! The TCP server: an acceptor feeding a fixed pool of worker threads,
//! each serving its connections over one [`ShardedSession`]. Linux only
//! (see `poll.rs`).
//!
//! ## Threading model
//!
//! Thread-per-core, not thread-per-connection: `workers` threads are
//! spawned once (default: available parallelism, capped at 8) and every
//! accepted connection is handed to one of them round-robin. No thread
//! sleeps on a timer to find out whether there is work: the acceptor and
//! every worker block in `epoll_wait` and are woken by socket readiness,
//! by an eventfd (connection hand-off, shutdown), or by the nearest real
//! deadline (drain end, a write-paused connection's stall window).
//!
//! A worker's epoll set holds its wake eventfd and every adopted
//! connection, registered **once**, edge-triggered, for `IN | OUT`, with
//! its slab slot as token. A pass visits only *runnable* connections —
//! named by an event, just adopted, just un-paused by a flush, or past
//! their stall deadline — and the worker blocks only when none is. No
//! wake-up is lost: `read_ready` and `flush` stop only at `WouldBlock`,
//! and a readiness change after that is an edge, which stays on the
//! epoll ready list until an `epoll_wait` returns it; the acceptor
//! writes a worker's eventfd *after* its channel send, and the worker
//! empties the channel after *every* return from `epoll_wait`.
//!
//! ## Session lifetime
//!
//! A pinned [`ShardedSession`] holds back reclamation of everything
//! retired after the pin. A busy worker therefore drops its session
//! every [`ServerConfig::refresh_every`] operations, and a worker about
//! to block flushes its deferred garbage and drops it too — **not pinned
//! while idle**, so a blocked worker cannot wedge reclamation for the
//! busy ones (DESIGN.md §6.3, §8.3). The next request served pins afresh.
//!
//! ## Graceful shutdown
//!
//! [`ShutdownHandle::signal`] (wired to SIGTERM/SIGINT by the
//! `pnb-server` binary) wakes the acceptor, which adopts what is still
//! in the accept backlog, closes the hand-off channels and wakes every
//! worker; workers keep serving for a [`ServerConfig::drain_grace`]
//! window — so every request already sent (including pipelined ones
//! still in socket buffers) is read, executed, and answered — then
//! flush, close their connections and exit.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnb_shard::{ShardedPnbBst, ShardedSession};

use crate::codec::{decode_request, encode_decode_error, encode_response, Frame};
use crate::conn::Conn;
use crate::handler::handle;
use crate::poll::{self, Event, Poller, Waker};
use crate::proto::{Opcode, RespBody, Response, MAX_PAYLOAD};
use crate::stats::ServerStats;

/// Admission weight of a raw, not-yet-decoded frame: `Batch` frames
/// count their contained sub-operations (the leading `u32` of the
/// payload), everything else counts 1. The shed path refuses frames
/// *before* decoding, so the weight comes from a cheap peek; the count
/// is clamped to what the payload could plausibly hold (a sub-op costs
/// at least 5 header bytes), so a lying count cannot inflate the shed
/// counter past the frame's actual size. The serve path re-derives the
/// weight from the decoded ops instead.
fn frame_op_weight(frame: &Frame) -> u64 {
    if frame.opcode == Opcode::Batch as u8 && frame.payload.len() >= 4 {
        let count = u32::from_le_bytes(frame.payload[0..4].try_into().expect("4 bytes")) as u64;
        let plausible = (frame.payload.len() as u64 - 4) / 5;
        count.min(plausible).max(1)
    } else {
        1
    }
}

/// Overload-protection limits, applied **per worker** (each worker owns
/// its connections exclusively, so the accounting needs no atomics).
///
/// Two independent bounds, shed with a typed [`Busy`](RespBody::Busy)
/// frame when either is crossed, plus the per-connection slow-reader
/// policy (see `conn.rs` and DESIGN.md §10):
///
/// - **In-flight requests** ([`max_inflight`](Self::max_inflight)):
///   complete frames buffered across the worker's connections at the
///   start of a serve pass. A pipelining client that floods faster than
///   the worker serves gets `Busy` for the excess instead of unbounded
///   queueing delay.
/// - **Queued response bytes** ([`max_queued_bytes`](Self::max_queued_bytes)):
///   the sum of pending-write buffers. Large range responses to slow
///   readers are bounded in aggregate, not just per connection.
///
/// A `Busy` response means the operation was **not executed** — it is
/// always safe to retry, mutations included.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Complete buffered frames a worker will serve ahead of a request
    /// before shedding it. Must exceed the deepest pipeline a
    /// well-behaved client sends in one burst.
    pub max_inflight: usize,
    /// Cap on the sum of a worker's pending-write buffers, bytes.
    pub max_queued_bytes: usize,
    /// Per-connection pending-write cap, bytes. At or above it the
    /// connection is write-paused: not read from, not served.
    pub max_conn_pending_write: usize,
    /// How long a connection may stay continuously write-paused before
    /// the worker disconnects it (the slow-reader policy).
    pub stall_window: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4096,
            max_queued_bytes: 8 << 20,
            max_conn_pending_write: 256 << 10,
            stall_window: Duration::from_secs(5),
        }
    }
}

impl AdmissionConfig {
    /// The retry-after hint carried in a `Busy` payload: a coarse
    /// estimate of how long the backlog above the limit takes to drain,
    /// clamped to `[1, 1000]` ms. `backlog` is the number of requests
    /// queued ahead of the shed one.
    pub fn retry_after_hint_ms(&self, backlog: usize) -> u64 {
        // Assume a conservative ~100k ops/s/worker drain rate: 10 µs
        // per queued request, rounded up to at least 1 ms.
        let over = backlog.saturating_sub(self.max_inflight);
        ((over as u64 * 10).div_ceil(1000)).clamp(1, 1000)
    }
}

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Shards in the served [`ShardedPnbBst`].
    pub shards: usize,
    /// Worker threads (0 = available parallelism, capped at 8).
    pub workers: usize,
    /// Refresh each worker's session after this many operations.
    pub refresh_every: u64,
    /// Per-frame payload ceiling (defaults to the protocol-wide
    /// [`MAX_PAYLOAD`]).
    pub max_payload: usize,
    /// How long workers keep serving after shutdown is signalled.
    pub drain_grace: Duration,
    /// Where the `Checkpoint` opcode writes its generations; `None`
    /// refuses the opcode with a typed error.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load the map from the newest committed checkpoint in
    /// `checkpoint_dir` at bind time instead of starting empty. The
    /// restored checkpoint's shard count and partitioner configuration
    /// win over [`shards`](Self::shards). Fails loudly (bind error) when
    /// no loadable checkpoint exists — a silently empty restore would
    /// masquerade as data loss.
    pub restore: bool,
    /// Per-worker overload limits (admission control + slow-reader
    /// policy).
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 8,
            workers: 0,
            refresh_every: 256,
            max_payload: MAX_PAYLOAD,
            drain_grace: Duration::from_millis(200),
            checkpoint_dir: None,
            restore: false,
            admission: AdmissionConfig::default(),
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8)
    }
}

/// Cloneable shutdown trigger for a running [`Server`].
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// Wakes the acceptor to read the flag; `None` where it is polled.
    waker: Option<Arc<Waker>>,
}

impl ShutdownHandle {
    /// A fresh, unsignalled handle with nothing to wake (for components
    /// that poll the flag, e.g. the chaos proxy).
    pub(crate) fn fresh() -> Self {
        ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            waker: None,
        }
    }

    /// Ask the server to drain and exit (idempotent, any thread).
    pub fn signal(&self) {
        // Relaxed: no data is published through the flag; the eventfd
        // write after it is what makes the acceptor look.
        self.flag.store(true, Ordering::Relaxed);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_signalled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A bound-but-not-yet-running server. [`run`](Server::run) blocks the
/// calling thread; [`spawn`](Server::spawn) runs it on its own thread
/// (tests, benchmarks).
pub struct Server {
    listener: TcpListener,
    map: ShardedPnbBst<u64, u64>,
    cfg: ServerConfig,
    stats: Arc<ServerStats>,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and build the
    /// map; no thread runs until [`run`](Self::run).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Self> {
        assert!(cfg.shards > 0, "a server needs at least one shard");
        let map = if cfg.restore {
            let dir = cfg.checkpoint_dir.as_deref().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--restore requires --checkpoint-dir",
                )
            })?;
            ShardedPnbBst::restore(dir)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        } else {
            ShardedPnbBst::new(cfg.shards)
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            map,
            cfg,
            stats: Arc::new(ServerStats::default()),
            shutdown: ShutdownHandle {
                waker: Some(Arc::new(Waker::new()?)),
                ..ShutdownHandle::fresh()
            },
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server counters (live; also served by the Stats opcode).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// A trigger that makes [`run`](Self::run) drain and return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serve until shutdown is signalled, then drain and return.
    pub fn run(self) -> io::Result<()> {
        let (map, stats, cfg, shutdown) = (&self.map, &*self.stats, &self.cfg, &self.shutdown);
        let acceptor = Poller::new()?;
        acceptor.add(&self.listener, poll::IN | poll::ET, 0)?;
        if let Some(waker) = &shutdown.waker {
            acceptor.add(&**waker, poll::IN | poll::ET, WAKE)?;
        }
        // Per worker: a channel for accepted streams and an eventfd in the
        // worker's epoll set. The eventfds outlive the workers: closing
        // one would take its pending wake off the worker's ready list.
        let (mut senders, mut wakers, mut intakes) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.resolved_workers() {
            let (tx, rx) = channel();
            let (waker, poller) = (Waker::new()?, Poller::new()?);
            poller.add(&waker, poll::IN | poll::ET, WAKE)?;
            senders.push(tx);
            wakers.push(waker);
            intakes.push((rx, poller));
        }
        let mut result = Ok(());
        std::thread::scope(|s| {
            for (rx, poller) in intakes {
                s.spawn(move || worker_loop(rx, poller, map, stats, cfg));
            }
            // Accept until the backlog is empty (the listener is
            // edge-triggered), handing each stream to the next worker.
            let mut next = 0usize;
            let mut accept_ready = || loop {
                stats.io_syscalls(1);
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue; // peer already gone
                        }
                        stats.accepted();
                        // Send, then wake: a worker empties its channel
                        // after every wake, so it cannot miss the stream.
                        let worker = next % senders.len();
                        let _ = senders[worker].send(stream);
                        wakers[worker].wake();
                        stats.io_syscalls(1);
                        next = next.wrapping_add(1);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                    Err(e) => return Err(e),
                }
            };
            while !shutdown.is_signalled() {
                result = accept_ready();
                if result.is_err() {
                    shutdown.signal(); // fatal listener error: drain and report
                    break;
                }
                // Until a connection arrives or `signal` wakes us.
                acceptor.wait(&mut [Event::default(); 2], None);
                stats.wakeup();
                stats.io_syscalls(1);
            }
            // Final sweep: connections already established (sitting in
            // the OS accept backlog) when shutdown arrived are still
            // adopted, so anything a client sent on an established
            // connection is served during the drain.
            let _ = accept_ready();
            drop(senders); // workers see Disconnected and start draining …
            wakers.iter().for_each(Waker::wake); // … within one wake-up
        });
        result
    }

    /// Run on a fresh thread; returns the bound address, the shutdown
    /// trigger, and the join handle yielding [`run`](Self::run)'s
    /// result.
    pub fn spawn(
        self,
    ) -> io::Result<(
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<io::Result<()>>,
    )> {
        let addr = self.local_addr()?;
        let handle = self.shutdown_handle();
        let join = std::thread::spawn(move || self.run());
        Ok((addr, handle, join))
    }
}

/// Token of a wake eventfd: no slab slot. The eventfds are
/// edge-triggered and never read — each write is a fresh edge, and all
/// it has to do is end the wait.
const WAKE: u64 = u64::MAX;

/// One worker: multiplex the connections routed here over a single
/// session, under the per-worker admission limits.
///
/// Each pass is two-phase, over the runnable connections only.
/// **Phase A** reads from every one that is not write-paused, then
/// counts the backlog of complete buffered frames. **Phase B** serves,
/// with overload protection applied per frame:
///
/// - At most [`AdmissionConfig::max_inflight`] requests are *executed*
///   per pass; the rest of the backlog is answered with typed
///   [`Busy`](RespBody::Busy) frames carrying a retry-after hint —
///   answered in request order, never silently dropped, never executed.
/// - Once the worker's total queued response bytes reach
///   [`AdmissionConfig::max_queued_bytes`], further frames are shed the
///   same way (a `Busy` frame is ~28 bytes; shedding still bounds
///   growth because reading pauses per connection at the write cap).
/// - A connection whose pending-write buffer sits at its cap stops
///   being read or served (so its memory is bounded by
///   `cap + one response`), and is disconnected once it has been
///   continuously paused longer than [`AdmissionConfig::stall_window`].
fn worker_loop(
    rx: Receiver<TcpStream>,
    poller: Poller,
    map: &ShardedPnbBst<u64, u64>,
    stats: &ServerStats,
    cfg: &ServerConfig,
) {
    let admission = cfg.admission;
    // `None` while blocked: an idle worker holds no epoch pin.
    let mut session: Option<ShardedSession<'_, u64, u64>> = None;
    let mut ops_since_refresh = 0u64;
    // The connection slab (index = epoll token) and its free slots.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Slots the next pass visits, the slots of the pass under way, and
    // slots whose stall clock runs.
    let mut runnable: Vec<usize> = Vec::new();
    let mut pass: Vec<usize> = Vec::new();
    let mut paused: Vec<usize> = Vec::new();
    // Sum of every connection's pending-write buffer.
    let mut queued_bytes = 0usize;
    // Set when the intake closes; serving continues until it passes so
    // already-sent (pipelined) requests are still answered.
    let mut drain_deadline: Option<Instant> = None;
    let mut events = [Event::default(); 64];
    loop {
        // Block only with nothing runnable, and only until the nearest
        // real deadline: drain end, or a paused connection's stall
        // window (a connection already past it is runnable instead).
        let now = Instant::now();
        if drain_deadline.is_some_and(|d| now >= d) {
            break;
        }
        let window = admission.stall_window;
        let stall_at = |slot: &usize| conns[*slot].as_ref()?.stall_deadline(window);
        paused.retain(|slot| stall_at(slot).is_some());
        runnable.extend(paused.iter().filter(|slot| stall_at(slot) < Some(now)));
        let stalls = paused.iter().filter_map(stall_at);
        let deadline = stalls.chain(drain_deadline).min();
        let ready = if runnable.is_empty() {
            // Idle. Not pinned while blocked: hand this thread's garbage
            // to the collector and release the epoch.
            if let Some(s) = session.take() {
                s.flush();
            }
            ops_since_refresh = 0;
            let timeout = deadline.map(|d| d.saturating_duration_since(now));
            let ready = poller.wait(&mut events, timeout);
            stats.wakeup();
            ready
        } else {
            poller.wait(&mut events, Some(Duration::ZERO))
        };
        stats.io_syscalls(1);
        // An event names its connection's slot; `WAKE` names none.
        runnable.extend(events[..ready].iter().map(|ev| ev.token as usize));
        runnable.retain(|&slot| conns.get(slot).is_some_and(Option::is_some));
        // Adopt what the acceptor handed off.
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    let slot = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                    let interest = poll::IN | poll::OUT | poll::ET;
                    stats.io_syscalls(1);
                    if poller.add(&stream, interest, slot as u64).is_err() {
                        free.push(slot);
                        stats.closed();
                        continue;
                    }
                    let cap = admission.max_conn_pending_write;
                    conns[slot] = Some(Conn::new(stream, cfg.max_payload, cap));
                    runnable.push(slot); // bytes may already be waiting
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    drain_deadline.get_or_insert_with(|| Instant::now() + cfg.drain_grace);
                    break;
                }
            }
        }
        runnable.sort_unstable();
        runnable.dedup();
        std::mem::swap(&mut runnable, &mut pass);

        // Phase A: read.
        let now = Instant::now();
        let mut backlog = 0usize;
        for &slot in &pass {
            if let Some(conn) = conns[slot].as_mut() {
                if !conn.write_paused() && !conn.read_ready() {
                    conn.begin_close(); // flush what is queued, then close
                }
                backlog += conn.buffered_frames();
            }
        }
        let busy_hint = admission.retry_after_hint_ms(backlog);

        // Phase B: serve the backlog under the admission budget.
        let mut serve_budget = admission.max_inflight;
        for slot in pass.drain(..) {
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            // Serve complete frames buffered on this connection, until
            // its write side pauses.
            while !conn.write_paused() {
                let bytes = match conn.next_frame() {
                    Ok(Some(frame)) => {
                        let shed = serve_budget == 0 || queued_bytes >= admission.max_queued_bytes;
                        // Over the admission limit: answer (in order)
                        // with a typed Busy frame instead of executing.
                        // The op did NOT run — always safe to retry. An
                        // unknown opcode falls through so the decode
                        // path answers with BadOpcode and closes.
                        match Opcode::from_u8(frame.opcode).filter(|_| shed) {
                            Some(op) => {
                                stats.shed_n(frame_op_weight(&frame));
                                let body = RespBody::Busy {
                                    retry_after_ms: busy_hint,
                                };
                                encode_response(op, &Response { id: frame.id, body })
                            }
                            None => match decode_request(&frame) {
                                Ok(req) => {
                                    // Budget is op-granular: a 64-op batch
                                    // spends 64 slots, so batching cannot
                                    // smuggle load past admission control.
                                    serve_budget =
                                        serve_budget.saturating_sub(req.body.op_weight() as usize);
                                    stats.request();
                                    ops_since_refresh += 1;
                                    let session = session.get_or_insert_with(|| map.pin());
                                    let dir = cfg.checkpoint_dir.as_deref();
                                    encode_response(
                                        req.body.opcode(),
                                        &handle(&req, session, stats, dir),
                                    )
                                }
                                Err(e) => {
                                    // Malformed but framable (bad
                                    // version/opcode/payload): typed
                                    // error, then close this connection
                                    // only.
                                    stats.protocol_error();
                                    conn.begin_close();
                                    encode_decode_error(&e)
                                }
                            },
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Unframeable stream (bad magic, oversized
                        // length): error frame, close.
                        stats.protocol_error();
                        conn.begin_close();
                        encode_decode_error(&e)
                    }
                };
                queued_bytes += bytes.len();
                conn.queue(&bytes);
            }
            let (before, was_paused) = (conn.pending_write_bytes(), conn.write_paused());
            stats.note_conn_pending(before as u64);
            let flushed = conn.flush();
            stats.io_syscalls(conn.take_syscalls());
            // Saturating: an accounting slip must never panic the worker.
            queued_bytes = queued_bytes.saturating_sub(before - conn.pending_write_bytes());
            let mut dead = flushed.is_err() || conn.done();
            if !dead && conn.stalled_beyond(now, window) {
                // Slow-reader policy: continuously over the write cap
                // for longer than the stall window — disconnect.
                stats.slow_reader_disconnect();
                dead = true;
            }
            if dead {
                // Counted first, so a peer that has seen the close finds
                // it in the stats. Dropping the stream closes it, which
                // also takes it out of the epoll set.
                stats.closed();
                queued_bytes = queued_bytes.saturating_sub(conn.pending_write_bytes());
                conns[slot] = None;
                free.push(slot);
            } else if conn.write_paused() {
                if !paused.contains(&slot) {
                    paused.push(slot); // woken by OUT, or by its stall deadline
                }
            } else if was_paused {
                // Un-paused by this flush: input skipped while paused
                // (socket bytes, buffered frames) is due another pass.
                runnable.push(slot);
            }
        }

        if ops_since_refresh >= cfg.refresh_every {
            // Unpin so the epoch can move; the next request pins afresh.
            (session, ops_since_refresh) = (None, 0);
        }
    }
    // Drain expired: flush leftovers best-effort and close everything.
    for mut conn in conns.into_iter().flatten() {
        conn.begin_close();
        let _ = conn.flush();
        stats.closed();
    }
}
