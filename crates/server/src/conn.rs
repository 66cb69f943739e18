//! Per-connection state for the worker's readiness loop: a read-side
//! [`FrameBuf`], a write-side pending buffer with partial-write
//! handling, and an explicit closing state ("flush what's queued, then
//! close") used both for protocol-error closes and graceful drain.
//!
//! The socket is registered edge-triggered (`server.rs`), which
//! [`read_ready`](Conn::read_ready) and [`flush`](Conn::flush) honour by
//! running until `WouldBlock`: whatever arrives or drains after that is
//! a fresh edge.
//!
//! ## Slow-reader policy
//!
//! The pending-write buffer is *bounded*: each connection carries a
//! `write_cap` and is considered **write-paused** while its buffer
//! holds at least that many bytes. The worker loop stops reading from
//! (and serving) a paused connection — so a peer that never drains its
//! socket cannot grow the buffer past `cap + one response` — and
//! [`stalled_beyond`](Conn::stalled_beyond) tracks how long the
//! connection has continuously been paused so the worker can disconnect
//! it after the configured stall window. A reader that drains below the
//! cap resets the clock. DESIGN.md §10 states the policy.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::codec::{DecodeError, Frame, FrameBuf};

/// How much to ask the socket for per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// One client connection, owned by exactly one worker.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    /// Bytes queued for the peer; `wpos..` is still unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Flush the write buffer, then close (no further reads served).
    closing: bool,
    /// Pending-write bound: at or above this, the connection is
    /// write-paused (not read from, not served).
    write_cap: usize,
    /// When the connection *entered* the current write-paused stretch;
    /// `None` while under the cap.
    stalled_since: Option<Instant>,
    /// `read`/`write` calls issued since [`take_syscalls`](Conn::take_syscalls).
    syscalls: u64,
}

impl Conn {
    /// Wrap an accepted stream. The caller has already configured
    /// nonblocking mode and `TCP_NODELAY`. `write_cap` bounds the
    /// pending-write buffer (see the module docs for the policy).
    pub fn new(stream: TcpStream, max_payload: usize, write_cap: usize) -> Self {
        Conn {
            stream,
            frames: FrameBuf::with_max_payload(max_payload),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            write_cap,
            stalled_since: None,
            syscalls: 0,
        }
    }

    /// `read`/`write` calls issued since the last take.
    pub fn take_syscalls(&mut self) -> u64 {
        std::mem::take(&mut self.syscalls)
    }

    /// Drain everything the socket currently has into the frame buffer.
    /// `false` once the peer has finished sending (EOF) or the socket
    /// has failed: flush what is queued, then close.
    pub fn read_ready(&mut self) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        while !self.closing {
            self.syscalls += 1;
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.frames.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Pull the next complete request frame (`Ok(None)`: need bytes).
    /// Once the connection is closing, buffered frames are no longer
    /// served.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        if self.closing {
            return Ok(None);
        }
        self.frames.next_frame()
    }

    /// Complete frames buffered and awaiting service (the admission
    /// layer's per-connection in-flight count).
    pub fn buffered_frames(&self) -> usize {
        if self.closing {
            return 0;
        }
        self.frames.complete_frames()
    }

    /// Queue response bytes for the peer.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Push queued bytes to the socket, tolerating partial writes;
    /// returns whether everything queued has been sent.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            self.syscalls += 1;
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }

    /// Whether bytes are still queued for the peer.
    pub fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Bytes queued for the peer and not yet accepted by the socket.
    pub fn pending_write_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the pending-write buffer is at or over its cap: the
    /// worker must neither read from nor serve this connection until
    /// the peer drains it.
    pub fn write_paused(&self) -> bool {
        self.pending_write_bytes() >= self.write_cap
    }

    /// Update the stall clock and report whether this connection has
    /// now been continuously write-paused for longer than `window`
    /// (the slow-reader disconnect criterion). Dropping under the cap
    /// resets the clock.
    pub fn stalled_beyond(&mut self, now: Instant, window: Duration) -> bool {
        if !self.write_paused() {
            self.stalled_since = None;
            return false;
        }
        let since = *self.stalled_since.get_or_insert(now);
        now.duration_since(since) > window
    }

    /// When the current write-paused stretch exceeds `window` (`None`
    /// while the stall clock is not running): the worker's wait deadline.
    pub fn stall_deadline(&self, window: Duration) -> Option<Instant> {
        self.stalled_since
            .and_then(|since| since.checked_add(window))
    }

    /// Enter the closing state: what is queued still flushes, nothing
    /// further is read or served.
    pub fn begin_close(&mut self) {
        self.closing = true;
    }

    /// Whether this connection is in the closing state.
    pub fn is_closing(&self) -> bool {
        self.closing
    }

    /// Closing and fully flushed: safe to drop.
    pub fn done(&self) -> bool {
        self.closing && !self.has_pending_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A nonblocking server-side stream paired with a blocking peer.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        server.set_nodelay(true).expect("nodelay");
        (server, peer)
    }

    #[test]
    fn partial_writes_flush_incrementally_under_a_slow_reader() {
        let (server, mut peer) = pair();
        let mut conn = Conn::new(server, 1 << 20, usize::MAX);
        // Queue well past any kernel buffer so flush() must see
        // WouldBlock and make partial progress across passes.
        let total = 8 << 20;
        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        conn.queue(&payload);
        assert_eq!(conn.pending_write_bytes(), total);

        let mut received = Vec::with_capacity(total);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut saw_partial = false;
        while received.len() < total {
            // One nonblocking flush pass, then the throttled peer
            // drains a single chunk.
            let done = conn.flush().expect("flush");
            if !done {
                saw_partial = true;
            }
            if conn.pending_write_bytes() == 0 && received.len() + chunk.len() < total {
                // Everything queued is in the kernel; keep reading.
            }
            let n = peer.read(&mut chunk).expect("peer read");
            assert!(n > 0, "peer saw EOF early");
            received.extend_from_slice(&chunk[..n]);
        }
        assert!(saw_partial, "8 MiB must not fit the socket in one pass");
        assert_eq!(received, payload, "bytes survive partial-write flushing");
        assert!(!conn.has_pending_write());
    }

    #[test]
    fn closing_with_pending_drains_then_done() {
        let (server, mut peer) = pair();
        let mut conn = Conn::new(server, 1 << 20, usize::MAX);
        let payload = vec![7u8; 4 << 20];
        conn.queue(&payload);
        conn.begin_close();
        assert!(conn.is_closing());
        assert!(
            !conn.done(),
            "closing && pending: must keep draining, not drop"
        );
        // No frames are served once closing, even if bytes arrive.
        assert!(conn.next_frame().expect("no decode error").is_none());

        let mut received = 0usize;
        let mut chunk = vec![0u8; 64 * 1024];
        while received < payload.len() {
            let _ = conn.flush().expect("flush while closing");
            let n = peer.read(&mut chunk).expect("peer read");
            received += n;
        }
        // Everything the peer will ever get is out; the final flush
        // observes the empty buffer and `done()` flips.
        while !conn.flush().expect("final flush") {
            std::thread::yield_now();
        }
        assert!(conn.done(), "closing && !pending: safe to drop");
    }

    #[test]
    fn write_pause_engages_at_the_cap_and_clears_on_drain() {
        let (server, mut peer) = pair();
        let cap = 32 * 1024;
        let mut conn = Conn::new(server, 1 << 20, cap);
        assert!(!conn.write_paused());
        conn.queue(&vec![1u8; cap - 1]);
        assert!(!conn.write_paused(), "below cap: still serving");
        conn.queue(&[1u8]);
        assert!(conn.write_paused(), "at cap: paused");

        let t0 = Instant::now();
        let window = Duration::from_millis(200);
        assert!(
            !conn.stalled_beyond(t0, window),
            "pause just began: not stalled yet"
        );
        assert!(
            conn.stalled_beyond(t0 + Duration::from_millis(201), window),
            "continuously paused past the window: stalled"
        );

        // Drain: flush into the kernel, peer reads everything.
        while conn.pending_write_bytes() > 0 {
            let _ = conn.flush().expect("flush");
            let mut chunk = vec![0u8; 64 * 1024];
            let _ = peer.read(&mut chunk).expect("peer read");
        }
        assert!(!conn.write_paused());
        assert!(
            !conn.stalled_beyond(t0 + Duration::from_secs(5), window),
            "draining below the cap resets the stall clock"
        );
    }

    #[test]
    fn stall_clock_resets_when_reader_recovers_mid_window() {
        let (server, _peer) = pair();
        let cap = 1024;
        let mut conn = Conn::new(server, 1 << 20, cap);
        let t0 = Instant::now();
        let window = Duration::from_millis(100);
        conn.queue(&vec![0u8; cap]);
        assert!(!conn.stalled_beyond(t0, window));
        // Simulate the peer draining it (steal the buffer directly so
        // the kernel isn't involved): under cap, clock resets …
        conn.wbuf.clear();
        conn.wpos = 0;
        assert!(!conn.stalled_beyond(t0 + Duration::from_millis(90), window));
        // … so pausing again starts a fresh window from *now*.
        conn.queue(&vec![0u8; cap]);
        assert!(!conn.stalled_beyond(t0 + Duration::from_millis(150), window));
        assert!(conn.stalled_beyond(t0 + Duration::from_millis(260), window));
    }
}
