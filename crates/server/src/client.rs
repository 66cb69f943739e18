//! Client side: a blocking [`Client`] for one connection, and
//! [`NetMap`] — a [`ConcurrentMap`] adapter over a connection pool so
//! the `workload` drivers (and `pnb-load`) can drive a remote server
//! exactly like an in-process map.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use workload::{Caps, ConcurrentMap, MapSession};

use crate::codec::{decode_response, encode_request, DecodeError, FrameBuf};
use crate::proto::{BatchSubOp, BatchSubResult, ReqBody, Request, RespBody, StatusCode};

/// Default per-call read timeout: distinguishes a hung server from a
/// slow one without wedging a load generator forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default per-call write timeout: a wedged peer (full socket buffers,
/// never reading) would otherwise block `send` forever — the read
/// timeout alone cannot catch that, because `send` never reaches the
/// read.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes did not decode as a protocol response.
    Protocol(DecodeError),
    /// The server answered with a typed error frame.
    Remote(StatusCode, String),
    /// The server shed this request with a typed `Busy` frame: the
    /// operation was **not executed** (retrying is always safe,
    /// mutations included), and the payload suggests how long to back
    /// off. [`ReconnectingClient`](crate::retry::ReconnectingClient)
    /// honours the hint automatically.
    Busy {
        /// Server's suggested backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// A [`ReconnectingClient`](crate::retry::ReconnectingClient) call
    /// exhausted its per-call deadline budget across retries. The last
    /// underlying failure is included for diagnosis.
    DeadlineExceeded {
        /// The configured per-call budget that was exhausted.
        budget: Duration,
        /// Display form of the last error seen before giving up.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote(code, msg) => write!(f, "server error ({code}): {msg}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ClientError::DeadlineExceeded { budget, last } => {
                write!(f, "deadline exceeded after {budget:?}; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The result of an entry-transferring range query: the entries that
/// crossed the wire, the *full* match count, and the server's explicit
/// truncation flag.
///
/// `truncated` comes straight from the response frame's TRUNCATED bit —
/// callers no longer have to infer truncation from
/// `count > entries.len()` (and cannot forget to).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeReply {
    /// Matching `(key, value)` pairs, ascending; at most the server's
    /// per-response cap.
    pub entries: Vec<(u64, u64)>,
    /// Full match count, even when the entry list was cut.
    pub count: u64,
    /// The entry list was cut at the server's cap
    /// ([`MAX_RANGE_ENTRIES`](crate::proto::MAX_RANGE_ENTRIES)).
    pub truncated: bool,
}

/// One blocking connection to a `pnb-server`: send a request, read its
/// response. Requests may be pipelined with
/// [`send`](Client::send)/[`recv`](Client::recv); [`call`] is the
/// send-then-wait convenience every simple caller wants.
///
/// [`call`]: Client::call
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    frames: FrameBuf,
    next_id: u64,
}

impl Client {
    /// Connect (blocking) with `TCP_NODELAY` and 30 s read *and* write
    /// timeouts — a wedged peer can hang either direction, and a load
    /// generator must wedge on neither.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Like [`connect`](Self::connect) but bound by `timeout` for the
    /// TCP handshake itself (plain `connect` uses the OS default, which
    /// can be minutes against a black-holed address).
    pub fn connect_with_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect_timeout(addr, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Client {
            stream,
            frames: FrameBuf::new(),
            next_id: 1,
        })
    }

    /// Replace both stream timeouts (defaults: 30 s each). A fault
    /// plan that mangles a length field leaves the client waiting for
    /// bytes that never come — the read timeout is what turns that
    /// into a typed [`ClientError::Io`] instead of a hang, so tests
    /// and impatient callers can tighten it.
    pub fn set_timeouts(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))
    }

    /// Send `body` without waiting; returns the request id. Responses
    /// come back in request order — pair with [`recv`](Client::recv).
    pub fn send(&mut self, body: ReqBody) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let bytes = encode_request(&Request { id, body });
        self.stream.write_all(&bytes)?;
        Ok(id)
    }

    /// Read the next response frame (blocking, honours the read
    /// timeout). Typed error frames become [`ClientError::Remote`].
    pub fn recv(&mut self) -> Result<(u64, RespBody), ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.frames.next_frame().map_err(ClientError::Protocol)? {
                let resp = decode_response(&frame).map_err(ClientError::Protocol)?;
                return match resp.body {
                    RespBody::Error(code, msg) => Err(ClientError::Remote(code, msg)),
                    RespBody::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
                    body => Ok((resp.id, body)),
                };
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.frames.feed(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Send `body` and wait for its response.
    pub fn call(&mut self, body: ReqBody) -> Result<RespBody, ClientError> {
        let id = self.send(body)?;
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(ClientError::Protocol(DecodeError {
                id: Some(got),
                code: StatusCode::Internal,
                msg: format!("response id {got} does not match request id {id}"),
            }));
        }
        Ok(resp)
    }

    fn expect_bool(&mut self, body: ReqBody) -> Result<bool, ClientError> {
        match self.call(body)? {
            RespBody::Bool(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }

    fn expect_value(&mut self, body: ReqBody) -> Result<Option<u64>, ClientError> {
        match self.call(body)? {
            RespBody::Value(v) | RespBody::Displaced(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(ReqBody::Ping)? {
            RespBody::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        self.expect_value(ReqBody::Get { key })
    }

    /// Membership test.
    pub fn contains(&mut self, key: u64) -> Result<bool, ClientError> {
        self.expect_bool(ReqBody::Contains { key })
    }

    /// Set-semantics insert; `true` iff the key was absent.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<bool, ClientError> {
        self.expect_bool(ReqBody::Insert { key, value })
    }

    /// Insert-or-replace; returns the displaced value.
    pub fn upsert(&mut self, key: u64, value: u64) -> Result<Option<u64>, ClientError> {
        self.expect_value(ReqBody::Upsert { key, value })
    }

    /// Remove; `true` iff the key was present.
    pub fn delete(&mut self, key: u64) -> Result<bool, ClientError> {
        self.expect_bool(ReqBody::Delete { key })
    }

    /// Execute a batch of point operations in one round trip; results
    /// positionally match `ops`, served through the map's fused
    /// `apply_batch` path server-side. Malformed sub-ops come back as
    /// per-slot [`BatchSubResult::Error`]s without poisoning their
    /// siblings — only whole-frame failures surface as [`ClientError`].
    pub fn batch(&mut self, ops: &[BatchSubOp]) -> Result<Vec<BatchSubResult>, ClientError> {
        match self.call(ReqBody::Batch { ops: ops.to_vec() })? {
            RespBody::BatchResults(results) => Ok(results),
            other => Err(unexpected(&other)),
        }
    }

    /// Count keys in `[lo, hi]` on the live map (COUNT_ONLY wire shape:
    /// the server traverses, only the count crosses the network).
    pub fn range_count(&mut self, lo: u64, hi: u64) -> Result<u64, ClientError> {
        match self.call(ReqBody::Range {
            lo,
            hi,
            count_only: true,
        })? {
            RespBody::Entries { count, .. } => Ok(count),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the entries in `[lo, hi]` from the live map. The reply
    /// carries the full match count and the server's explicit
    /// truncation flag (see [`RangeReply`]).
    pub fn range_entries(&mut self, lo: u64, hi: u64) -> Result<RangeReply, ClientError> {
        match self.call(ReqBody::Range {
            lo,
            hi,
            count_only: false,
        })? {
            RespBody::Entries {
                count,
                entries,
                truncated,
            } => Ok(RangeReply {
                entries,
                count,
                truncated,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the entries in `[lo, hi]` from a fresh cross-shard
    /// snapshot (one consistent cut taken server-side). See
    /// [`RangeReply`] for the truncation contract.
    pub fn snapshot_entries(&mut self, lo: u64, hi: u64) -> Result<RangeReply, ClientError> {
        match self.call(ReqBody::SnapshotScan {
            lo,
            hi,
            count_only: false,
        })? {
            RespBody::Entries {
                count,
                entries,
                truncated,
            } => Ok(RangeReply {
                entries,
                count,
                truncated,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to write a durable checkpoint to its configured
    /// `--checkpoint-dir`; returns `(generation, entries)`. Servers
    /// without a checkpoint directory answer a typed error
    /// ([`ClientError::Remote`]).
    pub fn checkpoint(&mut self) -> Result<(u64, u64), ClientError> {
        match self.call(ReqBody::Checkpoint)? {
            RespBody::CheckpointDone {
                generation,
                entries,
            } => Ok((generation, entries)),
            other => Err(unexpected(&other)),
        }
    }

    /// Server counters plus per-shard operation totals.
    pub fn stats(&mut self) -> Result<crate::proto::ServerStatsWire, ClientError> {
        match self.call(ReqBody::Stats)? {
            RespBody::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(body: &RespBody) -> ClientError {
    ClientError::Protocol(DecodeError {
        id: None,
        code: StatusCode::Internal,
        msg: format!("unexpected response body {body:?}"),
    })
}

/// A [`ConcurrentMap`] whose operations travel over the wire: each
/// session owns one pooled
/// [`ReconnectingClient`](crate::retry::ReconnectingClient) connection,
/// so the open-loop driver measures request→response round trips
/// through the real server stack (framing, worker loop, sharded
/// session, and back) — and survives server restarts and `Busy`
/// shedding mid-run, with every retry's cost landing in the measured
/// latency (see `retry.rs` for the latency-honesty contract).
///
/// Sessions check connections back into the pool on drop, so repeated
/// pin/drop cycles (as the drivers do between batches) reuse sockets
/// instead of re-dialing.
///
/// # Panics
///
/// [`pin`](ConcurrentMap::pin) and the session operations panic on
/// *final* errors (typed server errors, protocol breakage, exhausted
/// retry deadlines): the `MapSession` interface has no error channel,
/// and a load generator that silently drops failed operations would
/// fabricate latency data — failing loudly is the honest option.
/// Transient failures are the retry layer's job, not a panic.
#[derive(Debug)]
pub struct NetMap {
    addr: SocketAddr,
    policy: crate::retry::RetryPolicy,
    pool: Mutex<Vec<crate::retry::ReconnectingClient>>,
}

impl NetMap {
    /// Resolve `addr` and validate it with one ping; the validated
    /// connection seeds the pool. Uses the default
    /// [`RetryPolicy`](crate::retry::RetryPolicy).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_policy(addr, crate::retry::RetryPolicy::default())
    }

    /// Like [`connect`](Self::connect) with an explicit retry policy
    /// for every pooled connection (`pnb-load` surfaces the knobs as
    /// `--retry-deadline-ms` / `--retry-mutations`).
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs,
        policy: crate::retry::RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut probe = crate::retry::ReconnectingClient::with_policy(addr, policy);
        probe.ping()?;
        Ok(NetMap {
            addr,
            policy,
            pool: Mutex::new(vec![probe]),
        })
    }

    /// The resolved server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self) -> crate::retry::ReconnectingClient {
        if let Some(c) = self.pool.lock().expect("pool lock").pop() {
            return c;
        }
        // Lazy: the new client dials (with retry) on its first call.
        crate::retry::ReconnectingClient::with_policy(self.addr, self.policy)
    }
}

impl ConcurrentMap for NetMap {
    type Session<'a> = NetSession<'a>;

    fn pin(&self) -> NetSession<'_> {
        NetSession {
            map: self,
            client: Some(self.checkout()),
        }
    }

    fn capabilities(&self) -> Caps {
        Caps::all()
    }

    fn name(&self) -> &'static str {
        "pnb-sharded-net"
    }
}

/// One worker's connection to the server (see [`NetMap`]).
#[derive(Debug)]
pub struct NetSession<'a> {
    map: &'a NetMap,
    /// `Some` for the session's whole life; taken only by `Drop`.
    client: Option<crate::retry::ReconnectingClient>,
}

impl NetSession<'_> {
    fn client(&mut self) -> &mut crate::retry::ReconnectingClient {
        self.client.as_mut().expect("client present until drop")
    }
}

impl MapSession for NetSession<'_> {
    fn insert(&mut self, k: u64, v: u64) -> bool {
        self.client().insert(k, v).expect("insert over the wire")
    }

    fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
        self.client().upsert(k, v).expect("upsert over the wire")
    }

    fn delete(&mut self, k: &u64) -> bool {
        self.client().delete(*k).expect("delete over the wire")
    }

    fn get(&mut self, k: &u64) -> Option<u64> {
        self.client().get(*k).expect("get over the wire")
    }

    fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
        // Entries cross the wire: the in-process adapters materialize
        // entries, so the served range latency pays serialization and
        // transfer too. A truncated reply would under-count that cost —
        // fail loudly per this adapter's contract instead of fabricating
        // comparable-looking numbers.
        let (lo, hi) = (*lo, *hi);
        let reply = self
            .client()
            .range_entries(lo, hi)
            .expect("range over the wire");
        assert!(
            !reply.truncated,
            "range [{lo}, {hi}] truncated at {} of {} entries: narrow the range",
            reply.entries.len(),
            reply.count,
        );
        reply.count as usize
    }

    /// No-op: the *server's* workers refresh their epoch-pinned
    /// sessions on their own cadence; the client holds no epochs, so
    /// there is nothing to re-pin on this side of the wire.
    fn refresh(&mut self) {}

    /// Ship the whole batch as one `Batch` frame: one round trip and
    /// one server-side fused `apply_batch` instead of `ops.len()`
    /// round trips. Descent telemetry does not cross the wire, so the
    /// report conservatively claims no sharing (`root_descents ==
    /// ops`): over the network the batching win is round-trip
    /// amortization, which lands in measured throughput and latency,
    /// not in `ops_per_descent`.
    fn apply_batch(&mut self, ops: &[workload::BatchOp]) -> workload::BatchReport {
        let subs: Vec<BatchSubOp> = ops
            .iter()
            .map(|op| match *op {
                workload::BatchOp::Get(k) => BatchSubOp::Get { key: k },
                workload::BatchOp::Insert(k, v) => BatchSubOp::Insert { key: k, value: v },
                workload::BatchOp::Upsert(k, v) => BatchSubOp::Upsert { key: k, value: v },
                workload::BatchOp::Delete(k) => BatchSubOp::Delete { key: k },
            })
            .collect();
        let results = self.client().batch(&subs).expect("batch over the wire");
        assert_eq!(
            results.len(),
            subs.len(),
            "batch results match ops positionally"
        );
        workload::BatchReport {
            ops: ops.len() as u64,
            root_descents: ops.len() as u64,
        }
    }
}

impl Drop for NetSession<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.client.take() {
            self.map.pool.lock().expect("pool lock").push(c);
        }
    }
}
