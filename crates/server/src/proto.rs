//! The wire protocol: frame layout, opcodes, status codes, and the
//! typed request/response bodies the codec maps them to.
//!
//! Every message — request or response — is one *frame*: a fixed
//! [`HEADER_LEN`]-byte header followed by `payload_len` bytes of
//! payload. All integers are little-endian.
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"PNB1"
//! 4       1     version      PROTOCOL_VERSION (= 1)
//! 5       1     opcode       Opcode (request) / echoed (response)
//! 6       1     status       0 in requests; StatusCode in responses
//! 7       1     flags        bit 0 COUNT_ONLY (req), bit 1 TRUNCATED (resp)
//! 8       8     request id   u64, echoed verbatim in the response
//! 16      4     payload len  u32, <= MAX_PAYLOAD
//! ```
//!
//! The request id is an opaque client-chosen correlation token: the
//! server echoes it so clients may pipeline any number of requests on
//! one connection and match responses out of a FIFO (responses are sent
//! in request order). Payloads are sequences of `u64` (keys, values,
//! bounds); error responses carry a UTF-8 message instead. DESIGN.md §8
//! documents the full protocol narrative.

/// Frame magic: the first four bytes of every well-formed frame.
pub const MAGIC: [u8; 4] = *b"PNB1";

/// Protocol version this build speaks. A version mismatch is refused
/// with [`StatusCode::BadVersion`] rather than guessed at.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size, bytes.
pub const HEADER_LEN: usize = 20;

/// Hard payload ceiling. Anything larger is refused with
/// [`StatusCode::Oversized`] *before* the payload is read, so a
/// malicious length field cannot make a worker allocate unboundedly.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Range responses are capped at this many `(key, value)` entries; a
/// capped response sets [`flags::TRUNCATED`]. Keeps one giant scan from
/// wedging a worker behind a multi-megabyte write.
pub const MAX_RANGE_ENTRIES: usize = 65_536;

/// Frame flag bits.
pub mod flags {
    /// Request flag (Range/SnapshotScan): return only the match count,
    /// not the entries. What the open-loop driver uses, mirroring
    /// `MapSession::range_scan` returning `usize`.
    pub const COUNT_ONLY: u8 = 1 << 0;
    /// Response flag: the entry list was cut at
    /// [`super::MAX_RANGE_ENTRIES`]; the count field still reports the
    /// full match count.
    pub const TRUNCATED: u8 = 1 << 1;
}

/// Operation selector, byte 5 of the header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty payload both ways.
    Ping = 0x00,
    /// Point lookup: payload `key`; response `present:u8` + `value:u64`.
    Get = 0x01,
    /// Membership test: payload `key`; response `present:u8`.
    Contains = 0x02,
    /// Set-semantics insert: payload `key value`; response `inserted:u8`.
    Insert = 0x03,
    /// Insert-or-replace: payload `key value`; response `displaced:u8`
    /// + `old_value:u64`.
    Upsert = 0x04,
    /// Remove: payload `key`; response `removed:u8`.
    Delete = 0x05,
    /// Closed-interval range query over the live map: payload `lo hi`;
    /// response `count:u64` then `(key, value)*` unless COUNT_ONLY.
    Range = 0x06,
    /// Range query over a fresh cross-shard snapshot (one consistent
    /// cut, then read): same payload/response shape as Range.
    SnapshotScan = 0x07,
    /// Server counters: empty payload; response is the stats block
    /// (see `RespBody::Stats`).
    Stats = 0x08,
    /// Write a durable checkpoint of the map to the server's
    /// `--checkpoint-dir`: empty payload; response `generation:u64` +
    /// `entries:u64` (see `RespBody::CheckpointDone`). Refused with
    /// [`StatusCode::Internal`] when the server has no checkpoint
    /// directory configured.
    Checkpoint = 0x09,
    /// A batch of point operations served through the map's fused
    /// `apply_batch` path (lock-step search, one epoch pin).
    ///
    /// Request payload: `count:u32` then `count` length-prefixed
    /// sub-operations, each `sub_opcode:u8` + `len:u32` + `len` payload
    /// bytes (only the point opcodes Get/Contains/Insert/Upsert/Delete
    /// are batchable). Response payload: `count:u32` then per sub-op
    /// `sub_opcode:u8` + `status:u8` + `len:u32` + body — a malformed
    /// sub-operation earns its own error status *without poisoning its
    /// siblings*. Admission control weighs a batch by its contained
    /// operation count, not as one request.
    Batch = 0x0A,
}

impl Opcode {
    /// Decode byte 5; `None` for unknown opcodes (the caller answers
    /// [`StatusCode::BadOpcode`]).
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0x00 => Opcode::Ping,
            0x01 => Opcode::Get,
            0x02 => Opcode::Contains,
            0x03 => Opcode::Insert,
            0x04 => Opcode::Upsert,
            0x05 => Opcode::Delete,
            0x06 => Opcode::Range,
            0x07 => Opcode::SnapshotScan,
            0x08 => Opcode::Stats,
            0x09 => Opcode::Checkpoint,
            0x0A => Opcode::Batch,
            _ => return None,
        })
    }
}

/// Response status, byte 6. `Ok` for success; anything else is an
/// error frame whose payload is a UTF-8 message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StatusCode {
    /// Success.
    Ok = 0,
    /// The frame did not start with [`MAGIC`] — the stream is not
    /// speaking this protocol; the connection is closed after the
    /// error frame.
    BadMagic = 1,
    /// Version byte != [`PROTOCOL_VERSION`].
    BadVersion = 2,
    /// Unknown opcode byte.
    BadOpcode = 3,
    /// Payload length does not match the opcode's shape (truncated or
    /// trailing bytes).
    BadPayload = 4,
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversized = 5,
    /// The server is draining; no new requests are accepted.
    Shutdown = 6,
    /// Internal server error.
    Internal = 7,
    /// The worker crossed its admission limit and shed this request
    /// *without executing it*. The payload is an 8-byte LE
    /// retry-after hint in milliseconds (see [`RespBody::Busy`]);
    /// because the operation never ran, retrying is always safe —
    /// mutations included.
    Busy = 8,
}

impl StatusCode {
    /// Decode byte 6; `None` for unknown status bytes.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => StatusCode::Ok,
            1 => StatusCode::BadMagic,
            2 => StatusCode::BadVersion,
            3 => StatusCode::BadOpcode,
            4 => StatusCode::BadPayload,
            5 => StatusCode::Oversized,
            6 => StatusCode::Shutdown,
            7 => StatusCode::Internal,
            8 => StatusCode::Busy,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StatusCode::Ok => "ok",
            StatusCode::BadMagic => "bad magic",
            StatusCode::BadVersion => "bad version",
            StatusCode::BadOpcode => "bad opcode",
            StatusCode::BadPayload => "bad payload",
            StatusCode::Oversized => "oversized payload",
            StatusCode::Shutdown => "server shutting down",
            StatusCode::Internal => "internal error",
            StatusCode::Busy => "server busy",
        };
        f.write_str(s)
    }
}

/// A decoded request: correlation id plus the typed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation token, echoed in the response.
    pub id: u64,
    /// The operation.
    pub body: ReqBody,
}

/// The typed request bodies (one per [`Opcode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReqBody {
    /// Liveness probe.
    Ping,
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Membership test.
    Contains {
        /// Key to test.
        key: u64,
    },
    /// Set-semantics insert.
    Insert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Insert-or-replace.
    Upsert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Remove.
    Delete {
        /// Key to remove.
        key: u64,
    },
    /// Closed-interval `[lo, hi]` range query over the live map.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
        /// Return only the match count (flag bit
        /// [`flags::COUNT_ONLY`]).
        count_only: bool,
    },
    /// Closed-interval query over a fresh cross-shard snapshot.
    SnapshotScan {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
        /// Return only the match count.
        count_only: bool,
    },
    /// Server counters.
    Stats,
    /// Write a durable checkpoint to the server's checkpoint directory.
    Checkpoint,
    /// A batch of point operations, answered per-sub-op.
    Batch {
        /// The sub-operations, in submission order (duplicate keys
        /// resolve in this order — the map's stable-sort contract).
        ops: Vec<BatchSubOp>,
    },
}

/// One operation inside a [`ReqBody::Batch`]. Only point operations
/// are batchable; the decoder maps anything else — unknown sub-opcode,
/// non-point sub-opcode, wrong sub-payload shape — to
/// [`Malformed`](BatchSubOp::Malformed) so the handler can answer a
/// typed per-sub-op error while the well-formed siblings execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchSubOp {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Membership test.
    Contains {
        /// Key to test.
        key: u64,
    },
    /// Set-semantics insert.
    Insert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Insert-or-replace.
    Upsert {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Remove.
    Delete {
        /// Key to remove.
        key: u64,
    },
    /// Decode-side marker for a sub-operation that did not parse. Never
    /// executed; the handler answers it with
    /// [`BatchSubResult::Error`]. Encoding one produces a sub-frame the
    /// decoder flags malformed again (sub-opcode `0xFF`), so it is not
    /// bit-roundtrippable — it exists to carry the error, not to travel.
    Malformed {
        /// The per-sub-op status to answer with
        /// ([`BadOpcode`](StatusCode::BadOpcode) or
        /// [`BadPayload`](StatusCode::BadPayload)).
        code: StatusCode,
        /// Human-readable diagnostic.
        msg: String,
    },
}

/// Per-sub-op result of a [`ReqBody::Batch`], positionally matching
/// the request's `ops`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchSubResult {
    /// Get result: the value, if present.
    Value(
        /// Value under the key.
        Option<u64>,
    ),
    /// Contains / Insert / Delete result.
    Bool(
        /// Present / newly-inserted / removed.
        bool,
    ),
    /// Upsert result: the displaced value.
    Displaced(
        /// Previous value under the key.
        Option<u64>,
    ),
    /// This sub-operation failed (malformed); its siblings are
    /// unaffected and the operation was never executed.
    Error(
        /// Per-sub-op status (never `Ok`).
        StatusCode,
        /// UTF-8 diagnostic.
        String,
    ),
}

impl ReqBody {
    /// The opcode this body travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            ReqBody::Ping => Opcode::Ping,
            ReqBody::Get { .. } => Opcode::Get,
            ReqBody::Contains { .. } => Opcode::Contains,
            ReqBody::Insert { .. } => Opcode::Insert,
            ReqBody::Upsert { .. } => Opcode::Upsert,
            ReqBody::Delete { .. } => Opcode::Delete,
            ReqBody::Range { .. } => Opcode::Range,
            ReqBody::SnapshotScan { .. } => Opcode::SnapshotScan,
            ReqBody::Stats => Opcode::Stats,
            ReqBody::Checkpoint => Opcode::Checkpoint,
            ReqBody::Batch { .. } => Opcode::Batch,
        }
    }

    /// Admission weight: how many map operations this request contains
    /// (1 for everything but `Batch`, which counts its sub-operations).
    /// The worker's admission budget and shed accounting are both
    /// op-granular, so a 64-op batch spends 64 budget slots and, when
    /// shed, counts as 64 shed operations.
    pub fn op_weight(&self) -> u64 {
        match self {
            ReqBody::Batch { ops } => ops.len().max(1) as u64,
            _ => 1,
        }
    }
}

/// A decoded response: echoed id plus the typed result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation token, echoed.
    pub id: u64,
    /// The result.
    pub body: RespBody,
}

/// The typed response bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RespBody {
    /// Ping reply.
    Pong,
    /// Get result.
    Value(
        /// The value, if the key was present.
        Option<u64>,
    ),
    /// Contains / Insert / Delete result.
    Bool(
        /// Present / newly-inserted / removed.
        bool,
    ),
    /// Upsert result: the displaced value, if any.
    Displaced(
        /// Previous value under the key.
        Option<u64>,
    ),
    /// Range / SnapshotScan result.
    Entries {
        /// Full match count (even when the entry list is truncated or
        /// COUNT_ONLY suppressed it).
        count: u64,
        /// Matching pairs, ascending; empty under COUNT_ONLY.
        entries: Vec<(u64, u64)>,
        /// The entry list was cut at [`MAX_RANGE_ENTRIES`].
        truncated: bool,
    },
    /// Stats reply.
    Stats(ServerStatsWire),
    /// Checkpoint reply: the committed generation and how many entries
    /// it holds.
    CheckpointDone {
        /// The generation number the checkpoint committed as.
        generation: u64,
        /// Total entries written across all shards.
        entries: u64,
    },
    /// Admission-control shed: the worker refused to execute the
    /// request (status [`StatusCode::Busy`]). The operation did NOT
    /// run, so retrying — mutations included — is always safe.
    Busy {
        /// Server's suggestion for how long to back off before
        /// retrying, in milliseconds (derived from the worker's
        /// current backlog; a floor of 1).
        retry_after_ms: u64,
    },
    /// Batch reply: one result per sub-operation, in submission order.
    BatchResults(
        /// Per-sub-op results (errors are per-slot; siblings execute).
        Vec<BatchSubResult>,
    ),
    /// Error frame: status plus human-readable message.
    Error(
        /// Status code (never `Ok` and never `Busy`, which has its own
        /// typed shape).
        StatusCode,
        /// UTF-8 diagnostic message.
        String,
    ),
}

/// The Stats opcode's payload: server totals plus per-shard operation
/// totals, read from each shard tree's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsWire {
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed (either side) since startup.
    pub closed: u64,
    /// Well-formed requests served.
    pub requests: u64,
    /// Protocol errors answered with an error frame.
    pub protocol_errors: u64,
    /// Requests shed with a typed `Busy` frame by admission control.
    pub shed: u64,
    /// Connections dropped for staying over their pending-write cap
    /// longer than the stall window (the slow-reader policy).
    pub slow_reader_disconnects: u64,
    /// Per-shard operation totals, index order.
    pub shard_ops: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_bytes_roundtrip() {
        for b in 0u8..=0x0A {
            let op = Opcode::from_u8(b).expect("0x00..=0x0A are assigned");
            assert_eq!(op as u8, b);
        }
        assert_eq!(Opcode::from_u8(0x0B), None);
        assert_eq!(Opcode::from_u8(0xff), None);
    }

    #[test]
    fn status_bytes_roundtrip() {
        for b in 0u8..=8 {
            let st = StatusCode::from_u8(b).expect("0..=8 are assigned");
            assert_eq!(st as u8, b);
        }
        assert_eq!(StatusCode::from_u8(9), None);
    }

    #[test]
    fn body_opcode_mapping() {
        assert_eq!(ReqBody::Ping.opcode(), Opcode::Ping);
        assert_eq!(ReqBody::Get { key: 1 }.opcode(), Opcode::Get);
        assert_eq!(
            ReqBody::Range {
                lo: 0,
                hi: 1,
                count_only: true
            }
            .opcode(),
            Opcode::Range
        );
        assert_eq!(ReqBody::Stats.opcode(), Opcode::Stats);
        assert_eq!(ReqBody::Checkpoint.opcode(), Opcode::Checkpoint);
        assert_eq!(ReqBody::Batch { ops: vec![] }.opcode(), Opcode::Batch);
    }

    #[test]
    fn op_weight_counts_contained_ops() {
        assert_eq!(ReqBody::Ping.op_weight(), 1);
        assert_eq!(ReqBody::Get { key: 1 }.op_weight(), 1);
        assert_eq!(ReqBody::Batch { ops: vec![] }.op_weight(), 1);
        let ops = vec![
            BatchSubOp::Get { key: 1 },
            BatchSubOp::Insert { key: 2, value: 3 },
            BatchSubOp::Malformed {
                code: StatusCode::BadOpcode,
                msg: "nope".into(),
            },
        ];
        assert_eq!(ReqBody::Batch { ops }.op_weight(), 3);
    }
}
