//! # pnb-server — a network front-end for the sharded PNB-BST
//!
//! Everything below `crates/server` serves one question: what do the
//! paper's wait-free range queries cost when the map sits behind a
//! socket instead of a function call? The answer needs a server whose
//! own design doesn't drown the structure being measured, so:
//!
//! * **Length-prefixed binary protocol** ([`proto`], [`codec`]): a
//!   fixed 20-byte header (magic, version, opcode, status, flags,
//!   request id, payload length) and all-`u64` payloads — no parsing
//!   ambiguity, no allocation on the point-op path, pipelining for
//!   free via the echoed request id.
//! * **Thread-per-core workers on a readiness loop** ([`server`]): an
//!   acceptor hands connections round-robin to a fixed worker pool;
//!   every thread blocks in `epoll_wait` and is woken by socket
//!   readiness, an eventfd or a real deadline — never by a timer — so
//!   an idle server does nothing and a request is served on the wake-up
//!   its bytes cause. **Linux only.** Each worker serves over **one
//!   [`pnb_shard::ShardedSession`]**, re-pinned every N ops and dropped
//!   while the worker is blocked, so a long-lived server never wedges
//!   epoch reclamation (DESIGN.md §6.3, §8.3).
//! * **Typed error frames** ([`codec::DecodeError`]): malformed input
//!   gets a status-coded error response and closes *that* connection
//!   only — a fuzzer on one socket cannot disturb its neighbours.
//! * **Graceful drain** ([`server::ShutdownHandle`]): SIGTERM stops
//!   accepting, workers answer everything already sent (pipelined
//!   requests included), flush, release their epoch pins, and exit.
//!
//! Two binaries ship with the crate: `pnb-server` (the daemon) and
//! `pnb-load` (an open-loop, coordinated-omission-free load driver
//! built on `workload::run_open_loop` over [`client::NetMap`]).
//! Experiment e14 in the bench crate sweeps offered rates through this
//! stack on loopback. DESIGN.md §8 documents the wire format.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod client;
pub mod codec;
pub mod conn;
mod failpoint;
pub mod handler;
mod poll;
pub mod proto;
pub mod retry;
pub mod server;
pub mod stats;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{Client, ClientError, NetMap, NetSession, RangeReply};
pub use codec::{
    decode_request, decode_response, encode_request, encode_response, DecodeError, Frame, FrameBuf,
};
pub use proto::{
    BatchSubOp, BatchSubResult, Opcode, ReqBody, Request, RespBody, Response, ServerStatsWire,
    StatusCode,
};
pub use retry::{ReconnectingClient, RetryPolicy};
pub use server::{AdmissionConfig, Server, ServerConfig, ShutdownHandle};
pub use stats::{ServerStats, ServerStatsSnapshot};
