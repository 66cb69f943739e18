//! # pnb-shard — a sharded front-end over `pnb-bst`
//!
//! [`ShardedPnbBst`] partitions the key space over `N` independent
//! [`pnb_bst::PnbBst`] instances. Point operations route to exactly one
//! shard through a pluggable [`Partitioner`] and inherit that shard's
//! lock-freedom and linearizability unchanged; cross-shard range
//! queries and snapshots exploit the one thing the paper's structure is
//! uniquely good at — *every shard can produce a linearizable snapshot
//! in wait-free time* — to stitch per-shard views into one consistent
//! cut.
//!
//! Why shard at all: each `PnbBst` has one phase counter and one epoch
//! of CAS/helping traffic. Sharding divides the key space, the counter
//! traffic, the helping collisions, and the tree depth by `N`, so
//! point-op throughput scales with the shard count (experiment E10 in
//! the repository measures exactly this). The price is paid on
//! cross-shard reads, and this crate's job is to keep that price to
//! "one phase close per shard" while documenting precisely what the
//! combined read means.
//!
//! ## Quick start
//!
//! ```
//! use pnb_shard::ShardedPnbBst;
//!
//! let map: ShardedPnbBst<u64, String> = ShardedPnbBst::new(8);
//! let s = map.pin();                       // one session, all shards
//! s.insert(17, "seventeen".into());
//! s.upsert(40_000, "far away".into());     // a different shard
//! assert_eq!(s.get(&17).as_deref(), Some("seventeen"));
//! // Cross-shard lazy range, merged ascending:
//! let keys: Vec<u64> = s.range(..).map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![17, 40_000]);
//! // Cross-shard snapshot, frozen while the map moves on:
//! let snap = s.snapshot();
//! s.delete(&17);
//! assert_eq!(snap.len(), 2);
//! ```
//!
//! ## Consistency model
//!
//! * **Per shard: linearizable.** A shard is a plain `PnbBst`; every
//!   operation on it keeps the paper's guarantees (lock-free updates,
//!   wait-free linearizable scans).
//! * **Across shards: serializable at snapshot boundaries, with a
//!   prefix-consistency guarantee.** A cross-shard read
//!   ([`ShardedSession::range`], [`ShardedPnbBst::snapshot`]) captures
//!   per-shard versions in **descending shard order** — shard `N-1`
//!   first, shard `0` last. Each capture is a per-shard linearization
//!   point `t_i`, and the capture order makes them monotone:
//!   `t_{N-1} < … < t_1 < t_0`. The combined view is the database-style
//!   *serializable snapshot*: it equals the state produced by executing
//!   every operation that linearized before its shard's `t_i`, and no
//!   transaction-level interleaving can fake it after the fact.
//!
//!   The guarantee that makes multi-shard updates usable: a writer that
//!   updates shards in **ascending** order is observed *prefix-closed*.
//!   If the view contains the writer's update `u_i` to shard `i`, then
//!   for every `j < i`: `u_j` linearized before `u_i` (program order),
//!   `u_i` before `t_i` (it is visible), and `t_i < t_j` (capture
//!   order) — so `u_j` linearized before `t_j` and is visible too. A
//!   reader can see a multi-shard update half-done, but only ever as a
//!   *prefix* in shard order, never with holes; "write the commit
//!   record last (highest shard), then its presence implies every
//!   earlier piece" is the idiom this enables. The repository's
//!   `tests/sharded.rs` hammers this property concurrently.
//!
//! * **What it is not:** there is no cross-shard linearizability — two
//!   concurrent cross-shard reads may disagree on the relative order of
//!   concurrent single-shard writes to *different* shards, exactly as
//!   two database snapshots taken at different times may. Writers that
//!   need atomic multi-key visibility across shards must either keep
//!   those keys in one shard (choose the partitioner accordingly) or
//!   use the prefix idiom above.
//!
//! ## Choosing a partitioner
//!
//! [`RangePrefixPartitioner`] (the `u64` default) hashes the key's
//! aligned block index, so narrow range queries resolve to one or two
//! shards ([`Partitioner::shards_for_range`]) and the rest are skipped
//! outright. [`HashPartitioner`] spreads single keys best but forces
//! every range query to visit every shard. Both are pure functions —
//! see [`Partitioner`] for the contract a custom policy must meet.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod map;
mod merge;
mod partition;
mod persist;
mod session;
mod snapshot;
mod stats;

pub use map::ShardedPnbBst;
pub use merge::MergeRange;
pub use partition::{HashPartitioner, Partitioner, RangePrefixPartitioner};
pub use persist::{BadParam, PersistentPartitioner};
pub use pnb_bst::persist::{CheckpointError, CheckpointReport};
pub use pnb_bst::{BatchOp, BatchOutcome, BatchReport};
pub use session::ShardedSession;
pub use snapshot::ShardedSnapshot;
pub use stats::{load_imbalance, ShardOpStats};
