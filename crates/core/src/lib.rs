//! # pnb-bst — Persistent Non-Blocking BSTs with Wait-Free Range Queries
//!
//! A faithful Rust implementation of
//!
//! > Panagiota Fatourou and Eric Ruppert. *Persistent Non-Blocking Binary
//! > Search Trees Supporting Wait-Free Range Queries.* FORTH ICS TR 470 /
//! > arXiv:1805.04779 (conference version: SPAA 2019).
//!
//! PNB-BST is a leaf-oriented binary search tree built from single-word
//! CAS that provides:
//!
//! * **non-blocking** (lock-free) [`insert`](PnbBst::insert),
//!   [`delete`](PnbBst::delete) and [`get`](PnbBst::get) — updates on
//!   different parts of the tree run fully in parallel, and searches help
//!   only updates pending at the parent/grandparent of the leaf they
//!   reach;
//! * **wait-free** range queries — a lazy [`Handle::range`] or a
//!   [`Snapshot`]: every range query finishes in a bounded number of its
//!   own steps regardless of concurrent updates, by traversing an
//!   immutable *version* of the tree;
//! * **persistence**: old versions remain reconstructible while anyone
//!   needs them, exposed through [`Snapshot`]s;
//! * **linearizability** of all operations, and tolerance of any number
//!   of crash failures (a stalled operation is completed by whoever runs
//!   into it).
//!
//! ## How it works (one paragraph)
//!
//! The tree is made persistent by giving every node a `prev` pointer to
//! the node it replaced and a `seq` number stamped from a global phase
//! counter. A range scan atomically increments the counter — closing the
//! current *phase* — and then walks the version of the tree belonging to
//! its phase, skipping newer nodes by following `prev` pointers. Updates
//! coordinate with scans through a handshake: after an update announces
//! itself (flag CAS), it re-reads the counter and pro-actively aborts if
//! a new phase has begun, so no scan can miss an update from an earlier
//! phase. Multi-node atomicity uses the flag/mark + `Info`-object helping
//! protocol of Ellen et al.'s non-blocking BST, which PNB-BST extends.
//!
//! ## Quick start
//!
//! ```
//! use pnb_bst::PnbBst;
//! use std::sync::Arc;
//!
//! let tree = Arc::new(PnbBst::<u64, String>::new());
//!
//! // Concurrent writers...
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let tree = Arc::clone(&tree);
//!         std::thread::spawn(move || {
//!             for k in (t * 100)..(t * 100 + 100) {
//!                 tree.insert(k, format!("value-{k}"));
//!             }
//!         })
//!     })
//!     .collect();
//!
//! // ...while a wait-free scan runs safely at any time.
//! let _partial = tree.snapshot().range_scan(&0, &399);
//!
//! for h in handles {
//!     h.join().unwrap();
//! }
//! let snap = tree.snapshot();
//! assert_eq!(snap.len(), 400);
//! assert_eq!(snap.range_scan(&100, &102).len(), 3);
//! ```
//!
//! ## Two read surfaces
//!
//! Every map reads through one of two types. A pinned session
//! ([`PnbBst::pin`] → [`Handle`]) serves point operations, batches and
//! the lazy [`Handle::range`] over arbitrary `RangeBounds`, amortizing
//! one epoch guard across any number of them (the per-call `insert`,
//! `get`, … above pin and drop a guard on every call — convenient, but
//! measurable overhead in a hot loop). A [`Snapshot`]
//! ([`PnbBst::snapshot`]) serves every other multi-key read: `len`,
//! `to_vec`, `keys`, visitor scans and ordered queries, all of one
//! frozen version.
//!
//! ```
//! use pnb_bst::PnbBst;
//!
//! let tree: PnbBst<u64, u64> = PnbBst::new();
//! let h = tree.pin(); // one epoch pin for the whole session
//! for k in 0..100 {
//!     h.insert(k, k * k);
//! }
//! assert_eq!(h.upsert(7, 0), Some(49)); // atomic insert-or-replace
//! let squares: Vec<u64> = h.range(10..20).map(|(_, v)| v).collect();
//! assert_eq!(squares.len(), 10);
//! ```
//!
//! ## Memory reclamation
//!
//! The paper assumes garbage collection; this crate uses
//! [`crossbeam-epoch`](crossbeam_epoch). Nodes are retired exactly when
//! they leave the *current* tree; version-consistency of in-flight
//! operations is preserved because the phase counter is monotonic (see
//! `DESIGN.md` §3 in the repository for the full argument).
//!
//! Allocation is arena-pooled: every `Node`/`Info` is a block of a
//! 2-MiB slab (one huge page once carved), handed out from a
//! per-thread free list that the epoch collector itself refills (ripe
//! garbage is *recycled* into pools rather than freed), so update loops
//! bypass the global allocator, a `u64→u64` node is exactly one cache
//! line, and read-only operations never allocate at all (`DESIGN.md`
//! §3.5).
//!
//! ## Feature flags
//!
//! * `stats` — cheap atomic counters for helping/abort/CAS-failure
//!   events, for ablation studies, plus the epoch collector's
//!   process-global counters (`collector_stats`, re-exported from the
//!   reclamation layer). Off by default.
//! * `testing-internals` — deterministic fault injection
//!   (`testing::PausedUpdate`): suspend an update right after it
//!   becomes visible, to exercise helping and crash tolerance.
//!
//! ## Batched operations
//!
//! [`Handle::multi_get`] and [`Handle::apply_batch`] amortize one epoch
//! pin across a key-sorted batch and locate 16 ops at a time by one
//! lock-step `Search`, so their cache misses overlap
//! ([`apply_batch_across`] runs one batch over several trees); see
//! `DESIGN.md` §11 for the linearization contract (a batch is a
//! sequence of singleton operations, not a transaction).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod batch;
mod handle;
mod help;
mod info;
mod iter;
pub mod key;
mod node;
pub mod persist;
mod scan;
mod search;
mod set;
mod snapshot;
mod stats;
mod tree;
mod validate;

#[cfg(feature = "testing-internals")]
pub mod testing;

pub use batch::{apply_batch_across, BatchOp, BatchOutcome, BatchReport};
pub use handle::Handle;
pub use iter::Range;
pub use key::SKey;
pub use persist::{CheckpointError, CheckpointReport};
pub use set::PnbBstSet;
pub use snapshot::Snapshot;
pub use stats::StatsSnapshot;
pub use tree::PnbBst;

/// Epoch-collector statistics (bags sealed/freed, advance
/// attempts/successes), re-exported from the reclamation layer. The
/// counters are process-global and monotone: assert on deltas.
#[cfg(feature = "stats")]
pub use crossbeam_epoch::{collector_stats, CollectorStats};

#[cfg(feature = "stats")]
pub use arena::arena_stats;
pub use arena::{trim as arena_trim, ArenaStats};

/// Run `passes` seal-and-collect passes of the epoch collector on the
/// current thread. With no other thread pinned this drains every ripe
/// bag (recycling its memory into the arena pools), which is what
/// measurement harnesses need at workload boundaries so that one
/// structure's deferred garbage is not attributed to the next
/// ([`arena_trim`] then releases the pooled footprint itself).
pub fn collector_drain(passes: usize) {
    for _ in 0..passes {
        crossbeam_epoch::pin().flush();
    }
}
