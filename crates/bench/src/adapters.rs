//! [`ConcurrentMap`] adapters for every structure under test, so the
//! workload driver and all experiments are structure-agnostic.
//!
//! Each adapter pairs the map with a pinned session type (epoch handle
//! for the trees, plain borrow for the locked maps) and a typed
//! capability declaration ([`Caps`]): NB-BST declares
//! `range_scan: false` instead of panicking from an `unreachable!` when
//! a misconfigured mix reaches it — the drivers reject such mixes with a
//! [`workload::CapabilityError`] before any operation runs.

use workload::{BatchOp, BatchReport, Caps, ConcurrentMap, MapSession, Mix};

/// Convert the harness's `u64` batch ops into the core batch type.
fn to_core_batch(ops: &[BatchOp]) -> Vec<pnb_bst::BatchOp<u64, u64>> {
    ops.iter()
        .map(|op| match *op {
            BatchOp::Get(k) => pnb_bst::BatchOp::Get(k),
            BatchOp::Insert(k, v) => pnb_bst::BatchOp::Insert(k, v),
            BatchOp::Upsert(k, v) => pnb_bst::BatchOp::Upsert(k, v),
            BatchOp::Delete(k) => pnb_bst::BatchOp::Delete(k),
        })
        .collect()
}

/// Convert the core descent telemetry back into the harness type.
fn from_core_report(r: pnb_bst::BatchReport) -> BatchReport {
    BatchReport {
        ops: r.ops,
        root_descents: r.root_descents,
    }
}

/// The [`MapSession`] forwarding shared by the two PNB-BST sessions:
/// `pnb_bst::Handle` and `pnb_shard::ShardedSession` expose the same
/// methods.
macro_rules! pnb_session {
    ($session:ident) => {
        impl MapSession for $session<'_> {
            fn insert(&mut self, k: u64, v: u64) -> bool {
                self.0.insert(k, v)
            }
            fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
                self.0.upsert(k, v)
            }
            fn delete(&mut self, k: &u64) -> bool {
                self.0.delete(k)
            }
            fn get(&mut self, k: &u64) -> Option<u64> {
                self.0.get(k)
            }
            fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
                self.0.range(*lo..=*hi).count()
            }
            fn refresh(&mut self) {
                self.0.refresh()
            }
            fn apply_batch(&mut self, ops: &[BatchOp]) -> BatchReport {
                let (out, r) = self.0.apply_batch_reported(&to_core_batch(ops));
                std::hint::black_box(out);
                from_core_report(r)
            }
        }
    };
}

/// PNB-BST (the paper's structure).
#[derive(Default)]
pub struct Pnb(pub pnb_bst::PnbBst<u64, u64>);

impl Pnb {
    /// Fresh empty tree.
    pub fn new() -> Self {
        Pnb(pnb_bst::PnbBst::new())
    }
}

/// Pinned session on a [`Pnb`] (wraps `pnb_bst::Handle`).
pub struct PnbSession<'a>(pnb_bst::Handle<'a, u64, u64>);

pnb_session!(PnbSession);

impl ConcurrentMap for Pnb {
    type Session<'a> = PnbSession<'a>;
    fn pin(&self) -> PnbSession<'_> {
        PnbSession(self.0.pin())
    }
    fn capabilities(&self) -> Caps {
        Caps::all()
    }
    fn name(&self) -> &'static str {
        "pnb-bst"
    }
}

/// Sharded PNB-BST front-end (`pnb_shard::ShardedPnbBst`): the key
/// space partitioned over independent PNB-BSTs, point ops routed per
/// shard, ranges merged across per-shard wait-free scans. Full
/// capability surface — every per-shard guarantee carries over, and
/// cross-shard reads are the prefix-consistent cut documented in the
/// `pnb-shard` crate.
pub struct Sharded(pub pnb_shard::ShardedPnbBst<u64, u64>);

impl Sharded {
    /// The shard count the roster uses when no sweep overrides it —
    /// enough to split contention visibly at the thread counts the
    /// experiments drive, small enough that cross-shard scans stay
    /// comparable.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Fresh empty sharded map with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Fresh empty sharded map with an explicit shard count (the E10
    /// sweep axis).
    pub fn with_shards(shards: usize) -> Self {
        Sharded(pnb_shard::ShardedPnbBst::new(shards))
    }
}

impl Default for Sharded {
    fn default() -> Self {
        Self::new()
    }
}

/// Pinned session on a [`Sharded`] map (wraps `pnb_shard::ShardedSession`:
/// one epoch handle per shard).
pub struct ShardedMapSession<'a>(pnb_shard::ShardedSession<'a, u64, u64>);

pnb_session!(ShardedMapSession);

impl ConcurrentMap for Sharded {
    type Session<'a> = ShardedMapSession<'a>;
    fn pin(&self) -> ShardedMapSession<'_> {
        ShardedMapSession(self.0.pin())
    }
    /// Declares the full surface, with one honesty note: `range_scan`
    /// here means *per-shard linearizable, cross-shard
    /// prefix-consistent* (the `pnb-shard` consistency model, DESIGN
    /// §6) — strictly weaker than the single-tree structures' fully
    /// linearizable scans, strictly stronger than the no-guarantee
    /// case the flag exists to exclude. Range-mix tables (E3/E4) that
    /// include this row are comparing that documented model, not
    /// claiming equivalence.
    fn capabilities(&self) -> Caps {
        Caps::all()
    }
    fn name(&self) -> &'static str {
        "pnb-sharded"
    }
}

/// NB-BST (Ellen et al., the non-persistent substrate — no range scans,
/// no atomic upsert, no snapshots; exactly what [`Caps::point_ops`]
/// declares).
#[derive(Default)]
pub struct Nb(pub nb_bst::NbBst<u64, u64>);

impl Nb {
    /// Fresh empty tree.
    pub fn new() -> Self {
        Nb(nb_bst::NbBst::new())
    }
}

/// Pinned session on an [`Nb`] (wraps `nb_bst::Handle`).
pub struct NbSession<'a>(nb_bst::Handle<'a, u64, u64>);

impl MapSession for NbSession<'_> {
    fn insert(&mut self, k: u64, v: u64) -> bool {
        self.0.insert(k, v)
    }
    fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
        // Best-effort emulation (delete-then-insert): NOT atomic — an
        // observer can see the key absent mid-upsert, which is why `Nb`
        // declares `upsert: false` and no driver mix ever reaches this.
        let prev = self.0.remove(&k);
        self.0.insert(k, v);
        prev
    }
    fn delete(&mut self, k: &u64) -> bool {
        self.0.delete(k)
    }
    fn get(&mut self, k: &u64) -> Option<u64> {
        self.0.get(k)
    }
    fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
        // Unreachable by construction: `Caps::point_ops` keeps range
        // mixes away at configuration time — loudly so in debug builds.
        debug_assert!(
            false,
            "range_scan driven on nb-bst despite Caps {{ range_scan: false }}"
        );
        // If reached anyway, a bound-respecting quiescent count is the
        // most honest non-linearizable answer.
        self.0
            .tree()
            .to_vec_quiescent()
            .into_iter()
            .filter(|(k, _)| k >= lo && k <= hi)
            .count()
    }
    fn refresh(&mut self) {
        self.0.refresh()
    }
}

impl ConcurrentMap for Nb {
    type Session<'a> = NbSession<'a>;
    fn pin(&self) -> NbSession<'_> {
        NbSession(self.0.pin())
    }
    fn capabilities(&self) -> Caps {
        Caps::point_ops()
    }
    fn name(&self) -> &'static str {
        "nb-bst"
    }
}

/// A coarse-locked `BTreeMap` adapter: the map, a guard-free session (a
/// plain borrow) and its capabilities — ranges and upserts under the
/// lock, no snapshots, no native batching.
macro_rules! locked_map {
    ($(#[$doc:meta])* $map:ident, $session:ident, $tree:ident, $name:literal) => {
        $(#[$doc])*
        #[derive(Default)]
        pub struct $map(pub lock_bst::$tree<u64, u64>);

        impl $map {
            /// Fresh empty map.
            pub fn new() -> Self {
                $map(lock_bst::$tree::new())
            }
        }

        #[doc = concat!("Session on an [`", stringify!($map), "`] — no guard; a plain borrow.")]
        pub struct $session<'a>(&'a lock_bst::$tree<u64, u64>);

        impl MapSession for $session<'_> {
            fn insert(&mut self, k: u64, v: u64) -> bool {
                self.0.insert(k, v)
            }
            fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
                self.0.upsert(k, v)
            }
            fn delete(&mut self, k: &u64) -> bool {
                self.0.delete(k)
            }
            fn get(&mut self, k: &u64) -> Option<u64> {
                self.0.get(k)
            }
            fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
                self.0.scan_count(lo, hi)
            }
        }

        impl ConcurrentMap for $map {
            type Session<'a> = $session<'a>;
            fn pin(&self) -> $session<'_> {
                $session(&self.0)
            }
            fn capabilities(&self) -> Caps {
                Caps {
                    range_scan: true,
                    upsert: true,
                    snapshot: false,
                    batched: false,
                }
            }
            fn name(&self) -> &'static str {
                $name
            }
        }
    };
}

locked_map!(
    /// Coarse reader-writer-locked BTreeMap.
    Rw, RwSession, RwLockTree, "rwlock-btreemap"
);
locked_map!(
    /// Coarse mutex-locked BTreeMap.
    Mx, MxSession, MutexTree, "mutex-btreemap"
);

/// One of the structures under test, for code that iterates the roster
/// (the session-typed [`ConcurrentMap`] is not object-safe, so the
/// experiments dispatch through this enum instead of `dyn`).
// The variants intentionally embed the whole structure (a few cache
// lines for the padded counter): a handful of roster entries exist per
// experiment, so the size imbalance is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Structure {
    /// The paper's tree.
    Pnb(Pnb),
    /// The sharded front-end over the paper's tree.
    PnbSharded(Sharded),
    /// The PODC 2010 baseline.
    Nb(Nb),
    /// RwLock'd BTreeMap.
    Rw(Rw),
    /// Mutex'd BTreeMap.
    Mx(Mx),
}

/// Dispatch a generic closure-like body over the concrete map inside a
/// [`Structure`] (crate-visible so the experiments call the `workload`
/// drivers on it directly: `dispatch!(s, m => workload::run_throughput(m, cfg))`).
macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            $crate::adapters::Structure::Pnb($m) => $body,
            $crate::adapters::Structure::PnbSharded($m) => $body,
            $crate::adapters::Structure::Nb($m) => $body,
            $crate::adapters::Structure::Rw($m) => $body,
            $crate::adapters::Structure::Mx($m) => $body,
        }
    };
}
pub(crate) use dispatch;

impl Structure {
    /// Structure name for reports.
    pub fn name(&self) -> &'static str {
        dispatch!(self, m => m.name())
    }

    /// Declared capabilities.
    pub fn capabilities(&self) -> Caps {
        dispatch!(self, m => m.capabilities())
    }

    /// A fresh instance of the same structure (experiments that sweep a
    /// parameter use one instance per cell).
    pub fn fresh(&self) -> Structure {
        match self {
            Structure::Pnb(_) => Structure::Pnb(Pnb::new()),
            Structure::PnbSharded(s) => {
                Structure::PnbSharded(Sharded::with_shards(s.0.shard_count()))
            }
            Structure::Nb(_) => Structure::Nb(Nb::new()),
            Structure::Rw(_) => Structure::Rw(Rw::new()),
            Structure::Mx(_) => Structure::Mx(Mx::new()),
        }
    }
}

/// Build one instance of every structure whose declared capabilities
/// cover `required` (e.g. `Caps::point_ops()` admits everything;
/// a `range_scan` requirement excludes NB-BST).
pub fn all_structures(required: Caps) -> Vec<Structure> {
    let covers = |c: Caps| {
        (!required.range_scan || c.range_scan)
            && (!required.upsert || c.upsert)
            && (!required.snapshot || c.snapshot)
            && (!required.batched || c.batched)
    };
    [
        Structure::Pnb(Pnb::new()),
        Structure::PnbSharded(Sharded::new()),
        Structure::Nb(Nb::new()),
        Structure::Rw(Rw::new()),
        Structure::Mx(Mx::new()),
    ]
    .into_iter()
    .filter(|s| covers(s.capabilities()))
    .collect()
}

/// Capability requirement implied by a mix.
pub fn required_caps(mix: &Mix) -> Caps {
    Caps {
        range_scan: mix.uses_ranges(),
        upsert: mix.uses_upserts(),
        snapshot: false,
        batched: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::CapabilityError;

    fn drive<M: ConcurrentMap>(m: &M) {
        let mut s = m.pin();
        assert!(s.insert(5, 50), "{}", m.name());
        assert!(!s.insert(5, 51), "{}", m.name());
        assert_eq!(s.get(&5), Some(50), "{}", m.name());
        assert!(s.delete(&5), "{}", m.name());
        assert!(!s.delete(&5), "{}", m.name());
        assert_eq!(s.get(&5), None, "{}", m.name());
        s.refresh();
    }

    #[test]
    fn adapters_agree_on_semantics() {
        drive(&Pnb::new());
        drive(&Sharded::new());
        drive(&Sharded::with_shards(1));
        drive(&Nb::new());
        drive(&Rw::new());
        drive(&Mx::new());
    }

    fn drive_upsert<M: ConcurrentMap>(m: &M) {
        assert!(m.capabilities().upsert, "{}", m.name());
        let mut s = m.pin();
        assert_eq!(s.upsert(3, 30), None, "{}", m.name());
        assert_eq!(s.upsert(3, 31), Some(30), "{}", m.name());
        assert_eq!(s.get(&3), Some(31), "{}", m.name());
    }

    #[test]
    fn upsert_capable_adapters_replace() {
        drive_upsert(&Pnb::new());
        drive_upsert(&Sharded::new());
        drive_upsert(&Rw::new());
        drive_upsert(&Mx::new());
        assert!(!Nb::new().capabilities().upsert);
    }

    #[test]
    fn range_capable_adapters_scan() {
        fn scan<M: ConcurrentMap>(m: &M) {
            assert!(m.capabilities().range_scan, "{}", m.name());
            let mut s = m.pin();
            for k in 0..100 {
                s.insert(k, k);
            }
            assert_eq!(s.range_scan(&10, &19), 10, "{}", m.name());
        }
        scan(&Pnb::new());
        scan(&Sharded::new());
        scan(&Rw::new());
        scan(&Mx::new());
    }

    #[test]
    fn structure_roster_respects_capabilities() {
        assert_eq!(all_structures(Caps::point_ops()).len(), 5);
        let with_ranges = all_structures(required_caps(&Mix::with_ranges(64)));
        assert_eq!(with_ranges.len(), 4);
        assert!(with_ranges.iter().all(|s| s.capabilities().range_scan));
        let with_upserts = all_structures(required_caps(&Mix::upsert_heavy()));
        assert_eq!(with_upserts.len(), 4);
        assert!(with_upserts.iter().all(|s| s.name() != "nb-bst"));
    }

    #[test]
    fn batch_capable_adapters_share_descents() {
        fn batch<M: ConcurrentMap>(m: &M, native: bool) {
            assert_eq!(m.capabilities().batched, native, "{}", m.name());
            let mut s = m.pin();
            let ops: Vec<BatchOp> = (0..32).map(|k| BatchOp::Upsert(k, k * 10)).collect();
            let r = s.apply_batch(&ops);
            assert_eq!(r.ops, 32, "{}", m.name());
            if native {
                assert!(
                    r.root_descents < 32,
                    "{}: fused batch must share descents ({} descents)",
                    m.name(),
                    r.root_descents
                );
            } else {
                assert_eq!(
                    r.root_descents,
                    32,
                    "{}: fallback is one descent/op",
                    m.name()
                );
            }
            for k in 0..32 {
                assert_eq!(s.get(&k), Some(k * 10), "{}", m.name());
            }
        }
        batch(&Pnb::new(), true);
        batch(&Sharded::new(), true);
        batch(&Sharded::with_shards(1), true);
        batch(&Rw::new(), false);
        batch(&Mx::new(), false);
    }

    #[test]
    fn misconfigured_mix_is_a_typed_config_error_not_a_panic() {
        // The old adapter hit `unreachable!` mid-run; now the driver
        // rejects the configuration before any operation executes.
        let cfg = workload::RunConfig::new(
            1,
            std::time::Duration::from_millis(10),
            workload::KeyDist::uniform(64),
            Mix::with_ranges(8),
        );
        let err = workload::run_throughput(&Nb::new(), &cfg).unwrap_err();
        assert_eq!(
            err,
            CapabilityError::RangeScan {
                structure: "nb-bst"
            }
        );
        assert!(err.to_string().contains("nb-bst"));
    }
}
