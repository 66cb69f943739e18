//! The PNB-BST itself: construction, `Insert`, `Delete`, `Find`
//! (paper Figure 5 and Figure 3 lines 69–82), and teardown.
//!
//! The tree is *leaf-oriented*: all elements live in leaves; internal
//! nodes only route. It is *full*: every internal node has exactly two
//! children, maintained by the subtree-replacement shapes of Figure 1.
//! It is *persistent*: replaced nodes stay linked through `prev` pointers
//! so that an operation belonging to phase `i` can reconstruct the
//! version-`i` tree `T_i` (see [`crate::scan`] and [`crate::snapshot`]).

use crossbeam_epoch::{self as epoch, Guard, Shared};
use crossbeam_utils::CachePadded;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, SeqCst};

use crate::arena;
use crate::info::{Info, InfoPtr, NodePtr, OpKind, UpdateWord};
use crate::key::SKey;
use crate::node::Node;
use crate::search::{Located, SearchTriple};
use crate::stats::{Stats, StatsSnapshot};

/// A persistent non-blocking binary search tree supporting wait-free
/// range queries, after Fatourou & Ruppert (SPAA 2019).
///
/// * [`insert`](Self::insert), [`delete`](Self::delete) and
///   [`get`](Self::get)/[`contains`](Self::contains) are lock-free
///   (non-blocking): some operation always completes in a bounded number
///   of steps system-wide, and operations on different parts of the tree
///   do not interfere.
/// * range scans — a [`snapshot`](Self::snapshot) or a lazy
///   [`Handle::range`](crate::Handle::range) — are **wait-free**: every
///   scan completes in a bounded number of its own steps, no matter what
///   other threads do, because it traverses the immutable version-`seq`
///   tree of its phase.
///
/// Keys follow the paper's *set* semantics: inserting a key that is
/// already present fails (returns `false`) rather than replacing the
/// value.
///
/// # Example
///
/// ```
/// use pnb_bst::PnbBst;
///
/// let tree: PnbBst<u64, &str> = PnbBst::new();
/// assert!(tree.insert(2, "two"));
/// assert!(tree.insert(5, "five"));
/// assert!(!tree.insert(2, "again")); // no replace
/// assert_eq!(tree.get(&5), Some("five"));
/// assert_eq!(tree.snapshot().range_scan(&0, &10), vec![(2, "two"), (5, "five")]);
/// assert_eq!(tree.delete(&2), true);
/// assert_eq!(tree.get(&2), None);
/// ```
pub struct PnbBst<K, V> {
    /// The root `Internal` node (key `∞₂`); never changes (Observation 1).
    pub(crate) root: NodePtr<K, V>,
    /// The paper's shared `Counter`: the current phase number. Incremented
    /// only by range scans / snapshots; read at the start of every update
    /// attempt and re-checked by the handshake.
    pub(crate) counter: CachePadded<AtomicU64>,
    /// The per-tree Dummy `Info` object (state permanently `Abort`).
    pub(crate) dummy: InfoPtr<K, V>,
    pub(crate) stats: Stats,
}

// SAFETY: the structure is designed for concurrent use — all shared
// mutable state is behind atomics and the epoch collector; `K`/`V` cross
// threads both in shared reads and in deferred destruction, hence the
// `Send + Sync` bounds on both.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for PnbBst<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for PnbBst<K, V> {}

/// One update, borrowed: the operation [`PnbBst::attempt`] runs. Insert
/// and upsert build the same subtree for an absent key; for a present key
/// an insert decides `false` and an upsert replaces the leaf.
pub(crate) enum Update<'a, K, V> {
    /// Paper `Insert`: set semantics, no replacement.
    Insert(&'a K, &'a V),
    /// Insert, or replace a present key's leaf.
    Upsert(&'a K, &'a V),
    /// Paper `Delete`.
    Delete(&'a K),
}

impl<'a, K, V> Update<'a, K, V> {
    pub(crate) fn key(&self) -> &'a K {
        match *self {
            Update::Insert(k, _) | Update::Upsert(k, _) | Update::Delete(k) => k,
        }
    }
}

/// Where the update retry loop ([`PnbBst::attempt_until`]) stops: an
/// attempt that decided, or one that published. Stopping at the publish
/// is what lets the `testing-internals` pause harness suspend an
/// operation between its publish (first freeze CAS) and its completion
/// while running the production loop.
pub(crate) enum AttemptOutcome<K, V> {
    /// The operation finished read-only, without publishing anything
    /// (duplicate insert / delete of an absent key): it changed nothing.
    /// Linearized at the validated read of the parent's update field.
    Decided,
    /// The attempt published its `Info`: it is now visible to (and
    /// completable by) every thread. The creation reference must be
    /// released by driving it through [`PnbBst::finish_published`].
    Published {
        /// The published `Info`.
        info: InfoPtr<K, V>,
        /// The value the update displaces or removes if this attempt
        /// commits (`None` for an insert).
        old: Option<V>,
    },
}

impl<K, V> Default for PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Create an empty tree: a root with key `∞₂` whose children are the
    /// sentinel leaves `∞₁` and `∞₂` (paper Figure 2, lines 28–31).
    pub fn new() -> Self {
        let dummy: InfoPtr<K, V> = arena::alloc(Info::dummy());
        let left: NodePtr<K, V> =
            arena::alloc(Node::leaf(SKey::Inf1, None, 0, std::ptr::null(), dummy));
        let right: NodePtr<K, V> =
            arena::alloc(Node::leaf(SKey::Inf2, None, 0, std::ptr::null(), dummy));
        let root: NodePtr<K, V> = arena::alloc(Node::internal(
            SKey::Inf2,
            0,
            std::ptr::null(),
            left,
            right,
            dummy,
        ));
        PnbBst {
            root,
            counter: CachePadded::new(AtomicU64::new(0)),
            dummy,
            stats: Stats::default(),
        }
    }

    /// The current phase number (the paper's `Counter`). Mostly useful
    /// for diagnostics and tests: it advances once per range scan or
    /// snapshot.
    pub fn phase(&self) -> u64 {
        // Relaxed: a diagnostic snapshot of a monotone counter — no
        // protocol decision hangs off this read.
        self.counter.load(Relaxed)
    }

    /// Read the tree's counters (always on; monotone, so assert on
    /// deltas).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Read `Counter` at the start of an attempt / read-only pass (paper
    /// lines 74, 155, 177).
    ///
    /// Acquire: the version-`seq` interpretation of the child pointers
    /// loaded by the subsequent search must not float above this read.
    /// Staleness is benign — a commit is only possible after `Help`'s
    /// SeqCst handshake re-confirms the phase — so the scan-handshake
    /// total order is not needed here.
    #[inline]
    pub(crate) fn read_phase(&self) -> u64 {
        self.counter.load(Acquire)
    }

    /// Close the current phase and return its number (paper lines
    /// 130–131, `seq := Counter; Inc(Counter)`, fused into one atomic
    /// fetch-add: unique seqs are a legal tie-break, §5.2.5). Every read
    /// of a tree version starts here — [`snapshot`](Self::snapshot) and
    /// the lazy ranges — so this is also the one place scans are counted.
    pub(crate) fn close_phase(&self) -> u64 {
        self.stats.scans();
        // sc-ok: scan-handshake total order (§4.1) — the scanner half of
        // the store-buffering pair; see `Node::load_update_scan`.
        self.counter.fetch_add(1, SeqCst) // sc-ok: phase close
    }

    /// Insert `key → value`. Returns `true` if the key was absent and was
    /// inserted, `false` if it was already present (the paper's set
    /// semantics — no replacement happens; see [`upsert`](Self::upsert)
    /// for replace-on-collision).
    ///
    /// Lock-free; linearizes at the first freeze CAS of the successful
    /// attempt (if it succeeds) or at the validated read of the parent's
    /// update field (if the key was present).
    ///
    /// Compat wrapper: pins and drops an epoch guard per call. Hot loops
    /// should use a pinned session ([`pin`](Self::pin)) instead.
    pub fn insert(&self, key: K, value: V) -> bool {
        let guard = &epoch::pin();
        self.insert_in(&key, &value, guard)
    }

    /// Insert or replace `key → value` atomically, returning the
    /// previously stored value (`None` if the key was absent).
    ///
    /// The replace case is a new one-leaf subtree-replacement shape run
    /// through the same freeze-validate-CAS protocol as `Insert`/`Delete`
    /// (freeze the parent with *Flag* and the old leaf with *Mark*, then
    /// swing the child pointer to a fresh leaf whose `prev` is the old
    /// one), so the paper's linearization and non-blocking arguments
    /// carry over unchanged: the operation linearizes at the first freeze
    /// CAS of its successful attempt, and version-`seq` readers keep
    /// seeing the old leaf through the `prev` chain.
    ///
    /// Compat note: prefer [`Handle::upsert`](crate::Handle::upsert) in
    /// hot loops — this wrapper pins an epoch guard per call.
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        let guard = &epoch::pin();
        self.upsert_in(&key, &value, guard)
    }

    /// Remove `key`, returning `true` if it was present.
    ///
    /// Compat wrapper: pins per call; see [`pin`](Self::pin).
    pub fn delete(&self, key: &K) -> bool {
        self.remove(key).is_some()
    }

    /// Remove `key`, returning its value if it was present.
    ///
    /// Compat wrapper: pins per call; see [`pin`](Self::pin).
    pub fn remove(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        self.remove_in(key, guard)
    }

    /// Look up `key` (the paper's `Find`, lines 69–82). Returns a clone
    /// of the stored value.
    ///
    /// Helps at most the updates pending on the parent/grandparent of the
    /// leaf it arrives at (the paper's lightweight helping).
    ///
    /// Compat wrapper: pins per call; see [`pin`](Self::pin).
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        self.get_in(key, guard)
    }

    /// Whether `key` is in the set.
    ///
    /// Compat wrapper: pins per call; see [`pin`](Self::pin).
    pub fn contains(&self, key: &K) -> bool {
        let guard = &epoch::pin();
        self.contains_in(key, guard)
    }

    /// [`get`](Self::get) under a caller-provided guard (the session hot
    /// path — no per-op pin).
    pub(crate) fn get_in(&self, key: &K, guard: &Guard) -> Option<V> {
        let leaf = self.find(key, || self.search_now(key, guard), guard);
        leaf?.value().cloned()
    }

    /// [`contains`](Self::contains) under a caller-provided guard.
    pub(crate) fn contains_in(&self, key: &K, guard: &Guard) -> bool {
        let leaf = self.find(key, || self.search_now(key, guard), guard);
        leaf.is_some()
    }

    /// [`insert`](Self::insert) under a caller-provided guard.
    pub(crate) fn insert_in(&self, key: &K, value: &V, guard: &Guard) -> bool {
        let op = Update::Insert(key, value);
        let done = self.drive(&op, || self.search_now(key, guard), guard);
        done.is_some()
    }

    /// [`remove`](Self::remove) under a caller-provided guard.
    pub(crate) fn remove_in(&self, key: &K, guard: &Guard) -> Option<V> {
        let op = Update::Delete(key);
        let done = self.drive(&op, || self.search_now(key, guard), guard);
        done.flatten()
    }

    /// [`upsert`](Self::upsert) under a caller-provided guard.
    pub(crate) fn upsert_in(&self, key: &K, value: &V, guard: &Guard) -> Option<V> {
        let op = Update::Upsert(key, value);
        let done = self.drive(&op, || self.search_now(key, guard), guard);
        done.flatten()
    }

    /// Paper `Find` (lines 69–82), the one validated read behind `get`,
    /// `contains`, `multi_get` and a batch's `Get`: locate `key`'s leaf
    /// and validate it, until a validation succeeds. Returns the leaf iff
    /// it holds `key`; linearized at the successful validation.
    ///
    /// Each call of `locate()` returns a phase `seq` read from `Counter`
    /// and the `(gp, p, l)` that `Search(key, seq)` reached (lines 74–75):
    /// [`search_now`](Self::search_now) for a singleton; for a batch, the
    /// lock-step search on the first call and the shared re-descent after.
    pub(crate) fn find<'g>(
        &self,
        key: &K,
        mut locate: impl FnMut() -> Located<'g, K, V>,
        guard: &'g Guard,
    ) -> Option<&'g Node<K, V>> {
        self.stats.finds();
        loop {
            let (_, (gp, p, l)) = locate();
            // SAFETY: a located p and l are non-null (Invariant 4.7).
            let (p_ref, l_ref) = unsafe { (p.deref(), l.deref()) };
            if self.validate_leaf(gp, p_ref, l, key, guard).is_some() {
                return l_ref.key.fin_eq(key).then_some(l_ref);
            }
            self.stats.validation_failures();
        }
    }

    /// Run `op` to completion (paper `Insert` and `Delete`, lines
    /// 147–195, and `Upsert`): help each published attempt to its
    /// decision and retry an aborted one. `None` if the update decided
    /// without changing the tree (a duplicate insert or an absent
    /// delete); `Some(old)` once it committed, with the value it
    /// displaced or removed. `locate` is as for [`find`](Self::find).
    pub(crate) fn drive<'g>(
        &self,
        op: &Update<'_, K, V>,
        locate: impl FnMut() -> Located<'g, K, V>,
        guard: &'g Guard,
    ) -> Option<Option<V>> {
        match self.attempt_until(op, locate, |info| self.finish_published(info, guard), guard) {
            AttemptOutcome::Decided => None,
            AttemptOutcome::Published { old, .. } => Some(old),
        }
    }

    /// The update retry loop (the paper's `repeat … until` around one
    /// attempt): run [`attempt`](Self::attempt)s of `op` until one
    /// decides, or publishes and `finish` returns `true`. `finish` takes
    /// over each published attempt's creation reference and returns
    /// `false` to retry: [`drive`](Self::drive) helps the attempt and
    /// retries an abort; the pause harness stops at the first publish.
    pub(crate) fn attempt_until<'g>(
        &self,
        op: &Update<'_, K, V>,
        mut locate: impl FnMut() -> Located<'g, K, V>,
        mut finish: impl FnMut(InfoPtr<K, V>) -> bool,
        guard: &'g Guard,
    ) -> AttemptOutcome<K, V> {
        match op {
            Update::Insert(..) => self.stats.inserts(),
            Update::Upsert(..) => self.stats.upserts(),
            Update::Delete(_) => self.stats.deletes(),
        }
        loop {
            let (seq, triple) = locate(); // lines 155 and 177, then Search
            match self.attempt(op, triple, seq, guard) {
                Some(AttemptOutcome::Published { info, .. }) if !finish(info) => {}
                Some(outcome) => return outcome,
                None => {}
            }
        }
    }

    /// One update attempt (paper lines 147–195, one pass of the loop)
    /// from the `(gp, p, l)` located in phase `seq`, validation onward.
    /// The triple may be stale — validation is the safety net either way.
    /// `None` if the attempt failed before publishing (stale validation
    /// or a lost first freeze CAS).
    pub(crate) fn attempt(
        &self,
        op: &Update<'_, K, V>,
        (gp, p, l): SearchTriple<'_, K, V>,
        seq: u64,
        guard: &Guard,
    ) -> Option<AttemptOutcome<K, V>> {
        self.stats.update_attempts();
        let key = op.key();
        // SAFETY: non-null per Invariants 4.8 and 4.9.
        let (p_ref, l_ref) = unsafe { (p.deref(), l.deref()) };
        let Some((gpupdate, pupdate)) = self.validate_leaf(gp, p_ref, l, key, guard) else {
            self.stats.validation_failures();
            return None;
        };
        let present = l_ref.key.fin_eq(key);
        let (kind, new_child, old) = match *op {
            // Line 159: a duplicate; line 181: an absent key.
            Update::Insert(..) if present => return Some(AttemptOutcome::Decided),
            Update::Delete(_) if !present => return Some(AttemptOutcome::Decided),
            Update::Delete(_) => {
                // `l.key == k` is finite, so p != Root and gp is non-null
                // (Invariant 4.9) and gpupdate was produced by validation.
                let gpupdate = gpupdate.expect("gp validated when l.key is finite");
                // Locate the sibling in T_seq (line 182): if l is the right
                // child (l.key >= p.key) the sibling is the left child.
                let sib_is_left = !p_ref.key.fin_lt(key); // l.key >= p.key ⟺ !(k < p.key)
                let mut hops = 0;
                let sibling = self.read_child(p_ref, sib_is_left, seq, guard, &mut hops);
                self.stats.search_prev_hops(hops);
                // Line 183: sibling must be the *current* child of p.
                let Some(_) = self.validate_link(p_ref, sibling, sib_is_left, guard) else {
                    self.stats.validation_failures();
                    return None;
                };
                let (new_node, supdate) = self.copy_sibling(p_ref, sibling, seq, guard)?;
                // Capture the value before the leaf may be retired.
                let removed = l_ref.value().cloned();
                let nodes = [gp.as_raw(), p.as_raw(), l.as_raw(), sibling.as_raw()];
                let l_update = l_ref.load_update(guard); // read at call site (line 190)
                let old_update = [gpupdate, pupdate, l_update, supdate];
                let info =
                    self.execute(OpKind::Delete, &nodes, &old_update, new_node, seq, guard)?;
                return Some(AttemptOutcome::Published { info, old: removed });
            }
            Update::Upsert(_, value) if present => {
                // Replace shape: one fresh leaf, prev = the old leaf, so
                // version-`seq` readers still reach the displaced value.
                let new_leaf: NodePtr<K, V> = arena::alloc(Node::leaf(
                    SKey::Fin(key.clone()),
                    Some(value.clone()),
                    seq,
                    l.as_raw(),
                    self.dummy,
                ));
                (OpKind::Replace, new_leaf, l_ref.value().cloned())
            }
            Update::Insert(_, value) | Update::Upsert(_, value) => {
                let new_internal = self.build_insert_subtree(key, value, l_ref, l.as_raw(), seq);
                (OpKind::Insert, new_internal, None)
            }
        };
        let l_update = l_ref.load_update(guard); // read at call site (line 164)
        let nodes = [p.as_raw(), l.as_raw()];
        let old_update = [pupdate, l_update];
        let info = self.execute(kind, &nodes, &old_update, new_child, seq, guard)?;
        Some(AttemptOutcome::Published { info, old })
    }

    /// The two fresh leaves + internal node of an insert's replacement
    /// subtree (paper lines 161–163): the internal node's prev is `l`.
    fn build_insert_subtree(
        &self,
        key: &K,
        value: &V,
        l_ref: &Node<K, V>,
        l_raw: NodePtr<K, V>,
        seq: u64,
    ) -> NodePtr<K, V> {
        let new_leaf: NodePtr<K, V> = arena::alloc(Node::leaf(
            SKey::Fin(key.clone()),
            Some(value.clone()),
            seq,
            std::ptr::null(),
            self.dummy,
        ));
        let sibling_leaf: NodePtr<K, V> = arena::alloc(Node::leaf(
            l_ref.key.clone(),
            l_ref.value().cloned(),
            seq,
            std::ptr::null(),
            self.dummy,
        ));
        // Smaller key goes left; the internal node takes the larger key.
        let key_lt_leaf = l_ref.key.fin_lt(key); // k < l.key
        let (lc, rc) = if key_lt_leaf {
            (new_leaf, sibling_leaf)
        } else {
            (sibling_leaf, new_leaf)
        };
        let internal_key = std::cmp::max(SKey::Fin(key.clone()), l_ref.key.clone());
        arena::alloc(Node::internal(internal_key, seq, l_raw, lc, rc, self.dummy))
    }

    /// A delete's replacement (paper lines 185–189): a copy of `p`'s
    /// child `sibling` with `seq` and prev = `p`, and the sibling's
    /// update word. `None` if a child link it copies is no longer current.
    fn copy_sibling(
        &self,
        p_ref: &Node<K, V>,
        sibling: Shared<'_, Node<K, V>>,
        seq: u64,
        guard: &Guard,
    ) -> Option<(NodePtr<K, V>, UpdateWord<K, V>)> {
        // SAFETY: the sibling came from read_child, which returns
        // non-null (Invariant 4.5).
        let sib_ref = unsafe { sibling.deref() };
        // Build the replacement: a copy of the sibling with seq = seq
        // and prev = p (line 185). Sharing the sibling's children is
        // safe because the sibling is frozen before the child CAS.
        let new_node: NodePtr<K, V> = if sib_ref.is_leaf() {
            arena::alloc(Node::leaf(
                sib_ref.key.clone(),
                sib_ref.value().cloned(),
                seq,
                p_ref,
                self.dummy,
            ))
        } else {
            let sl = sib_ref.load_child(true, guard);
            let sr = sib_ref.load_child(false, guard);
            arena::alloc(Node::internal(
                sib_ref.key.clone(),
                seq,
                p_ref,
                sl.as_raw(),
                sr.as_raw(),
                self.dummy,
            ))
        };
        // Lines 186–189: obtain supdate, validating that the copied
        // children are still the sibling's current children.
        let supdate: UpdateWord<K, V> = if !sib_ref.is_leaf() {
            // SAFETY: new_node was just allocated by us.
            let nn = unsafe { &*new_node };
            let nl = nn.load_child(true, guard);
            let nr = nn.load_child(false, guard);
            let first = self.validate_link(sib_ref, nl, true, guard);
            let ok = match first {
                Some(up) => self.validate_link(sib_ref, nr, false, guard).map(|_| up),
                None => None,
            };
            match ok {
                Some(up) => up,
                None => {
                    self.stats.validation_failures();
                    // Never published: no other thread has seen
                    // new_node — recycle it immediately.
                    arena::free_now(new_node as *mut Node<K, V>);
                    return None;
                }
            }
        } else {
            sib_ref.load_update(guard) // line 189
        };
        Some((new_node, supdate))
    }
}

impl<K, V> Drop for PnbBst<K, V> {
    fn drop(&mut self) {
        // We have `&mut self`: no operation is in flight, so the *current*
        // tree (child pointers only — every prev-target was already
        // retired through the epoch collector when it was unlinked) plus
        // the dummy Info are exactly what we still own.
        // All orderings Relaxed: `&mut self` proves quiescence — no
        // concurrent access exists to order against.
        unsafe {
            let guard = epoch::unprotected();
            let mut stack: Vec<NodePtr<K, V>> = vec![self.root];
            while let Some(ptr) = stack.pop() {
                let node = &*ptr;
                // Release the Info reference held by this node's update
                // field.
                let info = node.update_word().load(Relaxed, guard).as_raw();
                if !std::ptr::eq(info, self.dummy) {
                    let i = &*info;
                    debug_assert!(
                        !i.retired.load(Relaxed),
                        "live node references a retired Info"
                    );
                    if i.refs.fetch_sub(1, Relaxed) == 1 {
                        arena::free_now(info as *mut Info<K, V>);
                    }
                }
                if !node.is_leaf() {
                    stack.push(node.child_word(true).load(Relaxed, guard).as_raw());
                    stack.push(node.child_word(false).load(Relaxed, guard).as_raw());
                }
                arena::free_now(ptr as *mut Node<K, V>);
            }
            arena::free_now(self.dummy as *mut Info<K, V>);
        }
    }
}

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Walk the current tree and verify structural invariants: full
    /// (internal ⇒ two children), leaf-oriented BST ordering (paper
    /// Invariant 36 for `T_∞`), sentinel placement, and monotone `seq`
    /// bounds. Returns the number of finite keys.
    ///
    /// Intended for tests at quiescent points (a concurrent walk may span
    /// several versions and report spurious violations).
    #[doc(hidden)]
    pub fn check_invariants(&self) -> usize {
        let guard = &epoch::pin();
        // Acquire: this walk is meant for quiescent points; Acquire
        // keeps the seq bound read ordered before the child loads.
        let counter = self.counter.load(Acquire);
        let mut count = 0usize;
        // (node, lower bound exclusive?, upper bound) — keys in a left
        // subtree are < parent key; right subtree keys are >= parent key.
        type Frame<'g, K, V> = (Shared<'g, Node<K, V>>, Option<SKey<K>>, Option<SKey<K>>);
        let mut stack: Vec<Frame<'_, K, V>> = vec![(Shared::from(self.root), None, None)];
        while let Some((n, lo, hi)) = stack.pop() {
            assert!(!n.is_null(), "null child in current tree");
            // SAFETY: reachable from root under our guard.
            let node = unsafe { n.deref() };
            assert!(node.seq <= counter, "node seq exceeds Counter");
            if let Some(lo) = &lo {
                assert!(node.key >= *lo, "BST violation: key below lower bound");
            }
            if let Some(hi) = &hi {
                assert!(node.key < *hi, "BST violation: key above upper bound");
            }
            if node.is_leaf() {
                if node.key.is_finite() {
                    assert!(node.value().is_some(), "finite leaf without value");
                    count += 1;
                }
            } else {
                let l = node.load_child(true, guard);
                let r = node.load_child(false, guard);
                assert!(!l.is_null() && !r.is_null(), "internal node not full");
                stack.push((l, lo.clone(), Some(node.key.clone())));
                stack.push((r, Some(node.key.clone()), hi));
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_shape() {
        let t: PnbBst<i64, ()> = PnbBst::new();
        assert_eq!(t.check_invariants(), 0);
        assert_eq!(t.phase(), 0);
        assert!(!t.contains(&7));
        assert_eq!(t.get(&7), None);
    }

    #[test]
    fn insert_then_find() {
        let t: PnbBst<i64, String> = PnbBst::new();
        assert!(t.insert(10, "ten".into()));
        assert!(t.insert(5, "five".into()));
        assert!(t.insert(20, "twenty".into()));
        assert_eq!(t.get(&10), Some("ten".to_string()));
        assert_eq!(t.get(&5), Some("five".to_string()));
        assert_eq!(t.get(&20), Some("twenty".to_string()));
        assert_eq!(t.get(&15), None);
        assert_eq!(t.check_invariants(), 3);
    }

    #[test]
    fn duplicate_insert_fails() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        assert!(t.insert(1, 100));
        assert!(!t.insert(1, 200));
        // Set semantics: the original value survives.
        assert_eq!(t.get(&1), Some(100));
        assert_eq!(t.check_invariants(), 1);
    }

    #[test]
    fn delete_leaf_and_missing() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        assert!(!t.delete(&3)); // absent from empty tree
        t.insert(3, 30);
        t.insert(1, 10);
        t.insert(4, 40);
        assert_eq!(t.remove(&3), Some(30));
        assert!(!t.contains(&3));
        assert!(!t.delete(&3)); // already gone
        assert!(t.contains(&1) && t.contains(&4));
        assert_eq!(t.check_invariants(), 2);
    }

    #[test]
    fn delete_down_to_empty_and_reinsert() {
        let t: PnbBst<u32, u32> = PnbBst::new();
        for k in 0..20 {
            assert!(t.insert(k, k * 2));
        }
        for k in 0..20 {
            assert_eq!(t.remove(&k), Some(k * 2));
        }
        assert_eq!(t.check_invariants(), 0);
        for k in 0..20 {
            assert!(t.insert(k, k + 1));
        }
        assert_eq!(t.check_invariants(), 20);
        for k in 0..20 {
            assert_eq!(t.get(&k), Some(k + 1));
        }
    }

    #[test]
    fn interleaved_sequence_matches_btreemap() {
        use std::collections::BTreeMap;
        let t: PnbBst<i32, i32> = PnbBst::new();
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random walk.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 64) as i32;
            match step % 3 {
                0 => {
                    let expect = !model.contains_key(&k);
                    assert_eq!(t.insert(k, step), expect, "insert {k} at {step}");
                    model.entry(k).or_insert(step);
                }
                1 => {
                    let expect = model.remove(&k);
                    assert_eq!(t.remove(&k), expect, "remove {k} at {step}");
                }
                _ => {
                    assert_eq!(t.get(&k), model.get(&k).copied(), "get {k} at {step}");
                }
            }
        }
        assert_eq!(t.check_invariants(), model.len());
    }

    #[test]
    fn upsert_inserts_then_replaces() {
        let t: PnbBst<u32, String> = PnbBst::new();
        assert_eq!(t.upsert(1, "a".into()), None);
        assert_eq!(t.upsert(1, "b".into()), Some("a".into()));
        assert_eq!(t.upsert(1, "c".into()), Some("b".into()));
        assert_eq!(t.get(&1), Some("c".into()));
        assert_eq!(t.check_invariants(), 1);
        // Mixed with set-semantics insert: insert still refuses.
        assert!(!t.insert(1, "d".into()));
        assert_eq!(t.get(&1), Some("c".into()));
    }

    #[test]
    fn upsert_replace_preserves_old_versions() {
        // The replace shape links prev to the old leaf, so a snapshot
        // taken before the upsert must keep seeing the old value.
        let t: PnbBst<u32, u32> = PnbBst::new();
        t.insert(7, 70);
        let snap = t.snapshot();
        assert_eq!(t.upsert(7, 71), Some(70));
        assert_eq!(t.upsert(7, 72), Some(71));
        assert_eq!(snap.get(&7), Some(70));
        assert_eq!(t.get(&7), Some(72));
    }

    #[test]
    fn upsert_interleaved_matches_btreemap() {
        use std::collections::BTreeMap;
        let t: PnbBst<i32, i32> = PnbBst::new();
        let mut model = BTreeMap::new();
        let mut x: u64 = 0xC0FFEE;
        for step in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 48) as i32;
            match step % 4 {
                0 => {
                    assert_eq!(t.upsert(k, step), model.insert(k, step), "upsert {k}");
                }
                1 => {
                    let expect = !model.contains_key(&k);
                    assert_eq!(t.insert(k, step), expect);
                    model.entry(k).or_insert(step);
                }
                2 => {
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
                _ => {
                    assert_eq!(t.get(&k), model.get(&k).copied());
                }
            }
        }
        assert_eq!(t.check_invariants(), model.len());
    }

    #[test]
    fn concurrent_upserts_on_one_key_are_atomic() {
        // Every committed replace displaces exactly one value: across N
        // upserts of one key, the multiset {initial, returns...} ∪ {final}
        // must chain (each thread's displaced value was someone's write).
        use std::sync::Arc;
        let t = Arc::new(PnbBst::<u32, u64>::new());
        t.insert(9, 0);
        let per_thread = 500u64;
        let writes: Vec<u64> = (0..4u64)
            .flat_map(|w| (0..per_thread).map(move |i| (w << 32) | (i + 1)))
            .collect();
        let displaced: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4u64)
                .map(|w| {
                    let t = Arc::clone(&t);
                    s.spawn(move || {
                        let h = t.pin();
                        (0..per_thread)
                            .map(|i| h.upsert(9, (w << 32) | (i + 1)).expect("key stays present"))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let last = t.get(&9).unwrap();
        // {0} ∪ writes == displaced ∪ {last}: every write is displaced
        // exactly once except the final survivor.
        let mut lhs: Vec<u64> = std::iter::once(0).chain(writes).collect();
        let mut rhs: Vec<u64> = displaced.into_iter().chain(std::iter::once(last)).collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs);
        assert_eq!(t.check_invariants(), 1);
    }

    #[test]
    fn drop_reclaims_nontrivial_tree() {
        // Mostly a miri/asan canary: build, mutate, drop.
        let t: PnbBst<u64, Vec<u8>> = PnbBst::new();
        for k in 0..200 {
            t.insert(k, vec![k as u8; 3]);
        }
        for k in (0..200).step_by(2) {
            t.delete(&k);
        }
        drop(t);
    }

    #[test]
    fn keys_and_values_drop_exactly_once() {
        // The node's tail is a union and its blocks are recycled raw, so
        // nothing but `Drop for Node` stands between a key or value and
        // a leak or a double drop. Count every construction and drop.
        use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
        static LIVE: AtomicIsize = AtomicIsize::new(0);
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Counted(Box<u32>);
        impl Counted {
            fn new(x: u32) -> Self {
                LIVE.fetch_add(1, Relaxed);
                Counted(Box::new(x))
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(*self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Relaxed);
            }
        }

        let t: PnbBst<Counted, Counted> = PnbBst::new();
        for k in 0..64 {
            assert!(t.insert(Counted::new(k), Counted::new(k)));
        }
        for k in 0..32 {
            // Replace shape, then (odd keys) both delete shapes: the
            // sibling copied is sometimes a leaf, sometimes internal.
            assert!(t.upsert(Counted::new(k), Counted::new(k + 1)).is_some());
            if k % 2 == 1 {
                assert!(t.remove(&Counted::new(k)).is_some());
            }
        }
        {
            // The abort path: a replacement subtree built, never
            // published, freed on the spot (two leaves + an internal).
            let guard = &epoch::pin();
            let (key, value) = (Counted::new(1000), Counted::new(1000));
            let (_, _, l) = t.search(&key, t.read_phase(), guard);
            let l_ref = unsafe { l.deref() };
            let sub = t.build_insert_subtree(&key, &value, l_ref, l.as_raw(), 0);
            t.free_unpublished_new_child(OpKind::Insert, sub);
        }
        assert_eq!(t.check_invariants(), 48);
        drop(t);
        // Retired nodes drop when their bag ripens; sibling tests pin.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while LIVE.load(Relaxed) != 0 && std::time::Instant::now() < deadline {
            crate::collector_drain(1);
            std::thread::yield_now();
        }
        assert_eq!(LIVE.load(Relaxed), 0, "constructed minus dropped");
    }

    #[test]
    fn retained_info_bytes_per_key() {
        // A decided attempt's header lives on in the `update` word of
        // every node it flagged until another attempt displaces it (the
        // word can never go back to the Dummy: that is the paper's ABA
        // guard), so a churned tree keeps about two for every three keys.
        // Its body went back to the pools at the decision. Count them.
        use std::collections::HashSet;
        const KEYS: u64 = 1 << 17;
        let t: PnbBst<u64, u64> = PnbBst::new();
        let mut x: u64 = 0x1F0_5EED;
        let mut next_key = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % KEYS
        };
        for _ in 0..50_000 {
            let k = next_key();
            t.insert(k, k);
        }
        let h = t.pin();
        for step in 0..200_000 {
            let k = next_key();
            let _ = match step % 3 {
                0 => h.insert(k, k),
                1 => h.delete(&k),
                _ => h.get(&k).is_some(),
            };
        }
        drop(h);
        let guard = &epoch::pin();
        let mut infos = HashSet::new();
        let mut stack = vec![t.root];
        while let Some(ptr) = stack.pop() {
            // SAFETY: reachable from the root under our guard; quiescent.
            let node = unsafe { &*ptr };
            let info = node.load_update(guard).info();
            if !std::ptr::eq(info, t.dummy) {
                infos.insert(info);
            }
            if !node.is_leaf() {
                stack.push(node.load_child(true, guard).as_raw());
                stack.push(node.load_child(false, guard).as_raw());
            }
        }
        let keys = t.check_invariants();
        let per_key = (infos.len() * std::mem::size_of::<Info<u64, u64>>()) as f64 / keys as f64;
        println!(
            "{} live Infos under {keys} keys ({:.3} per key): {per_key:.1} B/key",
            infos.len(),
            infos.len() as f64 / keys as f64
        );
        assert!(per_key <= 12.0, "{per_key:.1} B of Info per key");
    }

    #[test]
    fn negative_and_extreme_keys() {
        let t: PnbBst<i64, i64> = PnbBst::new();
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert!(t.insert(k, k));
        }
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(t.get(&k), Some(k));
        }
        assert_eq!(t.check_invariants(), 5);
        assert_eq!(t.remove(&i64::MAX), Some(i64::MAX));
        assert_eq!(t.remove(&i64::MIN), Some(i64::MIN));
        assert_eq!(t.check_invariants(), 3);
    }
}
