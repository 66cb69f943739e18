//! `Execute`, `Help` and `CAS-Child` (paper Figure 4, lines 83–128) plus
//! the reclamation machinery the paper leaves to a garbage collector.
//!
//! An update attempt proceeds as:
//!
//! 1. `execute` re-checks that none of the expected old update words is
//!    frozen (helping any that are), allocates the `Info` object and
//!    *publishes* it with the first freeze CAS (flagging `nodes[0]`). The
//!    operation is linearized here if it ultimately commits.
//! 2. `help` — runnable by *any* thread holding the `Info` — performs the
//!    handshake (abort if `Counter` moved since the attempt began, §4.1),
//!    freezes the remaining nodes in order, swings the child pointer, and
//!    resolves the state to `Commit` or `Abort`.
//!
//! # Reclamation protocol (see DESIGN.md §3)
//!
//! * Whoever wins the child CAS retires the unlinked nodes (they are
//!   precisely the permanently-marked ones).
//! * Info objects are reference-counted by node-update-field references
//!   plus one creation reference; `dec_ref` retires at zero, idempotently.
//! * A replacement subtree that never became reachable (attempt failed or
//!   aborted) is freed by its creator — immediately if the `Info` was
//!   never published, deferred otherwise.
//! * Every allocation comes from the per-thread arena pools
//!   ([`crate::arena`]) and every retirement flows back into them via
//!   `defer_recycle`, so a steady-state update loop touches the global
//!   allocator only on pool misses.
//!
//! # Memory orderings
//!
//! The blanket `SeqCst` of the first port is gone; each atomic site now
//! carries the weakest ordering its proof obligation permits, with a
//! one-line invariant comment. `SeqCst` survives only on the scan
//! handshake's store-buffering pair (`sc-ok:` tags; see DESIGN.md §3.5
//! for the full site table).

use crossbeam_epoch::{Guard, Shared};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

use crate::arena;
use crate::info::{state, FreezeTag, Info, InfoPtr, NodePtr, OpKind, UpdateWord};
use crate::node::{word_shared, Node};
use crate::tree::PnbBst;

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Paper `Execute` (lines 92–106) up to and including the first
    /// freeze CAS. The `Help`/cleanup half lives in
    /// [`finish_published`](Self::finish_published) so the fault-injection
    /// harness can suspend an attempt between the two.
    ///
    /// `nodes`/`old_update` are in freeze order; the child CAS swings
    /// `nodes[0]`'s child `nodes[1]` to `new_child`, `nodes[0]` is
    /// flagged and the rest marked (the paper's `par`, `oldChild` and
    /// `mark`, derived — see [`Info`]).
    ///
    /// Takes ownership of `new_child` (for inserts: including its two
    /// fresh leaves) and frees it on failure.
    ///
    /// Returns `None` if the attempt failed pre-publish (a frozen old
    /// word, or the first freeze CAS lost); the replacement subtree has
    /// been freed. `Some(info)` once the first freeze CAS succeeded: the
    /// attempt is visible to every other thread, any of them may now
    /// complete or abort it, and the creator must drive it to a decision
    /// with [`finish_published`](Self::finish_published) — immediately in
    /// production, after an arbitrary delay in the fault-injection
    /// harness, where the gap models a crash.
    pub(crate) fn execute(
        &self,
        kind: OpKind,
        nodes: &[NodePtr<K, V>],
        old_update: &[UpdateWord<K, V>],
        new_child: NodePtr<K, V>,
        seq: u64,
        guard: &Guard,
    ) -> Option<InfoPtr<K, V>> {
        // Lines 96–101: nothing we are about to freeze may currently be
        // frozen; help in-progress operations before failing.
        for &u in old_update {
            if self.frozen(u) {
                // SAFETY: `u.info()` valid under guard (see `frozen`).
                // Acquire: must see the Info's fields before Help
                // dereferences them (pairs with the freeze-CAS publish).
                let st = unsafe { (*u.info()).state.load(Acquire) };
                if st == state::UNDECIDED || st == state::TRY {
                    self.stats.helps();
                    self.help(u.info(), guard);
                }
                self.free_unpublished_new_child(kind, new_child);
                return None;
            }
        }
        // Line 102: allocate the Info object (refs = 1: creation ref)
        // from the thread-local arena.
        let info: InfoPtr<K, V> = arena::alloc(Info::new(kind, nodes, old_update, new_child, seq));
        // Line 103: first freeze CAS — flag nodes[0]. Increment the
        // prospective field reference *before* the CAS so the count can
        // never dip below the number of live references.
        // SAFETY: we own `info` until it is published.
        // Relaxed: pre-publish, the count is still creation-owned; the
        // publishing CAS below is what transfers it to other threads.
        unsafe { (*info).refs.fetch_add(1, Relaxed) };
        // SAFETY: nodes[0] is reachable (returned by search) and pinned.
        let first = unsafe { &*nodes[0] };
        let new_word = Shared::from(info).with_tag(FreezeTag::Flag.bit());
        match first.update_word().compare_exchange(
            word_shared(old_update[0]),
            new_word,
            // sc-ok: scan-handshake total order (§4.1). This publish is
            // the updater half of the store-buffering pair — it must be
            // SeqCst-ordered against the scan's Counter fetch_add so
            // that an attempt whose handshake read `Counter == seq` is
            // guaranteed visible to the phase-closing scan's traversal.
            // (It also Release-publishes the Info's fields, as any
            // publication CAS must.)
            SeqCst, // sc-ok: scan-handshake publish (see above)
            // Relaxed failure: the observed word is discarded (we free
            // and retry), never dereferenced.
            Relaxed,
            guard,
        ) {
            Ok(_) => {
                // Published. The displaced word loses its field reference.
                self.dec_ref(old_update[0].info(), guard);
                Some(info)
            }
            Err(_) => {
                self.stats.freeze_cas_failures();
                // Never published: we are the only owner of both the Info
                // and the replacement subtree — recycle immediately.
                arena::free_now(info as *mut Info<K, V>);
                self.free_unpublished_new_child(kind, new_child);
                None
            }
        }
    }

    /// Drive a *published* attempt to completion: run `Help`, clean up the
    /// replacement subtree if the attempt aborted, and release the
    /// creation reference. Returns whether the attempt committed.
    ///
    /// Also the body of `PausedUpdate::resume` in the testing API.
    pub(crate) fn finish_published(&self, info: InfoPtr<K, V>, guard: &Guard) -> bool {
        let committed = self.help(info, guard);
        if !committed {
            // The replacement subtree never became reachable (Lemma 10:
            // aborted attempts perform no child CAS); defer-free it. Only
            // the creator does this, exactly once.
            // SAFETY: we hold the creation reference, so `info` is alive.
            let (kind, new_child) = unsafe { ((*info).kind, (*info).new_child) };
            self.defer_free_new_child(kind, new_child, guard);
        }
        self.dec_ref(info, guard); // release the creation reference
        committed
    }

    /// Paper `Help(infp)` (lines 107–128). Returns `true` iff the attempt
    /// committed. Callable by any thread; precondition: `infp` is
    /// published and is not the Dummy.
    pub(crate) fn help(&self, infp: InfoPtr<K, V>, guard: &Guard) -> bool {
        debug_assert!(!std::ptr::eq(infp, self.dummy), "Help(Dummy) is forbidden");
        // SAFETY: published Info objects are retired only through the
        // epoch collector; the caller is pinned.
        let info = unsafe { &*infp };

        // Lines 111–113: the handshake. If Counter moved past our phase a
        // range scan may already have traversed (and missed) the part of
        // the tree we are updating — pro-actively abort.
        //
        // sc-ok: scan-handshake total order (§4.1). This re-read is the
        // updater half of the store-buffering pair: if it misses the
        // scan's SeqCst fetch_add, the SeqCst total order forces the
        // scan's later update-word loads to observe our publish CAS (and
        // help us); if it sees the increment, we abort. Both missing —
        // the lost-update outcome — is exactly what SC on all four
        // accesses excludes.
        let counter_now = self.counter.load(SeqCst); // sc-ok: handshake re-read
        if counter_now != info.seq {
            // AcqRel success: the Abort decision gates frees of the
            // replacement subtree; it must not advance before the
            // handshake read nor let later cleanup sink above it.
            // Relaxed failure: the racing transition wins, we re-read
            // state below.
            if info
                .state
                .compare_exchange(state::UNDECIDED, state::ABORT, AcqRel, Relaxed)
                .is_ok()
            {
                self.stats.handshake_aborts();
            }
        } else {
            // AcqRel: Try gates the freeze loop; see state-machine note
            // in DESIGN.md §3.5 (all state transitions are AcqRel so a
            // reader that observes a decision also observes everything
            // sequenced before it — notably the child CAS before
            // Commit).
            let _ = info
                .state
                .compare_exchange(state::UNDECIDED, state::TRY, AcqRel, Relaxed);
        }
        // Line 114. Acquire: pairs with the AcqRel transitions above (a
        // helper may have decided the state concurrently).
        let mut cont = info.state.load(Acquire) == state::TRY;

        // Lines 115–121: freeze the remaining nodes, in order.
        let mut i = 1;
        while cont && i < info.len() {
            // SAFETY: nodes in a published Info stay reachable while the
            // attempt is undecided (they are frozen or about to be), and
            // we are pinned.
            let node = unsafe { &*info.nodes[i] };
            let tag = if info.is_mark(i) {
                FreezeTag::Mark
            } else {
                FreezeTag::Flag
            };
            // Increment-before-CAS (see module docs). Relaxed: we
            // already hold a reference to `info` (it is published), so
            // this is the Arc::clone pattern — no ordering needed to
            // *take* a reference, only to release one.
            info.refs.fetch_add(1, Relaxed);
            match node.update_word().compare_exchange(
                word_shared(info.old_update(i)),
                Shared::from(infp).with_tag(tag.bit()),
                // Release: publishes nothing new (the Info is already
                // published) but must not sink below the `cont` re-read;
                // Release on the RMW also keeps the freeze ordered
                // before the child CAS for helpers that observe it.
                Release,
                // Relaxed failure: the observed word is not dereferenced
                // (the `cont` re-read below decides by pointer equality).
                Relaxed,
                guard,
            ) {
                Ok(_) => {
                    // Reference transferred from the displaced word.
                    self.dec_ref(info.old_update(i).info(), guard);
                }
                Err(_) => {
                    self.stats.freeze_cas_failures();
                    self.dec_ref(infp, guard); // undo the speculative inc
                }
            }
            // Line 119: somebody (us or a fellow helper) must have frozen
            // this node for `info`, whatever the tag. Acquire: same-
            // location coherence after our RMW makes the value current;
            // Acquire keeps the subsequent child CAS from hoisting above
            // the confirmation that every freeze landed.
            cont = std::ptr::eq(node.update_word().load(Acquire, guard).as_raw(), infp);
            i += 1;
        }

        if cont {
            // Line 123: the child CAS — the update takes effect.
            let won = self.cas_child(info.par(), info.old_child(), info.new_child, guard);
            // Line 124: commit write. A CAS from Try keeps the transition
            // single-shot; by Lemma 10 no abort can race with it.
            // AcqRel: a thread that reads Commit (Acquire) must also
            // observe the child CAS sequenced before this transition —
            // scans rely on that chain to read the new child without
            // helping (DESIGN.md §3.5).
            let _ = info
                .state
                .compare_exchange(state::TRY, state::COMMIT, AcqRel, Relaxed);
            if won {
                // Unique winner: retire what the CAS unlinked.
                self.retire_replaced(info, guard);
            }
        } else if info.state.load(Acquire) == state::TRY {
            // Lines 125–126: abort write (a freeze CAS lost the race).
            // AcqRel: the Abort decision gates the creator's deferred
            // free of the never-linked replacement subtree.
            if info
                .state
                .compare_exchange(state::TRY, state::ABORT, AcqRel, Relaxed)
                .is_ok()
            {
                self.stats.freeze_aborts();
            }
        }
        // Line 127. Acquire: pairs with the deciding AcqRel transition.
        info.state.load(Acquire) == state::COMMIT
    }

    /// Paper `CAS-Child` (lines 83–88). Returns whether *our* CAS was the
    /// one that performed the swing.
    pub(crate) fn cas_child(
        &self,
        par: NodePtr<K, V>,
        old: NodePtr<K, V>,
        new: NodePtr<K, V>,
        guard: &Guard,
    ) -> bool {
        // SAFETY: par/new belong to a published Info whose nodes are
        // frozen; both outlive this call under the guard.
        let parent = unsafe { &*par };
        let new_ref = unsafe { &*new };
        debug_assert!(std::ptr::eq(new_ref.prev, old), "new.prev must equal old");
        let field = parent.child_word(new_ref.key < parent.key); // lines 85–87
        field
            .compare_exchange(
                Shared::from(old),
                Shared::from(new),
                // Release: publishes the new subtree — its nodes' cold
                // fields were written before this CAS and become
                // reachable through it (pairs with `load_child`'s
                // Acquire).
                Release,
                // Acquire failure: losing means a fellow helper already
                // swung the pointer; acquiring its Release here is what
                // lets *our* subsequent Commit write carry visibility of
                // the new child to readers that see Commit without
                // helping (DESIGN.md §3.5).
                Acquire,
                guard,
            )
            .is_ok()
    }

    /// Retire the nodes a successful child CAS unlinked from the current
    /// tree: the old leaf for an insert or a replace; the parent and both
    /// its children for a delete. All of them are permanently marked for
    /// `info`.
    fn retire_replaced(&self, info: &Info<K, V>, guard: &Guard) {
        match info.kind {
            OpKind::Insert | OpKind::Replace => {
                self.retire_node(info.old_child(), guard);
            }
            OpKind::Delete => {
                // SAFETY: old_child is frozen for `info`; its children are
                // immutable since the freeze (Lemma 24) and are exactly
                // nodes[2] (the deleted leaf) and nodes[3] (the sibling).
                let p = unsafe { &*info.old_child() };
                let l = p.load_child(true, guard);
                let r = p.load_child(false, guard);
                self.retire_node(l.as_raw(), guard);
                self.retire_node(r.as_raw(), guard);
                self.retire_node(info.old_child(), guard);
            }
        }
    }

    /// Retire one unlinked node: release the Info reference its
    /// (permanently marked, hence immutable — Lemma 23) update field
    /// holds, then defer reclamation *into the arena pools*.
    fn retire_node(&self, node: NodePtr<K, V>, guard: &Guard) {
        // SAFETY: `node` was just unlinked by us; it stays valid under our
        // guard.
        let n = unsafe { &*node };
        let w = n.load_update(guard);
        debug_assert_eq!(w.tag(), FreezeTag::Mark, "unlinked nodes are marked");
        self.dec_ref(w.info(), guard);
        // SAFETY: `node` is unreachable to operations that pin after this
        // point (DESIGN.md §3); current pinners are protected by epochs.
        // Once ripe, the memory flows back to a thread-local pool.
        unsafe { guard.defer_recycle(Shared::from(node), arena::recycle_raw::<Node<K, V>>) };
    }

    /// Release one reference to `info`; the thread that drops the count
    /// to zero retires it (exactly once — `retired` is a one-shot flag).
    pub(crate) fn dec_ref(&self, info: InfoPtr<K, V>, guard: &Guard) {
        if std::ptr::eq(info, self.dummy) {
            return; // the Dummy is tree-owned and never retired
        }
        // SAFETY: caller holds a reference or is pinned from before any
        // possible retirement.
        let i = unsafe { &*info };
        // AcqRel (the Arc drop pattern): Release orders all our prior
        // uses of the Info before the decrement; Acquire on the final
        // decrement makes every other thread's prior uses visible
        // before the retirement below.
        if i.refs.fetch_sub(1, AcqRel) == 1
            // AcqRel: the count can touch zero more than once (a helper's
            // increment-before-CAS may resurrect it); the swap elects a
            // single retiring thread and orders the election against the
            // deferred destruction.
            && !i.retired.swap(true, AcqRel)
        {
            // SAFETY: count reached zero: no node update field and no
            // creation reference remains; stragglers are pinned. Ripe
            // memory flows back to a thread-local pool.
            unsafe { guard.defer_recycle(Shared::from(info), arena::recycle_raw::<Info<K, V>>) };
        }
    }

    /// Free a replacement subtree that was never published: nobody else
    /// has ever observed these nodes, so immediate recycling is safe.
    pub(crate) fn free_unpublished_new_child(&self, kind: OpKind, new_child: NodePtr<K, V>) {
        unsafe {
            // SAFETY: sole owner; loads use the unprotected guard because
            // the nodes were never shared (Relaxed for the same reason).
            let guard = crossbeam_epoch::unprotected();
            if let OpKind::Insert = kind {
                let n = &*new_child;
                let l = n.load_child(true, guard).as_raw();
                let r = n.load_child(false, guard).as_raw();
                arena::free_now(l as *mut Node<K, V>);
                arena::free_now(r as *mut Node<K, V>);
            }
            // For deletes the copy's children are *shared* live nodes,
            // and a replace's new leaf has none — only the node itself
            // is ours in either case.
            arena::free_now(new_child as *mut Node<K, V>);
        }
    }

    /// Defer-free a replacement subtree whose attempt was published but
    /// aborted. Aborted attempts never perform a child CAS (Lemma 10), so
    /// the subtree never became reachable; deferral covers helpers that
    /// may still hold the pointer.
    pub(crate) fn defer_free_new_child(
        &self,
        kind: OpKind,
        new_child: NodePtr<K, V>,
        guard: &Guard,
    ) {
        unsafe {
            if let OpKind::Insert = kind {
                let n = &*new_child;
                let l = n.load_child(true, guard);
                let r = n.load_child(false, guard);
                guard.defer_recycle(l, arena::recycle_raw::<Node<K, V>>);
                guard.defer_recycle(r, arena::recycle_raw::<Node<K, V>>);
            }
            guard.defer_recycle(Shared::from(new_child), arena::recycle_raw::<Node<K, V>>);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    // The state machine and freezing order are exercised end-to-end by
    // the tree tests; here we pin down Execute/Help behaviours that are
    // awkward to reach through the public API alone.

    #[test]
    fn execute_failure_on_lost_first_cas_retries_cleanly() {
        // Two inserts of different keys landing under the same parent
        // must both succeed across retries (one will lose a freeze CAS
        // occasionally under contention; here we just check the
        // sequential path repeatedly).
        let t: PnbBst<u32, u32> = PnbBst::new();
        for k in 0..100 {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.check_invariants(), 100);
    }

    #[test]
    fn help_is_idempotent_on_committed_info() {
        // After a successful insert the parent stays flagged with the
        // committed Info; a later delete on the same neighbourhood must
        // proceed despite that stale flag (Frozen == false on
        // Flag+Commit).
        let t: PnbBst<u32, u32> = PnbBst::new();
        t.insert(10, 1);
        t.insert(20, 2);
        assert!(t.delete(&10));
        assert!(t.delete(&20));
        assert_eq!(t.check_invariants(), 0);
    }

    #[test]
    fn counter_stationary_updates_commit_first_try() {
        // One thread and no scans: every update decides or commits on its
        // first attempt on every path (a duplicate insert or an absent
        // delete decides in one), and nothing aborts; only a batch's lanes
        // that its own earlier ops made stale fail validation, once each.
        // A read makes no attempt.
        use crate::batch::{BatchOp, BatchOutcome};
        let t: PnbBst<u32, u32> = PnbBst::new();
        let h = t.pin();
        let attempts = |updates: u64, f: &dyn Fn()| {
            let before = t.stats().update_attempts;
            f();
            assert_eq!(t.stats().update_attempts - before, updates);
        };
        for k in 0..50 {
            attempts(1, &|| assert!(h.insert(k, k)));
        }
        attempts(1, &|| assert!(!h.insert(7, 0)));
        attempts(1, &|| assert_eq!(h.upsert(7, 70), Some(7)));
        attempts(1, &|| assert_eq!(h.upsert(100, 100), None));
        attempts(1, &|| assert_eq!(h.remove(&100), Some(100)));
        attempts(1, &|| assert_eq!(h.remove(&100), None));
        attempts(0, &|| {
            assert_eq!(h.get(&7), Some(70));
            assert!(h.contains(&8) && !h.contains(&100));
            assert_eq!(h.multi_get(&[7, 100]), vec![Some(70), None]);
            assert_eq!(
                h.apply_batch(&[BatchOp::Get(7)]),
                vec![BatchOutcome::Get(Some(70))]
            );
        });
        // Inserts (absent and duplicate), upserts, deletes (present and
        // absent) and gets in one batch: one attempt per update, plus one
        // per update whose lane an earlier op of its window made stale
        // (neighbouring keys share parents). Each stale op, reads too,
        // fails validation once — helping the committed delete that
        // marked its parent, if one did — and succeeds on its re-descent.
        let ops: Vec<BatchOp<u32, u32>> = (0..80)
            .map(|k| match k % 4 {
                0 => BatchOp::Insert(k + 20, k),
                1 => BatchOp::Upsert(k, k),
                2 => BatchOp::Delete(k),
                _ => BatchOp::Get(k),
            })
            .collect();
        let before = t.stats();
        attempts(60 + 34, &|| assert_eq!(h.apply_batch(&ops).len(), 80));
        let s = t.stats();
        let stale = (
            s.validation_failures - before.validation_failures,
            s.helps - before.helps,
        );
        assert_eq!(stale, (54, 21), "34 updates, 20 gets");
        #[cfg(feature = "testing-internals")]
        {
            use crate::testing::PauseOutcome;
            let resumed = |out: PauseOutcome<'_, u32, u32>| match out {
                PauseOutcome::Paused(p) => p.resume(),
                PauseOutcome::Completed(b) => b,
            };
            attempts(1, &|| assert!(resumed(t.insert_paused(300, 3))));
            attempts(1, &|| assert!(!resumed(t.insert_paused(300, 3))));
            attempts(1, &|| assert!(resumed(t.upsert_paused(300, 30))));
            attempts(1, &|| assert!(resumed(t.delete_paused(&300))));
            attempts(1, &|| assert!(!resumed(t.delete_paused(&300))));
        }
        let s = t.stats();
        assert_eq!(
            (s.validation_failures, s.helps, s.freeze_cas_failures),
            (54, 21, 0)
        );
        assert_eq!((s.handshake_aborts, s.freeze_aborts), (0, 0));
        t.check_invariants();
    }

    #[test]
    fn cas_child_routes_by_key() {
        // Exercised indirectly: inserting a smaller key then a larger key
        // under the same internal node flips which child field the ichild
        // CAS targets. The structural check verifies placement.
        let t: PnbBst<i64, i64> = PnbBst::new();
        t.insert(100, 0);
        t.insert(50, 0); // left of 100's internal
        t.insert(150, 0); // right side
        t.insert(75, 0);
        t.insert(125, 0);
        assert_eq!(t.check_invariants(), 5);
        let guard = &epoch::pin();
        let seq = t.phase();
        for k in [50, 75, 100, 125, 150] {
            let (_, _, l) = t.search(&k, seq, guard);
            let leaf = unsafe { l.deref() };
            assert_eq!(leaf.key, crate::key::SKey::Fin(k));
        }
    }
}
