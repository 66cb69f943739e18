//! `ValidateLink` and `ValidateLeaf` (paper Figure 3, lines 49–68).
//!
//! Validation serves two purposes:
//!
//! 1. It guarantees that successful updates are applied to the *latest*
//!    version of the tree (§5.1): the leaf the search arrived at (which
//!    was found by walking version-`seq` children) must still be the
//!    *current* child of its parent, and the parent the current child of
//!    the grandparent.
//! 2. It implements the lightweight helping policy: an operation helps
//!    only updates pending on the parent / grandparent of the leaf it
//!    arrived at.
//!
//! The returned update words double as the expected old values for the
//! freeze CAS steps of `Execute` — reading them *here* and CASing on them
//! *later* is what makes freezing behave like a lock acquired at
//! validation time (paper Lemma 24).

use crossbeam_epoch::{Guard, Shared};

use crate::info::{state, UpdateWord};
use crate::node::Node;
use crate::tree::PnbBst;

/// `(gpupdate, pupdate)` as validated by `ValidateLeaf`; `gpupdate` is
/// `None` iff `p == Root`.
pub(crate) type ValidatedWords<K, V> = (Option<UpdateWord<K, V>>, UpdateWord<K, V>);

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Paper `ValidateLink(parent, child, left)` (lines 49–59): `parent`
    /// must not be frozen, and `child` must be its current `left`/`right`
    /// child. On success returns the parent's update word; on failure
    /// returns `None` (after helping a frozen parent).
    pub(crate) fn validate_link(
        &self,
        parent: &Node<K, V>,
        child: Shared<'_, Node<K, V>>,
        left: bool,
        guard: &Guard,
    ) -> Option<UpdateWord<K, V>> {
        let up = parent.load_update(guard); // line 52
        if self.frozen(up) {
            // lines 53–55: help the operation in progress, then fail.
            // `frozen` ⇒ the info is not the Dummy (its state is Abort).
            self.stats.helps();
            self.help(up.info(), guard);
            return None;
        }
        if parent.load_child(left, guard) != child {
            return None; // line 57
        }
        Some(up) // line 58
    }

    /// Paper `ValidateLeaf(gp, p, l, k)` (lines 60–68). Returns
    /// `(gpupdate, pupdate)` on success; `gpupdate` is `None` iff
    /// `p == Root` (in which case `gp` may be null and is not touched).
    pub(crate) fn validate_leaf(
        &self,
        gp: Shared<'_, Node<K, V>>,
        p: &Node<K, V>,
        l: Shared<'_, Node<K, V>>,
        k: &K,
        guard: &Guard,
    ) -> Option<ValidatedWords<K, V>> {
        // line 64: validate the p → l link. `k < p.key` selects the side.
        let pupdate = self.validate_link(p, l, p.key.fin_lt(k), guard)?;
        let p_is_root = std::ptr::eq(p as *const _, self.root);
        let gpupdate = if !p_is_root {
            // line 65: validate the gp → p link.
            debug_assert!(!gp.is_null(), "gp must be non-null when p != Root");
            // SAFETY: search returned gp under the same pinned guard.
            let gp_ref = unsafe { gp.deref() };
            let p_shared = Shared::from(p as *const Node<K, V>);
            Some(self.validate_link(gp_ref, p_shared, gp_ref.key.fin_lt(k), guard)?)
        } else {
            None
        };
        // line 66: re-read both update fields; they must not have changed
        // since the link validations (this pins down the linearization
        // point of read-only outcomes, paper Lemma 41).
        if p.load_update(guard) != pupdate {
            return None;
        }
        if let Some(gpu) = gpupdate {
            let gp_ref = unsafe { gp.deref() };
            if gp_ref.load_update(guard) != gpu {
                return None;
            }
        }
        Some((gpupdate, pupdate))
    }

    /// Paper `Frozen(up)` (lines 89–91): is the node whose update word is
    /// `up` currently frozen? Flagged nodes are frozen while their
    /// operation is undecided or trying; marked nodes additionally stay
    /// frozen forever once the operation commits (marking is permanent,
    /// Lemma 23).
    pub(crate) fn frozen(&self, up: UpdateWord<K, V>) -> bool {
        // SAFETY: `up.info()` was read from a reachable node's update field
        // under the caller's guard; Info objects are retired only via the
        // epoch collector, so the reference is valid while pinned.
        // Acquire: pairs with the AcqRel state transitions, so a thread
        // that observes a decision (Commit/Abort) also observes the
        // child CAS / cleanup ordered before it. Staleness here is
        // benign: a conservatively-frozen verdict only causes a retry,
        // and a stale not-frozen verdict is caught by the freeze CAS's
        // expected-value check.
        let st = unsafe {
            (*up.info())
                .state
                .load(std::sync::atomic::Ordering::Acquire)
        };
        match up.tag() {
            crate::info::FreezeTag::Flag => st == state::UNDECIDED || st == state::TRY,
            crate::info::FreezeTag::Mark => st != state::ABORT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::{FreezeTag, Info};
    use crossbeam_epoch as epoch;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn frozen_truth_table() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        let info = Info::<i32, i32>::dummy(); // reuse as scratch Info
        let ptr: *const Info<i32, i32> = &info;
        let cases = [
            (FreezeTag::Flag, state::UNDECIDED, true),
            (FreezeTag::Flag, state::TRY, true),
            (FreezeTag::Flag, state::COMMIT, false),
            (FreezeTag::Flag, state::ABORT, false),
            (FreezeTag::Mark, state::UNDECIDED, true),
            (FreezeTag::Mark, state::TRY, true),
            (FreezeTag::Mark, state::COMMIT, true), // permanent mark
            (FreezeTag::Mark, state::ABORT, false),
        ];
        for (tag, st, expect) in cases {
            info.state.store(st, Relaxed);
            let w = UpdateWord::new(tag, ptr);
            assert_eq!(t.frozen(w), expect, "tag={tag:?} state={st}");
        }
    }

    #[test]
    fn validate_leaf_succeeds_on_quiescent_tree() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        t.insert(10, 1);
        t.insert(20, 2);
        let guard = &epoch::pin();
        let (gp, p, l) = t.search(&10, t.phase(), guard);
        let p_ref = unsafe { p.deref() };
        let res = t.validate_leaf(gp, p_ref, l, &10, guard);
        assert!(res.is_some());
        let (gpu, _pu) = res.unwrap();
        // 10's parent is not the root here, so gpupdate must be present.
        assert_eq!(gpu.is_some(), !std::ptr::eq(p.as_raw(), t.root));
    }

    #[test]
    fn validate_link_rejects_stale_child() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        t.insert(10, 1);
        let guard = &epoch::pin();
        // Take the current leaf for key 10, then change the tree so the
        // link is stale.
        let (_, p, l) = t.search(&10, t.phase(), guard);
        let p_ref = unsafe { p.deref() };
        let left = p_ref.key.fin_lt(&10);
        assert!(t.validate_link(p_ref, l, left, guard).is_some());
        // Inserting 5 replaces the leaf under p (or deeper): the old l
        // can no longer be p's current child on that side.
        t.insert(5, 5);
        assert!(t.validate_link(p_ref, l, left, guard).is_none());
    }

    #[test]
    fn invariant_checker_accepts_valid_and_rejects_corrupted() {
        let t: PnbBst<i32, i32> = PnbBst::new();
        for k in [10, 5, 20, 1, 7] {
            assert!(t.insert(k, k));
        }
        // A valid tree passes and reports the key count.
        assert_eq!(t.check_invariants(), 5);

        // Corrupt the structure: swap the root's children so the finite
        // subtree lands on the ∞-ordered right side. The checker must
        // reject (panic on) the broken BST ordering.
        let guard = &epoch::pin();
        // SAFETY: single-threaded test; the root outlives the guard.
        let root = unsafe { &*t.root };
        let l = root.child_word(true).load(Relaxed, guard);
        let r = root.child_word(false).load(Relaxed, guard);
        root.child_word(true).store(r, Relaxed);
        root.child_word(false).store(l, Relaxed);
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.check_invariants()));
        assert!(verdict.is_err(), "corrupted tree must be rejected");
        // Restore the links so teardown walks a sane tree.
        root.child_word(true).store(l, Relaxed);
        root.child_word(false).store(r, Relaxed);
        assert_eq!(t.check_invariants(), 5, "restored tree is valid again");
    }

    #[cfg(feature = "testing-internals")]
    #[test]
    fn validate_leaf_fails_on_frozen_parent() {
        use crate::testing::PauseOutcome;
        let t: PnbBst<i32, i32> = PnbBst::new();
        t.insert(10, 1);
        t.insert(20, 2);
        // Suspend an insert right after its first freeze CAS: the parent
        // of the target leaf is now flagged (frozen, Undecided).
        let op = match t.insert_paused(15, 15) {
            PauseOutcome::Paused(p) => p,
            PauseOutcome::Completed(_) => panic!("fresh key must pause"),
        };
        let guard = &epoch::pin();
        let (gp, p, l) = t.search(&15, t.phase(), guard);
        let p_ref = unsafe { p.deref() };
        // Validation on the frozen neighbourhood must fail — and, per
        // lines 53–55, help the pending operation to completion first.
        assert!(
            t.validate_leaf(gp, p_ref, l, &15, guard).is_none(),
            "frozen parent must fail validation"
        );
        assert!(op.resume(), "the helping validation committed the insert");
        assert_eq!(t.get(&15), Some(15));
        assert_eq!(t.check_invariants(), 3);
    }
}
