//! Property-based schedules of *suspended* updates.
//!
//! Each generated schedule interleaves normal operations with paused
//! ones (inserts, deletes and upserts suspended right after their first
//! freeze CAS), periodic
//! scans (which handshake-abort pre-handshake attempts), helps-by-read,
//! and resumes — a deterministic, single-threaded exploration of the
//! protocol's decision tree. After every step the tree must agree with a
//! model that applies the paper's linearization rules:
//!
//! * a paused update is linearized at its (already performed) first
//!   freeze CAS **iff it eventually commits**;
//! * it commits iff some operation helps it before a scan closes its
//!   phase; a scan first helps (and thereby aborts) any pre-handshake
//!   attempt it meets, so after a scan the attempt is dead.
//!
//! Case counts scale with `PNBBST_TEST_ITERS` (a multiplier applied by
//! the proptest runner, default 1) or can be overridden absolutely with
//! `PROPTEST_CASES`; the defaults are CI-sized, `PNBBST_TEST_ITERS=50`
//! is the deep overnight setting (see README.md).

use proptest::prelude::*;
use std::collections::BTreeMap;

use pnb_bst::testing::{PauseOutcome, PausedState, PausedUpdate};
use pnb_bst::PnbBst;

#[derive(Clone, Copy, Debug)]
enum Step {
    Insert(u8),
    Delete(u8),
    PausedInsert(u8),
    PausedDelete(u8),
    PausedUpsert(u8),
    /// `get` on the key of the oldest in-flight paused op (forces a
    /// help-to-commit).
    HelpOldest,
    /// Range scan over everything (aborts all undecided in-flight ops).
    Scan,
    /// Resume the oldest in-flight paused op (commit or abort discovery).
    ResumeOldest,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u8..32).prop_map(Step::Insert),
        3 => (0u8..32).prop_map(Step::Delete),
        2 => (0u8..32).prop_map(Step::PausedInsert),
        2 => (0u8..32).prop_map(Step::PausedDelete),
        2 => (0u8..32).prop_map(Step::PausedUpsert),
        2 => Just(Step::HelpOldest),
        2 => Just(Step::Scan),
        2 => Just(Step::ResumeOldest),
    ]
}

/// Which paused operation is in flight (determines the linearization
/// rule applied to the model when it commits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Insert,
    Delete,
    Upsert,
}

struct InFlight<'t> {
    handle: PausedUpdate<'t, u8, u16>,
    key: u8,
    class: OpClass,
    value: u16,
    /// Whether the key was present in the model when the op published
    /// (drives the upsert commit assertion: replace ⇔ key was present).
    key_was_present: bool,
}

/// Apply a committed paused op to the model.
fn settle(
    model: &mut BTreeMap<u8, u16>,
    key: u8,
    class: OpClass,
    value: u16,
    key_was_present: bool,
    committed: bool,
) {
    if !committed {
        return;
    }
    match class {
        OpClass::Insert => {
            let prev = model.insert(key, value);
            assert!(prev.is_none(), "paused insert committed over existing key");
        }
        OpClass::Delete => {
            let prev = model.remove(&key);
            assert!(prev.is_some(), "paused delete committed on missing key");
        }
        OpClass::Upsert => {
            // The paused upsert linearizes at its (already performed)
            // first freeze CAS: the shape it published (insert vs
            // replace) was decided by the key's presence at that moment.
            let prev = model.insert(key, value);
            assert_eq!(
                prev.is_some(),
                key_was_present,
                "upsert shape must match presence at publish time"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paused_schedules_agree_with_linearization_rules(
        steps in prop::collection::vec(step_strategy(), 1..120)
    ) {
        let tree: PnbBst<u8, u16> = PnbBst::new();
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        let mut inflight: Vec<InFlight<'_>> = Vec::new();
        let mut stamp: u16 = 0;

        for step in steps {
            stamp += 1;
            match step {
                Step::Insert(k) => {
                    // A normal op first helps every in-flight op it
                    // meets; since all in-flight ops are somewhere in
                    // the tree, conservatively settle any whose key
                    // neighbourhood this op touches. To keep the model
                    // exact we only issue plain ops when nothing is in
                    // flight on the same key.
                    if inflight.iter().any(|o| o.key == k) {
                        continue;
                    }
                    let r = tree.insert(k, stamp);
                    // The insert may have helped (committed) in-flight
                    // ops at other keys on its path — settle any that
                    // are now decided.
                    settle_decided(&tree, &mut model, &mut inflight);
                    prop_assert_eq!(r, !model.contains_key(&k), "insert {}", k);
                    if r {
                        model.insert(k, stamp);
                    }
                }
                Step::Delete(k) => {
                    if inflight.iter().any(|o| o.key == k) {
                        continue;
                    }
                    let r = tree.delete(&k);
                    settle_decided(&tree, &mut model, &mut inflight);
                    prop_assert_eq!(r, model.remove(&k).is_some(), "delete {}", k);
                }
                Step::PausedInsert(k) => {
                    if inflight.iter().any(|o| o.key == k) {
                        continue;
                    }
                    match tree.insert_paused(k, stamp) {
                        PauseOutcome::Completed(r) => {
                            settle_decided(&tree, &mut model, &mut inflight);
                            prop_assert_eq!(r, false, "completed-without-pause means duplicate");
                            prop_assert!(model.contains_key(&k));
                        }
                        PauseOutcome::Paused(h) => {
                            // The attempt may have helped others while searching.
                            settle_decided(&tree, &mut model, &mut inflight);
                            inflight.push(InFlight {
                                handle: h,
                                key: k,
                                class: OpClass::Insert,
                                value: stamp,
                                key_was_present: false,
                            });
                        }
                    }
                }
                Step::PausedDelete(k) => {
                    if inflight.iter().any(|o| o.key == k) {
                        continue;
                    }
                    match tree.delete_paused(&k) {
                        PauseOutcome::Completed(r) => {
                            settle_decided(&tree, &mut model, &mut inflight);
                            prop_assert_eq!(r, false, "completed-without-pause means missing");
                            prop_assert!(!model.contains_key(&k));
                        }
                        PauseOutcome::Paused(h) => {
                            settle_decided(&tree, &mut model, &mut inflight);
                            inflight.push(InFlight {
                                handle: h,
                                key: k,
                                class: OpClass::Delete,
                                value: 0,
                                key_was_present: true,
                            });
                        }
                    }
                }
                Step::PausedUpsert(k) => {
                    if inflight.iter().any(|o| o.key == k) {
                        continue;
                    }
                    let present = model.contains_key(&k);
                    match tree.upsert_paused(k, stamp) {
                        PauseOutcome::Completed(_) => {
                            unreachable!("upsert always publishes (both shapes mutate)")
                        }
                        PauseOutcome::Paused(h) => {
                            settle_decided(&tree, &mut model, &mut inflight);
                            // `present` is still accurate: settle_decided
                            // only applies ops on other keys (nothing on
                            // key k is in flight by the guard above).
                            inflight.push(InFlight {
                                handle: h,
                                key: k,
                                class: OpClass::Upsert,
                                value: stamp,
                                key_was_present: present,
                            });
                        }
                    }
                }
                Step::HelpOldest => {
                    if inflight.is_empty() {
                        continue;
                    }
                    let key = inflight[0].key;
                    let _ = tree.get(&key); // forces help on that path
                    settle_decided(&tree, &mut model, &mut inflight);
                    prop_assert!(
                        inflight.iter().all(|o| o.key != key),
                        "a get on the pending key must decide the op"
                    );
                }
                Step::Scan => {
                    // The scan helps-and-aborts every undecided attempt
                    // it traverses, then reads a consistent cut. All
                    // in-flight ops are pre-handshake, so they die.
                    let got: Vec<(u8, u16)> = tree.snapshot().range_scan(&0, &u8::MAX);
                    settle_decided(&tree, &mut model, &mut inflight);
                    prop_assert!(inflight.is_empty(), "scan decides every in-flight op");
                    let expect: Vec<(u8, u16)> =
                        model.iter().map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect, "scan content");
                }
                Step::ResumeOldest => {
                    if inflight.is_empty() {
                        continue;
                    }
                    let InFlight { handle, key, class, value, key_was_present } =
                        inflight.remove(0);
                    let committed = handle.resume();
                    settle(&mut model, key, class, value, key_was_present, committed);
                }
            }
        }

        // Drain the remaining in-flight operations.
        for InFlight { handle, key, class, value, key_was_present } in inflight.drain(..) {
            let committed = handle.resume();
            settle(&mut model, key, class, value, key_was_present, committed);
        }
        let expect: Vec<(u8, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree.snapshot().to_vec(), expect, "final content");
        prop_assert_eq!(tree.check_invariants(), model.len());
    }
}

/// Settle every in-flight op that has been decided (committed/aborted)
/// by helpers as a side effect of another operation.
fn settle_decided(
    _tree: &PnbBst<u8, u16>,
    model: &mut BTreeMap<u8, u16>,
    inflight: &mut Vec<InFlight<'_>>,
) {
    let mut i = 0;
    while i < inflight.len() {
        match inflight[i].handle.state() {
            PausedState::Committed => {
                let InFlight {
                    handle,
                    key,
                    class,
                    value,
                    key_was_present,
                } = inflight.remove(i);
                settle(model, key, class, value, key_was_present, true);
                // Creator-side cleanup (discovers the commit).
                assert!(handle.resume());
            }
            PausedState::Aborted => {
                let InFlight {
                    handle,
                    key,
                    class,
                    value,
                    key_was_present,
                } = inflight.remove(i);
                settle(model, key, class, value, key_was_present, false);
                // The creator must still reclaim the aborted subtree.
                assert!(!handle.resume());
            }
            _ => i += 1,
        }
    }
}
