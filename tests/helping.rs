//! Deterministic tests of the helping, handshake and crash-tolerance
//! mechanisms, using the `testing-internals` pause API to freeze an
//! update mid-protocol (right after its first freeze CAS — the moment it
//! becomes visible to other threads).
//!
//! These reproduce the scenarios the paper argues about in §4.1,
//! including the `Insert(1)` / `RangeScan` / `Find(1)` linearizability
//! example.

use pnb_bst::testing::{PauseOutcome, PausedState};
use pnb_bst::PnbBst;

fn paused<K, V>(out: PauseOutcome<'_, K, V>) -> pnb_bst::testing::PausedUpdate<'_, K, V> {
    match out {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("expected the operation to pause"),
    }
}

#[test]
fn find_helps_a_stalled_insert_to_completion() {
    // §4.1: a Find that reaches the leaf while an insert is pending at
    // its parent must help the insert (otherwise it could return a
    // result that contradicts the insert's linearization point).
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let op = paused(tree.insert_paused(1, 10));
    assert_eq!(op.seq(), 0);
    assert_eq!(op.state(), PausedState::Undecided);

    // The insert is stalled after its flag CAS. A Find must complete it
    // and then observe the key.
    assert_eq!(tree.get(&1), Some(10), "Find must help the pending insert");
    assert_eq!(op.state(), PausedState::Committed);

    // Resuming discovers the helpers already won.
    assert!(op.resume(), "resume reports the committed outcome");
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn scan_aborts_a_pre_handshake_insert_via_the_counter() {
    // The handshake (§4.1): the insert flags in phase 0 but has not yet
    // re-checked Counter. A RangeScan then closes phase 0. Whoever helps
    // the insert afterwards (the scan itself does, at the flagged root)
    // must pro-actively ABORT it — the scan may already have passed the
    // leaf, so letting the insert commit in phase 0 would violate
    // linearizability.
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let op = paused(tree.insert_paused(1, 10));
    assert_eq!(op.seq(), 0);

    let seen = tree.range_scan(&0, &100);
    assert!(seen.is_empty(), "scan must not observe the aborted insert");
    assert_eq!(
        op.state(),
        PausedState::Aborted,
        "the scan's helping must have handshake-aborted the attempt"
    );
    assert!(!op.resume(), "resume reports the abort");

    // The key never made it in; a real (non-paused) insert now works.
    assert_eq!(tree.get(&1), None);
    assert!(tree.insert(1, 11));
    assert_eq!(tree.get(&1), Some(11));
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn find_helps_a_stalled_delete() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    assert!(tree.insert(1, 10));
    assert!(tree.insert(2, 20));

    let op = paused(tree.delete_paused(&1));
    assert_eq!(op.state(), PausedState::Undecided);

    // The Find for the doomed key must help the delete finish and then
    // miss the key.
    assert_eq!(tree.get(&1), None, "Find must help the pending delete");
    assert_eq!(op.state(), PausedState::Committed);
    assert!(op.resume());
    assert_eq!(tree.get(&2), Some(20));
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn scan_aborts_a_pre_handshake_delete() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    assert!(tree.insert(1, 10));
    assert!(tree.insert(2, 20));

    let op = paused(tree.delete_paused(&1));
    let seen: Vec<u64> = tree
        .range_scan(&0, &100)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(seen, vec![1, 2], "scan still sees the key: delete aborted");
    assert_eq!(op.state(), PausedState::Aborted);
    assert!(!op.resume());

    // The key survives; deleting for real works.
    assert!(tree.delete(&1));
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn abandoned_insert_is_completed_by_helpers_crash_tolerance() {
    // The paper's crash model: a process may fail at any point; the
    // implementation tolerates any number of crash failures because any
    // thread that runs into a frozen node completes the pending
    // operation from its Info object.
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let op = paused(tree.insert_paused(5, 50));
    op.abandon(); // the inserting process "crashes"

    // A completely unrelated reader finishes the dead thread's work.
    assert_eq!(tree.get(&5), Some(50));
    assert!(tree.contains(&5));
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn abandoned_delete_is_completed_by_a_scan() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    for k in 0..8 {
        tree.insert(k, k);
    }
    let op = paused(tree.delete_paused(&3));
    // Crash *after* the handshake would be needed for the scan to see a
    // Try-state op; here the op is pre-handshake, so the scan aborts it
    // — but a subsequent Find on the same neighbourhood re-observes the
    // tree in a clean state either way.
    op.abandon();
    let _ = tree.range_scan(&0, &100); // helps (aborts) the orphan
                                       // The delete never committed (it was pre-handshake), so 3 is alive:
    assert_eq!(tree.get(&3), Some(3));
    // And the neighbourhood is fully operational:
    assert!(tree.delete(&3));
    assert!(tree.insert(3, 33));
    assert_eq!(tree.get(&3), Some(33));
    assert_eq!(tree.check_invariants(), 8);
}

#[test]
fn batch_ops_help_an_abandoned_update() {
    // The batch path validates the leaves it reaches like a singleton
    // does, so a stalled update in its way is helped to its decision.
    use pnb_bst::{BatchOp, BatchOutcome};
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let h = tree.pin();

    // A batched Find completes a stalled insert and sees its value.
    let op = paused(tree.insert_paused(1, 10));
    assert_eq!(h.multi_get(&[1]), vec![Some(10)]);
    assert_eq!(op.state(), PausedState::Committed);
    op.abandon();

    // A batch reading and then upserting the key of a stalled delete
    // completes the delete first: the key is gone, the upsert inserts.
    assert!(tree.insert(2, 20));
    let op = paused(tree.delete_paused(&2));
    let ops = [BatchOp::Get(2), BatchOp::Upsert(2, 21)];
    assert_eq!(
        h.apply_batch(&ops),
        vec![BatchOutcome::Get(None), BatchOutcome::Upserted(None)]
    );
    assert_eq!(op.state(), PausedState::Committed);
    op.abandon();

    // A scan handshake-aborts a pre-handshake insert; a batched insert
    // of the same key then succeeds.
    let op = paused(tree.insert_paused(3, 30));
    assert!(tree.range_scan(&0, &100).iter().all(|&(k, _)| k != 3));
    assert_eq!(op.state(), PausedState::Aborted);
    op.abandon();
    assert_eq!(
        h.apply_batch(&[BatchOp::Insert(3, 31)]),
        vec![BatchOutcome::Inserted(true)]
    );
    assert_eq!(h.multi_get(&[1, 2, 3]), vec![Some(10), Some(21), Some(31)]);
    assert_eq!(tree.check_invariants(), 3);
}

#[test]
fn updates_in_other_subtrees_proceed_despite_a_stalled_update() {
    // "Updates operating on different parts of the tree do not interfere
    // with one another" — a stalled update must not impede distant ones.
    let tree: PnbBst<u64, u64> = PnbBst::new();
    for k in [100u64, 200, 300, 400] {
        tree.insert(k, k);
    }
    let op = paused(tree.insert_paused(150, 150)); // stalls near 100/200

    // Far-away updates must succeed without helping the stalled one.
    assert!(tree.insert(350, 350));
    assert!(tree.delete(&400));
    assert_eq!(tree.get(&300), Some(300));
    // The stalled op is still undecided: nobody needed to touch it.
    assert_eq!(op.state(), PausedState::Undecided);

    // Now finish it explicitly.
    assert!(op.resume());
    assert_eq!(tree.get(&150), Some(150));
    assert_eq!(tree.check_invariants(), 5);
}

#[test]
fn pause_outcomes_for_noop_updates() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    tree.insert(1, 10);
    // Inserting a duplicate completes (false) without pausing.
    match tree.insert_paused(1, 99) {
        PauseOutcome::Completed(b) => assert!(!b),
        PauseOutcome::Paused(_) => panic!("duplicate insert must not pause"),
    }
    // Deleting a missing key completes (false) without pausing.
    match tree.delete_paused(&42) {
        PauseOutcome::Completed(b) => assert!(!b),
        PauseOutcome::Paused(_) => panic!("missing delete must not pause"),
    }
    assert_eq!(tree.get(&1), Some(10), "noop paths leave the tree intact");
}

#[test]
fn many_sequential_paused_cycles_stay_structurally_sound() {
    // Repeated pause/help/resume cycles across phases.
    let tree: PnbBst<u64, u64> = PnbBst::new();
    for round in 0..50u64 {
        let op = paused(tree.insert_paused(round, round));
        if round % 2 == 0 {
            // Helper path: a find completes it.
            assert_eq!(tree.get(&round), Some(round));
            assert!(op.resume());
        } else {
            // Scan path: handshake abort, then real insert.
            let _ = tree.scan_count(&0, &1_000);
            assert!(!op.resume());
            assert!(tree.insert(round, round));
        }
    }
    assert_eq!(tree.check_invariants(), 50);
    let all: Vec<u64> = tree.to_vec().into_iter().map(|(k, _)| k).collect();
    assert_eq!(all, (0..50).collect::<Vec<_>>());
}

#[test]
fn concurrent_finds_race_to_help_one_stalled_insert() {
    use std::sync::Arc;
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    for round in 0..30u64 {
        let op = match tree.insert_paused(round, round * 10) {
            PauseOutcome::Paused(p) => p,
            PauseOutcome::Completed(_) => panic!("fresh key must pause"),
        };
        // Several threads all try to help at once; exactly one freeze
        // chain must win and the result must be a single committed
        // insert.
        let results: Vec<Option<u64>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let tree = &tree;
                    s.spawn(move || tree.get(&round))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, Some(round * 10), "every helper sees the committed value");
        }
        assert!(op.resume());
    }
    assert_eq!(tree.check_invariants(), 30);
}

#[test]
fn scan_helps_parked_updates_across_lanes() {
    // A scan expands up to 16 pending subtrees per lock-step round, so
    // one round can meet several parked updates at once. Each must still
    // be helped by the scan, and each is pre-handshake (parked before the
    // scan closed its phase), so each help must abort it: the scan
    // returns exactly the contents from before the parking.
    let tree: PnbBst<u64, u64> = PnbBst::from_sorted((0..1024).map(|k| (2 * k, k)).collect());
    let before = tree.to_vec();
    // Keys 84 apart: no two updates freeze a common node.
    let ops: Vec<_> = (0..24u64)
        .map(|i| {
            let k = 2 * (42 * i + 7);
            if i % 2 == 0 {
                paused(tree.insert_paused(k + 1, k))
            } else {
                paused(tree.delete_paused(&k))
            }
        })
        .collect();
    for op in &ops {
        assert_eq!(op.state(), PausedState::Undecided);
    }

    assert_eq!(tree.range_scan(&0, &u64::MAX), before);
    for op in &ops {
        assert_eq!(op.state(), PausedState::Aborted, "the scan aborted it");
    }
    for op in ops {
        assert!(!op.resume(), "resume reports the abort");
    }
    assert_eq!(tree.check_invariants(), 1024);
}
