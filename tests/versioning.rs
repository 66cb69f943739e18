//! Tests of the persistence machinery itself: phases, version-`i` trees
//! (`T_i`), and the shapes of Figure 1.
//!
//! The paper defines `T_i` as the tree reachable through *version-i
//! children* (follow a child pointer, then `prev` pointers until the
//! first node with `seq ≤ i`) and proves (Lemma 30) that a child CAS
//! with sequence number `s` leaves every `T_i` with `i < s` untouched.
//! Snapshots expose `T_i` directly, so we can check those claims
//! observationally.

use pnbbst_repro::PnbBst;

#[test]
fn phase_counter_advances_only_on_scans_and_snapshots() {
    let t: PnbBst<u32, u32> = PnbBst::new();
    assert_eq!(t.phase(), 0);
    t.insert(1, 1);
    t.insert(2, 2);
    t.delete(&1);
    t.get(&2);
    assert_eq!(t.phase(), 0, "updates and finds never advance the phase");
    let _ = t.pin().range(0..=10).count();
    assert_eq!(t.phase(), 1);
    let s = t.snapshot();
    assert_eq!(t.phase(), 2);
    drop(s);
    assert_eq!(t.phase(), 2, "dropping a snapshot does not rewind");
}

#[test]
fn older_versions_are_immune_to_later_updates() {
    // Lemma 30.1a, observationally: take a snapshot of phase i, then
    // mutate heavily; the snapshot's view never changes.
    let t: PnbBst<u32, u32> = PnbBst::new();
    for k in 0..50 {
        t.insert(k, k);
    }
    let snap = t.snapshot();
    let before = snap.to_vec();

    // Heavy churn afterwards, including keys the snapshot can see.
    for k in 0..50 {
        if k % 2 == 0 {
            t.delete(&k);
        }
    }
    for k in 100..200 {
        t.insert(k, k);
    }
    for k in (0..50).step_by(4) {
        t.insert(k, k + 1000); // reinsert with different values
    }

    assert_eq!(
        snap.to_vec(),
        before,
        "T_i must be frozen for i < later seqs"
    );
    // And repeated reads are stable (idempotent helping).
    assert_eq!(snap.to_vec(), before);
    assert_eq!(snap.len(), 50);
}

#[test]
fn chain_of_versions_replays_history() {
    // Build a little history and verify each version independently —
    // persistence in the original sense of the word.
    let t: PnbBst<u32, &'static str> = PnbBst::new();
    let mut versions = Vec::new();
    let mut expected: Vec<Vec<u32>> = Vec::new();
    let mut live: Vec<u32> = Vec::new();

    let script: &[(&str, u32)] = &[
        ("ins", 10),
        ("ins", 20),
        ("ins", 5),
        ("del", 10),
        ("ins", 15),
        ("del", 5),
        ("ins", 10),
        ("del", 20),
    ];
    for (what, k) in script {
        match *what {
            "ins" => {
                assert!(t.insert(*k, "x"));
                live.push(*k);
            }
            _ => {
                assert!(t.delete(k));
                live.retain(|x| x != k);
            }
        }
        live.sort_unstable();
        versions.push(t.snapshot());
        expected.push(live.clone());
    }
    for (i, (snap, expect)) in versions.iter().zip(&expected).enumerate() {
        let got: Vec<u32> = snap.to_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(&got, expect, "version after step {i}");
    }
    // Versions have strictly increasing sequence numbers.
    for w in versions.windows(2) {
        assert!(w[0].seq() < w[1].seq());
    }
}

#[test]
fn figure1_insert_shape() {
    // Figure 1 (left): Insert(C) into {B, D} replaces the leaf B… — in
    // leaf-oriented terms: the leaf the search lands on is replaced by an
    // internal node whose children are the old leaf's key and the new
    // key, with the smaller on the left and the internal node keyed by
    // the larger.
    let t: PnbBst<char, u32> = PnbBst::new();
    assert!(t.insert('D', 4));
    assert!(t.insert('B', 2));
    // Insert C: lands on the leaf B (C < D), so the new internal node
    // must have key C→max(B,C)=C with B left, C right.
    assert!(t.insert('C', 3));
    assert_eq!(t.snapshot().keys(), vec!['B', 'C', 'D']);
    assert_eq!(t.check_invariants(), 3); // checks BST + fullness + placement

    // Searches route correctly through the new shape.
    for (k, v) in [('B', 2), ('C', 3), ('D', 4)] {
        assert_eq!(t.get(&k), Some(v));
    }
}

#[test]
fn figure1_delete_copies_sibling() {
    // Figure 1 (right): Delete(C) removes the leaf C, its parent, AND
    // replaces the sibling subtree γ with a *copy* (prev = the removed
    // parent). Observationally: after a scan pins phase i, deleting a
    // key whose sibling is an internal subtree must leave T_i readable
    // (the copy keeps the old version reachable through prev).
    let t: PnbBst<u32, u32> = PnbBst::new();
    for k in [50, 25, 75, 60, 90] {
        t.insert(k, k);
    }
    let snap = t.snapshot(); // pins the version before the delete

    // Delete 25: its sibling in the tree is an internal subtree
    // (containing 50..90 side structure depends on shape, but the
    // sibling of the leaf 25's parent region is internal).
    assert!(t.delete(&25));
    assert!(t.delete(&60));
    // Old version intact:
    let old: Vec<u32> = snap.to_vec().into_iter().map(|(k, _)| k).collect();
    assert_eq!(old, vec![25, 50, 60, 75, 90]);
    // New version correct:
    assert_eq!(t.snapshot().keys(), vec![50, 75, 90]);
    assert_eq!(t.check_invariants(), 3);
}

#[test]
fn snapshot_point_reads_match_full_scans() {
    // Snapshot::get is a degenerate ScanHelper; both read T_seq, so they
    // must agree on every key.
    let t: PnbBst<u32, u32> = PnbBst::new();
    for k in (0..100).step_by(3) {
        t.insert(k, k * 7);
    }
    let snap = t.snapshot();
    for k in (0..100).step_by(5) {
        t.delete(&k); // churn after the snapshot
    }
    let full: std::collections::BTreeMap<u32, u32> = snap.to_vec().into_iter().collect();
    for k in 0..100 {
        assert_eq!(snap.get(&k), full.get(&k).copied(), "key {k}");
        assert_eq!(snap.contains(&k), full.contains_key(&k), "key {k}");
    }
}

#[test]
fn interleaved_snapshots_and_scans_across_many_phases() {
    let t: PnbBst<u64, u64> = PnbBst::new();
    let mut model = std::collections::BTreeSet::new();
    let mut x = 77u64;
    for round in 0..40 {
        // A few updates per phase.
        for _ in 0..10 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 33) % 128;
            if x.is_multiple_of(2) {
                t.insert(k, k);
                model.insert(k);
            } else {
                t.delete(&k);
                model.remove(&k);
            }
        }
        // Every scan agrees with the model (single-threaded, so the
        // linearization order is the program order).
        let got: Vec<u64> = t.pin().range(0..=127).map(|(k, _)| k).collect();
        let expect: Vec<u64> = model.iter().copied().collect();
        assert_eq!(got, expect, "round {round}");
        assert_eq!(t.phase(), round + 1, "one phase per scan");
    }
}
