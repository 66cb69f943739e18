//! Quickstart: the full public API of the PNB-BST in two minutes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pnbbst_repro::PnbBst;
use std::ops::Bound;
use std::sync::Arc;
use std::thread;

fn main() {
    // A concurrent ordered map: keys are totally ordered, inserts keep
    // the paper's set semantics (no replacement).
    let tree: Arc<PnbBst<u64, String>> = Arc::new(PnbBst::new());

    // --- Sessions: the hot-path API ---------------------------------
    // `pin()` takes one epoch guard for any number of operations (the
    // per-call point operations further down pin per call — fine for
    // occasional use, wasteful in loops).
    let h = tree.pin();
    assert!(h.insert(20, "twenty".into()));
    assert!(h.insert(10, "ten".into()));
    assert!(h.insert(30, "thirty".into()));
    assert!(!h.insert(20, "again".into())); // duplicate: rejected

    // Atomic insert-or-replace returns the displaced value:
    assert_eq!(h.upsert(20, "TWENTY".into()).as_deref(), Some("twenty"));
    assert_eq!(h.upsert(40, "forty".into()), None); // was absent

    assert_eq!(h.get(&10).as_deref(), Some("ten"));
    assert!(h.contains(&30));
    assert_eq!(h.remove(&30).as_deref(), Some("thirty"));
    assert_eq!(h.get(&30), None);
    assert_eq!(h.remove(&40).as_deref(), Some("forty"));

    // Wait-free, lazy range iteration over any RangeBounds — nothing is
    // materialized; each `next()` walks the immutable version tree:
    h.insert(15, "fifteen".into());
    h.insert(25, "twenty-five".into());
    let range: Vec<u64> = h.range(10..=20).map(|(k, _)| k).collect();
    assert_eq!(range, vec![10, 15, 20]);
    assert_eq!(h.range(11..).count(), 3); // 15, 20, 25
    assert_eq!(h.iter().next().map(|(k, _)| k), Some(10)); // lazy: O(depth)
    drop(h);

    // --- Per-call point operations ---------------------------------
    // The paper's Insert/Delete/Find also exist per call (each pins
    // internally):
    assert_eq!(tree.get(&10).as_deref(), Some("ten"));

    // --- Point-in-time snapshots ------------------------------------
    // Every multi-key read other than the lazy range goes through a
    // snapshot: `len`, `to_vec`, `keys`, visitor scans, ordered queries.
    let snap = tree.snapshot();
    tree.insert(99, "late".into());
    assert_eq!(snap.get(&99), None); // the snapshot predates 99
    assert_eq!(tree.get(&99).as_deref(), Some("late"));
    // The paper's closed-interval RangeScan(a, b), materialized:
    let range: Vec<u64> = snap
        .range_scan(&10, &20)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(range, vec![10, 15, 20]);
    // Visitor form with arbitrary bounds — no allocation per element:
    let mut count = 0;
    snap.range_scan_with(Bound::Excluded(&10), Bound::Unbounded, |_, _| count += 1);
    assert_eq!(count, 3); // 15, 20, 25
                          // Snapshots iterate lazily too, over their frozen version:
    let frozen_keys: Vec<u64> = snap.range(..).map(|(k, _)| k).collect();
    assert_eq!(frozen_keys, vec![10, 15, 20, 25]);
    println!("snapshot of phase {} holds {} keys", snap.seq(), snap.len());
    drop(snap);

    // --- Concurrency ------------------------------------------------
    // Writers on disjoint stripes + a scanner, all lock-free/wait-free.
    // Each writer pins one session for its whole stripe and refreshes
    // periodically so memory reclamation keeps up.
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let mut session = tree.pin();
                for i in 0..1_000 {
                    session.insert(1_000 * (w + 1) + i, format!("w{w}-{i}"));
                    if (i + 1).is_multiple_of(64) {
                        session.refresh();
                    }
                }
            })
        })
        .collect();

    // Scans are safe (and wait-free) at any point during the writes.
    let mid_flight = tree.pin().range(1_000..6_000).count();
    println!("keys visible to a mid-flight scan: {mid_flight}");

    for w in writers {
        w.join().unwrap();
    }
    let h = tree.pin();
    assert_eq!(h.range(1_000..6_000).count(), 4_000);
    println!(
        "final size: {} keys across phases 0..{}",
        tree.snapshot().len(),
        h.phase()
    );
    println!("quickstart OK");
}
