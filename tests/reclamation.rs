//! Memory-reclamation accounting tests.
//!
//! The paper assumes a garbage collector; this implementation builds
//! reclamation from epochs + reference counts (DESIGN.md §3). These
//! tests validate the two failure modes that matter:
//!
//! * **double free / premature free** — caught by `dropped > created`
//!   accounting (and by crashes under address reuse);
//! * **unbounded leaks** — caught by requiring that the overwhelming
//!   majority of retired values are actually destroyed once the epoch
//!   collector is given the chance to run.
//!
//! `crossbeam-epoch` destroys deferred garbage only as epochs advance,
//! so the tests pump `pin().flush()` to drain the queues.
//!
//! The battery at the bottom targets the lock-free collector
//! specifically: exact drop accounting under a mixed
//! insert/upsert/delete/range workload, a use-after-free poison
//! sentinel, thread churn (bag + registry-slot hand-off on exit), and
//! `Handle::refresh` unblocking epoch advancement — observable through
//! `pnb_bst::collector_stats()` when built with `--features stats`.

use pnb_bst::PnbBst;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A value whose constructions and destructions are counted.
struct Counted {
    live: Arc<AtomicI64>,
}

impl Counted {
    fn new(live: &Arc<AtomicI64>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Counted {
            live: Arc::clone(live),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.live.fetch_add(1, Ordering::SeqCst);
        Counted {
            live: Arc::clone(&self.live),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        let prev = self.live.fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "double free detected: live count went negative");
    }
}

fn drain_epochs() {
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
}

/// Drain until the live counter reaches `target` or ~5 s pass; the
/// caller's assertion judges the outcome. Garbage bags are sealed with
/// an epoch and become collectible only two advances later, and
/// advancement depends on all participants' pin timing — so a single
/// drain pass from one thread is not always enough. Pinning from a few
/// fresh threads expires the stragglers; the sleep gives sibling tests
/// holding pins on the process-global collector the CPU to drop them.
fn drain_epochs_until(live: &Arc<AtomicI64>, target: i64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while live.load(Ordering::SeqCst) != target && Instant::now() < deadline {
        drain_epochs();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(drain_epochs);
            }
        });
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sequential_churn_frees_everything() {
    let live = Arc::new(AtomicI64::new(0));
    {
        let tree: PnbBst<u64, Counted> = PnbBst::new();
        for round in 0..20u64 {
            for k in 0..200 {
                assert!(tree.insert(k, Counted::new(&live)));
            }
            // Interleave scans so prev-chains actually form.
            let _ = tree.scan_count(&0, &200);
            for k in 0..200u64 {
                let shifted = (k + round) % 200;
                assert!(tree.delete(&shifted));
            }
            assert_eq!(tree.len(), 0);
        }
        drop(tree);
    }
    drain_epochs_until(&live, 0);
    let remaining = live.load(Ordering::SeqCst);
    assert!(
        remaining == 0,
        "leaked {remaining} values after drop + epoch drain"
    );
}

#[test]
fn dropping_a_populated_tree_frees_all_values() {
    let live = Arc::new(AtomicI64::new(0));
    {
        let tree: PnbBst<u64, Counted> = PnbBst::new();
        for k in 0..1_000 {
            tree.insert(k, Counted::new(&live));
        }
        // Failed inserts must not leak their cloned values either.
        for k in 0..1_000 {
            assert!(!tree.insert(k, Counted::new(&live)));
        }
        drop(tree);
    }
    drain_epochs_until(&live, 0);
    assert_eq!(live.load(Ordering::SeqCst), 0, "values leaked");
}

#[test]
fn concurrent_churn_frees_everything_after_quiescence() {
    let live = Arc::new(AtomicI64::new(0));
    {
        let tree = Arc::new(PnbBst::<u64, Counted>::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                s.spawn(move || {
                    let base = t * 10_000;
                    for round in 0..10 {
                        for i in 0..100 {
                            tree.insert(base + i, Counted::new(&live));
                        }
                        let _ = tree.scan_count(&base, &(base + 100));
                        for i in 0..100 {
                            tree.delete(&(base + i));
                        }
                        let _ = round;
                    }
                });
            }
            // A scanner thread keeps old versions alive mid-run.
            let tree2 = Arc::clone(&tree);
            s.spawn(move || {
                for _ in 0..50 {
                    let snap = tree2.snapshot();
                    let _ = snap.len();
                }
            });
        });
        assert_eq!(tree.len(), 0);
        drop(tree);
    }
    // Each thread's garbage bag drains as epochs advance.
    drain_epochs_until(&live, 0);
    let remaining = live.load(Ordering::SeqCst);
    assert_eq!(
        remaining, 0,
        "leaked {remaining} values after concurrent churn"
    );
}

#[test]
fn snapshot_extends_value_lifetime_but_not_forever() {
    let live = Arc::new(AtomicI64::new(0));
    let tree: PnbBst<u64, Counted> = PnbBst::new();
    for k in 0..100 {
        tree.insert(k, Counted::new(&live));
    }
    let snap = tree.snapshot();
    for k in 0..100 {
        tree.delete(&k);
    }
    drain_epochs();
    // The snapshot still reads all 100 values — they cannot have been
    // freed while it is alive.
    assert_eq!(snap.len(), 100);
    assert!(
        live.load(Ordering::SeqCst) >= 100,
        "snapshot values freed early"
    );
    drop(snap);
    drop(tree);
    drain_epochs_until(&live, 0);
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "values leaked after snapshot drop"
    );
}

#[test]
fn nbbst_reclamation_accounting() {
    let live = Arc::new(AtomicI64::new(0));
    {
        let tree: nb_bst::NbBst<u64, Counted> = nb_bst::NbBst::new();
        for round in 0..10u64 {
            for k in 0..300 {
                tree.insert(k, Counted::new(&live));
            }
            for k in 0..300 {
                tree.delete(&k);
            }
            let _ = round;
        }
        for k in 0..50 {
            tree.insert(k, Counted::new(&live)); // leave some resident
        }
        drop(tree);
    }
    drain_epochs_until(&live, 0);
    assert_eq!(live.load(Ordering::SeqCst), 0, "nb-bst leaked values");
}

// ---------------------------------------------------------------------------
// Lock-free collector battery
// ---------------------------------------------------------------------------

/// Exact drop accounting over the full operation set: four threads run a
/// mixed insert/upsert/delete/range workload through pinned sessions
/// (the hot-path API), refreshing between batches. After quiescence
/// every retired value's destructor must have run exactly once — a
/// double free trips the `Counted` underflow assert, a leak trips the
/// zero-residue assert.
#[test]
fn mixed_workload_drop_accounting_is_exact() {
    let live = Arc::new(AtomicI64::new(0));
    {
        let tree = Arc::new(PnbBst::<u64, Counted>::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                s.spawn(move || {
                    let base = t * 10_000;
                    let mut session = tree.pin();
                    for round in 0..8u64 {
                        for i in 0..64 {
                            session.insert(base + i, Counted::new(&live));
                        }
                        // Upserts displace live values: the displaced
                        // clone must be retired and dropped too.
                        for i in 0..64 {
                            let _ = session.upsert(base + i, Counted::new(&live));
                        }
                        // Ranges form prev-chains mid-churn.
                        assert!(session.range(base..base + 64).count() <= 64);
                        for i in 0..64 {
                            session.delete(&(base + i));
                        }
                        session.refresh();
                        let _ = round;
                    }
                });
            }
        });
        assert_eq!(tree.len(), 0);
    }
    drain_epochs_until(&live, 0);
    let remaining = live.load(Ordering::SeqCst);
    assert_eq!(
        remaining, 0,
        "leaked {remaining} values after mixed workload"
    );
}

/// Use-after-free sentinel: every value carries a magic word that its
/// destructor overwrites with poison. Readers clone values out of the
/// tree while pinned and assert the clone was taken from un-poisoned
/// memory — a premature free (epoch bug) makes a reader observe the
/// poison (or crash), both of which fail the test.
#[test]
fn readers_never_observe_poisoned_values() {
    const GOOD: u64 = 0xFEED_FACE_CAFE_F00D;
    const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

    struct Sentinel {
        magic: u64,
    }
    impl Sentinel {
        fn new() -> Self {
            Sentinel { magic: GOOD }
        }
    }
    impl Clone for Sentinel {
        fn clone(&self) -> Self {
            // Cloning happens inside `get`/`range` under the reader's
            // pin: the source must still be live.
            assert_eq!(self.magic, GOOD, "reader cloned a freed (poisoned) value");
            Sentinel { magic: GOOD }
        }
    }
    impl Drop for Sentinel {
        fn drop(&mut self) {
            // Volatile so the "dead" store to soon-freed memory is not
            // elided — this is the whole point of the canary.
            unsafe { std::ptr::write_volatile(&mut self.magic, POISON) };
        }
    }

    let tree = Arc::new(PnbBst::<u64, Sentinel>::new());
    const KEYS: u64 = 256;
    const WRITERS: usize = 2;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let writers_done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Two writers churn the same small key space so values retire
        // constantly; the last one to finish releases the readers.
        for t in 0..WRITERS as u64 {
            let tree = Arc::clone(&tree);
            let stop = &stop;
            let writers_done = &writers_done;
            s.spawn(move || {
                let mut session = tree.pin();
                for round in 0..40u64 {
                    for k in 0..KEYS {
                        let _ = session.upsert((k + t) % KEYS, Sentinel::new());
                    }
                    for k in 0..KEYS / 2 {
                        session.delete(&((k * 2 + t + round) % KEYS));
                    }
                    session.refresh();
                }
                if writers_done.fetch_add(1, Ordering::SeqCst) + 1 == WRITERS {
                    stop.store(true, Ordering::SeqCst);
                }
            });
        }
        // Two readers hammer point and range reads until the churn ends;
        // every clone they receive self-checks in `Clone`, and they
        // re-check the returned copy.
        for _ in 0..2 {
            let tree = Arc::clone(&tree);
            let stop = &stop;
            s.spawn(move || {
                let mut session = tree.pin();
                let mut rounds = 0u64;
                loop {
                    let last = stop.load(Ordering::SeqCst);
                    for k in 0..KEYS {
                        if let Some(v) = session.get(&k) {
                            assert_eq!(v.magic, GOOD, "poisoned value escaped `get`");
                        }
                    }
                    for (_, v) in session.range(0..KEYS / 4) {
                        assert_eq!(v.magic, GOOD, "poisoned value escaped `range`");
                    }
                    session.refresh();
                    rounds += 1;
                    if last {
                        break; // one full validation pass after quiescence
                    }
                }
                assert!(rounds > 0);
            });
        }
    });
    drain_epochs();
}

/// Thread churn: many short-lived threads each defer garbage and exit
/// without flushing, so `Local::drop` must hand both the garbage bag
/// and the registry slot off lock-free. Nothing may be stranded: all
/// values drain after quiescence and the participant registry does not
/// accumulate dead slots.
#[test]
fn thread_churn_hands_off_bags_and_registry_slots() {
    let live = Arc::new(AtomicI64::new(0));
    let baseline = crossbeam_epoch::registered_participants();
    #[cfg(feature = "stats")]
    let before = pnb_bst::collector_stats();
    const WAVES: u64 = 8;
    const PER_WAVE: u64 = 8;
    {
        let tree = Arc::new(PnbBst::<u64, Counted>::new());
        for wave in 0..WAVES {
            std::thread::scope(|s| {
                for t in 0..PER_WAVE {
                    let tree = Arc::clone(&tree);
                    let live = Arc::clone(&live);
                    s.spawn(move || {
                        let base = (wave * PER_WAVE + t) * 1_000;
                        for i in 0..100 {
                            tree.insert(base + i, Counted::new(&live));
                        }
                        for i in 0..100 {
                            tree.delete(&(base + i));
                        }
                        // Exit with a non-empty local bag: the hand-off
                        // in `Local::drop` is what is under test.
                    });
                }
            });
        }
        drop(tree);
    }
    drain_epochs_until(&live, 0);
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "garbage stranded in exited threads' bags"
    );
    // Every churned thread's registry slot must have been tombstoned and
    // physically unlinked by now (the drain scans the registry on every
    // collection pass). Other tests in this binary run concurrently and
    // pin from their own threads, so allow generous slack — the bound
    // only has to distinguish "bounded live concurrency" from "the 64
    // churned slots were stranded".
    let now = crossbeam_epoch::registered_participants();
    assert!(
        now <= baseline + 48,
        "registry grew from {baseline} to {now}: dead participant slots stranded"
    );
    #[cfg(feature = "stats")]
    {
        let after = pnb_bst::collector_stats();
        assert!(
            after.participants_retired >= before.participants_retired + WAVES * PER_WAVE,
            "expected all {} churned registry slots retired ({} -> {})",
            WAVES * PER_WAVE,
            before.participants_retired,
            after.participants_retired,
        );
    }
}

/// A long-lived pinned session blocks reclamation of everything retired
/// after its pin — until `refresh()` re-pins it, which must let the
/// epoch advance (visible in the collector stats) and the garbage
/// drain, while the session stays fully usable.
#[test]
fn session_refresh_unblocks_epoch_advancement() {
    let live = Arc::new(AtomicI64::new(0));
    let tree: PnbBst<u64, Counted> = PnbBst::new();
    for k in 0..50 {
        tree.insert(k, Counted::new(&live));
    }
    // Settle pre-existing garbage (inserts retire leaf copies) so that
    // exactly the 50 in-tree values remain before the session pins.
    drain_epochs_until(&live, 50);
    assert_eq!(live.load(Ordering::SeqCst), 50);
    let mut session = tree.pin(); // long-lived: pins now
    #[cfg(feature = "stats")]
    let before = pnb_bst::collector_stats();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..50 {
                tree.delete(&k);
            }
            drain_epochs();
        });
    });
    // Every value (and every leaf copy made by the deletes) was retired
    // after the session's pin: with the session never refreshed, the
    // epoch can advance at most once past its pin, so none of the 50
    // in-tree values may have dropped no matter how hard the other
    // thread pumped the collector.
    assert!(
        live.load(Ordering::SeqCst) >= 50,
        "values freed under a live session pin"
    );
    // Refreshing republishes the session's epoch: collection passes can
    // now walk past the retirements.
    for _ in 0..200 {
        if live.load(Ordering::SeqCst) == 0 {
            break;
        }
        session.refresh();
        session.flush();
        drain_epochs();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "refresh() failed to unblock reclamation"
    );
    #[cfg(feature = "stats")]
    {
        let after = pnb_bst::collector_stats();
        assert!(
            after.advance_successes > before.advance_successes,
            "draining past a refreshed session implies epoch advances"
        );
        assert!(after.bags_freed > before.bags_freed);
    }
    // The refreshed session is still a fully usable view of the tree.
    assert!(session.is_empty());
    assert!(session.insert(7, Counted::new(&live)));
    assert_eq!(session.tree().len(), 1);
}

#[test]
fn string_keys_and_boxed_values() {
    // Non-Copy keys and heap values exercise clone/drop paths everywhere.
    let tree: PnbBst<String, Box<[u8; 64]>> = PnbBst::new();
    for i in 0..200 {
        assert!(tree.insert(format!("key-{i:04}"), Box::new([i as u8; 64])));
    }
    assert_eq!(tree.len(), 200);
    assert_eq!(tree.get(&"key-0042".to_string()).map(|b| b[0]), Some(42));
    // Range scan over string keys is lexicographic.
    let window = tree.range_scan(&"key-0010".to_string(), &"key-0013".to_string());
    let keys: Vec<String> = window.into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, vec!["key-0010", "key-0011", "key-0012", "key-0013"]);
    for i in (0..200).step_by(2) {
        assert!(tree.delete(&format!("key-{i:04}")));
    }
    assert_eq!(tree.check_invariants(), 100);
}
