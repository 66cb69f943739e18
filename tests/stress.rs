//! Concurrent stress tests for the PNB-BST.
//!
//! These tests check linearizability-derived *invariants* under real
//! concurrency (full linearizability checking of long histories is
//! infeasible; these invariants are consequences any linearizable
//! implementation must satisfy):
//!
//! * **Disjoint-stripe exactness** — threads operating on disjoint key
//!   stripes must each see exactly their own sequential semantics.
//! * **Prefix visibility** — if a single writer inserts 0,1,2,… in
//!   order, every concurrent scan must observe a *prefix* (per-writer
//!   prefixes in the multi-writer version).
//! * **Sliding-window cardinality** — a writer that always inserts the
//!   new key *before* deleting the old one keeps its stripe at C or C+1
//!   keys in every linearizable snapshot.
//! * **Scan termination under churn** (wait-freedom smoke test).
//!
//! Iteration counts scale with the `PNBBST_TEST_ITERS` environment
//! variable (a multiplier, default 1): the defaults finish in seconds
//! for CI, while e.g. `PNBBST_TEST_ITERS=50` is the "deep" overnight
//! setting (see README.md).

use pnb_bst::{BatchOp, BatchOutcome, Handle, PnbBst};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().max(2))
        .unwrap_or(2)
        .min(8)
}

/// `n` scaled by the `PNBBST_TEST_ITERS` multiplier (default 1).
fn scaled(n: u64) -> u64 {
    let scale = std::env::var("PNBBST_TEST_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    n.saturating_mul(scale)
}

#[test]
fn disjoint_stripes_are_exact() {
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    let nthreads = threads() as u64;
    let per = scaled(2_000);
    let handles: Vec<_> = (0..nthreads)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let base = t * 1_000_000;
                // Insert all, delete every other, re-check.
                for i in 0..per {
                    assert!(tree.insert(base + i, i));
                }
                for i in (0..per).step_by(2) {
                    assert_eq!(tree.remove(&(base + i)), Some(i));
                }
                for i in 0..per {
                    let expect = if i % 2 == 0 { None } else { Some(i) };
                    assert_eq!(tree.get(&(base + i)), expect);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(tree.check_invariants() as u64, nthreads * per / 2);
}

#[test]
fn contended_single_key_has_one_winner() {
    // All threads fight over the same key: exactly one insert and one
    // delete may win per round.
    let tree = Arc::new(PnbBst::<u64, usize>::new());
    let nthreads = threads();
    for round in 0..scaled(200) {
        let ins_wins: usize = {
            let handles: Vec<_> = (0..nthreads)
                .map(|t| {
                    let tree = Arc::clone(&tree);
                    thread::spawn(move || tree.insert(round, t) as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        };
        assert_eq!(ins_wins, 1, "exactly one insert wins round {round}");
        let del_wins: usize = {
            let handles: Vec<_> = (0..nthreads)
                .map(|_| {
                    let tree = Arc::clone(&tree);
                    thread::spawn(move || tree.delete(&round) as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        };
        assert_eq!(del_wins, 1, "exactly one delete wins round {round}");
    }
    assert_eq!(tree.check_invariants(), 0);
}

const HOT_KEY: u64 = 1;

/// 8 threads write distinct values to [`HOT_KEY`] through `write_all`,
/// which returns what each write displaced. Upsert is atomic iff every
/// write is displaced exactly once except the final survivor:
/// `{initial} ∪ {writes} == {displaced} ∪ {final}` as multisets.
fn hot_key_upserts_chain(write_all: fn(&Handle<'_, u64, u64>, &[u64]) -> Vec<u64>) {
    let tree = PnbBst::<u64, u64>::new();
    tree.insert(HOT_KEY, 0);
    let per_thread = scaled(200);
    let writes_of = |w: u64| (0..per_thread).map(move |i| (w << 32) | (i + 1));
    let displaced: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|w| {
                let tree = &tree;
                s.spawn(move || write_all(&tree.pin(), &writes_of(w).collect::<Vec<_>>()))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let last = tree.get(&HOT_KEY).unwrap();
    let mut lhs: Vec<u64> = std::iter::once(0)
        .chain((0..8).flat_map(writes_of))
        .collect();
    let mut rhs: Vec<u64> = displaced.into_iter().chain(std::iter::once(last)).collect();
    lhs.sort_unstable();
    rhs.sort_unstable();
    assert_eq!(lhs, rhs, "every write displaced exactly once");
    assert_eq!(tree.check_invariants(), 1);
}

#[test]
fn contended_upserts_preserve_displacement_chain() {
    hot_key_upserts_chain(|h, writes| {
        writes
            .iter()
            .map(|&v| h.upsert(HOT_KEY, v).expect("key stays present"))
            .collect()
    });
}

#[test]
fn contended_batched_upserts_preserve_displacement_chain() {
    // Every op of every batch is an upsert of the hot key, so a lost
    // freeze CAS retries through the batch path's own retreat arm.
    hot_key_upserts_chain(|h, writes| {
        writes
            .chunks(16)
            .flat_map(|chunk| {
                let ops: Vec<_> = chunk.iter().map(|&v| BatchOp::Upsert(HOT_KEY, v)).collect();
                h.apply_batch(&ops)
            })
            .map(|out| match out {
                BatchOutcome::Upserted(d) => d.expect("key stays present"),
                other => panic!("upsert answered {other:?}"),
            })
            .collect()
    });
}

#[test]
fn scans_observe_prefixes_of_a_sequential_writer() {
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    let done = Arc::new(AtomicBool::new(false));
    let n = scaled(3_000);

    let writer = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for k in 0..n {
                assert!(tree.insert(k, k));
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let scanners: Vec<_> = (0..threads() - 1)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut max_seen = 0usize;
                let mut scans = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let snap = tree.snapshot().range_scan(&0, &n);
                    // Prefix property: keys must be exactly 0..len.
                    for (i, (k, v)) in snap.iter().enumerate() {
                        assert_eq!(*k, i as u64, "scan must see a prefix");
                        assert_eq!(v, k);
                    }
                    assert!(
                        snap.len() >= max_seen,
                        "later scans may not lose elements ({} < {max_seen})",
                        snap.len()
                    );
                    max_seen = snap.len();
                    scans += 1;
                }
                scans
            })
        })
        .collect();

    writer.join().unwrap();
    let total_scans: usize = scanners.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_scans > 0);
    assert_eq!(tree.check_invariants() as u64, n);
}

#[test]
fn sliding_window_cardinality_invariant() {
    // Each writer keeps a window [lo, lo+C) alive in its stripe by
    // inserting lo+C before deleting lo. Any linearizable snapshot sees
    // between C and C+1 keys in each stripe.
    const C: usize = 16;
    let tree = Arc::new(PnbBst::<u64, ()>::new());
    let done = Arc::new(AtomicBool::new(false));
    let nwriters = (threads() - 1).max(1) as u64;
    let stripe = 1_000_000u64;

    // Prefill each stripe with its initial window.
    for w in 0..nwriters {
        for i in 0..C as u64 {
            tree.insert(w * stripe + i, ());
        }
    }

    let writers: Vec<_> = (0..nwriters)
        .map(|w| {
            let tree = Arc::clone(&tree);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let base = w * stripe;
                let mut lo = 0u64;
                while !done.load(Ordering::SeqCst) {
                    assert!(tree.insert(base + lo + C as u64, ()));
                    assert!(tree.delete(&(base + lo)));
                    lo += 1;
                }
            })
        })
        .collect();

    let scanner = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut checked = 0usize;
            for _ in 0..scaled(300) {
                for w in 0..nwriters {
                    let base = w * stripe;
                    let count = tree.pin().range(base..base + stripe).count();
                    assert!(
                        count == C || count == C + 1,
                        "stripe {w} had {count} keys (expected {C} or {})",
                        C + 1
                    );
                    checked += 1;
                }
            }
            done.store(true, Ordering::SeqCst);
            checked
        })
    };

    let checked = scanner.join().unwrap();
    assert!(checked > 0);
    for h in writers {
        h.join().unwrap();
    }
    // Quiescent: every stripe has exactly C keys.
    for w in 0..nwriters {
        let base = w * stripe;
        assert_eq!(tree.pin().range(base..base + stripe).count(), C);
    }
    tree.check_invariants();
}

#[test]
fn deletions_leave_suffixes_for_scans() {
    // A writer deletes 0,1,2,... in order; scans must see suffixes.
    let n = scaled(2_000);
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    for k in 0..n {
        tree.insert(k, k);
    }
    let done = Arc::new(AtomicBool::new(false));
    let deleter = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for k in 0..n {
                assert!(tree.delete(&k));
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let scanner = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut min_front = 0u64;
            while !done.load(Ordering::SeqCst) {
                let snap = tree.snapshot().range_scan(&0, &n);
                if let Some((first, _)) = snap.first() {
                    // Suffix property: contiguous from `first` to n-1.
                    for (i, (k, _)) in snap.iter().enumerate() {
                        assert_eq!(*k, first + i as u64, "scan must see a suffix");
                    }
                    assert_eq!(*snap.last().unwrap(), (n - 1, n - 1));
                    assert!(*first >= min_front, "deleted keys may not reappear");
                    min_front = *first;
                }
            }
        })
    };
    deleter.join().unwrap();
    scanner.join().unwrap();
    assert_eq!(tree.check_invariants(), 0);
}

#[test]
fn mixed_churn_with_scans_and_snapshots() {
    // General smoke test: updates, finds, scans and snapshots all at
    // once, then verify against per-stripe recomputation at quiescence.
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    let nthreads = threads() as u64;
    let ops = scaled(4_000);
    let handles: Vec<_> = (0..nthreads)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let base = t * 100_000;
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for i in 0..ops {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = base + (x >> 40) % 512;
                    match x % 10 {
                        0..=3 => {
                            tree.insert(k, i);
                        }
                        4..=6 => {
                            tree.delete(&k);
                        }
                        7 => {
                            tree.get(&k);
                        }
                        8 => {
                            let lo = base + (x >> 33) % 512;
                            let _ = tree.pin().range(lo..=lo + 64).count();
                        }
                        _ => {
                            let snap = tree.snapshot();
                            let _ = snap.len();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = tree.check_invariants();
    assert_eq!(total, tree.snapshot().len());
    assert_eq!(tree.snapshot().to_vec().len(), total);
}

#[test]
fn scan_completes_under_sustained_update_load() {
    // Wait-freedom smoke test: scans must finish even while every other
    // thread updates as fast as it can.
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    for k in 0..4_096 {
        tree.insert(k * 2, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let updaters: Vec<_> = (0..threads() - 1)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut x = (t as u64) | 1;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    let k = (x >> 33) % 8_192;
                    if k % 2 == 1 {
                        tree.insert(k, k);
                        tree.delete(&k);
                    }
                }
            })
        })
        .collect();

    for _ in 0..scaled(50) {
        let scan = tree.snapshot().range_scan(&0, &8_192);
        // The even keys are permanent; every scan must contain them all.
        let evens = scan.iter().filter(|(k, _)| k % 2 == 0).count();
        assert_eq!(evens, 4_096);
    }
    stop.store(true, Ordering::Relaxed);
    for h in updaters {
        h.join().unwrap();
    }
    tree.check_invariants();
}

/// One long-lived pinned `Handle` drives a mixed read/upsert loop while
/// every other thread churns the same key space through its own
/// session. Checks that (a) the handle survives arbitrarily many
/// operations with periodic `refresh`, (b) its lazy range iterations
/// keep observing the permanent keys, and (c) upserts through the
/// handle are atomic (a displaced value is always one somebody wrote).
#[test]
fn long_lived_handle_under_churn() {
    const SPACE: u64 = 4_096;
    let tree = Arc::new(PnbBst::<u64, u64>::new());
    // Even keys are permanent; only odd keys churn.
    for k in (0..SPACE).step_by(2) {
        tree.insert(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let updaters: Vec<_> = (0..(threads() - 1).max(1))
        .map(|t| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut session = tree.pin();
                let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut n = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                    let k = ((x >> 33) % SPACE) | 1; // odd keys only
                    if x & 2 == 0 {
                        session.upsert(k, x);
                    } else {
                        session.delete(&k);
                    }
                    n = n.wrapping_add(1);
                    if n.is_multiple_of(64) {
                        session.refresh();
                    }
                }
            })
        })
        .collect();

    // The long-lived handle: one pin, many thousands of operations.
    let mut handle = tree.pin();
    for round in 0..scaled(300) {
        // Point reads: permanent keys are always visible.
        let k = (round * 2) % SPACE;
        assert_eq!(handle.get(&k), Some(k), "permanent key {k} vanished");
        // Lazy range over a window: all evens in the window, in order.
        let lo = (round * 97) % (SPACE - 256);
        let lo = lo - lo % 2;
        let mut prev = None;
        let mut evens = 0usize;
        for (k, _) in handle.range(lo..lo + 256) {
            assert!(prev.is_none_or(|p| p < k), "range out of order");
            prev = Some(k);
            if k % 2 == 0 {
                evens += 1;
            }
        }
        assert_eq!(evens, 128, "window [{lo}, {lo}+256) lost an even key");
        // Atomic upsert through the handle on a contended odd key.
        let contended = ((round * 31) % SPACE) | 1;
        let _ = handle.upsert(contended, u64::MAX - round);
        handle.refresh();
    }
    stop.store(true, Ordering::Relaxed);
    for h in updaters {
        h.join().unwrap();
    }
    let evens = tree.pin().iter().filter(|(k, _)| k % 2 == 0).count();
    assert_eq!(evens, (SPACE / 2) as usize);
    tree.check_invariants();
}
