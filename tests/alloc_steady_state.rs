//! Counting-allocator battery for the arena pools (`testing-internals`).
//!
//! Installs a counting wrapper around the system allocator and asserts
//! the two steady-state properties the arena layer promises:
//!
//! 1. Read-only operations (`get` / `contains` / `range`) perform
//!    **zero** global allocations once the session and the scan-stack
//!    pool are warm.
//! 2. A 50i/50d update loop allocates no `Node` or `Info` from the
//!    global allocator, warm *or* cold: a cold pool's miss maps one
//!    slab per class from the kernel, and from then on the epoch
//!    collector recycles retired blocks back into the thread-local
//!    pools. What a round does
//!    allocate is the collector's own (bag seals and queue links), the
//!    same cold as warm.
//!
//! The whole battery runs in one `#[test]` because `#[global_allocator]`
//! is process-global: Rust's parallel test harness would otherwise run
//! unrelated tests beside it. The count is the test thread's own, so
//! what the harness's main thread allocates while it starts the test (a
//! few allocations, racing the cold round) is not counted.

use pnb_bst::testing::CountingAllocator;
use pnb_bst::{Handle, PnbBst};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocations() -> u64 {
    ALLOC.allocations()
}

const KEYS: u64 = 256;

/// One 50i/50d round over a bounded key set (interleaved, like the E1
/// update-only mix), with a collector checkpoint (re-pin + flush) so
/// retired memory can ripen and flow back into the pools.
fn churn_round(h: &mut Handle<'_, u64, u64>) {
    for k in 0..KEYS {
        h.insert(k, k);
        h.delete(&k);
        if k % 64 == 63 {
            h.refresh();
            h.flush();
        }
    }
}

#[test]
fn arena_steady_state_allocation_profile() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let mut h = tree.pin();

    // ---- Phase 1: one cold round — pools are empty, and a pool miss
    // is a slab, not a node: judged against the warm rounds below.
    let cold_start = allocations();
    churn_round(&mut h);
    let cold_round = allocations() - cold_start;

    // ---- Phase 2: saturate — keep churning so the two-epoch pipeline
    // fills and the free lists reach their working level.
    for _ in 0..40 {
        churn_round(&mut h);
    }

    // ---- Phase 3: warm churn — identical work, now pool-served. Only
    // the collector may allocate (sealed-bag vectors, queue links): 80
    // a round when every Node and Info still cost a `malloc` cold, and
    // no more now.
    const WARM_ROUNDS: u64 = 20;
    let warm_start = allocations();
    for _ in 0..WARM_ROUNDS {
        churn_round(&mut h);
    }
    let warm_round = (allocations() - warm_start) / WARM_ROUNDS;
    assert!(
        warm_round <= 80,
        "warm churn must be collector-only: {warm_round}/round"
    );
    // The cold round did that and carved its slabs, and the arena
    // allocated nothing for either: a slab is a mapping from the kernel,
    // its registry entry lives in the slab's own first block, and the
    // free lists and spillover chunks run through the pooled blocks.
    // What the round allocates is the collector's: 78, two fewer than a
    // warm round's 80. The bound is 78 + 1, one allocation of headroom:
    // a warm round less one.
    const COLD_SETUP: i64 = -1;
    assert!(
        cold_round as i64 <= warm_round as i64 + COLD_SETUP,
        "a cold round may carve slabs, not allocate nodes: {cold_round} cold vs {warm_round}/round warm"
    );

    // ---- Phase 4: read-only steady state — strictly zero.
    for k in 0..KEYS {
        h.insert(k, k);
    }
    // Warm the pooled scan stack and any lazy session state.
    assert_eq!(h.range(..).count(), KEYS as usize);
    let _ = h.get(&0);
    let read_start = allocations();
    for k in 0..KEYS {
        assert_eq!(h.get(&k), Some(k));
        assert!(h.contains(&k));
    }
    assert_eq!(h.range(8..=199).count(), 192);
    assert_eq!(h.range(..).count(), KEYS as usize);
    assert!(!h.contains(&(KEYS + 1)));
    let read = allocations() - read_start;
    assert_eq!(
        read, 0,
        "read-only get/contains/range steady state must not touch the global allocator"
    );

    assert_eq!(tree.check_invariants(), KEYS as usize);
}
