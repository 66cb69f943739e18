//! `arena_trim` gives memory back (`testing-internals`).
//!
//! The arena carves `Node`s and `Info`s out of slabs it maps from the
//! kernel and keeps freed blocks pooled, so the only way the process's
//! footprint ever falls is `arena_trim` unmapping wholly unused slabs.
//! Two counters hold it to that: the arena's own count of mapped slab
//! bytes, and a live-byte counting allocator for the heap. The pools'
//! free lists and spillover chunks run through the pooled blocks
//! themselves, so dropping the map, draining the collector and trimming
//! must not raise the heap by more than the collector's own bags
//! (under 64 KiB; about 1 MiB when the lists were vectors). After them
//! the slab bytes must be back to within a slab of where they started,
//! and the slabs that still carry a live tree's nodes left alone.
//!
//! One `#[test]`, its own binary: both counters are process-global.

use pnb_bst::testing::{arena_slab_bytes, CountingAllocator};
use pnb_bst::{arena_trim, collector_drain, PnbBst};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const KEYS: u64 = 50_000;
/// The arena's slab size: less than this may stay behind (a class's
/// slab with the keeper's nodes in it, a straggling bag); the map took
/// several times it.
const SLAB: i64 = 2 << 20;

/// The most the heap may grow by while the map is dropped, the
/// collector drained and the arena trimmed: the collector's bags, not
/// a word per pooled block.
const TEARDOWN_HEAP: i64 = 64 << 10;

fn slab_bytes() -> i64 {
    arena_slab_bytes() as i64
}

#[test]
fn trim_returns_slabs_and_spares_live_ones() {
    // A small map that stays alive throughout: its nodes sit in the
    // first slab of each class, which therefore must survive every trim.
    let keeper: PnbBst<u64, u64> = PnbBst::new();
    for k in 0..100 {
        keeper.insert(k, k + 1);
    }
    let (start_slabs, start_heap) = (slab_bytes(), ALLOC.live_bytes());

    let map: PnbBst<u64, u64> = PnbBst::new();
    {
        let h = map.pin();
        for k in 0..KEYS {
            h.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
        }
    }
    assert_eq!(map.snapshot().len(), KEYS as usize);
    let built = slab_bytes() - start_slabs;
    // 2n + 1 nodes of 64 B, rounded up to whole slabs, plus Infos.
    assert!(built >= 2 * KEYS as i64 * 64, "built only {built} B");

    ALLOC.reset_peak();
    let before = ALLOC.live_bytes();
    drop(map);
    collector_drain(4);
    arena_trim();
    let peak = ALLOC.peak_live_bytes() - before;
    assert!(
        peak < TEARDOWN_HEAP,
        "dropping, draining and trimming raised the heap by {peak} B"
    );
    let kept = slab_bytes() - start_slabs;
    assert!(
        kept < SLAB,
        "trim left {kept} B of the {built} B of slab the map took"
    );
    let heap = ALLOC.live_bytes() - start_heap;
    assert!(heap < SLAB, "trim left {heap} B of heap behind");

    for k in 0..100 {
        assert_eq!(keeper.get(&k), Some(k + 1));
    }
    assert_eq!(keeper.check_invariants(), 100);
}
