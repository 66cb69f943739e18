//! `arena_trim` gives memory back (`testing-internals`).
//!
//! The arena carves `Node`s and `Info`s out of slabs it maps from the
//! kernel and keeps freed blocks pooled, so the only way the process's
//! footprint ever falls is `arena_trim` unmapping wholly unused slabs.
//! Two counters hold it to that: the arena's own count of mapped slab
//! bytes, and a live-byte counting allocator for what the pools keep on
//! the heap (free-list vectors, spillover chunks). After a 50 k-key map
//! is dropped and the collector drained, a trim must bring both back to
//! within a slab of where they started — and must leave the slabs that
//! still carry a live tree's nodes alone.
//!
//! One `#[test]`, its own binary: both counters are process-global.

use pnb_bst::testing::{arena_slab_bytes, CountingAllocator};
use pnb_bst::{arena_trim, collector_drain, PnbBst};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const KEYS: u64 = 50_000;
/// The arena's slab size: less than this may stay behind (a class's
/// slab with the keeper's nodes in it, free-list vectors, a straggling
/// bag); the map took several times it.
const SLAB: i64 = 2 << 20;

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

    drop(map);
    collector_drain(4);
    arena_trim();
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
