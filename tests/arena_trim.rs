//! `arena_trim` gives memory back (`testing-internals`).
//!
//! The arena carves `Node`s and `Info`s out of slabs and keeps freed
//! blocks pooled, so the only way the process's footprint ever falls is
//! `arena_trim` returning wholly unused slabs. A live-byte counting
//! allocator holds it to that: after a 50 k-key map is dropped and the
//! collector drained, a trim must bring live bytes back to within a
//! slab of where they started — and must leave the slabs that still
//! carry a live tree's nodes alone.
//!
//! One `#[test]`, its own binary: `#[global_allocator]` counters are
//! process-global.

use pnb_bst::testing::CountingAllocator;
use pnb_bst::{arena_trim, collector_drain, PnbBst};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const KEYS: u64 = 50_000;
/// The arena's slab size: less than this may stay behind (free-list
/// vectors, a straggling bag), eighteen times it was taken.
const SLAB: i64 = 1 << 20;

#[test]
fn trim_returns_slabs_and_spares_live_ones() {
    // A small map that stays alive throughout: its nodes sit in the
    // first slab of each class, which therefore must survive every trim.
    let keeper: PnbBst<u64, u64> = PnbBst::new();
    for k in 0..100 {
        keeper.insert(k, k + 1);
    }
    let start = ALLOC.live_bytes();

    let map: PnbBst<u64, u64> = PnbBst::new();
    {
        let h = map.pin();
        for k in 0..KEYS {
            h.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
        }
    }
    assert_eq!(map.len(), KEYS as usize);
    let built = ALLOC.live_bytes() - start;
    // 2n + 1 nodes of 64 B, rounded up to whole slabs, plus Infos.
    assert!(built >= 2 * KEYS as i64 * 64, "built only {built} B");

    drop(map);
    collector_drain(4);
    arena_trim();
    let kept = ALLOC.live_bytes() - start;
    assert!(
        kept < SLAB,
        "trim left {kept} B of the {built} B the map took"
    );

    for k in 0..100 {
        assert_eq!(keeper.get(&k), Some(k + 1));
    }
    assert_eq!(keeper.check_invariants(), 100);
}
