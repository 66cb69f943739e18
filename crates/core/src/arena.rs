//! Per-thread, epoch-integrated slab pools for the hot-path allocations.
//!
//! The paper assumes a garbage-collected runtime, so its pseudocode
//! freely allocates one `Info` plus one-to-three `Node`s per update
//! attempt. Forwarding each of those to the global allocator makes
//! `malloc`/`free` the dominant per-operation cost of update-heavy
//! workloads — worse, epoch-deferred frees run on whichever thread
//! performs the collection pass, so the global allocator also pays
//! cross-thread arena traffic for nearly every retirement.
//!
//! This module closes the loop instead with a **two-level pool**:
//! every `Node`/`Info` allocation first tries a thread-local free list
//! keyed by layout class; the epoch collector returns ripe memory
//! *back to a pool* through the typed
//! [`crossbeam_epoch::Guard::defer_recycle`] hook rather than freeing
//! it. Because ripe garbage lands in bursts on whichever thread ran
//! the collection pass, each class also has a lock-free **global
//! spillover stack** of block chunks: overflowing locals push surplus
//! there, and a thread whose local list runs dry pulls a chunk back
//! before falling through to the global allocator. After warm-up, a
//! steady-state update loop allocates from and recycles into pools
//! only; the global allocator remains the fallback for genuinely cold
//! pools.
//!
//! # Why this is sound
//!
//! * Pool memory is allocated with `std::alloc::alloc(Layout::new::<T>())`
//!   — exactly a `Box<T>` allocation — so every pointer handed out here
//!   may still be released with `Box::from_raw` (tree teardown does).
//! * Recycling obeys the same two-epoch rule as freeing: a block enters
//!   a free list only when `defer_recycle` proves no pinned thread can
//!   still reference it, so reuse introduces no ABA hazard that freeing
//!   to `malloc` (which also reuses addresses) would not.
//! * Free lists hold *raw memory*, not values: the destructor runs
//!   before pooling ([`recycle_raw`]), and [`alloc`] writes a fresh
//!   value before handing the block out.
//! * Blocks are shared across `T`s of identical size/alignment (e.g.
//!   `Node<K, V>` for different small `K`/`V`), which the allocator
//!   contract explicitly permits.
//!
//! Local lists spill past [`LOCAL_CAP`] blocks; exiting threads hand
//! their pools to the spillover so survivors inherit the warm memory.
//! The pools retain their peak working set by design — [`trim`]
//! releases everything back to the global allocator at workload
//! boundaries. The `stats` feature adds process-global
//! hit/miss/recycle counters ([`ArenaStats`]).

use std::alloc::{alloc as global_alloc, dealloc as global_dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicUsize};

/// Split point for a thread's free list: past this, half the list is
/// packaged into a [`Chunk`] and pushed onto the class's global
/// spillover stack. Ripe garbage arrives in collection-pass bursts on
/// whichever thread ran the pass; the spillover is what routes that
/// surplus to the threads that are actually allocating.
const LOCAL_CAP: usize = 4096;

/// Blocks per spillover chunk (= `LOCAL_CAP / 2`).
const CHUNK_BLOCKS: usize = 2048;

/// Upper bound on pooled scan-stack buffers per thread.
const MAX_STACK_BUFS: usize = 8;

/// One layout class: a free list of uniform raw blocks.
struct Class {
    layout: Layout,
    free: Vec<*mut u8>,
}

/// A thread's pools: a handful of layout classes (one per concrete
/// `Node`/`Info` instantiation — linear scan beats hashing at this
/// cardinality) plus recycled scan-stack buffers.
#[derive(Default)]
struct Pools {
    classes: Vec<Class>,
    stacks: Vec<Vec<*const ()>>,
}

impl Pools {
    fn class_mut(&mut self, layout: Layout) -> &mut Class {
        let idx = match self.classes.iter().position(|c| c.layout == layout) {
            Some(i) => i,
            None => {
                self.classes.push(Class {
                    layout,
                    free: Vec::new(),
                });
                self.classes.len() - 1
            }
        };
        &mut self.classes[idx]
    }
}

impl Drop for Pools {
    fn drop(&mut self) {
        // Thread exit: hand every pooled block to the global spillover
        // so surviving threads inherit the warm memory (benchmark
        // drivers respawn worker threads constantly). Classes whose
        // global slot could not be claimed fall back to deallocation.
        for c in &mut self.classes {
            let blocks = std::mem::take(&mut c.free);
            if blocks.is_empty() {
                continue;
            }
            match global_class(c.layout) {
                Some(g) => g.push_chunk(blocks),
                None => {
                    for p in blocks {
                        // SAFETY: pooled blocks were allocated with
                        // exactly this layout (classes are keyed by it).
                        unsafe { global_dealloc(p, c.layout) };
                    }
                }
            }
        }
    }
}

thread_local! {
    // const-init: keeps the TLS access on the fast path (no lazy-init
    // branch) — this is touched several times per tree operation.
    static POOLS: RefCell<Pools> = const {
        RefCell::new(Pools {
            classes: Vec::new(),
            stacks: Vec::new(),
        })
    };
}

// ---------------------------------------------------------------------------
// Global spillover (second pool level)
// ---------------------------------------------------------------------------

/// A batch of free blocks travelling between threads on a class's
/// spillover stack.
struct Chunk {
    next: *mut Chunk,
    blocks: Vec<*mut u8>,
}

/// Global side of one layout class: a Treiber stack of [`Chunk`]s.
///
/// Pops take the *entire* stack with one `swap(null)` — the popper then
/// owns every node outright, so there is no ABA window and no
/// use-after-free on `next` traversal (the classic Treiber pop hazard
/// never arises). Unabsorbed chunks are re-pushed.
struct GlobalClass {
    /// Claim word: 0 = free slot, otherwise the registered layout as
    /// encoded by [`layout_word`]. Written once, by the single CAS that
    /// claims the slot.
    layout: AtomicUsize,
    head: AtomicPtr<Chunk>,
}

/// A layout as a non-zero claim word: size above the low byte, log2 of
/// the alignment (plus one, so no layout encodes as "free") in it.
fn layout_word(layout: Layout) -> usize {
    debug_assert!(layout.size() < 1 << (usize::BITS - 8));
    layout.size() << 8 | (layout.align().trailing_zeros() as usize + 1)
}

/// Inverse of [`layout_word`] for a claimed slot.
fn word_layout(word: usize) -> Layout {
    Layout::from_size_align(word >> 8, 1 << ((word & 0xff) - 1))
        .expect("registered class layouts are valid")
}

impl GlobalClass {
    const fn new() -> Self {
        GlobalClass {
            layout: AtomicUsize::new(0),
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn push_chunk(&self, blocks: Vec<*mut u8>) {
        let chunk = Box::into_raw(Box::new(Chunk {
            next: std::ptr::null_mut(),
            blocks,
        }));
        loop {
            let head = self.head.load(Relaxed);
            // SAFETY: `chunk` is unpublished — we still own it.
            unsafe { (*chunk).next = head };
            // Release: publishes the chunk's contents to the popper.
            if self
                .head
                .compare_exchange_weak(head, chunk, Release, Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Take one chunk's worth of blocks, re-pushing any surplus chunks.
    fn pop_blocks(&self) -> Option<Vec<*mut u8>> {
        // Acquire pairs with the push's Release; after the swap the
        // whole chain is exclusively ours.
        let mut head = self.head.swap(std::ptr::null_mut(), AcqRel);
        if head.is_null() {
            return None;
        }
        // SAFETY: exclusive ownership of every node in the chain.
        let first = unsafe { Box::from_raw(head) };
        head = first.next;
        while !head.is_null() {
            let chunk = unsafe { Box::from_raw(head) };
            head = chunk.next;
            self.push_chunk(chunk.blocks);
        }
        Some(first.blocks)
    }
}

// SAFETY: the raw pointers inside are either atomics or owned blocks
// whose cross-thread hand-off is exactly what this type mediates.
unsafe impl Sync for GlobalClass {}

/// Fixed global registry of spillover classes (a process uses a couple
/// of `Node`/`Info` layouts; 16 slots is generous).
/// Wait-free: a slot is claimed by one CAS that installs the layout
/// itself, so a slot is either free or fully registered and a thread
/// that loses the CAS just reads what won. A full registry means that
/// layout degrades to thread-local pooling.
static GLOBAL_CLASSES: [GlobalClass; 16] = [const { GlobalClass::new() }; 16];

fn global_class(layout: Layout) -> Option<&'static GlobalClass> {
    let want = layout_word(layout);
    for slot in &GLOBAL_CLASSES {
        // Relaxed: the word is the whole registration — it publishes no
        // other data (`head` starts null and orders its own chunks).
        let mut seen = slot.layout.load(Relaxed);
        if seen == 0 {
            seen = match slot.layout.compare_exchange(0, want, Relaxed, Relaxed) {
                Ok(_) => want,
                Err(winner) => winner,
            };
        }
        if seen == want {
            return Some(slot);
        }
    }
    None
}

/// Allocate a `T` from the current thread's pool — refilled from the
/// class's global spillover on a miss, global allocator as the final
/// fallback — and initialize it with `value`. The returned pointer is
/// `Box`-compatible: it may be released with `Box::from_raw`,
/// [`free_now`], or retired through `defer_recycle` + [`recycle_raw`].
pub(crate) fn alloc<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    debug_assert!(layout.size() > 0, "arena does not pool ZSTs");
    // `try_with` so reclamation running during thread teardown (after
    // this TLS slot is gone) degrades to the global allocator.
    let pooled = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            let class = p.class_mut(layout);
            if let Some(raw) = class.free.pop() {
                return Some(raw);
            }
            // Local miss: pull a spillover chunk before giving up —
            // this is what rebalances bursts of ripe garbage from the
            // collecting thread to the allocating ones.
            let refill = global_class(layout).and_then(GlobalClass::pop_blocks)?;
            let class = p.class_mut(layout);
            class.free = refill;
            class.free.pop()
        })
        .ok()
        .flatten();
    let ptr = match pooled {
        Some(raw) => {
            counters::hit();
            raw as *mut T
        }
        None => {
            counters::miss();
            // SAFETY: non-zero size asserted above.
            let raw = unsafe { global_alloc(layout) };
            if raw.is_null() {
                handle_alloc_error(layout);
            }
            raw as *mut T
        }
    };
    // SAFETY: freshly allocated, properly aligned, uninitialized block.
    unsafe { ptr.write(value) };
    ptr
}

/// Run `T`'s destructor and return the block to the current thread's
/// pool. For allocations that were never published — the caller must be
/// the sole owner (the immediate-free counterpart of [`recycle_raw`]).
pub(crate) fn free_now<T>(ptr: *mut T) {
    // SAFETY: caller owns `ptr` exclusively (see doc contract).
    unsafe {
        std::ptr::drop_in_place(ptr);
        release(ptr as *mut u8, Layout::new::<T>());
    }
}

/// The `defer_recycle` hook: destroy the value and pool the memory on
/// whichever thread runs the collection pass.
///
/// # Safety
///
/// `ptr` must be a live, exclusively-owned allocation of `T` compatible
/// with `Layout::new::<T>()` (the epoch collector guarantees exclusivity
/// when it runs ripe bags).
pub(crate) unsafe fn recycle_raw<T>(ptr: *mut T) {
    // Destructor first: it may itself allocate or defer, so it must run
    // outside the pool borrow.
    unsafe {
        std::ptr::drop_in_place(ptr);
        release(ptr as *mut u8, Layout::new::<T>());
    }
}

/// Pool a raw block. When the thread's free list passes [`LOCAL_CAP`],
/// half of it spills to the class's global stack (other threads pull it
/// back on their misses); the global allocator is touched only when the
/// thread is mid-teardown or the class registry is full.
///
/// # Safety
///
/// `raw` must have been allocated with `layout` and be exclusively owned.
unsafe fn release(raw: *mut u8, layout: Layout) {
    let pooled = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            let class = p.class_mut(layout);
            class.free.push(raw);
            if class.free.len() >= LOCAL_CAP {
                let spill: Vec<*mut u8> = class.free.split_off(class.free.len() - CHUNK_BLOCKS);
                match global_class(layout) {
                    Some(g) => g.push_chunk(spill),
                    None => {
                        for p in spill {
                            // SAFETY: allocated with `layout` (class key).
                            unsafe { global_dealloc(p, layout) };
                        }
                    }
                }
            }
        })
        .is_ok();
    if pooled {
        counters::recycled(layout.size() as u64);
    } else {
        // SAFETY: allocated with `layout` per this function's contract.
        unsafe { global_dealloc(raw, layout) };
    }
}

// ---------------------------------------------------------------------------
// Pooled scan stacks
// ---------------------------------------------------------------------------

/// A pooled descent stack of raw node pointers, used by the range-scan
/// traversals so a warm read-only scan performs **zero** global
/// allocations: the buffer is borrowed from the thread's pool on
/// construction and returned on drop. Type-erased to `*const ()` so one
/// buffer serves every `Node<K, V>` instantiation.
pub(crate) struct ScanStack<T> {
    buf: Vec<*const ()>,
    _marker: PhantomData<*const T>,
}

impl<T> ScanStack<T> {
    pub(crate) fn new() -> Self {
        let buf = POOLS
            .try_with(|p| p.borrow_mut().stacks.pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        ScanStack {
            buf,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, ptr: *const T) {
        self.buf.push(ptr as *const ());
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<*const T> {
        self.buf.pop().map(|p| p as *const T)
    }

    /// Read the entry `i` positions below the top without popping
    /// (`i == 0` is the top). Used by the batch prefix stack, which
    /// resumes descents from retained frames rather than consuming them.
    #[inline]
    pub(crate) fn peek_from_top(&self, i: usize) -> Option<*const T> {
        let n = self.buf.len();
        if i < n {
            Some(self.buf[n - 1 - i] as *const T)
        } else {
            None
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

impl<T> Drop for ScanStack<T> {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return; // nothing worth pooling
        }
        let buf = std::mem::take(&mut self.buf);
        let _ = POOLS.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.stacks.len() < MAX_STACK_BUFS {
                let mut buf = buf;
                buf.clear();
                p.stacks.push(buf);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Counters (stats feature)
// ---------------------------------------------------------------------------

/// Process-global arena counters, exposed through `arena_stats` (a
/// `pnb_bst` re-export that exists with the `stats` feature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served from a thread-local free list.
    pub pool_hits: u64,
    /// Allocations that fell back to the global allocator.
    pub pool_misses: u64,
    /// Bytes returned to thread-local free lists by the collector.
    pub recycled_bytes: u64,
}

#[cfg(feature = "stats")]
mod counters {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub(super) static HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static MISSES: AtomicU64 = AtomicU64::new(0);
    pub(super) static RECYCLED: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn hit() {
        HITS.fetch_add(1, Relaxed);
    }
    #[inline]
    pub(super) fn miss() {
        MISSES.fetch_add(1, Relaxed);
    }
    #[inline]
    pub(super) fn recycled(bytes: u64) {
        RECYCLED.fetch_add(bytes, Relaxed);
    }
}

#[cfg(not(feature = "stats"))]
mod counters {
    #[inline(always)]
    pub(super) fn hit() {}
    #[inline(always)]
    pub(super) fn miss() {}
    #[inline(always)]
    pub(super) fn recycled(_bytes: u64) {}
}

/// Release every block pooled by *this thread* and by the global
/// spillover stacks back to the global allocator.
///
/// The pools deliberately retain their peak working set (that is what
/// makes warm updates allocation-free), which also means that memory is
/// invisible to the rest of the process until trimmed. Call this at
/// workload boundaries — e.g. between structures in a benchmark
/// harness, or after tearing down the last tree — when the retained
/// footprint matters more than the next tree's warm-up.
pub fn trim() {
    let _ = POOLS.try_with(|p| {
        let mut p = p.borrow_mut();
        for c in &mut p.classes {
            for blk in c.free.drain(..) {
                // SAFETY: pooled blocks were allocated with exactly the
                // class layout.
                unsafe { global_dealloc(blk, c.layout) };
            }
        }
        p.stacks.clear();
    });
    for slot in &GLOBAL_CLASSES {
        let word = slot.layout.load(Relaxed);
        if word == 0 {
            continue;
        }
        let layout = word_layout(word);
        while let Some(blocks) = slot.pop_blocks() {
            for blk in blocks {
                // SAFETY: spillover blocks were allocated with the
                // class layout.
                unsafe { global_dealloc(blk, layout) };
            }
        }
    }
}

/// Read the process-global arena counters (monotone; assert on deltas).
#[cfg(feature = "stats")]
pub fn arena_stats() -> ArenaStats {
    use std::sync::atomic::Ordering::Relaxed;
    ArenaStats {
        pool_hits: counters::HITS.load(Relaxed),
        pool_misses: counters::MISSES.load(Relaxed),
        recycled_bytes: counters::RECYCLED.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_now_reuses_the_block() {
        let p1 = alloc(0xDEAD_BEEFu64);
        assert_eq!(unsafe { *p1 }, 0xDEAD_BEEF);
        free_now(p1);
        // Same thread, same layout class: the very next allocation must
        // come from the pool — i.e. the same block.
        let p2 = alloc(7u64);
        assert_eq!(p2, p1, "pool must serve the recycled block (LIFO)");
        assert_eq!(unsafe { *p2 }, 7);
        free_now(p2);
    }

    #[test]
    fn recycle_raw_runs_the_destructor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let before = DROPS.load(Ordering::Relaxed);
        let p = alloc(D(1));
        unsafe { recycle_raw(p) };
        assert_eq!(DROPS.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn box_from_raw_is_compatible_with_pool_blocks() {
        // Tree teardown releases current-tree nodes with Box::from_raw,
        // whether they came from the pool or not.
        let p = alloc(vec![1u8, 2, 3]);
        let b = unsafe { Box::from_raw(p) };
        assert_eq!(*b, vec![1, 2, 3]);
    }

    #[test]
    fn distinct_layouts_use_distinct_classes() {
        let a = alloc(1u64);
        let b = alloc([1u128; 4]);
        free_now(a);
        free_now(b);
        let b2 = alloc([2u128; 4]);
        assert_eq!(b2, b, "16-align class must not be served the u64 block");
        free_now(b2);
    }

    #[test]
    fn concurrent_registration_yields_one_slot_per_layout() {
        // Layouts no other test uses: the registry is process-global,
        // so only these two are asserted on.
        let layouts = [
            Layout::from_size_align(4104, 8).unwrap(),
            Layout::from_size_align(4160, 64).unwrap(),
        ];
        let barrier = std::sync::Barrier::new(8);
        let got: Vec<[usize; 2]> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8)
                .map(|t| {
                    let (barrier, layouts) = (&barrier, &layouts);
                    s.spawn(move || {
                        barrier.wait();
                        // Half the threads register in the opposite order.
                        let mut at = [0usize; 2];
                        for i in [t % 2, 1 - t % 2] {
                            let slot = global_class(layouts[i]).expect("registry has room");
                            at[i] = slot as *const GlobalClass as usize;
                        }
                        at
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|at| *at == got[0]), "same slot per layout");
        assert_ne!(got[0][0], got[0][1]);
        for layout in layouts {
            let word = layout_word(layout);
            assert_eq!(word_layout(word), layout);
            let slots = GLOBAL_CLASSES
                .iter()
                .filter(|s| s.layout.load(Relaxed) == word);
            assert_eq!(slots.count(), 1, "{layout:?} registered exactly once");
        }
    }

    #[test]
    fn scan_stack_pools_its_buffer() {
        let mut s: ScanStack<u64> = ScanStack::new();
        let x = 9u64;
        s.push(&x);
        assert_eq!(s.len(), 1);
        let cap_ptr = s.buf.as_ptr();
        assert_eq!(s.pop(), Some(&x as *const u64));
        assert_eq!(s.pop(), None);
        drop(s);
        // The buffer (now warm) must be handed to the next stack.
        let s2: ScanStack<u32> = ScanStack::new();
        assert_eq!(s2.buf.as_ptr(), cap_ptr);
    }
}
