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
//! This module closes the loop instead with a **two-level pool** over
//! **slabs it carves itself**: every `Node`/`Info` allocation first
//! tries a thread-local free list keyed by layout class; the epoch
//! collector returns ripe memory *back to a pool* through the typed
//! [`crossbeam_epoch::Guard::defer_recycle`] hook rather than freeing
//! it. Because ripe garbage lands in bursts on whichever thread ran
//! the collection pass, each class also has a lock-free **global
//! spillover stack** of block chunks: overflowing locals push surplus
//! there, and a thread whose local list runs dry pulls a chunk back.
//! Only when both are empty does the thread take the next block of its
//! current slab, and only when that is used up does it map a new slab
//! — [`SLAB_BYTES`] of anonymous memory from the kernel, aligned to its
//! own size — not a block. So a 64-byte `Node` costs 64 bytes and sits
//! on its own cache line, and a cold update performs no `malloc` at all.
//!
//! # Huge pages
//!
//! Every operation is a pointer chase from the root to a leaf, and
//! below the top few levels of a large tree each step lands on a page
//! no recent step touched: a TLB miss, which on a virtual machine is a
//! two-dimensional page walk. A slab is one 2-MiB-aligned transparent
//! huge page's worth of memory, so the moment a thread carves its last
//! block, it asks the kernel to collapse the slab into one huge page
//! (`madvise(MADV_COLLAPSE)`). Every block of the slab has been handed
//! out, and [`alloc`] writes each one it hands out, so every 4-KiB page
//! of it is resident already: the collapse replaces 512 page-table
//! entries with one and adds no memory. The slab a thread is still
//! carving stays in 4-KiB pages — advising huge pages at fault time
//! instead (`MADV_HUGEPAGE`) makes each half-carved slab resident in
//! full. The call is advice: where the kernel refuses it (Linux before
//! 6.1, no THP support, no free 2-MiB frame), nothing changes but the
//! speed.
//!
//! # Why this is sound
//!
//! * A block belongs to its slab for life: it goes back to a pool
//!   ([`free_now`], [`recycle_raw`]), never to `Box::from_raw` or
//!   `dealloc` on its own. Each class lists its slabs, and [`trim`]
//!   unmaps one only while it privately holds every block of it.
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
//! The pools retain their peak working set by design — [`trim`] unmaps
//! every wholly unused slab at workload boundaries. The `stats` feature
//! adds process-global hit/miss/recycle counters ([`ArenaStats`]).

use std::alloc::{alloc as global_alloc, dealloc as global_dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
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

/// Bytes per slab, and the alignment of every slab: one transparent
/// huge page, so a carved-out slab can become one TLB entry.
const SLAB_BYTES: usize = 2 << 20;

/// Floor on blocks per slab, for layouts past `SLAB_BYTES / 512`.
const MIN_SLAB_BLOCKS: usize = 512;

/// Distance between two blocks of a class in its slabs.
fn stride(block: Layout) -> usize {
    block.pad_to_align().size()
}

/// Bytes a class maps per slab: whole huge pages, at least one.
fn slab_len(block: Layout) -> usize {
    (MIN_SLAB_BLOCKS * stride(block)).next_multiple_of(SLAB_BYTES)
}

/// The part of a slab a class carves: whole blocks only.
fn carve_len(block: Layout) -> usize {
    slab_len(block) / stride(block) * stride(block)
}

fn global_alloc_checked(layout: Layout) -> *mut u8 {
    // SAFETY: every caller passes a non-zero size (`alloc` asserts it).
    let raw = unsafe { global_alloc(layout) };
    if raw.is_null() {
        handle_alloc_error(layout);
    }
    raw
}

/// One layout class: a free list of uniform raw blocks, and the part
/// of this thread's latest slab that has never been handed out.
struct Class {
    layout: Layout,
    /// The class's spillover and slab registry. `None` when the
    /// registry is full: such a layout is not pooled at all, each block
    /// is its own global allocation.
    global: Option<&'static GlobalClass>,
    free: Vec<*mut u8>,
    /// `fresh..fresh_end` is the uncarved tail of a registered slab;
    /// both are null before the first slab and after [`trim`] unmaps
    /// the slab they were in.
    fresh: *mut u8,
    fresh_end: *mut u8,
}

impl Class {
    /// A raw block: from the free list, a spillover chunk, or the slab.
    fn take(&mut self) -> *mut u8 {
        if self.free.is_empty() {
            // Local miss: pull a spillover chunk first — this is what
            // rebalances bursts of ripe garbage from the collecting
            // thread to the allocating ones.
            if let Some(refill) = self.global.and_then(|g| g.free.pop()) {
                self.free = refill;
            }
        }
        if let Some(raw) = self.free.pop() {
            counters::hit();
            asan::unpoison(raw, self.layout);
            return raw;
        }
        let Some(g) = self.global else {
            counters::miss();
            return global_alloc_checked(self.layout);
        };
        let carve = carve_len(self.layout);
        if self.fresh == self.fresh_end {
            counters::miss();
            self.fresh = os::map(slab_len(self.layout));
            // SAFETY: the carved part of the slab just mapped.
            self.fresh_end = unsafe { self.fresh.add(carve) };
            g.slabs.push(vec![self.fresh]);
        } else {
            counters::hit();
        }
        let raw = self.fresh;
        // SAFETY: the tail is a whole number of strides long.
        self.fresh = unsafe { raw.add(stride(self.layout)) };
        if self.fresh == self.fresh_end {
            // Carved out: every block but this one has been written, so
            // the slab is resident (this block's page too, unless the
            // block spans pages) and the collapse adds no memory.
            os::collapse(self.fresh_end.wrapping_sub(carve), slab_len(self.layout));
        }
        raw
    }

    /// Pool a raw block; past [`LOCAL_CAP`], half the list spills to
    /// the global stack (other threads pull it back on their misses).
    ///
    /// # Safety
    ///
    /// `raw` must come from [`Class::take`] of this layout and be
    /// exclusively owned.
    unsafe fn give(&mut self, raw: *mut u8) {
        let Some(g) = self.global else {
            // SAFETY: unpooled layouts allocate each block with it.
            return unsafe { global_dealloc(raw, self.layout) };
        };
        asan::poison(raw, self.layout);
        self.free.push(raw);
        if self.free.len() >= LOCAL_CAP {
            g.free
                .push(self.free.split_off(self.free.len() - CHUNK_BLOCKS));
        }
    }
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
                    global: global_class(layout),
                    free: Vec::new(),
                    fresh: std::ptr::null_mut(),
                    fresh_end: std::ptr::null_mut(),
                });
                self.classes.len() - 1
            }
        };
        &mut self.classes[idx]
    }
}

impl Drop for Pools {
    fn drop(&mut self) {
        // Thread exit: hand every pooled block, carved or not, to the
        // global spillover so surviving threads inherit the warm memory
        // (benchmark drivers respawn worker threads constantly).
        for c in &mut self.classes {
            let Some(g) = c.global else { continue };
            while c.fresh < c.fresh_end {
                c.free.push(c.fresh);
                // SAFETY: the tail is a whole number of strides long.
                c.fresh = unsafe { c.fresh.add(stride(c.layout)) };
            }
            for blocks in c.free.chunks(CHUNK_BLOCKS) {
                g.free.push(blocks.to_vec());
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

/// Run `f` on this thread's pools — or, for reclamation running during
/// thread teardown after the TLS slot is gone, on a temporary set whose
/// drop hands whatever it ends up holding to the spillover.
fn with_pools<R>(f: impl FnOnce(&mut Pools) -> R) -> R {
    let mut f = Some(f);
    let mut run = |p: &mut Pools| (f.take().expect("runs once"))(p);
    match POOLS.try_with(|p| run(&mut p.borrow_mut())) {
        Ok(r) => r,
        Err(_) => run(&mut Pools::default()),
    }
}

// ---------------------------------------------------------------------------
// Global spillover and slab registry (second pool level)
// ---------------------------------------------------------------------------

/// A batch of pointers travelling between threads on a [`Stack`].
struct Chunk {
    next: *mut Chunk,
    blocks: Vec<*mut u8>,
}

/// A Treiber stack of [`Chunk`]s.
///
/// Takers take the *entire* stack with one `swap(null)` and then own
/// every node outright, so there is no ABA window and no
/// use-after-free on `next` traversal (the classic Treiber pop hazard
/// never arises).
struct Stack(AtomicPtr<Chunk>);

impl Stack {
    fn push(&self, blocks: Vec<*mut u8>) {
        let chunk = Box::into_raw(Box::new(Chunk {
            next: std::ptr::null_mut(),
            blocks,
        }));
        self.push_chain(chunk, chunk);
    }

    /// Push the chain `first ..= last` (linked through `next`) as one.
    fn push_chain(&self, first: *mut Chunk, last: *mut Chunk) {
        loop {
            let head = self.0.load(Relaxed);
            // SAFETY: the chain is unpublished — we still own it.
            unsafe { (*last).next = head };
            // Release: publishes the chain's contents to the taker.
            if self
                .0
                .compare_exchange_weak(head, first, Release, Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    fn take_all(&self) -> Vec<Vec<*mut u8>> {
        // Acquire pairs with the push's Release; after the swap the
        // whole chain is exclusively ours.
        let mut head = self.0.swap(std::ptr::null_mut(), AcqRel);
        let mut all = Vec::new();
        while !head.is_null() {
            // SAFETY: exclusive ownership of every node in the chain.
            let chunk = unsafe { Box::from_raw(head) };
            head = chunk.next;
            all.push(chunk.blocks);
        }
        all
    }

    /// Take one chunk: take the whole stack, keep its head and splice
    /// the rest of the chain back, `Chunk` boxes and all.
    fn pop(&self) -> Option<Vec<*mut u8>> {
        // Acquire/exclusivity: as in `take_all`.
        let head = self.0.swap(std::ptr::null_mut(), AcqRel);
        if head.is_null() {
            return None;
        }
        // SAFETY: exclusive ownership of every node in the chain.
        let chunk = unsafe { Box::from_raw(head) };
        let rest = chunk.next;
        if !rest.is_null() {
            let mut last = rest;
            // SAFETY: still ours — the chain is unpublished until the
            // splice below.
            unsafe {
                while !(*last).next.is_null() {
                    last = (*last).next;
                }
            }
            self.push_chain(rest, last);
        }
        Some(chunk.blocks)
    }
}

/// Global side of one layout class.
struct GlobalClass {
    /// Claim word: 0 = free slot, otherwise the registered layout as
    /// encoded by [`layout_word`]. Written once, by the single CAS that
    /// claims the slot.
    layout: AtomicUsize,
    /// Spillover: chunks of free blocks.
    free: Stack,
    /// Base addresses of the class's live slabs. Read only by [`trim`],
    /// which takes the lot, so a concurrent trim (or one racing a
    /// carve) just sees fewer slabs and leaves their blocks pooled.
    slabs: Stack,
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
            free: Stack(AtomicPtr::new(std::ptr::null_mut())),
            slabs: Stack(AtomicPtr::new(std::ptr::null_mut())),
        }
    }
}

/// Fixed global registry of spillover classes (a process uses a couple
/// of `Node`/`Info` layouts; 16 slots is generous).
/// Wait-free: a slot is claimed by one CAS that installs the layout
/// itself, so a slot is either free or fully registered and a thread
/// that loses the CAS just reads what won. A full registry means that
/// layout is not pooled.
static GLOBAL_CLASSES: [GlobalClass; 16] = [const { GlobalClass::new() }; 16];

fn global_class(layout: Layout) -> Option<&'static GlobalClass> {
    let want = layout_word(layout);
    for slot in &GLOBAL_CLASSES {
        // Relaxed: the word is the whole registration — it publishes no
        // other data (the stacks start null and order their own chunks).
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

/// Allocate a `T` from the current thread's pool (see [`Class::take`]
/// for the order it falls through) and initialize it with `value`. The
/// block stays the arena's: release it with [`free_now`], or retire it
/// through `defer_recycle` + [`recycle_raw`] — never with `Box`.
pub(crate) fn alloc<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    debug_assert!(layout.size() > 0, "arena does not pool ZSTs");
    let ptr = with_pools(|p| p.class_mut(layout).take()) as *mut T;
    // SAFETY: a free block of `T`'s layout, exclusively ours.
    unsafe { ptr.write(value) };
    ptr
}

/// Run `T`'s destructor and return the block to the current thread's
/// pool. For allocations that were never published — the caller must be
/// the sole owner (the immediate-free counterpart of [`recycle_raw`]).
pub(crate) fn free_now<T>(ptr: *mut T) {
    // SAFETY: caller owns `ptr` exclusively (see doc contract).
    unsafe { recycle_raw(ptr) }
}

/// The `defer_recycle` hook: destroy the value and pool the memory on
/// whichever thread runs the collection pass.
///
/// # Safety
///
/// `ptr` must be a live, exclusively-owned `T` from [`alloc`] (the
/// epoch collector guarantees exclusivity when it runs ripe bags).
pub(crate) unsafe fn recycle_raw<T>(ptr: *mut T) {
    let layout = Layout::new::<T>();
    // Destructor first: it may itself allocate or defer, so it must run
    // outside the pool borrow.
    unsafe {
        std::ptr::drop_in_place(ptr);
        with_pools(|p| p.class_mut(layout).give(ptr as *mut u8));
    }
    counters::recycled(layout.size() as u64);
}

// ---------------------------------------------------------------------------
// Pooled scan stacks
// ---------------------------------------------------------------------------

/// A pooled descent stack of raw node pointers, used by the range-scan
/// traversals so a warm read-only scan performs **zero** global
/// allocations: the buffer is borrowed from the thread's pool on
/// construction and returned on drop. Pooled as `Vec<*const ()>` so one
/// buffer serves every `Node<K, V>` instantiation; in use it is a plain
/// `Vec<*const T>` (`Deref`).
pub(crate) struct ScanStack<T> {
    buf: Vec<*const T>,
}

impl<T> ScanStack<T> {
    pub(crate) fn new() -> Self {
        let buf = POOLS
            .try_with(|p| p.borrow_mut().stacks.pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        ScanStack { buf: retype(buf) }
    }

    /// Read the entry `i` positions below the top without popping
    /// (`i == 0` is the top). Used by the batch prefix stack, which
    /// resumes descents from retained frames rather than consuming them.
    #[inline]
    pub(crate) fn peek_from_top(&self, i: usize) -> Option<*const T> {
        let n = self.buf.len();
        if i < n {
            Some(self.buf[n - 1 - i])
        } else {
            None
        }
    }
}

impl<T> std::ops::Deref for ScanStack<T> {
    type Target = Vec<*const T>;

    #[inline]
    fn deref(&self) -> &Vec<*const T> {
        &self.buf
    }
}

impl<T> std::ops::DerefMut for ScanStack<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<*const T> {
        &mut self.buf
    }
}

impl<T> Drop for ScanStack<T> {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return; // nothing worth pooling
        }
        self.buf.clear();
        let buf = retype(std::mem::take(&mut self.buf));
        let _ = POOLS.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.stacks.len() < MAX_STACK_BUFS {
                p.stacks.push(buf);
            }
        });
    }
}

/// The same buffer, holding pointers to another type.
fn retype<A, B>(v: Vec<*const A>) -> Vec<*const B> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: `*const A` and `*const B` (both `Sized` pointees) are thin
    // pointers of one size and alignment, so the allocation's layout is
    // unchanged, and every element is a plain address.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
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
    /// Allocations that had to map a new slab.
    pub pool_misses: u64,
    /// Bytes returned to thread-local free lists by the collector.
    pub recycled_bytes: u64,
}

/// Slabs come from the kernel, not the global allocator: an anonymous
/// mapping over-sized by one huge page and trimmed to an aligned one.
/// Declared here rather than through a `libc` dependency, like the
/// server's `epoll` calls.
mod os {
    use super::SLAB_BYTES;
    use std::alloc::{handle_alloc_error, Layout};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        #[cfg(target_os = "linux")]
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = if cfg!(target_os = "linux") {
        0x20
    } else {
        0x1000
    };
    const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;
    #[cfg(target_os = "linux")]
    const MADV_COLLAPSE: i32 = 25;

    /// Bytes of slab currently mapped, process-wide.
    pub(super) static MAPPED: AtomicUsize = AtomicUsize::new(0);

    /// `len` bytes (a multiple of [`SLAB_BYTES`]) of zeroed memory,
    /// aligned to [`SLAB_BYTES`]. None of it is resident until touched.
    pub(super) fn map(len: usize) -> *mut u8 {
        let over = len + SLAB_BYTES;
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                over,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw == MAP_FAILED {
            handle_alloc_error(Layout::from_size_align(len, SLAB_BYTES).expect("slab layout"));
        }
        let head = raw.align_offset(SLAB_BYTES);
        // SAFETY: both ends lie in the mapping just made, outside the
        // aligned `len` bytes kept, and nothing has seen them.
        unsafe {
            let base = raw.add(head);
            trim_end(raw, head);
            trim_end(base.add(len), SLAB_BYTES - head);
            MAPPED.fetch_add(len, Relaxed);
            base
        }
    }

    /// # Safety
    ///
    /// `len` bytes at `at` are mapped and nothing will touch them again.
    unsafe fn trim_end(at: *mut u8, len: usize) {
        // SAFETY: the caller's contract; `munmap` refuses a zero length.
        if len > 0 && unsafe { munmap(at, len) } != 0 {
            panic!(
                "munmap of a slab's end failed: {}",
                std::io::Error::last_os_error()
            );
        }
    }

    /// Give a slab back to the kernel.
    ///
    /// # Safety
    ///
    /// `base` and `len` are a slab [`map`] returned, and no block of it
    /// is reachable any more.
    pub(super) unsafe fn unmap(base: *mut u8, len: usize) {
        // SAFETY: the caller's contract.
        unsafe { trim_end(base, len) };
        MAPPED.fetch_sub(len, Relaxed);
    }

    /// Ask for `len` bytes at `base` (a slab) to become huge pages. Only
    /// advice: a kernel that cannot (or will not) leaves them as they are.
    pub(super) fn collapse(base: *mut u8, len: usize) {
        // SAFETY: a slab this thread mapped; the advice changes how the
        // range is backed, never its contents.
        #[cfg(target_os = "linux")]
        unsafe {
            madvise(base, len, MADV_COLLAPSE);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (base, len);
    }
}

/// Bytes of slab mapped right now, process-wide.
#[cfg(feature = "testing-internals")]
pub(crate) fn mapped_slab_bytes() -> usize {
    os::MAPPED.load(Relaxed)
}

/// A pooled block is freed memory as far as the program is concerned,
/// but AddressSanitizer's allocator never saw it (a slab is a plain
/// mapping), so ASan would take a read of a recycled `Node` or `Info`
/// for a valid one. Built with `--cfg pnb_asan` (as `ci/sanitize.sh`
/// does), a block is poisoned while it sits in a pool and any touch of
/// it is a report.
#[cfg(pnb_asan)]
mod asan {
    use std::alloc::Layout;

    extern "C" {
        fn __asan_poison_memory_region(addr: *const u8, size: usize);
        fn __asan_unpoison_memory_region(addr: *const u8, size: usize);
    }

    pub(super) fn poison(raw: *mut u8, layout: Layout) {
        // SAFETY: a whole block of the class, owned by the pool.
        unsafe { __asan_poison_memory_region(raw, layout.size()) }
    }

    pub(super) fn unpoison(raw: *mut u8, layout: Layout) {
        // SAFETY: as above; the block is leaving the pool.
        unsafe { __asan_unpoison_memory_region(raw, layout.size()) }
    }
}

#[cfg(not(pnb_asan))]
mod asan {
    use std::alloc::Layout;

    #[inline(always)]
    pub(super) fn poison(_raw: *mut u8, _layout: Layout) {}
    #[inline(always)]
    pub(super) fn unpoison(_raw: *mut u8, _layout: Layout) {}
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

/// Return to the kernel every slab whose blocks are *all*
/// pooled — on this thread's lists or the global spillover stacks — and
/// keep the rest pooled. Blocks held live, or by another thread's
/// lists, pin their slab until a later call.
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
        p.stacks.clear();
        for g in &GLOBAL_CLASSES {
            match g.layout.load(Relaxed) {
                0 => break, // slots are claimed in order
                word => trim_class(p.class_mut(word_layout(word)), g),
            }
        }
    });
}

fn trim_class(local: &mut Class, g: &GlobalClass) {
    let (stride, carve) = (stride(local.layout), carve_len(local.layout));
    // Own everything poolable outright: the chunks stay the vectors
    // they already are, and the only new memory is one word pair per
    // slab — a trim must not raise the footprint it is there to cut.
    let chunks = g.free.take_all();
    let mut slabs: Vec<(usize, usize)> = (g.slabs.take_all().into_iter().flatten())
        .map(|base| (base as usize, 0))
        .collect();
    slabs.sort_unstable();
    // The registered slab holding `block`, if this call took it.
    let find = |slabs: &[(usize, usize)], block: *mut u8| {
        let at = slabs.partition_point(|s| s.0 <= block as usize);
        let i = at.checked_sub(1)?;
        (block as usize - slabs[i].0 < carve).then_some(i)
    };
    for &block in chunks.iter().flatten().chain(&local.free) {
        if let Some(i) = find(&slabs, block) {
            slabs[i].1 += 1;
        }
    }
    // This thread's uncarved tail is as good as pooled.
    if let Some(i) = find(&slabs, local.fresh) {
        slabs[i].1 += (local.fresh_end as usize - local.fresh as usize) / stride;
    }
    let whole = |s: &(usize, usize)| s.1 * stride == carve;
    let doomed = |block: &*mut u8| find(&slabs, *block).is_some_and(|i| whole(&slabs[i]));
    if doomed(&local.fresh) {
        local.fresh = std::ptr::null_mut();
        local.fresh_end = std::ptr::null_mut();
    }
    local.free.retain(|b| !doomed(b));
    for mut chunk in chunks {
        chunk.retain(|b| !doomed(b));
        chunk.shrink_to_fit();
        if !chunk.is_empty() {
            g.free.push(chunk);
        }
    }
    slabs.retain(|s| {
        if whole(s) {
            // SAFETY: mapped with this length by `Class::take`; every
            // block of it was in the lists this call owns and has been
            // dropped from them, so nothing can reach it again.
            unsafe { os::unmap(s.0 as *mut u8, slab_len(local.layout)) };
        }
        !whole(s)
    });
    if !slabs.is_empty() {
        g.slabs.push(slabs.iter().map(|s| s.0 as *mut u8).collect());
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
    fn free_now_releases_what_tree_teardown_holds() {
        // Tree teardown releases current-tree nodes with free_now,
        // whether they were recycled before or not.
        let p = alloc(vec![1u8, 2, 3]);
        assert_eq!(unsafe { &*p }, &vec![1, 2, 3]);
        free_now(p);
    }

    #[test]
    fn node_blocks_are_line_aligned_across_slab_boundaries() {
        use crate::{key::SKey, node::Node};
        use std::ptr::null;
        let leaf = |k| Node::<u64, u64>::leaf(SKey::Fin(k), Some(k), 0, null(), null());
        // Whatever the pools held, this many cross two slab ends.
        let count = 2 * slab_len(Layout::new::<Node<u64, u64>>()) as u64 / 64 + 1;
        let nodes: Vec<_> = (0..count).map(|k| alloc(leaf(k))).collect();
        assert!(nodes.iter().all(|n| *n as usize & 63 == 0));
        nodes.into_iter().for_each(free_now);
    }

    #[test]
    fn trim_keeps_a_slab_with_a_live_block() {
        // A layout of this test's own, so the counts are its alone.
        let live = alloc([7u32; 11]);
        let spare: Vec<_> = (0..100).map(|_| alloc([0u32; 11])).collect();
        spare.into_iter().for_each(free_now);
        trim();
        let class = global_class(Layout::new::<[u32; 11]>()).unwrap();
        let slabs = class.slabs.take_all().concat();
        assert_eq!(slabs.len(), 1, "its one slab must survive");
        class.slabs.push(slabs);
        assert_eq!(unsafe { *live }, [7u32; 11]);
        free_now(live);
        trim();
        assert!(class.slabs.take_all().is_empty(), "now wholly pooled");
    }

    #[test]
    fn trim_forgets_the_open_slab_it_unmaps() {
        // A layout of this test's own: its one slab is this thread's
        // open slab, carved one block deep.
        type B = [u16; 27];
        let class = global_class(Layout::new::<B>()).unwrap();
        free_now(alloc([1u16; 27]));
        trim();
        assert!(class.slabs.take_all().is_empty(), "the slab is unmapped");
        let tail = with_pools(|p| {
            let c = p.class_mut(Layout::new::<B>());
            (c.fresh, c.fresh_end)
        });
        assert_eq!(tail, (std::ptr::null_mut(), std::ptr::null_mut()));
        // The next block comes from a new slab, and is writable.
        let b = alloc([2u16; 27]);
        assert_eq!(unsafe { *b }, [2u16; 27]);
        assert_eq!(class.slabs.take_all().concat(), [b as *mut u8]);
        free_now(b);
    }

    #[test]
    fn a_carved_out_slab_is_a_huge_page() {
        let thp = "/sys/kernel/mm/transparent_hugepage/enabled";
        match std::fs::read_to_string(thp) {
            Ok(mode) if mode.contains("[never]") => {
                return println!("skipped: {thp} reads {}", mode.trim());
            }
            _ => {}
        }
        // A layout of this test's own, so its first block is its first
        // slab's base. Carve that slab out and one block of the next.
        type B = [u64; 9];
        let count = carve_len(Layout::new::<B>()) / size_of::<B>() + 1;
        let blocks: Vec<_> = (0..count).map(|i| alloc([i as u64; 9])).collect();
        let base = blocks[0] as usize;
        assert_eq!(
            base % SLAB_BYTES,
            0,
            "slab at {base:#x} is not 2 MiB-aligned"
        );
        // The smaps entry of the mapping holding the slab (neighbouring
        // slabs may merge into one mapping, with more huge pages).
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let holds_base = |header: &str| {
            let range = header.split(' ').next().unwrap_or_default();
            range.split_once('-').is_some_and(|(lo, hi)| {
                let at = |hex| usize::from_str_radix(hex, 16).unwrap_or(0);
                (at(lo)..at(hi)).contains(&base)
            })
        };
        let huge_kb: u64 = (smaps.lines())
            .skip_while(|l| !holds_base(l))
            .find_map(|l| l.strip_prefix("AnonHugePages:"))
            .expect("the slab's mapping is in smaps")
            .trim()
            .trim_end_matches(" kB")
            .parse()
            .unwrap();
        assert!(huge_kb >= 2048, "AnonHugePages: {huge_kb} kB");
        assert!(blocks
            .iter()
            .enumerate()
            .all(|(i, b)| unsafe { **b } == [i as u64; 9]));
        blocks.into_iter().for_each(free_now);
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
    fn stack_pop_splices_the_surplus_back() {
        let stack = Stack(AtomicPtr::new(std::ptr::null_mut()));
        for n in 1..=3 {
            stack.push(vec![std::ptr::null_mut(); n]);
        }
        let chain = |stack: &Stack| {
            let mut at = Vec::new();
            let mut c = stack.0.load(Relaxed);
            while !c.is_null() {
                at.push(c);
                // SAFETY: single-threaded; the chain is the stack's.
                c = unsafe { (*c).next };
            }
            at
        };
        let before = chain(&stack);
        assert_eq!(before.len(), 3);
        assert_eq!(stack.pop().map(|b| b.len()), Some(3), "LIFO");
        assert_eq!(chain(&stack), before[1..], "the other two chunks, reused");
        let lens: Vec<usize> = stack.take_all().iter().map(Vec::len).collect();
        assert_eq!(lens, [2, 1]);
        assert!(stack.pop().is_none());
    }

    #[test]
    fn scan_stack_pools_its_buffer() {
        let mut s: ScanStack<u64> = ScanStack::new();
        let x = 9u64;
        s.push(&x);
        assert_eq!(s.len(), 1);
        let cap_ptr = s.buf.as_ptr().cast::<()>();
        assert_eq!(s.pop(), Some(&x as *const u64));
        assert_eq!(s.pop(), None);
        drop(s);
        // The buffer (now warm) must be handed to the next stack.
        let s2: ScanStack<u32> = ScanStack::new();
        assert_eq!(s2.buf.as_ptr().cast::<()>(), cap_ptr);
    }
}
