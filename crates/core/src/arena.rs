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
//! The lists are the blocks themselves (Bonwick's slab allocator): a
//! pooled block is unreachable and at least two words long, so its
//! first word links the next block of its list or chunk, and a chunk's
//! first block links the next chunk with its second. Each slab lends its
//! first block (two or three, for blocks under 40 B) to a [`SlabHead`],
//! which threads the class's slab registry. So pooling, spilling,
//! refilling, trimming and thread exit allocate nothing from the heap
//! either.
//!
//! # Huge pages
//!
//! A slab is one 2-MiB-aligned transparent huge page's worth of memory:
//! the moment a thread carves its last block, it asks the kernel to
//! collapse the slab into one huge page (`madvise(MADV_COLLAPSE)`), so a
//! descent through a large tree misses the TLB once per slab, not once
//! per 4-KiB page. [`alloc`] has written every block by then, so the
//! collapse adds no memory; the slab a thread is still carving stays in
//! 4-KiB pages, and where the kernel refuses the advice nothing changes
//! but the speed (DESIGN §3.5 has the measurements).
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
//!   value before handing the block out — over the links, which only a
//!   pooled block holds.
//! * Blocks are shared across `T`s of identical size/alignment (e.g.
//!   `Node<K, V>` for different small `K`/`V`), which the allocator
//!   contract explicitly permits.
//!
//! A thread keeps at most two chunks' worth of blocks; past that its
//! older chunk spills. An exiting thread hands its lists to the
//! spillover, so survivors inherit the warm memory, and leaves its
//! uncarved tail to [`trim`]. The pools retain their peak working set by
//! design — [`trim`] unmaps every wholly unused slab at workload
//! boundaries. Process-global hit/miss/recycle counters ([`ArenaStats`])
//! are always on.

use std::alloc::{alloc as global_alloc, dealloc as global_dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ptr::null_mut;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicUsize};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Blocks per spillover chunk. A thread's free list this long becomes
/// its spare chunk, and the spare it had goes to the class's spillover:
/// ripe garbage arrives in bursts on whichever thread ran the collection
/// pass, and the spillover routes that surplus to the threads that are
/// allocating. Holding two chunks, a thread that alternates frees and
/// allocations at the boundary moves no block between threads.
const CHUNK_BLOCKS: usize = 2048;

/// Upper bound on pooled scan-stack buffers per thread.
const MAX_STACK_BUFS: usize = 8;

/// Bytes per slab for every class with blocks up to 4 KiB, and the
/// least alignment of every slab: one transparent huge page, so a
/// carved-out slab can become one TLB entry.
const SLAB_BYTES: usize = 2 << 20;

/// Floor on blocks per slab, for layouts past `SLAB_BYTES / 512`.
const MIN_SLAB_BLOCKS: usize = 512;

/// Distance between two blocks of a class in its slabs: room for the
/// two link words a pooled block holds, and word-aligned for them.
fn stride(block: Layout) -> usize {
    let align = block.align().max(align_of::<*mut u8>());
    (block.size().max(2 * size_of::<*mut u8>())).next_multiple_of(align)
}

/// Bytes a class maps per slab, and the alignment of each: a power of
/// two, so a block's slab is its address rounded down.
fn slab_len(block: Layout) -> usize {
    (MIN_SLAB_BLOCKS * stride(block))
        .next_power_of_two()
        .max(SLAB_BYTES)
}

/// Bytes at the base of each slab that hold its [`SlabHead`]: whole
/// blocks, so the blocks after it keep their alignment.
fn head_len(block: Layout) -> usize {
    size_of::<SlabHead>().next_multiple_of(stride(block))
}

/// Blocks a slab of the class holds after its head.
fn slab_blocks(block: Layout) -> usize {
    (slab_len(block) - head_len(block)) / stride(block)
}

/// The head of the slab holding `raw`, a block of `block`'s class.
fn slab_of(block: Layout, raw: *mut u8) -> *mut SlabHead {
    raw.map_addr(|a| a & !(slab_len(block) - 1)).cast()
}

fn global_alloc_checked(layout: Layout) -> *mut u8 {
    // SAFETY: every caller passes a non-zero size (`alloc` asserts it).
    let raw = unsafe { global_alloc(layout) };
    if raw.is_null() {
        handle_alloc_error(layout);
    }
    raw
}

/// The two words a pooled block lends its pool: word 0 links the next
/// block of its list or chunk, word 1 (of a chunk's first block) the
/// next chunk on a spillover stack. Each access unpoisons just its word,
/// for just the access.
mod link {
    use super::asan;

    const WORD: usize = size_of::<*mut u8>();

    /// # Safety
    ///
    /// `raw` is a pooled block the caller owns.
    #[inline(always)]
    pub(super) unsafe fn get(raw: *mut u8, word: usize) -> *mut u8 {
        asan::unpoison(raw.wrapping_add(word * WORD), WORD);
        // SAFETY: the caller's block, word-aligned and two words long.
        let next = unsafe { raw.cast::<*mut u8>().add(word).read() };
        asan::poison(raw.wrapping_add(word * WORD), WORD);
        next
    }

    /// # Safety
    ///
    /// As for [`get`].
    #[inline(always)]
    pub(super) unsafe fn set(raw: *mut u8, word: usize, next: *mut u8) {
        asan::unpoison(raw.wrapping_add(word * WORD), WORD);
        // SAFETY: as in `get`.
        unsafe { raw.cast::<*mut u8>().add(word).write(next) };
        asan::poison(raw.wrapping_add(word * WORD), WORD);
    }
}

/// One layout class: this thread's free list of uniform raw blocks, a
/// spare chunk, and the part of its latest slab never handed out.
struct Class {
    layout: Layout,
    /// The class's spillover and slab registry. `None` when the
    /// registry is full: such a layout is not pooled at all, each block
    /// is its own global allocation.
    global: Option<&'static GlobalClass>,
    /// The free list's first block (null when empty), and at least its
    /// length: a refill counts its chunk as [`CHUNK_BLOCKS`] long, which
    /// no chunk exceeds.
    free: *mut u8,
    len: usize,
    /// A chunk this thread holds back, or null.
    spare: *mut u8,
    /// `fresh..fresh_end` is the uncarved tail of a registered slab;
    /// both are null before the first slab and after [`trim`] unmaps
    /// the slab they were in.
    fresh: *mut u8,
    fresh_end: *mut u8,
}

impl Class {
    /// A raw block: from the free list, the spare or a spillover chunk,
    /// or the slab.
    fn take(&mut self) -> *mut u8 {
        if self.free.is_null() {
            // Local miss: the spare, then a spillover chunk — this is
            // what rebalances bursts of ripe garbage from the
            // collecting thread to the allocating ones.
            self.free = if self.spare.is_null() {
                self.global.map_or(null_mut(), |g| g.free.pop())
            } else {
                std::mem::replace(&mut self.spare, null_mut())
            };
            if !self.free.is_null() {
                self.len = CHUNK_BLOCKS;
            }
        }
        let raw = self.free;
        if !raw.is_null() {
            counters::hit();
            // SAFETY: the list's blocks are pooled and this thread's.
            self.free = unsafe { link::get(raw, 0) };
            self.len -= 1;
            // The next take reads that block's link: fetch its line now.
            crate::node::prefetch(self.free);
            asan::unpoison(raw, self.layout.size());
            return raw;
        }
        let Some(g) = self.global else {
            counters::miss();
            return global_alloc_checked(self.layout);
        };
        let stride = stride(self.layout);
        if self.fresh == self.fresh_end {
            counters::miss();
            let slab = os::map(slab_len(self.layout)).cast::<SlabHead>();
            g.register(slab);
            // SAFETY: both lie in the slab just mapped.
            unsafe {
                self.fresh = slab.cast::<u8>().add(head_len(self.layout));
                self.fresh_end = self.fresh.add(slab_blocks(self.layout) * stride);
            }
        } else {
            counters::hit();
        }
        let raw = self.fresh;
        // SAFETY: the tail is a whole number of strides long.
        self.fresh = unsafe { raw.add(stride) };
        if self.fresh == self.fresh_end {
            // Carved out: every block but this one has been written, so
            // the slab is resident (this block's page too, unless the
            // block spans pages) and the collapse adds no memory.
            os::collapse(slab_of(self.layout, raw).cast(), slab_len(self.layout));
        }
        raw
    }

    /// Pool a raw block; a list of [`CHUNK_BLOCKS`] becomes the spare,
    /// and the spare it replaces goes to the global stack (other
    /// threads pull it back on their misses).
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
        asan::poison(raw, stride(self.layout));
        // SAFETY: the block is ours and now pooled.
        unsafe { link::set(raw, 0, self.free) };
        self.free = raw;
        self.len += 1;
        if self.len == CHUNK_BLOCKS {
            if !self.spare.is_null() {
                g.free.push(self.spare);
            }
            self.spare = std::mem::replace(&mut self.free, null_mut());
            self.len = 0;
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
                    free: null_mut(),
                    len: 0,
                    spare: null_mut(),
                    fresh: null_mut(),
                    fresh_end: null_mut(),
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
        // harnesses respawn worker threads constantly). The uncarved tail
        // is marked on its slab's head, for `trim` to count: linking
        // its blocks would fault all of them in.
        for c in &mut self.classes {
            let Some(g) = c.global else { continue };
            for chunk in [c.free, c.spare] {
                if !chunk.is_null() {
                    g.free.push(chunk);
                }
            }
            if c.fresh < c.fresh_end {
                let _registry = g.slabs();
                // SAFETY: the head of a registered slab; under the
                // registry lock, as every other access to it.
                unsafe { (*slab_of(c.layout, c.fresh)).abandoned = c.fresh };
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

/// A Treiber stack of chunks: a chunk is a list of pooled blocks, and
/// its first block's second word links the next chunk.
///
/// Takers take the *entire* stack with one `swap(null)` and then own
/// every chunk outright, so there is no ABA window and no
/// use-after-free on link traversal (the classic Treiber pop hazard
/// never arises).
struct Stack(AtomicPtr<u8>);

impl Stack {
    fn push(&self, chunk: *mut u8) {
        let mut head = self.0.load(Relaxed);
        loop {
            // SAFETY: the chunk is unpublished — we still own it.
            unsafe { link::set(chunk, 1, head) };
            // Release: publishes the chunk's contents to the taker.
            match (self.0).compare_exchange_weak(head, chunk, Release, Relaxed) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    fn take_all(&self) -> *mut u8 {
        // Acquire pairs with the push's Release; after the swap the
        // whole chain is exclusively ours.
        self.0.swap(null_mut(), Acquire)
    }

    /// Take one chunk: take the whole stack, keep its first chunk and put
    /// the rest back — by one CAS unless chunks were pushed meanwhile,
    /// and then behind those.
    fn pop(&self) -> *mut u8 {
        let chunk = self.take_all();
        if chunk.is_null() {
            return chunk;
        }
        // SAFETY: every chunk taken is ours until put back.
        let mut rest = unsafe { link::get(chunk, 1) };
        // Release: republishes the chunks to their next taker.
        while !rest.is_null()
            && (self.0.compare_exchange(null_mut(), rest, Release, Relaxed)).is_err()
        {
            // Chunks were pushed meanwhile: take them, the rest behind.
            let mut last = self.take_all();
            if last.is_null() {
                continue;
            }
            let pushed = last;
            // SAFETY: taken, so ours.
            unsafe {
                while !link::get(last, 1).is_null() {
                    last = link::get(last, 1);
                }
                link::set(last, 1, rest);
            }
            rest = pushed;
        }
        chunk
    }
}

/// The first bytes of every slab, never handed out: the slab's place
/// on its class's registry, and [`trim`]'s working fields. Every field
/// is read and written only under the registry lock.
#[repr(C)]
struct SlabHead {
    next: *mut SlabHead,
    /// Where an exited thread stopped carving the slab: no block from
    /// here to the end was ever handed out. Null while a thread carves
    /// it, and once one has carved it out.
    abandoned: *mut u8,
    /// [`trim`]'s working fields, zeroed as it starts: the slab's pooled
    /// blocks it found, the list it sorted them into, and the full
    /// chunks it cut off that list.
    pooled: usize,
    list: *mut u8,
    chunks: *mut u8,
}

/// A class's registry: its slabs' heads, linked through `next`.
struct Slabs(*mut SlabHead);

// SAFETY: the heads are plain memory in slabs the registry owns; only
// the holder of its lock touches them.
unsafe impl Send for Slabs {}

/// Global side of one layout class.
struct GlobalClass {
    /// Claim word: 0 = free slot, otherwise the registered layout as
    /// encoded by [`layout_word`]. Written once, by the single CAS that
    /// claims the slot.
    layout: AtomicUsize,
    /// Spillover: chunks of free blocks.
    free: Stack,
    /// The class's live slabs. Locked to map one (once per slab), to
    /// mark a tail abandoned, and by [`trim`] throughout.
    slabs: Mutex<Slabs>,
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
            free: Stack(AtomicPtr::new(null_mut())),
            slabs: Mutex::new(Slabs(null_mut())),
        }
    }

    fn slabs(&self) -> MutexGuard<'_, Slabs> {
        self.slabs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Put a freshly mapped slab on the registry.
    fn register(&self, slab: *mut SlabHead) {
        let mut slabs = self.slabs();
        // SAFETY: the slab is mapped, zeroed and not yet shared.
        unsafe { (*slab).next = slabs.0 };
        slabs.0 = slab;
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
// Counters
// ---------------------------------------------------------------------------

/// Process-global arena counters, read by [`arena_stats`].
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
/// mapping of twice the length, trimmed to an aligned half.
/// Declared here rather than through a `libc` dependency, like the
/// server's `epoll` calls.
mod os {
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

    /// `len` bytes (a power of two, at least a page) of zeroed memory,
    /// aligned to `len`. None of it is resident until touched.
    pub(super) fn map(len: usize) -> *mut u8 {
        let over = 2 * len;
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
            handle_alloc_error(Layout::from_size_align(len, len).expect("slab layout"));
        }
        let head = raw.align_offset(len);
        // SAFETY: both ends lie in the mapping just made, outside the
        // aligned `len` bytes kept, and nothing has seen them.
        unsafe {
            let base = raw.add(head);
            trim_end(raw, head);
            trim_end(base.add(len), len - head);
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
    extern "C" {
        fn __asan_poison_memory_region(addr: *const u8, size: usize);
        fn __asan_unpoison_memory_region(addr: *const u8, size: usize);
    }

    pub(super) fn poison(at: *mut u8, len: usize) {
        // SAFETY: bytes of a block (or slab) the pool owns.
        unsafe { __asan_poison_memory_region(at, len) }
    }

    pub(super) fn unpoison(at: *mut u8, len: usize) {
        // SAFETY: as above; they are leaving the pool.
        unsafe { __asan_unpoison_memory_region(at, len) }
    }
}

#[cfg(not(pnb_asan))]
mod asan {
    #[inline(always)]
    pub(super) fn poison(_at: *mut u8, _len: usize) {}
    #[inline(always)]
    pub(super) fn unpoison(_at: *mut u8, _len: usize) {}
}

/// Process-global hit/miss/recycle counters, read by [`arena_stats`].
mod counters {
    use crate::stats::Striped;

    pub(super) static COUNTS: Striped<3> = Striped::new();

    #[inline]
    pub(super) fn hit() {
        COUNTS.add(0, 1);
    }
    #[inline]
    pub(super) fn miss() {
        COUNTS.add(1, 1);
    }
    #[inline]
    pub(super) fn recycled(bytes: u64) {
        COUNTS.add(2, bytes);
    }
}

/// Return to the kernel every slab whose blocks are *all* pooled — on
/// this thread's lists or the global spillover stacks, or never carved
/// — and keep the rest pooled. Blocks held live, or by another thread's
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
    let layout = local.layout;
    let (stride, len, blocks) = (stride(layout), slab_len(layout), slab_blocks(layout));
    // Under the registry lock no slab is mapped and no other trim runs,
    // so every pooled block comes from a slab on the registry, and the
    // heads' working fields are this call's.
    let mut slabs = g.slabs();
    let mut head = slabs.0;
    while !head.is_null() {
        // SAFETY: the registry's heads, ours under its lock.
        let slab = unsafe { &mut *head };
        (slab.pooled, slab.list, slab.chunks) = (0, null_mut(), null_mut());
        head = slab.next;
    }
    // Own every pooled block this call can reach and sort each onto a
    // list of its slab's, cut into full chunks as it grows: one pass
    // over the blocks, with no memory but their own links.
    let sort = |block: *mut u8| {
        // SAFETY: a pooled block this call owns, in a mapped slab.
        unsafe {
            let slab = &mut *slab_of(layout, block);
            slab.pooled += 1;
            link::set(block, 0, slab.list);
            slab.list = block;
            if slab.pooled.is_multiple_of(CHUNK_BLOCKS) {
                link::set(block, 1, slab.chunks);
                slab.chunks = std::mem::replace(&mut slab.list, null_mut());
            }
        }
    };
    // The spillover and this thread's two lists, as one chain of chunks.
    let mut chunks = g.free.take_all();
    for list in [&mut local.free, &mut local.spare] {
        if !list.is_null() {
            // SAFETY: this thread's, so ours.
            unsafe { link::set(*list, 1, chunks) };
            chunks = std::mem::replace(list, null_mut());
        }
    }
    local.len = 0;
    // The blocks are cold and each link is a load that depends on the
    // last: walk 16 chunks at once, so 16 of those misses overlap.
    let mut lanes = [null_mut::<u8>(); 16];
    while !chunks.is_null() || lanes.iter().any(|b| !b.is_null()) {
        for lane in &mut lanes {
            if lane.is_null() && !chunks.is_null() {
                *lane = chunks;
                // SAFETY: taken, so ours.
                chunks = unsafe { link::get(chunks, 1) };
            }
            if !lane.is_null() {
                let block = *lane;
                // SAFETY: as in `sort`.
                *lane = unsafe { link::get(block, 0) };
                crate::node::prefetch(*lane);
                sort(block);
            }
        }
    }
    // This thread's uncarved tail is as good as pooled.
    let tail = (local.fresh < local.fresh_end).then(|| slab_of(layout, local.fresh));
    let mut at: *mut *mut SlabHead = &mut slabs.0;
    // SAFETY: the registry's heads, ours under its lock.
    unsafe {
        while !(*at).is_null() {
            let head = *at;
            let slab = &mut *head;
            let uncarved = |from: *mut u8| (head as usize + len - from as usize) / stride;
            let mut pooled = slab.pooled;
            if !slab.abandoned.is_null() {
                pooled += uncarved(slab.abandoned);
            }
            if tail == Some(head) {
                pooled += uncarved(local.fresh);
            }
            if pooled == blocks {
                *at = slab.next;
                if tail == Some(head) {
                    local.fresh = null_mut();
                    local.fresh_end = null_mut();
                }
                // Every block of it was on the lists this call owns, and
                // is on none now: nothing can reach it again.
                asan::unpoison(head.cast(), len);
                os::unmap(head.cast(), len);
                continue;
            }
            let mut chunk = slab.chunks;
            if !slab.list.is_null() {
                link::set(slab.list, 1, chunk);
                chunk = slab.list;
            }
            while !chunk.is_null() {
                let next = link::get(chunk, 1);
                g.free.push(chunk);
                chunk = next;
            }
            at = &mut slab.next;
        }
    }
}

/// Read the process-global arena counters (monotone; assert on deltas).
pub fn arena_stats() -> ArenaStats {
    let [pool_hits, pool_misses, recycled_bytes] = counters::COUNTS.read();
    ArenaStats {
        pool_hits,
        pool_misses,
        recycled_bytes,
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

    /// The slabs on a class's registry.
    fn registered(class: &GlobalClass) -> Vec<*mut SlabHead> {
        let mut at = class.slabs().0;
        // SAFETY: single reader; a test's class is its own.
        std::iter::from_fn(|| (!at.is_null()).then(|| unsafe { (at, at = (*at).next).0 })).collect()
    }

    #[test]
    fn trim_keeps_a_slab_with_a_live_block() {
        // A layout of this test's own, so the counts are its alone.
        let live = alloc([7u32; 11]);
        let spare: Vec<_> = (0..100).map(|_| alloc([0u32; 11])).collect();
        spare.into_iter().for_each(free_now);
        trim();
        let class = global_class(Layout::new::<[u32; 11]>()).unwrap();
        assert_eq!(registered(class).len(), 1, "its one slab must survive");
        assert_eq!(unsafe { *live }, [7u32; 11]);
        free_now(live);
        trim();
        assert!(registered(class).is_empty(), "now wholly pooled");
    }

    #[test]
    fn trim_forgets_the_open_slab_it_unmaps() {
        // A layout of this test's own: its one slab is this thread's
        // open slab, carved one block deep.
        type B = [u16; 27];
        let class = global_class(Layout::new::<B>()).unwrap();
        free_now(alloc([1u16; 27]));
        trim();
        assert!(registered(class).is_empty(), "the slab is unmapped");
        let tail = with_pools(|p| {
            let c = p.class_mut(Layout::new::<B>());
            (c.fresh, c.fresh_end)
        });
        assert_eq!(tail, (null_mut(), null_mut()));
        // The next block comes from a new slab, and is writable.
        let b = alloc([2u16; 27]);
        assert_eq!(unsafe { *b }, [2u16; 27]);
        assert_eq!(registered(class), [slab_of(Layout::new::<B>(), b.cast())]);
        free_now(b);
        // A thread that carves a slab of its own and exits leaves its
        // list to the spillover and its tail marked on the slab.
        std::thread::spawn(|| free_now(alloc([3u16; 27])))
            .join()
            .unwrap();
        assert_eq!(registered(class).len(), 2);
        trim();
        assert!(registered(class).is_empty(), "both slabs are wholly pooled");
    }

    #[test]
    fn a_full_list_becomes_the_spare_and_the_old_spare_spills() {
        // A layout of this test's own, freed three chunks deep.
        type B = [u32; 13];
        let layout = Layout::new::<B>();
        let blocks: Vec<_> = (0..3 * CHUNK_BLOCKS).map(|_| alloc([0u32; 13])).collect();
        blocks.into_iter().for_each(free_now);
        let (free, spare) = with_pools(|p| {
            let c = p.class_mut(layout);
            (c.free, c.spare)
        });
        assert!(free.is_null() && !spare.is_null());
        let g = global_class(layout).unwrap();
        let (first, len) = (g.free.take_all(), |mut b: *mut u8| {
            let mut n = 0;
            while !b.is_null() {
                (n, b) = (n + 1, unsafe { link::get(b, 0) });
            }
            n
        });
        let second = unsafe { link::get(first, 1) };
        assert_eq!(
            (len(spare), len(first), len(second)),
            (CHUNK_BLOCKS, CHUNK_BLOCKS, CHUNK_BLOCKS)
        );
        assert!(
            unsafe { link::get(second, 1) }.is_null(),
            "two chunks spilled"
        );
        g.free.push(second);
        g.free.push(first);
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
        let count = slab_blocks(Layout::new::<B>()) + 1;
        let blocks: Vec<_> = (0..count).map(|i| alloc([i as u64; 9])).collect();
        let base = blocks[0] as usize - head_len(Layout::new::<B>());
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
    fn stack_pop_puts_the_rest_back() {
        // Blocks of one chunk each on a stack of this test's own, pushed
        // and popped by two threads at once: every pop keeps one chunk
        // and puts the rest back, behind whatever was pushed meanwhile.
        let layout = Layout::new::<u64>();
        let stack = Stack(AtomicPtr::new(null_mut()));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let block = with_pools(|p| p.class_mut(layout).take());
                        unsafe { link::set(block, 0, null_mut()) };
                        stack.push(block);
                    }
                    for _ in 0..2000 {
                        let chunk = stack.pop();
                        if !chunk.is_null() {
                            stack.push(chunk);
                        }
                    }
                });
            }
        });
        let mut chunk = stack.take_all();
        let mut chunks = Vec::new();
        while !chunk.is_null() {
            chunks.push(chunk);
            chunk = unsafe { link::get(chunk, 1) };
        }
        chunks.sort_unstable();
        chunks.dedup();
        assert_eq!(chunks.len(), 16, "no chunk lost or repeated");
        (chunks.into_iter()).for_each(|b| with_pools(|p| unsafe { p.class_mut(layout).give(b) }));
    }

    #[cfg(pnb_asan)]
    #[test]
    fn pooled_blocks_are_poisoned_link_words_included() {
        use crate::{info::Body, info::Info, node::Node};
        extern "C" {
            fn __asan_region_is_poisoned(beg: *mut u8, size: usize) -> *mut u8;
        }
        let first_poisoned = |at: *mut u8, len| unsafe { __asan_region_is_poisoned(at, len) };
        // Every byte is poisoned: each is the first poisoned byte of itself.
        let poisoned = |raw: *mut u8, len| {
            (0..len).all(|i| first_poisoned(raw.wrapping_add(i), 1) == raw.wrapping_add(i))
        };
        let stack = Stack(AtomicPtr::new(null_mut()));
        for layout in [
            Layout::new::<Node<u64, u64>>(),
            Layout::new::<Info<u64, u64>>(),
            Layout::new::<Body<u64, u64>>(),
        ] {
            let take = || with_pools(|p| p.class_mut(layout).take());
            let give = |b| with_pools(|p| unsafe { p.class_mut(layout).give(b) });
            let (a, b) = (take(), take());
            assert!(
                first_poisoned(a, layout.size()).is_null(),
                "{layout:?}: handed out whole"
            );
            // On a thread's list: `b`'s first word links `a`.
            give(a);
            give(b);
            assert!(
                poisoned(a, layout.size()) && poisoned(b, layout.size()),
                "{layout:?}: listed"
            );
            // On a spillover stack: `b`'s second word links `a`'s chunk.
            assert_eq!((take(), take()), (b, a));
            for chunk in [a, b] {
                asan::poison(chunk, stride(layout));
                unsafe { link::set(chunk, 0, null_mut()) };
                stack.push(chunk);
            }
            assert!(
                poisoned(a, layout.size()) && poisoned(b, layout.size()),
                "{layout:?}: chunks"
            );
            assert_eq!((stack.pop(), stack.pop()), (b, a));
            // A pop read `b`'s second word: it is poisoned again.
            assert!(
                poisoned(a, layout.size()) && poisoned(b, layout.size()),
                "{layout:?}: popped"
            );
            give(a);
            give(b);
        }
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
