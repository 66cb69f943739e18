//! Tree nodes (paper Figure 2, lines 15–27).
//!
//! The paper distinguishes `Internal` and `Leaf` subtypes of `Node`. We
//! use a single struct whose common header ends in a `leaf`
//! discriminant and whose last field is a union: a leaf carries the
//! user value there (for finite keys), an internal node its two
//! non-null child words — never both.
//!
//! Immutability discipline (paper Observation 1): `key`, the value,
//! `seq`, `prev` and `leaf` never change after construction. Only the
//! three CAS words (`update` and an internal node's children) are
//! mutated, and only by CAS after initialization.
//!
//! # Layout
//!
//! One `#[repr(C, align(64))]` record: the immutable routing fields
//! first, then the `update` word, then the 16-byte union tail — for
//! `u64→u64` exactly one cache line, so a descent step touches one
//! line and no two nodes share one (DESIGN.md §3.5; the arena's slabs
//! are what make the alignment free). `leaf` is private and the tail is
//! reached only through [`Node::value`] / `child_word()` / `load_child`,
//! which check it.
//!
//! The `prev` pointer is what makes the tree *persistent*: whenever a
//! child CAS replaces node `u` by `u'`, `u'.prev == u`, so
//! `ReadChild(p, dir, i)` can walk back to the *version-i* child — the
//! first node in the chain whose `seq ≤ i` (§4.1).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering::{Acquire, SeqCst};

use crate::info::{FreezeTag, Info, InfoPtr, NodePtr, UpdateWord};
use crate::key::SKey;

/// A tree node. See module docs for the invariants and the layout.
#[repr(C, align(64))]
pub(crate) struct Node<K, V> {
    // ---- immutable after construction, read by every search ----
    /// Routing / stored key (leaf-oriented: only leaf keys are elements).
    pub key: SKey<K>,
    /// Sequence number of the operation that created this node.
    pub seq: u64,
    /// Previous version of the tree position this node occupies; null for
    /// fresh leaves and the initial nodes. Immutable.
    pub prev: NodePtr<K, V>,
    /// Leaf / internal discriminant — and the tag of `tail`, which is
    /// why only the two constructors below ever write it.
    leaf: bool,
    // ---- the only mutable words: CAS after initialization ----
    /// The paper's `Update` CAS word: tagged pointer to an [`Info`].
    update: Atomic<Info<K, V>>,
    tail: Tail<K, V>,
}

/// What only one of the paper's two subtypes needs, overlaid.
#[repr(C)]
union Tail<K, V> {
    /// `leaf`: the user value; `Some` only for finite keys.
    value: ManuallyDrop<Option<V>>,
    /// `!leaf`: the left and right child words, both non-null.
    children: ManuallyDrop<[Atomic<Node<K, V>>; 2]>,
}

impl<K, V> Node<K, V> {
    /// A fresh leaf, flagged with the tree's dummy `Info` object.
    pub(crate) fn leaf(
        key: SKey<K>,
        value: Option<V>,
        seq: u64,
        prev: NodePtr<K, V>,
        dummy: InfoPtr<K, V>,
    ) -> Self {
        Node {
            key,
            seq,
            prev,
            leaf: true,
            update: Atomic::from(dummy_word(dummy)),
            tail: Tail {
                value: ManuallyDrop::new(value),
            },
        }
    }

    /// A fresh internal node with the given children.
    pub(crate) fn internal(
        key: SKey<K>,
        seq: u64,
        prev: NodePtr<K, V>,
        left: NodePtr<K, V>,
        right: NodePtr<K, V>,
        dummy: InfoPtr<K, V>,
    ) -> Self {
        let children = [left, right].map(|c| Atomic::from(Shared::from(c)));
        Node {
            key,
            seq,
            prev,
            leaf: false,
            update: Atomic::from(dummy_word(dummy)),
            tail: Tail {
                children: ManuallyDrop::new(children),
            },
        }
    }

    /// Whether this is a leaf (the paper's `Leaf` subtype).
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// The user value: `Some` only on a leaf with a finite key.
    #[inline]
    pub(crate) fn value(&self) -> Option<&V> {
        if !self.leaf {
            return None;
        }
        // SAFETY: `leaf` is immutable and `Node::leaf` — the only place
        // that sets it — initialised the value arm.
        unsafe { self.tail.value.as_ref() }
    }

    /// The raw `update` CAS word (for the freeze CAS steps).
    #[inline]
    pub(crate) fn update_word(&self) -> &Atomic<Info<K, V>> {
        &self.update
    }

    /// The raw child word for `CAS-Child` / teardown. Asking a leaf is
    /// a bug in the caller: every protocol step that reads a child
    /// holds an internal node.
    #[inline]
    pub(crate) fn child_word(&self, left: bool) -> &Atomic<Node<K, V>> {
        assert!(!self.leaf, "a leaf has no children");
        // SAFETY: `leaf` is immutable and `Node::internal` — the only
        // place that clears it — initialised the children arm.
        unsafe { &self.tail.children[usize::from(!left)] }
    }

    /// Load and decode this node's update word (validation/helping
    /// paths).
    ///
    /// Acquire: pairs with the Release/SeqCst freeze CAS that installed
    /// the word, so the published `Info`'s immutable fields are visible
    /// before any dereference. Update-side correctness never needs more:
    /// stale words are caught by CAS expected-value checks, not by
    /// ordering.
    #[inline]
    pub(crate) fn load_update(&self, guard: &Guard) -> UpdateWord<K, V> {
        let s = self.update.load(Acquire, guard);
        UpdateWord::new(FreezeTag::from_bit(s.tag()), s.as_raw())
    }

    /// Load this node's update word on a *scan* path (`ScanHelper` /
    /// `Snapshot` descent, paper lines 139–140).
    #[inline]
    pub(crate) fn load_update_scan(&self, guard: &Guard) -> UpdateWord<K, V> {
        // sc-ok: scan-handshake total order (§4.1). This load is the
        // scanner half of the store-buffering pair — updater: publish
        // freeze CAS, then re-read Counter; scanner: fetch_add Counter,
        // then this load. If the updater's handshake missed the
        // Counter increment, the scan MUST observe the published Info
        // here (and help it); only a single SeqCst order on all four
        // accesses excludes the both-miss outcome.
        let s = self.update.load(SeqCst, guard); // sc-ok: scan-side SB load (see above)
        UpdateWord::new(FreezeTag::from_bit(s.tag()), s.as_raw())
    }

    /// Load the raw left or right child pointer (`left == true` ↔ left),
    /// matching `ReadChild` line 45.
    ///
    /// Acquire: pairs with the Release child CAS (or the Release freeze
    /// CAS that first published the parent), so the child's immutable
    /// fields (`key`, `seq`, `prev`, the value) are visible before the
    /// caller dereferences.
    #[inline]
    pub(crate) fn load_child<'g>(&self, left: bool, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.child_word(left).load(Acquire, guard)
    }
}

impl<K, V> Drop for Node<K, V> {
    fn drop(&mut self) {
        if self.leaf {
            // SAFETY: a leaf's tail is its value arm, dropped only
            // here. (The children arm has no destructor: child words
            // do not own their pointees.)
            unsafe { ManuallyDrop::drop(&mut self.tail.value) }
        }
    }
}

/// Ask for the line at `p` in every cache level. A hint only: it never
/// faults and changes no program state.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Encode the initial `⟨Flag, Dummy⟩` update word.
#[inline]
pub(crate) fn dummy_word<'g, K, V>(dummy: InfoPtr<K, V>) -> Shared<'g, Info<K, V>> {
    Shared::from(dummy).with_tag(FreezeTag::Flag.bit())
}

/// Encode an update word back into a tagged `Shared` for use as a CAS
/// expected/new value.
#[inline]
pub(crate) fn word_shared<'g, K, V>(w: UpdateWord<K, V>) -> Shared<'g, Info<K, V>> {
    Shared::from(w.info()).with_tag(w.tag().bit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::state;
    use std::sync::atomic::Ordering::Relaxed;

    fn dummy() -> Box<Info<u64, u64>> {
        Box::new(Info::dummy())
    }

    #[test]
    fn fresh_leaf_shape() {
        let d = dummy();
        let dp: InfoPtr<u64, u64> = &*d;
        let l = Node::leaf(SKey::Fin(42), Some(7), 3, std::ptr::null(), dp);
        assert!(l.leaf);
        assert_eq!(l.seq, 3);
        assert_eq!(l.key, SKey::Fin(42));
        assert_eq!(l.value(), Some(&7));
        assert!(l.prev.is_null());
        let g = crossbeam_epoch::pin();
        let w = l.load_update(&g);
        assert_eq!(w.tag(), FreezeTag::Flag);
        assert!(std::ptr::eq(w.info(), dp));
        unsafe {
            assert_eq!((*w.info()).state.load(Relaxed), state::ABORT);
        }
    }

    #[test]
    fn fresh_internal_points_at_children() {
        let d = dummy();
        let dp: InfoPtr<u64, u64> = &*d;
        let a = Node::leaf(SKey::Fin(1), Some(1), 0, std::ptr::null(), dp);
        let b = Node::leaf(SKey::Fin(2), Some(2), 0, std::ptr::null(), dp);
        let (pa, pb): (NodePtr<u64, u64>, NodePtr<u64, u64>) = (&a, &b);
        let i = Node::internal(SKey::Fin(2), 5, pa, pa, pb, dp);
        assert!(!i.leaf);
        assert!(i.value().is_none());
        assert!(std::ptr::eq(i.prev, pa));
        let g = crossbeam_epoch::pin();
        assert_eq!(i.load_child(true, &g).as_raw(), pa);
        assert_eq!(i.load_child(false, &g).as_raw(), pb);
    }

    #[test]
    fn word_shared_roundtrip() {
        let d = dummy();
        let dp: InfoPtr<u64, u64> = &*d;
        for tag in [FreezeTag::Flag, FreezeTag::Mark] {
            let w = UpdateWord::new(tag, dp);
            let s = word_shared(w);
            assert_eq!(FreezeTag::from_bit(s.tag()), tag);
            assert!(std::ptr::eq(s.as_raw(), dp));
        }
    }

    #[test]
    fn layout_is_one_cache_line() {
        use std::mem::{align_of, size_of};
        // The size every workload's RSS scales with, and the unit a
        // descent step touches: header + union tail fill one line.
        assert_eq!(size_of::<Node<u64, u64>>(), 64);
        assert_eq!(size_of::<Node<u64, ()>>(), 64);
        assert_eq!(align_of::<Node<u64, u64>>(), 64);
        assert_eq!(align_of::<Node<u64, ()>>(), 64);
        assert_eq!(size_of::<Node<String, String>>() % 64, 0);
    }
}
