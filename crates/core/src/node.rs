//! Tree nodes (paper Figure 2, lines 15–27).
//!
//! The paper distinguishes `Internal` and `Leaf` subtypes of `Node`. We
//! use a single struct with a `leaf` discriminant: leaves have null child
//! pointers and (for finite keys) carry the user value; internal nodes
//! have two non-null children and no value.
//!
//! Immutability discipline (paper Observation 1): `key`, `value`, `seq`,
//! `prev` and `leaf` never change after construction. Only the three
//! CAS words (`update`, `left`, `right`) are mutated, and only by CAS
//! after initialization.
//!
//! # Layout
//!
//! One `#[repr(C)]` record: the immutable routing fields first, the
//! three CAS words last, pointer-aligned — 80 B for `u64→u64`
//! (DESIGN.md §3.5 records why the words are not cache-line isolated).
//! Other modules reach the CAS words only through `update_word()` /
//! `child_word()` / `load_*`.
//!
//! The `prev` pointer is what makes the tree *persistent*: whenever a
//! child CAS replaces node `u` by `u'`, `u'.prev == u`, so
//! `ReadChild(p, dir, i)` can walk back to the *version-i* child — the
//! first node in the chain whose `seq ≤ i` (§4.1).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::sync::atomic::Ordering::{Acquire, SeqCst};

use crate::info::{FreezeTag, Info, InfoPtr, NodePtr, UpdateWord};
use crate::key::SKey;

/// A tree node. See module docs for the invariants and the layout.
#[repr(C)]
pub(crate) struct Node<K, V> {
    // ---- immutable after construction, read by every search ----
    /// Routing / stored key (leaf-oriented: only leaf keys are elements).
    pub key: SKey<K>,
    /// User value; `Some` only on leaves with finite keys.
    pub value: Option<V>,
    /// Sequence number of the operation that created this node.
    pub seq: u64,
    /// Previous version of the tree position this node occupies; null for
    /// fresh leaves and the initial nodes. Immutable.
    pub prev: NodePtr<K, V>,
    /// Leaf / internal discriminant.
    pub leaf: bool,
    // ---- the only mutable words: CAS after initialization ----
    /// The paper's `Update` CAS word: tagged pointer to an [`Info`].
    update: Atomic<Info<K, V>>,
    /// Left child (null iff leaf).
    left: Atomic<Node<K, V>>,
    /// Right child (null iff leaf).
    right: Atomic<Node<K, V>>,
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
            value,
            seq,
            prev,
            leaf: true,
            update: Atomic::from(dummy_word(dummy)),
            left: Atomic::null(),
            right: Atomic::null(),
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
        Node {
            key,
            value: None,
            seq,
            prev,
            leaf: false,
            update: Atomic::from(dummy_word(dummy)),
            left: Atomic::from(Shared::from(left)),
            right: Atomic::from(Shared::from(right)),
        }
    }

    /// The raw `update` CAS word (for the freeze CAS steps).
    #[inline]
    pub(crate) fn update_word(&self) -> &Atomic<Info<K, V>> {
        &self.update
    }

    /// The raw child word for `CAS-Child` / teardown.
    #[inline]
    pub(crate) fn child_word(&self, left: bool) -> &Atomic<Node<K, V>> {
        if left {
            &self.left
        } else {
            &self.right
        }
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
    /// fields (`key`, `seq`, `prev`, `value`) are visible before the
    /// caller dereferences.
    #[inline]
    pub(crate) fn load_child<'g>(&self, left: bool, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.child_word(left).load(Acquire, guard)
    }
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
    Shared::from(w.info).with_tag(w.tag.bit())
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
        assert_eq!(l.value, Some(7));
        assert!(l.prev.is_null());
        let g = crossbeam_epoch::pin();
        assert!(l.load_child(true, &g).is_null());
        assert!(l.load_child(false, &g).is_null());
        let w = l.load_update(&g);
        assert_eq!(w.tag, FreezeTag::Flag);
        assert!(std::ptr::eq(w.info, dp));
        unsafe {
            assert_eq!((*w.info).state.load(Relaxed), state::ABORT);
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
        assert!(i.value.is_none());
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
    fn layout_is_one_packed_record() {
        // The size every workload's RSS scales with: the CAS words pack
        // flush against the immutable fields, pointer-aligned.
        assert_eq!(std::mem::size_of::<Node<u64, u64>>(), 80);
        assert_eq!(std::mem::align_of::<Node<u64, u64>>(), 8);
    }
}
