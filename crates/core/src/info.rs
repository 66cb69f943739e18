//! `Info` objects and the update-word encoding (paper Figure 2, lines 1–14).
//!
//! Every update attempt allocates one `Info` record (a header and a
//! body, see below) describing the whole multi-word transaction it
//! wants to perform: which nodes to freeze (flag or mark), the expected
//! old values of their `update` fields, and the child-pointer swing
//! (`par`, `old_child` → `new_child`). The record is published by the
//! first *freeze CAS* and from then on any thread can complete ("help")
//! or abort the attempt by driving its state machine:
//!
//! ```text
//!        handshake ok            all frozen + child CAS
//!   ⊥ ───────────────► Try ───────────────────────────► Commit
//!   │                    │
//!   │ handshake failed   │ some freeze CAS lost
//!   ▼                    ▼
//! Abort ◄───────────── Abort
//! ```
//!
//! The paper stores `{Flag, Mark} × Info*` in a single CAS word (the
//! `Update` record). We reproduce that with a tagged pointer: the low bit
//! of the `Info` pointer is the [`FreezeTag`], and [`UpdateWord`] is that
//! one word.
//!
//! # What is stored and what is derived
//!
//! An attempt's record is split in two. The **header** ([`Info`]) is
//! what update words point at: `state` plus reclamation bookkeeping,
//! 16 bytes. It stays alive as long as one node's `update` word points
//! at it (see below), long after its attempt is decided — the word can
//! never return to the Dummy, which is the paper's ABA guard — and
//! after the decision nothing but `state` is read. The **body**
//! ([`Body`]) holds what `Help` reads to drive the attempt: it is read
//! only by a thread that has seen the header undecided while pinned, and
//! it is retired as soon as the attempt is decided. Of the paper's
//! Figure 2 fields:
//!
//! * `state` is the header's; `seq`, `nodes`, `newChild` are stored in
//!   the body as they are;
//! * `par` is `nodes[0]` and `oldChild` is `nodes[1]` — every update
//!   shape swings a child of the first node it freezes, and that child
//!   is the second ([`Body::par`], [`Body::old_child`]);
//! * `mark[i]` is `i > 0` — every shape flags `nodes[0]` and marks the
//!   rest ([`Body::is_mark`]);
//! * the length is 4 for a `Delete` and 2 otherwise ([`Body::len`]);
//! * `oldUpdate[0]` is not stored: only `Execute`'s first freeze CAS
//!   reads it, and `Execute` has the caller's copy. `old_update` holds
//!   indices `1..len` ([`Body::old_update`]).
//!
//! So every header is one 16-byte and every body one 80-byte
//! `#[repr(C)]` record whatever `K`, `V` and the operation are, and a
//! decided attempt keeps only its header.
//!
//! # Reclamation
//!
//! The paper assumes garbage collection. Here each header carries a
//! reference count of *node-update-field references* plus one creation
//! reference (see `DESIGN.md` §3): a successful freeze CAS transfers a
//! reference from the displaced `Info` to the installed one, and retiring
//! a node releases the reference held by its (permanently marked) update
//! field. The count uses an increment-before-CAS discipline so it never
//! goes negative, and a `retired` flag makes retirement idempotent. The
//! body is not counted: the decision has exactly one thread that retires
//! it (the child-CAS winner on a commit, the creator on an abort), in
//! the same epoch bag entry as a node the decision retires anyway.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8};

use crate::node::Node;

/// Raw pointer to a tree node (owned by the tree / epoch collector).
pub(crate) type NodePtr<K, V> = *const Node<K, V>;
/// Raw pointer to an attempt's header, as update words hold it.
pub(crate) type InfoPtr<K, V> = *const Info<K, V>;

/// The paper's `{Flag, Mark}` discriminant, stored as the low tag bit of
/// the `Info` pointer inside a node's `update` word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub(crate) enum FreezeTag {
    /// The node's child pointer is about to change but the node stays in
    /// the tree.
    Flag = 0,
    /// The node is about to be removed from the (current) tree. Marking is
    /// permanent if the attempt commits (paper Lemma 23).
    Mark = 1,
}

impl FreezeTag {
    #[inline]
    pub(crate) fn from_bit(bit: usize) -> Self {
        if bit & 1 == 0 {
            FreezeTag::Flag
        } else {
            FreezeTag::Mark
        }
    }

    #[inline]
    pub(crate) fn bit(self) -> usize {
        self as usize
    }
}

/// A decoded update word — the paper's `Update` record `(tag, info)` —
/// kept packed: the `Info` pointer with the [`FreezeTag`] in its low bit,
/// exactly the bits a node's `update` field holds.
///
/// Two words are equal iff both the tag and the pointer are equal, which
/// is exactly single-word CAS equality on the packed representation.
#[repr(transparent)]
pub(crate) struct UpdateWord<K, V> {
    tagged: *const (),
    _info: PhantomData<InfoPtr<K, V>>,
}

// Manual Copy/Clone: derives would demand K: Clone etc. even though we
// only hold a raw pointer.
impl<K, V> Clone for UpdateWord<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for UpdateWord<K, V> {}

impl<K, V> PartialEq for UpdateWord<K, V> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.tagged, other.tagged)
    }
}
impl<K, V> Eq for UpdateWord<K, V> {}

impl<K, V> std::fmt::Debug for UpdateWord<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UpdateWord({:?}, {:p})", self.tag(), self.info())
    }
}

impl<K, V> UpdateWord<K, V> {
    #[inline]
    pub(crate) fn new(tag: FreezeTag, info: InfoPtr<K, V>) -> Self {
        debug_assert_eq!(info.addr() & 1, 0, "Info pointers are aligned");
        UpdateWord {
            tagged: info.cast::<()>().map_addr(|a| a | tag.bit()),
            _info: PhantomData,
        }
    }

    /// Flag or Mark.
    #[inline]
    pub(crate) fn tag(self) -> FreezeTag {
        FreezeTag::from_bit(self.tagged.addr())
    }

    /// The `Info` the word points at, tag bit cleared.
    #[inline]
    pub(crate) fn info(self) -> InfoPtr<K, V> {
        self.tagged.map_addr(|a| a & !1).cast()
    }
}

/// `Info.state` values (paper line 6). `u8` backing for `AtomicU8`.
pub(crate) mod state {
    /// `⊥` — attempt created, handshake not yet performed.
    pub const UNDECIDED: u8 = 0;
    /// Handshake succeeded; freezing in progress.
    pub const TRY: u8 = 1;
    /// Child CAS performed; the update took effect.
    pub const COMMIT: u8 = 2;
    /// Attempt aborted (handshake failed or a freeze CAS lost).
    pub const ABORT: u8 = 3;
}

/// Which operation created an attempt. Determines how many nodes
/// it freezes and the shape of the replacement subtree (and therefore
/// what gets retired on commit or freed on abort).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum OpKind {
    /// `Insert`: `new_child` is a fresh internal node with two fresh
    /// leaves; `old_child` is the replaced leaf. Freezes `[p, l]`.
    Insert,
    /// `Delete`: `new_child` is a fresh copy of the sibling; `old_child`
    /// is the parent being spliced out together with both its children.
    /// Freezes `[gp, p, l, sibling]`.
    Delete,
    /// `Upsert`'s replacement shape: `new_child` is a single fresh leaf
    /// carrying the new value (`prev` = the old leaf); `old_child` is the
    /// replaced leaf. The smallest of the three shapes — one node in, one
    /// node out, same freeze-validate-CAS protocol. Freezes `[p, l]`.
    Replace,
}

impl OpKind {
    /// How many nodes an attempt of this kind freezes.
    #[inline]
    fn freezes(self) -> usize {
        match self {
            OpKind::Delete => 4,
            OpKind::Insert | OpKind::Replace => 2,
        }
    }
}

/// Maximum number of nodes an attempt freezes (4, for `Delete`:
/// `[gp, p, l, sibling]`).
pub(crate) const MAX_NODES: usize = 4;

/// The header of the paper's `Info` record (Figure 2, lines 5–14): the
/// part update words point at, which outlives the attempt. `state` plus
/// reclamation bookkeeping and the pointer to the attempt's [`Body`].
///
/// `body` is immutable after construction (paper Observation 1), but it
/// may be dangling once the attempt is decided: see [`Info::body`].
#[repr(C)]
pub(crate) struct Info<K, V> {
    /// State machine; see module docs.
    pub state: AtomicU8,
    /// Set exactly once by whoever observes `refs == 0`; the winner defers
    /// destruction through the epoch collector.
    pub retired: AtomicBool,
    /// Node-reference count plus one creation reference (see module
    /// docs). A `u32` is ample: at most 4 update fields (one per frozen
    /// node) plus the creation reference, plus one speculative increment
    /// per helper inside a freeze CAS at that moment. The Dummy's count
    /// is never decremented.
    pub refs: AtomicU32,
    /// The attempt's freeze list; null for the Dummy.
    body: *const Body<K, V>,
}

/// The part of the paper's `Info` record that `Help` reads to drive an
/// undecided attempt, reduced as the module docs describe. Immutable
/// after construction (paper Observation 1); retired once the attempt
/// is decided.
#[repr(C)]
pub(crate) struct Body<K, V> {
    /// Creating operation kind.
    pub kind: OpKind,
    /// Sequence number (phase) of the attempt — read from `Counter` at the
    /// start of the attempt and re-checked by the handshake.
    pub seq: u64,
    /// New value for the child CAS; `new_child.prev == old_child`.
    pub new_child: NodePtr<K, V>,
    /// Nodes to freeze, in freeze order (`nodes[0]` is frozen by
    /// `Execute`, the rest by `Help`); `len()` of them are valid.
    pub nodes: [NodePtr<K, V>; MAX_NODES],
    /// Expected old update words of `nodes[1..len]` for `Help`'s freeze
    /// CASes (`old_update[i - 1]` belongs to `nodes[i]`).
    old_update: [UpdateWord<K, V>; MAX_NODES - 1],
}

impl<K, V> Info<K, V> {
    /// The header of a fresh attempt described by `body`. `refs` starts
    /// at 1 — the creation reference held by the creating operation
    /// until its `Execute` finishes.
    pub(crate) fn new(body: *const Body<K, V>) -> Self {
        Info {
            state: AtomicU8::new(state::UNDECIDED),
            retired: AtomicBool::new(false),
            refs: AtomicU32::new(1),
            body,
        }
    }

    /// The per-tree Dummy `Info` (paper line 30): permanently `Abort`, so
    /// `Frozen` on a word pointing at it is always false, and without a
    /// body. `retired` is preset so the reference-counting machinery can
    /// never try to free it (the tree owns and frees it on drop).
    pub(crate) fn dummy() -> Self {
        Info {
            state: AtomicU8::new(state::ABORT),
            retired: AtomicBool::new(true),
            refs: AtomicU32::new(u32::MAX / 2),
            body: std::ptr::null(),
        }
    }

    /// The attempt's body.
    ///
    /// # Safety
    ///
    /// The body is retired, through the epoch collector, after the
    /// attempt is decided. The caller must hold a pin taken before that
    /// retirement: it has read `state` as `UNDECIDED` or `TRY` under the
    /// pin it still holds, or it is the creator, pinned since before the
    /// publish.
    #[inline]
    pub(crate) unsafe fn body(&self) -> &Body<K, V> {
        debug_assert!(!self.body.is_null(), "the Dummy has no body");
        // SAFETY: per the contract, the body is not yet reclaimed.
        unsafe { &*self.body }
    }
}

impl<K, V> Body<K, V> {
    /// Build the body of an attempt that freezes `nodes` (whose update
    /// words read `old_update`) and swings `nodes[0]`'s child `nodes[1]`
    /// to `new_child`.
    pub(crate) fn new(
        kind: OpKind,
        nodes: &[NodePtr<K, V>],
        old_update: &[UpdateWord<K, V>],
        new_child: NodePtr<K, V>,
        seq: u64,
    ) -> Self {
        // `copy_from_slice` asserts both slices are `kind`'s length.
        let len = kind.freezes();
        let mut n = [std::ptr::null(); MAX_NODES];
        let mut u = [UpdateWord::new(FreezeTag::Flag, std::ptr::null()); MAX_NODES - 1];
        n[..len].copy_from_slice(nodes);
        u[..len - 1].copy_from_slice(&old_update[1..]);
        Body {
            kind,
            seq,
            new_child,
            nodes: n,
            old_update: u,
        }
    }

    /// Number of nodes the attempt freezes: 4 for a `Delete`, 2 otherwise.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.kind.freezes()
    }

    /// The node whose child pointer will change: `nodes[0]` (`p` for
    /// inserts and replaces, `gp` for deletes).
    #[inline]
    pub(crate) fn par(&self) -> NodePtr<K, V> {
        self.nodes[0]
    }

    /// Expected old value for the child CAS: `nodes[1]` (the replaced
    /// leaf, or for deletes the spliced-out parent).
    #[inline]
    pub(crate) fn old_child(&self) -> NodePtr<K, V> {
        self.nodes[1]
    }

    /// Whether `nodes[i]` is frozen with `Mark` (to be removed) rather
    /// than `Flag`: every node but the first.
    #[inline]
    pub(crate) fn is_mark(&self, i: usize) -> bool {
        i > 0
    }

    /// Expected old update word of `nodes[i]`, for `1 <= i < len()`
    /// (`nodes[0]`'s is `Execute`'s own copy and is not stored).
    #[inline]
    pub(crate) fn old_update(&self, i: usize) -> UpdateWord<K, V> {
        debug_assert!((1..self.len()).contains(&i), "old_update({i})");
        self.old_update[i - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;
    use std::sync::atomic::Ordering;

    #[test]
    fn freeze_tag_roundtrip() {
        assert_eq!(FreezeTag::from_bit(0), FreezeTag::Flag);
        assert_eq!(FreezeTag::from_bit(1), FreezeTag::Mark);
        assert_eq!(FreezeTag::Flag.bit(), 0);
        assert_eq!(FreezeTag::Mark.bit(), 1);
        // Only the low bit matters (crossbeam may hand back wider tags).
        assert_eq!(FreezeTag::from_bit(0b10), FreezeTag::Flag);
        assert_eq!(FreezeTag::from_bit(0b11), FreezeTag::Mark);
    }

    #[test]
    fn update_word_equality_is_tag_and_pointer() {
        let a = Info::<i64, ()>::dummy();
        let b = Info::<i64, ()>::dummy();
        let pa: InfoPtr<i64, ()> = &a;
        let pb: InfoPtr<i64, ()> = &b;
        let w1 = UpdateWord::new(FreezeTag::Flag, pa);
        let w2 = UpdateWord::new(FreezeTag::Flag, pa);
        let w3 = UpdateWord::new(FreezeTag::Mark, pa);
        let w4 = UpdateWord::new(FreezeTag::Flag, pb);
        assert_eq!(w1, w2);
        assert_ne!(w1, w3); // same pointer, different tag
        assert_ne!(w1, w4); // same tag, different pointer
        assert_eq!((w3.tag(), w3.info()), (FreezeTag::Mark, pa));
        assert_eq!((w4.tag(), w4.info()), (FreezeTag::Flag, pb));
    }

    #[test]
    fn header_is_16_bytes_and_body_80_for_every_key_and_value() {
        // The header is what a decided attempt keeps: one per flagged
        // node, about two for every three keys of a churned tree. The
        // body lives only while its attempt is undecided.
        assert_eq!(size_of::<Info<u64, u64>>(), 16);
        assert_eq!(size_of::<Info<String, String>>(), 16);
        assert_eq!(size_of::<Body<u64, u64>>(), 80);
        assert_eq!(size_of::<Body<String, String>>(), 80);
        assert_eq!(size_of::<UpdateWord<u64, u64>>(), 8);
    }

    #[test]
    fn dummy_is_aborted_and_unretirable() {
        let d = Info::<u32, u32>::dummy();
        assert_eq!(d.state.load(Ordering::Relaxed), state::ABORT);
        assert!(d.retired.load(Ordering::Relaxed));
        assert!(d.body.is_null());
    }

    #[test]
    fn new_info_starts_undecided_with_creation_ref() {
        let d = Info::<u32, u32>::dummy();
        let pd: InfoPtr<u32, u32> = &d;
        let w0 = UpdateWord::new(FreezeTag::Flag, pd);
        let w1 = UpdateWord::new(FreezeTag::Mark, pd);
        // Fake node pointers: `Body::new` never dereferences them.
        let fake = [8usize as NodePtr<u32, u32>, 16 as NodePtr<u32, u32>];
        let body = Body::new(OpKind::Insert, &fake, &[w0, w1], 24 as NodePtr<u32, u32>, 7);
        let info = Info::new(&body);
        assert_eq!(info.state.load(Ordering::Relaxed), state::UNDECIDED);
        assert_eq!(info.refs.load(Ordering::Relaxed), 1);
        assert!(!info.retired.load(Ordering::Relaxed));
        // SAFETY: `body` is alive for the whole test.
        let b = unsafe { info.body() };
        assert!(std::ptr::eq(b, &body));
        assert_eq!(b.len(), 2);
        assert_eq!(b.seq, 7);
        assert_eq!((b.par(), b.old_child()), (fake[0], fake[1]));
        assert_eq!(b.new_child, 24 as NodePtr<u32, u32>);
        assert!(b.is_mark(1) && !b.is_mark(0));
        assert_eq!(b.old_update(1), w1);
    }

    #[test]
    fn delete_info_keeps_three_expected_words() {
        let d = Info::<u32, u32>::dummy();
        let pd: InfoPtr<u32, u32> = &d;
        let words = [0, 1, 0, 1].map(|bit| UpdateWord::new(FreezeTag::from_bit(bit), pd));
        let fake = [8usize, 16, 24, 32].map(|a| a as NodePtr<u32, u32>);
        let body = Body::new(OpKind::Delete, &fake, &words, 40 as NodePtr<u32, u32>, 3);
        assert_eq!(body.len(), 4);
        assert_eq!(body.nodes, fake);
        assert!((1..4).all(|i| body.is_mark(i) && body.old_update(i) == words[i]));
    }
}
