//! Property-based testing: every structure against a `BTreeMap` oracle.
//!
//! Random operation sequences (inserts / deletes / finds / range scans /
//! snapshots) must produce byte-identical results to the sequential
//! model when executed single-threaded — for the PNB-BST, the NB-BST
//! baseline, and the SeqBst reference.

use proptest::prelude::*;
use std::collections::BTreeMap;

use pnbbst_repro::{NbBst, PnbBst, SeqBst};

#[derive(Clone, Debug)]
enum Action {
    Insert(u16, u16),
    Upsert(u16, u16),
    Remove(u16),
    Get(u16),
    Scan(u16, u16),
    Snapshot,
}

fn action_strategy(key_space: u16) -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..key_space, any::<u16>()).prop_map(|(k, v)| Action::Insert(k, v)),
        2 => (0..key_space, any::<u16>()).prop_map(|(k, v)| Action::Upsert(k, v)),
        3 => (0..key_space).prop_map(Action::Remove),
        2 => (0..key_space).prop_map(Action::Get),
        1 => (0..key_space, 0..key_space).prop_map(|(a, b)| Action::Scan(a.min(b), a.max(b))),
        1 => Just(Action::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pnbbst_matches_btreemap(actions in prop::collection::vec(action_strategy(64), 1..400)) {
        let tree: PnbBst<u16, u16> = PnbBst::new();
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();
        // Live snapshots with their expected (frozen) model states.
        let mut snaps: Vec<(pnb_bst::Snapshot<'_, u16, u16>, BTreeMap<u16, u16>)> = Vec::new();

        for a in &actions {
            match a {
                Action::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(*k, *v), !model.contains_key(k));
                    model.entry(*k).or_insert(*v);
                }
                Action::Upsert(k, v) => {
                    prop_assert_eq!(tree.upsert(*k, *v), model.insert(*k, *v));
                }
                Action::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(k));
                }
                Action::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(k).copied());
                }
                Action::Scan(lo, hi) => {
                    let got = tree.snapshot().range_scan(lo, hi);
                    let expect: Vec<(u16, u16)> =
                        model.range(*lo..=*hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect);
                }
                Action::Snapshot => {
                    if snaps.len() < 4 {
                        snaps.push((tree.snapshot(), model.clone()));
                    }
                }
            }
        }

        // The final state matches...
        let expect: Vec<(u16, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree.snapshot().to_vec(), expect);
        prop_assert_eq!(tree.check_invariants(), model.len());
        // ...and every live snapshot still reflects its own epoch.
        for (snap, frozen) in &snaps {
            let expect: Vec<(u16, u16)> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(snap.to_vec(), expect);
            // Spot-check point reads against the frozen model.
            for k in [0u16, 13, 31, 63] {
                prop_assert_eq!(snap.get(&k), frozen.get(&k).copied());
            }
        }
    }

    #[test]
    fn nbbst_matches_btreemap(actions in prop::collection::vec(action_strategy(64), 1..400)) {
        let tree: NbBst<u16, u16> = NbBst::new();
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();
        for a in &actions {
            match a {
                // NB-BST has no atomic upsert (Caps::point_ops); exercise
                // plain set-semantics insert in its place.
                Action::Insert(k, v) | Action::Upsert(k, v) => {
                    prop_assert_eq!(tree.insert(*k, *v), !model.contains_key(k));
                    model.entry(*k).or_insert(*v);
                }
                Action::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(k));
                }
                Action::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(k).copied());
                }
                // NB-BST has no linearizable scan; use the quiescent dump
                // (we are single-threaded here, so it is exact).
                Action::Scan(lo, hi) => {
                    let got: Vec<(u16, u16)> = tree
                        .to_vec_quiescent()
                        .into_iter()
                        .filter(|(k, _)| k >= lo && k <= hi)
                        .collect();
                    let expect: Vec<(u16, u16)> =
                        model.range(*lo..=*hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect);
                }
                Action::Snapshot => {}
            }
        }
        prop_assert_eq!(tree.check_invariants(), model.len());
    }

    #[test]
    fn seqbst_matches_btreemap(actions in prop::collection::vec(action_strategy(64), 1..400)) {
        let mut tree: SeqBst<u16, u16> = SeqBst::new();
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();
        for a in &actions {
            match a {
                Action::Insert(k, v) | Action::Upsert(k, v) => {
                    prop_assert_eq!(tree.insert(*k, *v), !model.contains_key(k));
                    model.entry(*k).or_insert(*v);
                }
                Action::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(k));
                }
                Action::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(k).copied());
                }
                Action::Scan(lo, hi) => {
                    let expect: Vec<(u16, u16)> =
                        model.range(*lo..=*hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(tree.range_scan(lo, hi), expect);
                }
                Action::Snapshot => {}
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        let expect: Vec<(u16, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree.to_vec(), expect);
    }

    #[test]
    fn scan_bounds_agree_with_model(
        keys in prop::collection::btree_set(0u32..500, 0..120),
        lo in 0u32..500,
        width in 0u32..200,
    ) {
        let tree: PnbBst<u32, u32> = PnbBst::new();
        for &k in &keys {
            tree.insert(k, k * 3);
        }
        let hi = lo.saturating_add(width);
        let got: Vec<u32> = tree.snapshot().range_scan(&lo, &hi).into_iter().map(|(k, _)| k).collect();
        let expect: Vec<u32> = keys.iter().copied().filter(|k| *k >= lo && *k <= hi).collect();
        prop_assert_eq!(tree.pin().range(lo..=hi).count(), expect.len());
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn lazy_range_agrees_with_btreemap_for_all_nine_bound_combos(
        keys in prop::collection::btree_set(0u32..500, 0..120),
        a in 0u32..500,
        b in 0u32..500,
        lo_kind in 0u8..3,
        hi_kind in 0u8..3,
    ) {
        use std::ops::Bound;
        let (a, b) = (a.min(b), a.max(b));
        // BTreeMap::range panics on start == end with both bounds
        // excluded; skip that single invalid oracle input (the lazy
        // iterator itself returns empty for it — covered below).
        prop_assume!(!(a == b && lo_kind == 2 && hi_kind == 2));
        let mk = |kind: u8, v: u32| match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(v),
            _ => Bound::Excluded(v),
        };
        let lo = mk(lo_kind, a);
        let hi = mk(hi_kind, b);

        let tree: PnbBst<u32, u32> = PnbBst::new();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for &k in &keys {
            tree.insert(k, k * 3);
            model.insert(k, k * 3);
        }
        let h = tree.pin();
        let got: Vec<(u32, u32)> = h.range((lo, hi)).collect();
        let expect: Vec<(u32, u32)> =
            model.range((lo, hi)).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, expect, "bounds {:?}..{:?}", lo, hi);

        // A snapshot sees the same cut through its own lazy iterator.
        let snap = tree.snapshot();
        let got: Vec<(u32, u32)> = snap.range((lo, hi)).collect();
        let expect: Vec<(u32, u32)> =
            model.range((lo, hi)).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, expect, "snapshot bounds {:?}..{:?}", lo, hi);
    }

    #[test]
    fn lazy_range_never_panics_on_degenerate_bounds(
        keys in prop::collection::btree_set(0u32..100, 0..40),
        a in 0u32..100,
        b in 0u32..100,
    ) {
        use std::ops::Bound;
        // Inverted and empty bound pairs — including the combination
        // BTreeMap::range refuses — must simply yield nothing.
        let tree: PnbBst<u32, u32> = PnbBst::new();
        for &k in &keys {
            tree.insert(k, k);
        }
        let h = tree.pin();
        let (lo, hi) = (a.max(b), a.min(b));
        if lo != hi {
            prop_assert_eq!(h.range(lo..hi).count(), 0);
            prop_assert_eq!(
                h.range((Bound::Excluded(lo), Bound::Excluded(hi))).count(),
                0
            );
        }
        prop_assert_eq!(
            h.range((Bound::Excluded(a), Bound::Excluded(a))).count(),
            0
        );
    }

    #[test]
    fn set_wrapper_matches_btreeset(
        ops in prop::collection::vec((0u8..3, 0u16..100), 1..300)
    ) {
        use std::collections::BTreeSet;
        let set = pnb_bst::PnbBstSet::<u16>::new();
        let mut model = BTreeSet::new();
        for (op, k) in ops {
            match op {
                0 => { prop_assert_eq!(set.insert(k), model.insert(k)); }
                1 => { prop_assert_eq!(set.delete(&k), model.remove(&k)); }
                _ => { prop_assert_eq!(set.contains(&k), model.contains(&k)); }
            }
        }
        let got = set.snapshot().keys();
        let expect: Vec<u16> = model.into_iter().collect();
        prop_assert_eq!(got, expect);
    }
}
