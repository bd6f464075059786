//! Property-based tests on the protocol data structures: diffs, vector
//! timestamps, dirty vectors, intervals, and the message payload lists.

use ncp2_core::bitvec::DirtyVec;
use ncp2_core::diff::{Diff, DiffList};
use ncp2_core::interval::{IntervalAnnouncement, IntervalStore, IvlList, IVL_INLINE};
use ncp2_core::page::PageBuf;
use ncp2_core::vtime::VectorTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn page_from(words: &BTreeMap<u16, u32>) -> PageBuf {
    let mut p = PageBuf::new(4096);
    for (&i, &v) in words {
        p.set_word(i as usize % 1024, v);
    }
    p
}

/// A distinct (empty) diff per `interval`, as a writer's store shares it.
fn shared_diff(interval: u32) -> Arc<Diff> {
    let p = PageBuf::new(4096);
    Arc::new(Diff::from_twin(0, interval as usize % 4, interval, &p, &p))
}

/// A `DiffList` holding `diffs`, built by pushes.
fn diff_list(diffs: &[Arc<Diff>]) -> DiffList {
    let mut l = DiffList::new();
    for d in diffs {
        l.push(Arc::clone(d));
    }
    l
}

proptest! {
    /// twin-diff(current, twin) applied to twin reproduces current exactly.
    #[test]
    fn diff_roundtrip(
        twin_words in prop::collection::btree_map(0u16..1024, any::<u32>(), 0..64),
        cur_words in prop::collection::btree_map(0u16..1024, any::<u32>(), 0..64)
    ) {
        let twin = page_from(&twin_words);
        let mut cur = twin.clone();
        for (&i, &v) in &cur_words {
            cur.set_word(i as usize % 1024, v);
        }
        let d = Diff::from_twin(0, 0, 1, &cur, &twin);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, cur);
    }

    /// A dirty-vector diff captures exactly the flagged words, and its wire
    /// size follows the paper's words + bit-vector encoding.
    #[test]
    fn dirty_vec_diff_is_exact(
        dirty in prop::collection::btree_set(0usize..1024, 0..256),
        values in prop::collection::vec(any::<u32>(), 1024)
    ) {
        let mut page = PageBuf::new(4096);
        for (i, &v) in values.iter().enumerate() {
            page.set_word(i, v);
        }
        let mut dv = DirtyVec::new(1024);
        for &i in &dirty {
            dv.set(i);
        }
        let d = Diff::from_dirty_vec(0, 0, 1, &page, &dv);
        prop_assert_eq!(d.word_count(), dirty.len() as u64);
        prop_assert_eq!(d.encoded_bytes(), 16 + 128 + 4 * dirty.len() as u64);
        let mut target = PageBuf::new(4096);
        d.apply(&mut target);
        for &i in &dirty {
            prop_assert_eq!(target.word(i), values[i]);
        }
    }

    /// Diffs over disjoint word sets commute under application.
    #[test]
    fn disjoint_diffs_commute(
        a_words in prop::collection::btree_set(0usize..512, 1..64),
        b_words in prop::collection::btree_set(512usize..1024, 1..64),
        seed in any::<u32>()
    ) {
        let base = PageBuf::new(4096);
        let mut pa = base.clone();
        for &i in &a_words { pa.set_word(i, seed.wrapping_add(i as u32)); }
        let mut pb = base.clone();
        for &i in &b_words { pb.set_word(i, seed.wrapping_mul(3).wrapping_add(i as u32)); }
        let da = Diff::from_twin(0, 0, 1, &pa, &base);
        let db = Diff::from_twin(0, 1, 1, &pb, &base);
        let mut t1 = base.clone();
        da.apply(&mut t1);
        db.apply(&mut t1);
        let mut t2 = base.clone();
        db.apply(&mut t2);
        da.apply(&mut t2);
        prop_assert_eq!(t1, t2);
    }

    /// Vector-time merge is a join: commutative, associative, idempotent,
    /// and an upper bound of its arguments.
    #[test]
    fn vector_time_merge_is_a_join(
        a in prop::collection::vec(0u32..100, 8),
        b in prop::collection::vec(0u32..100, 8),
        c in prop::collection::vec(0u32..100, 8)
    ) {
        let vt = |xs: &[u32]| {
            let mut v = VectorTime::new(xs.len());
            for (i, &x) in xs.iter().enumerate() {
                v.observe(i, x);
            }
            v
        };
        let (va, vb, vc) = (vt(&a), vt(&b), vt(&c));
        let mut ab = va.clone();
        ab.merge(&vb);
        let mut ba = vb.clone();
        ba.merge(&va);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.covers(&va) && ab.covers(&vb));
        let mut ab_c = ab.clone();
        ab_c.merge(&vc);
        let mut bc = vb.clone();
        bc.merge(&vc);
        let mut a_bc = va.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        let mut aa = va.clone();
        aa.merge(&va);
        prop_assert_eq!(aa, va);
    }

    /// The component sum is a linear extension of the coverage order — the
    /// property the causal diff-apply sort relies on.
    #[test]
    fn vt_sum_extends_coverage(
        a in prop::collection::vec(0u32..50, 8),
        extra in prop::collection::vec(0u32..50, 8)
    ) {
        let mut va = VectorTime::new(8);
        for (i, &x) in a.iter().enumerate() {
            va.observe(i, x);
        }
        let mut vb = va.clone();
        for (i, &x) in extra.iter().enumerate() {
            vb.observe(i, va.get(i) + x);
        }
        let sum = |v: &VectorTime| v.iter().map(|(_, x)| x as u64).sum::<u64>();
        prop_assert!(vb.covers(&va));
        prop_assert!(sum(&vb) >= sum(&va));
        if vb != va {
            prop_assert!(sum(&vb) > sum(&va), "strict coverage must give a strictly larger sum");
        }
    }

    /// `missing_for` returns exactly the recorded intervals not covered by
    /// the inquirer, and re-recording is idempotent.
    #[test]
    fn interval_store_missing_for_is_exact(
        ivls in prop::collection::btree_set((0usize..4, 1u32..20), 0..40),
        seen in prop::collection::vec(0u32..20, 4)
    ) {
        let mut store = IntervalStore::new();
        for &(owner, id) in &ivls {
            let mut vt = VectorTime::new(4);
            vt.observe(owner, id);
            let ann = Arc::new(IntervalAnnouncement::new(owner, id, vt, vec![id as u64]));
            store.record(Arc::clone(&ann));
            store.record(ann); // idempotent
        }
        prop_assert_eq!(store.len(), ivls.len());
        let mut their = VectorTime::new(4);
        for (i, &s) in seen.iter().enumerate() {
            their.observe(i, s);
        }
        let missing = store.missing_for(&their);
        let expect: Vec<(usize, u32)> = ivls
            .iter()
            .copied()
            .filter(|&(o, i)| i > seen[o])
            .collect();
        let got: Vec<(usize, u32)> = missing.iter().map(|a| (a.owner, a.id)).collect();
        prop_assert_eq!(got, expect);
    }

    /// DirtyVec agrees with a reference set implementation.
    #[test]
    fn dirty_vec_matches_reference_set(ops in prop::collection::vec(0usize..1024, 0..300)) {
        let mut dv = DirtyVec::new(1024);
        let mut set = std::collections::BTreeSet::new();
        for &i in &ops {
            dv.set(i);
            set.insert(i);
        }
        prop_assert_eq!(dv.count() as usize, set.len());
        prop_assert_eq!(dv.iter_set().collect::<Vec<_>>(), set.iter().copied().collect::<Vec<_>>());
        dv.clear();
        prop_assert!(dv.is_clean());
    }

    /// `IvlList` behaves as a `Vec` across its inline/spill boundary: the
    /// same ids in the same order, whichever form holds them.
    #[test]
    fn ivl_list_matches_a_vec(ids in prop::collection::vec(any::<u32>(), 0..3 * IVL_INLINE)) {
        let mut list = IvlList::new();
        let mut model: Vec<u32> = Vec::new();
        prop_assert_eq!(&*list, &model[..]);
        for &id in &ids {
            list.push(id);
            model.push(id);
            prop_assert_eq!(&*list, &model[..]);
            let copy = list.clone();
            prop_assert_eq!(&copy, &list);
            prop_assert_eq!(&*copy, &model[..]);
            prop_assert_eq!(format!("{copy:?}"), format!("IvlList({model:?})"));
        }
        let mut longer = list.clone();
        longer.push(7);
        prop_assert_ne!(&longer, &list);
    }

    /// `DiffList` behaves as a `Vec` across its inline/spill boundary under
    /// push, append, retain, drain and clone. Equality and `Debug` see the
    /// diffs only: a spilled list cut back to one diff equals (and prints
    /// as) a list that never spilled.
    #[test]
    fn diff_list_matches_a_vec(ops in prop::collection::vec((0u8..6, 0u32..8), 0..40)) {
        let pool: Vec<Arc<Diff>> = (0..8).map(shared_diff).collect();
        let mut list = DiffList::new();
        let mut model: Vec<Arc<Diff>> = Vec::new();
        for &(op, x) in &ops {
            match op {
                0 | 1 => {
                    list.push(Arc::clone(&pool[x as usize]));
                    model.push(Arc::clone(&pool[x as usize]));
                }
                2 => {
                    let tail = &pool[..x as usize % 3];
                    list.append(diff_list(tail));
                    model.extend(tail.iter().cloned());
                }
                3 => {
                    list.retain(|d| d.interval != x);
                    model.retain(|d| d.interval != x);
                }
                4 => {
                    let drained: Vec<Arc<Diff>> = list.drain().collect();
                    prop_assert_eq!(drained, std::mem::take(&mut model));
                }
                _ => {
                    // Reverse through `DerefMut`, as a causal sort reorders.
                    list.reverse();
                    model.reverse();
                }
            }
            prop_assert_eq!(&*list, &model[..]);
            prop_assert_eq!(list.len(), model.len());
            let copy = list.clone();
            prop_assert_eq!(&copy, &list);
            let fresh = diff_list(&model);
            prop_assert_eq!(&fresh, &list);
            prop_assert_eq!(format!("{fresh:?}"), format!("{list:?}"));
        }
    }
}
