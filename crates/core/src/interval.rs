//! Intervals and write notices.
//!
//! An interval is the span of one processor's execution between two
//! synchronization operations; a write notice announces "page *p* was
//! modified in interval *i* of processor *q*". Acquiring processors
//! invalidate pages named by notices whose intervals they have not yet seen
//! (§2 of the paper).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::page::PageId;
use crate::vtime::{IntervalId, VectorTime};

/// A write notice: one page dirtied by one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notice {
    /// The modified page.
    pub page: PageId,
    /// The processor that modified it.
    pub owner: usize,
    /// The owner's interval in which the modification happened.
    pub interval: IntervalId,
}

/// A full interval announcement as shipped on lock-grant and barrier
/// messages: identity, timestamp and the pages it dirtied.
///
/// Built once, when its interval closes, and never changed afterwards:
/// every store that learns it and every message that carries it holds an
/// `Arc` handle to the same allocation instead of a copy.
#[derive(Debug, PartialEq, Eq)]
pub struct IntervalAnnouncement {
    /// Processor that created the interval.
    pub owner: usize,
    /// Its per-owner sequence number.
    pub id: IntervalId,
    /// Vector time at the interval's close.
    pub vt: VectorTime,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageId>,
    /// Component sum of `vt`, computed once by [`Self::new`] for every
    /// store that records the interval (see [`IntervalStore::vt_sum`]).
    vt_sum: u64,
}

impl IntervalAnnouncement {
    /// The announcement of `owner`'s interval `id`, closed at `vt`, which
    /// dirtied `pages`.
    pub fn new(owner: usize, id: IntervalId, vt: VectorTime, pages: Vec<PageId>) -> Self {
        let vt_sum = vt.iter().map(|(_, v)| u64::from(v)).sum();
        IntervalAnnouncement {
            owner,
            id,
            vt,
            pages,
            vt_sum,
        }
    }

    /// The write notices this interval induces.
    pub fn notices(&self) -> impl Iterator<Item = Notice> + '_ {
        self.pages.iter().map(|&page| Notice {
            page,
            owner: self.owner,
            interval: self.id,
        })
    }

    /// Wire size contribution (8 B per page + 24 B of identity/timestamp
    /// summary; vector times are run-length coded in real systems).
    pub fn encoded_bytes(&self) -> u64 {
        24 + 8 * self.pages.len() as u64
    }
}

/// A pooled list of shared interval announcements — the payload of lock
/// grants and barrier traffic, and the result type of [`IntervalStore`]
/// queries. The backing storage recycles through [`crate::pool`]; the
/// announcements themselves are handles, so building or cloning a list
/// copies no announcement.
#[derive(Debug, PartialEq, Eq)]
pub struct AnnList(Vec<Arc<IntervalAnnouncement>>);

impl Default for AnnList {
    fn default() -> Self {
        AnnList(crate::pool::take_anns())
    }
}

impl Clone for AnnList {
    fn clone(&self) -> Self {
        let mut v = crate::pool::take_anns();
        v.extend(self.0.iter().cloned());
        AnnList(v)
    }
}

impl Drop for AnnList {
    fn drop(&mut self) {
        crate::pool::put_anns(std::mem::take(&mut self.0));
    }
}

impl std::ops::Deref for AnnList {
    type Target = [Arc<IntervalAnnouncement>];
    fn deref(&self) -> &[Arc<IntervalAnnouncement>] {
        &self.0
    }
}

impl AnnList {
    /// An empty, pool-backed list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one announcement.
    pub fn push(&mut self, ann: Arc<IntervalAnnouncement>) {
        self.0.push(ann);
    }

    /// Sorts into deterministic `(owner, id)` order and keeps one entry per
    /// interval (a barrier manager merging the arrivals' sets may see an
    /// interval from each node that announces it).
    pub fn sort_unique(&mut self) {
        self.0.sort_by_key(|a| (a.owner, a.id));
        self.0.dedup_by_key(|a| (a.owner, a.id));
    }

    /// Moves every announcement out, leaving the container empty (and
    /// still pool-backed).
    pub fn drain(&mut self) -> std::vec::Drain<'_, Arc<IntervalAnnouncement>> {
        self.0.drain(..)
    }
}

/// Interval ids an [`IvlList`] holds without a heap buffer.
pub const IVL_INLINE: usize = 3;

/// A list of interval ids — the per-writer payload of a diff request.
///
/// Most requests name one interval (a writer seldom closes more than one
/// between two fills of a page), so up to [`IVL_INLINE`] ids are stored in
/// the value itself; a longer list spills into a buffer from
/// [`crate::pool`]'s interval-id class. Equality and `Debug` see only the
/// ids, never which form holds them.
pub struct IvlList(IvlRepr);

enum IvlRepr {
    Inline {
        len: u8,
        ids: [IntervalId; IVL_INLINE],
    },
    Spill(Vec<IntervalId>),
}

// Carried inline in every pending `DiffReq` event.
const _: () = assert!(std::mem::size_of::<IvlList>() == 24);

impl Default for IvlList {
    fn default() -> Self {
        IvlList(IvlRepr::Inline {
            len: 0,
            ids: [0; IVL_INLINE],
        })
    }
}

impl Clone for IvlList {
    fn clone(&self) -> Self {
        match &self.0 {
            IvlRepr::Inline { len, ids } => IvlList(IvlRepr::Inline {
                len: *len,
                ids: *ids,
            }),
            IvlRepr::Spill(v) => {
                let mut w = crate::pool::take_ivls();
                w.extend_from_slice(v);
                IvlList(IvlRepr::Spill(w))
            }
        }
    }
}

impl Drop for IvlList {
    fn drop(&mut self) {
        if let IvlRepr::Spill(v) = &mut self.0 {
            crate::pool::put_ivls(std::mem::take(v));
        }
    }
}

impl std::ops::Deref for IvlList {
    type Target = [IntervalId];
    fn deref(&self) -> &[IntervalId] {
        match &self.0 {
            IvlRepr::Inline { len, ids } => &ids[..*len as usize],
            IvlRepr::Spill(v) => v,
        }
    }
}

impl PartialEq for IvlList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for IvlList {}

impl std::fmt::Debug for IvlList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IvlList").field(&&**self).finish()
    }
}

impl IvlList {
    /// An empty list (no buffer until it outgrows the inline form).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one interval id.
    pub fn push(&mut self, ivl: IntervalId) {
        match &mut self.0 {
            IvlRepr::Inline { len, ids } if (*len as usize) < IVL_INLINE => {
                ids[*len as usize] = ivl;
                *len += 1;
            }
            IvlRepr::Inline { ids, .. } => {
                let mut v = crate::pool::take_ivls();
                v.extend_from_slice(ids);
                v.push(ivl);
                self.0 = IvlRepr::Spill(v);
            }
            IvlRepr::Spill(v) => v.push(ivl),
        }
    }
}

/// Every interval a node has learned about (its own and others'). Used to
/// compute the announcements a releaser must ship to an acquirer, and
/// garbage-collected at barriers. Entries are handles to the announcement
/// its owner built at close, shared with every other store and message
/// that holds the interval; an announcement is freed when the last of them
/// lets go.
///
/// Laid out struct-of-arrays style: one id-ordered run per owner instead
/// of a `BTreeMap` keyed by `(owner, id)`. Along any causal chain a node
/// learns an owner's intervals in increasing id order, so `record` is an
/// amortized O(1) `push_back`, coverage queries are prefix splits, and the
/// barrier GC pops from the front — all without per-entry tree nodes, which
/// dominated the allocator profile at 256 nodes.
#[derive(Debug, Clone, Default)]
pub struct IntervalStore {
    /// `by_owner[p]` holds owner `p`'s known intervals in ascending id
    /// order (runs reuse their ring capacity across the GC cycle).
    by_owner: Vec<VecDeque<Arc<IntervalAnnouncement>>>,
    /// `sums[p][id]` is the component sum of owner `p`'s interval `id`'s
    /// close-time vector time — the causal sort key for diff application.
    /// Deliberately **not** garbage-collected: a page's pending notices can
    /// outlive the barrier that collects the full announcements, and the
    /// fault that finally services them still needs the causal order. At
    /// 8 B per interval this retains ~50× less than keeping whole
    /// announcements (identity + vector time + page list) alive.
    sums: Vec<Vec<u64>>,
    count: usize,
}

impl IntervalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interval (idempotent: re-announcements are ignored).
    pub fn record(&mut self, ann: Arc<IntervalAnnouncement>) {
        if self.by_owner.len() <= ann.owner {
            self.by_owner.resize_with(ann.owner + 1, VecDeque::new);
            self.sums.resize_with(ann.owner + 1, Vec::new);
        }
        let sums = &mut self.sums[ann.owner];
        let idx = ann.id as usize;
        if sums.len() <= idx {
            sums.resize(idx + 1, 0);
        }
        sums[idx] = ann.vt_sum;
        let run = &mut self.by_owner[ann.owner];
        if run.back().is_none_or(|last| last.id < ann.id) {
            run.push_back(ann);
        } else {
            // A re-announcement or an out-of-order one: splice into id
            // order, ignoring duplicates.
            let pos = run.partition_point(|a| a.id < ann.id);
            if run.get(pos).is_some_and(|a| a.id == ann.id) {
                return;
            }
            run.insert(pos, ann);
        }
        self.count += 1;
    }

    /// Looks up one interval.
    pub fn get(&self, owner: usize, id: IntervalId) -> Option<&Arc<IntervalAnnouncement>> {
        let run = self.by_owner.get(owner)?;
        let pos = run.partition_point(|a| a.id < id);
        run.get(pos).filter(|a| a.id == id)
    }

    /// The component sum of the interval's close-time vector time, or 0 if
    /// the interval was never recorded here. Unlike [`Self::get`], this
    /// survives [`Self::gc_covered`] — fault-time causal ordering of diffs
    /// needs it long after the full announcements are collected.
    pub fn vt_sum(&self, owner: usize, id: IntervalId) -> u64 {
        self.sums
            .get(owner)
            .and_then(|s| s.get(id as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Number of intervals retained.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Intervals known here but **not** covered by `their_vt` — exactly what
    /// a releaser must announce to an acquirer. Returned in deterministic
    /// `(owner, id)` order.
    pub fn missing_for(&self, their_vt: &VectorTime) -> AnnList {
        let mut out = AnnList::new();
        for (owner, run) in self.by_owner.iter().enumerate() {
            // Covered ids form a prefix of the ascending run.
            let from = run.partition_point(|a| their_vt.covers_interval(owner, a.id));
            for a in run.iter().skip(from) {
                out.push(Arc::clone(a));
            }
        }
        out
    }

    /// Drops every interval covered by `floor` (a vector time all
    /// processors are known to have reached, e.g. the previous barrier's
    /// merged time). Returns how many intervals were collected.
    pub fn gc_covered(&mut self, floor: &VectorTime) -> usize {
        let before = self.count;
        for (owner, run) in self.by_owner.iter_mut().enumerate() {
            while run
                .front()
                .is_some_and(|a| floor.covers_interval(owner, a.id))
            {
                run.pop_front();
                self.count -= 1;
            }
        }
        before - self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(owner: usize, id: IntervalId, pages: &[PageId], n: usize) -> Arc<IntervalAnnouncement> {
        let mut vt = VectorTime::new(n);
        vt.observe(owner, id);
        Arc::new(IntervalAnnouncement::new(owner, id, vt, pages.to_vec()))
    }

    #[test]
    fn missing_for_respects_coverage() {
        let mut s = IntervalStore::new();
        s.record(ann(0, 1, &[10], 4));
        s.record(ann(0, 2, &[11], 4));
        s.record(ann(1, 1, &[12], 4));
        let mut their = VectorTime::new(4);
        their.observe(0, 1);
        let missing = s.missing_for(&their);
        let keys: Vec<(usize, IntervalId)> = missing.iter().map(|a| (a.owner, a.id)).collect();
        assert_eq!(keys, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn record_is_idempotent() {
        let mut s = IntervalStore::new();
        s.record(ann(2, 5, &[1, 2], 4));
        s.record(ann(2, 5, &[99], 4)); // ignored duplicate
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(2, 5).unwrap().pages, vec![1, 2]);
    }

    #[test]
    fn vt_sum_is_the_recorded_component_sum() {
        let mut vt = VectorTime::new(4);
        for (p, id) in [(0, 3), (1, 7), (3, 11)] {
            vt.observe(p, id);
        }
        let mut s = IntervalStore::new();
        s.record(Arc::new(IntervalAnnouncement::new(1, 7, vt, vec![4])));
        let a = s.get(1, 7).expect("recorded");
        let sum: u64 = a.vt.iter().map(|(_, v)| u64::from(v)).sum();
        assert_eq!(sum, 21);
        assert_eq!(s.vt_sum(1, 7), sum);
        // The side table outlives the announcement's collection.
        let mut floor = VectorTime::new(4);
        floor.observe(1, 7);
        assert_eq!(s.gc_covered(&floor), 1);
        assert_eq!(s.vt_sum(1, 7), sum);
        assert_eq!(s.vt_sum(1, 8), 0);
    }

    #[test]
    fn sort_unique_orders_and_drops_repeats() {
        let (a, b, c) = (ann(1, 2, &[], 2), ann(0, 1, &[], 2), ann(1, 1, &[], 2));
        let mut l = AnnList::new();
        for x in [&a, &b, &a, &c, &b] {
            l.push(Arc::clone(x));
        }
        l.sort_unique();
        let keys: Vec<(usize, IntervalId)> = l.iter().map(|a| (a.owner, a.id)).collect();
        assert_eq!(keys, vec![(0, 1), (1, 1), (1, 2)]);
    }

    #[test]
    fn gc_drops_only_covered() {
        let mut s = IntervalStore::new();
        s.record(ann(0, 1, &[], 2));
        s.record(ann(0, 2, &[], 2));
        s.record(ann(1, 1, &[], 2));
        let mut floor = VectorTime::new(2);
        floor.observe(0, 1);
        floor.observe(1, 1);
        assert_eq!(s.gc_covered(&floor), 2);
        assert_eq!(s.len(), 1);
        assert!(s.get(0, 2).is_some());
    }

    #[test]
    fn notices_enumerate_pages() {
        let a = ann(3, 7, &[5, 6], 4);
        let ns: Vec<Notice> = a.notices().collect();
        assert_eq!(
            ns,
            vec![
                Notice {
                    page: 5,
                    owner: 3,
                    interval: 7
                },
                Notice {
                    page: 6,
                    owner: 3,
                    interval: 7
                }
            ]
        );
    }

    #[test]
    fn encoded_size_grows_with_pages() {
        assert_eq!(ann(0, 1, &[], 2).encoded_bytes(), 24);
        assert_eq!(ann(0, 1, &[1, 2, 3], 2).encoded_bytes(), 48);
    }
}
