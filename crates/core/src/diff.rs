//! Twins and diffs — the word-granularity update encoding of TreadMarks.
//!
//! A *twin* is a snapshot of a page taken at the first write of an interval;
//! a *diff* is the list of words where the current page differs from the
//! twin. With the NCP2 hardware support (§3.1) twins disappear: the snooped
//! dirty-word bit vector already identifies modified words and the DMA
//! engine gathers them directly.

use std::sync::Arc;

use ncp2_sim::config::PAGE_WORDS;

use crate::bitvec::DirtyVec;
use crate::page::{PageBuf, PageId};
use crate::vtime::IntervalId;

/// Size in bytes of a diff's wire header (page id, owner, interval, count).
pub const DIFF_HEADER_BYTES: u64 = 16;

/// An encoding of the modifications made to one page during one interval.
///
/// ```
/// use ncp2_core::page::PageBuf;
/// use ncp2_core::diff::Diff;
///
/// let twin = PageBuf::new(4096);
/// let mut cur = PageBuf::new(4096);
/// cur.set_word(10, 0xAB);
/// let d = Diff::from_twin(3, 0, 1, &cur, &twin);
/// assert_eq!(d.word_count(), 1);
///
/// let mut other = PageBuf::new(4096);
/// d.apply(&mut other);
/// assert_eq!(other.word(10), 0xAB);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Diff {
    /// Page the diff belongs to.
    pub page: PageId,
    /// Processor that performed the writes.
    pub owner: usize,
    /// Interval (of the writing processor) the diff covers.
    pub interval: IntervalId,
    /// `(word index, new value)` pairs in increasing index order. Pooled
    /// storage (see [`crate::pool`]), sized exactly at creation: a stored
    /// diff lives for the rest of the run, and growing the list by doubling
    /// would reallocate at every doubling.
    words: Vec<(u32, u32)>,
}

impl Clone for Diff {
    fn clone(&self) -> Self {
        let mut words = crate::pool::take_words();
        words.extend_from_slice(&self.words);
        Diff {
            page: self.page,
            owner: self.owner,
            interval: self.interval,
            words,
        }
    }
}

impl Drop for Diff {
    fn drop(&mut self) {
        crate::pool::put_words(std::mem::take(&mut self.words));
    }
}

impl Diff {
    /// Creates a diff by comparing `current` against its `twin`
    /// (software diffing, Base/I/P/I+P modes).
    pub fn from_twin(
        page: PageId,
        owner: usize,
        interval: IntervalId,
        current: &PageBuf,
        twin: &PageBuf,
    ) -> Self {
        // The count is unknown until the scan ends: gather into recycled
        // scratch, then copy out once at the exact size.
        let mut scratch = crate::pool::take_words();
        scratch.extend(
            current
                .words_differing(twin)
                .map(|i| (i as u32, current.word(i))),
        );
        let mut words = crate::pool::take_words();
        words.reserve_exact(scratch.len());
        words.extend_from_slice(&scratch);
        crate::pool::put_words(scratch);
        Diff {
            page,
            owner,
            interval,
            words,
        }
    }

    /// Creates a diff by gathering the words flagged in a snooped dirty
    /// vector (hardware diffing, I+D/I+P+D modes). This needs no twin.
    pub fn from_dirty_vec(
        page: PageId,
        owner: usize,
        interval: IntervalId,
        current: &PageBuf,
        dirty: &DirtyVec,
    ) -> Self {
        let mut words = crate::pool::take_words();
        words.reserve_exact(dirty.count() as usize);
        words.extend(dirty.iter_set().map(|i| (i as u32, current.word(i))));
        Diff {
            page,
            owner,
            interval,
            words,
        }
    }

    /// Merges `later`'s words over this diff (used when a page is dirtied
    /// again within the same interval after an early diff was forced by an
    /// invalidation).
    ///
    /// # Panics
    ///
    /// Panics if `later` describes a different page or writer — merging
    /// across identities would corrupt both diffs, so this is a documented
    /// invariant assert rather than a recoverable error.
    pub fn merge(&mut self, later: &Diff) {
        assert_eq!(
            (self.page, self.owner),
            (later.page, later.owner),
            "diff identity mismatch"
        );
        let mut map: std::collections::BTreeMap<u32, u32> = self.words.iter().copied().collect();
        for &(i, v) in &later.words {
            map.insert(i, v);
        }
        self.words.clear();
        self.words.extend(map);
    }

    /// Applies the diff to `target`, scatter-writing each recorded word.
    ///
    /// # Panics
    ///
    /// Panics (in [`PageBuf::set_word`]) if a recorded word index lies
    /// outside `target` — only possible when page copies disagree on size,
    /// which the protocol never allows.
    pub fn apply(&self, target: &mut PageBuf) {
        for &(idx, val) in &self.words {
            target.set_word(idx as usize, val);
        }
    }

    /// Number of modified words carried.
    pub fn word_count(&self) -> u64 {
        self.words.len() as u64
    }

    /// Wire size: header + bit vector (one bit per page word) + the words
    /// themselves, matching the paper's "returns the words and the bit
    /// vector as the page's diff".
    pub fn encoded_bytes(&self) -> u64 {
        DIFF_HEADER_BYTES + PAGE_WORDS.div_ceil(8) + 4 * self.word_count()
    }

    /// The recorded `(word index, value)` pairs.
    pub fn entries(&self) -> &[(u32, u32)] {
        &self.words
    }
}

/// A list of shared diffs — the payload of diff replies and the
/// accumulator a fill collects them in. The diffs are handles to the
/// copies their writers store, so a reply copies no diff.
///
/// A reply mostly carries one diff (its request mostly names one
/// interval), so one handle is stored in the value itself; a longer list
/// spills into a buffer from [`crate::pool`]. Equality and `Debug` see
/// only the diffs, never which form holds them.
pub struct DiffList(DiffRepr);

enum DiffRepr {
    Inline(Option<Arc<Diff>>),
    Spill(Vec<Arc<Diff>>),
}

// Carried inline in every pending `DiffReply` event.
const _: () = assert!(std::mem::size_of::<DiffList>() == 24);

impl Default for DiffList {
    fn default() -> Self {
        DiffList(DiffRepr::Inline(None))
    }
}

impl Clone for DiffList {
    fn clone(&self) -> Self {
        match &self.0 {
            DiffRepr::Inline(d) => DiffList(DiffRepr::Inline(d.clone())),
            DiffRepr::Spill(v) => {
                let mut w = crate::pool::take_diffs();
                w.extend(v.iter().cloned());
                DiffList(DiffRepr::Spill(w))
            }
        }
    }
}

impl Drop for DiffList {
    fn drop(&mut self) {
        if let DiffRepr::Spill(v) = &mut self.0 {
            crate::pool::put_diffs(std::mem::take(v));
        }
    }
}

impl std::ops::Deref for DiffList {
    type Target = [Arc<Diff>];
    fn deref(&self) -> &[Arc<Diff>] {
        match &self.0 {
            DiffRepr::Inline(d) => d.as_slice(),
            DiffRepr::Spill(v) => v,
        }
    }
}

impl std::ops::DerefMut for DiffList {
    fn deref_mut(&mut self) -> &mut [Arc<Diff>] {
        match &mut self.0 {
            DiffRepr::Inline(d) => d.as_mut_slice(),
            DiffRepr::Spill(v) => v,
        }
    }
}

impl PartialEq for DiffList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for DiffList {}

impl std::fmt::Debug for DiffList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DiffList").field(&&**self).finish()
    }
}

impl DiffList {
    /// An empty list (no buffer until it outgrows the inline form).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one diff.
    pub fn push(&mut self, diff: Arc<Diff>) {
        match &mut self.0 {
            DiffRepr::Inline(slot @ None) => *slot = Some(diff),
            DiffRepr::Inline(first) => {
                let mut v = crate::pool::take_diffs();
                v.extend(first.take());
                v.push(diff);
                self.0 = DiffRepr::Spill(v);
            }
            DiffRepr::Spill(v) => v.push(diff),
        }
    }

    /// Moves every diff of `other` to the end of this list. Into an empty
    /// list, `other` moves whole, buffer and all.
    pub fn append(&mut self, mut other: DiffList) {
        if self.is_empty() {
            std::mem::swap(self, &mut other);
        } else {
            for d in other.drain() {
                self.push(d);
            }
        }
    }

    /// Moves every diff out, leaving the list empty (a spilled list keeps
    /// its buffer).
    pub fn drain(&mut self) -> impl Iterator<Item = Arc<Diff>> + '_ {
        let (one, rest) = match &mut self.0 {
            DiffRepr::Inline(d) => (d.take(), None),
            DiffRepr::Spill(v) => (None, Some(v.drain(..))),
        };
        one.into_iter().chain(rest.into_iter().flatten())
    }

    /// Keeps only the diffs matching `keep`, preserving order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Arc<Diff>) -> bool) {
        match &mut self.0 {
            DiffRepr::Inline(d) => {
                if d.as_ref().is_some_and(|d| !keep(d)) {
                    *d = None;
                }
            }
            DiffRepr::Spill(v) => v.retain(keep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(words: &[(usize, u32)]) -> PageBuf {
        let mut p = PageBuf::new(4096);
        for &(i, v) in words {
            p.set_word(i, v);
        }
        p
    }

    #[test]
    fn twin_and_dirty_vec_diffs_agree() {
        let twin = PageBuf::new(4096);
        let cur = page_with(&[(1, 10), (100, 20), (1023, 30)]);
        let soft = Diff::from_twin(0, 0, 1, &cur, &twin);
        let mut dv = DirtyVec::new(1024);
        for i in [1, 100, 1023] {
            dv.set(i);
        }
        let hard = Diff::from_dirty_vec(0, 0, 1, &cur, &dv);
        assert_eq!(soft, hard);
    }

    #[test]
    fn dirty_vec_diff_captures_overwrites_to_same_value() {
        // A word written back to its original value is still "modified" per
        // the snooping hardware, even though a twin comparison misses it.
        let cur = PageBuf::new(4096);
        let mut dv = DirtyVec::new(1024);
        dv.set(5);
        let hard = Diff::from_dirty_vec(0, 0, 1, &cur, &dv);
        assert_eq!(hard.word_count(), 1);
        let twin = PageBuf::new(4096);
        let soft = Diff::from_twin(0, 0, 1, &cur, &twin);
        assert_eq!(soft.word_count(), 0);
    }

    #[test]
    fn apply_round_trip() {
        let twin = page_with(&[(7, 1)]);
        let cur = page_with(&[(7, 1), (8, 2), (9, 3)]);
        let d = Diff::from_twin(0, 0, 1, &cur, &twin);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn concurrent_disjoint_diffs_commute() {
        let base = PageBuf::new(4096);
        let a = {
            let cur = page_with(&[(0, 11)]);
            Diff::from_twin(0, 0, 1, &cur, &base)
        };
        let b = {
            let cur = page_with(&[(512, 22)]);
            Diff::from_twin(0, 1, 1, &cur, &base)
        };
        let mut t1 = base.clone();
        a.apply(&mut t1);
        b.apply(&mut t1);
        let mut t2 = base.clone();
        b.apply(&mut t2);
        a.apply(&mut t2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn encoded_size_formula() {
        let twin = PageBuf::new(4096);
        let cur = page_with(&[(0, 1), (1, 2)]);
        let d = Diff::from_twin(0, 0, 1, &cur, &twin);
        assert_eq!(d.encoded_bytes(), 16 + 128 + 8);
    }

    #[test]
    fn merge_overlays_later_words() {
        let base = PageBuf::new(4096);
        let mut d1 = Diff::from_twin(0, 2, 5, &page_with(&[(1, 10), (2, 20)]), &base);
        let d2 = Diff::from_twin(0, 2, 5, &page_with(&[(2, 99), (3, 30)]), &base);
        d1.merge(&d2);
        assert_eq!(d1.entries(), &[(1, 10), (2, 99), (3, 30)]);
    }

    #[test]
    #[should_panic(expected = "identity mismatch")]
    fn merge_rejects_foreign_diffs() {
        let base = PageBuf::new(4096);
        let mut d1 = Diff::from_twin(0, 0, 1, &base, &base);
        let d2 = Diff::from_twin(1, 0, 1, &base, &base);
        d1.merge(&d2);
    }

    #[test]
    fn list_equality_ignores_the_representation() {
        let p = PageBuf::new(4096);
        let (a, b) = (
            Arc::new(Diff::from_twin(0, 0, 1, &p, &p)),
            Arc::new(Diff::from_twin(0, 1, 1, &p, &p)),
        );
        let mut spilled = DiffList::new();
        spilled.push(Arc::clone(&a));
        spilled.push(Arc::clone(&b));
        spilled.retain(|d| d.owner == 0);
        let mut inline = DiffList::new();
        inline.push(a);
        assert_eq!(spilled, inline);
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
    }

    #[test]
    fn empty_diff_is_cheap() {
        let p = PageBuf::new(4096);
        let d = Diff::from_twin(0, 0, 1, &p, &p.clone());
        assert_eq!(d.word_count(), 0);
        let mut t = PageBuf::new(4096);
        d.apply(&mut t);
        assert_eq!(t, PageBuf::new(4096));
    }
}
