//! Shared pages: the DSM data plane and per-copy protection state.
//!
//! Unlike a pure timing model, this crate moves real bytes: every node has
//! its own copy of each page it touches, twins are real snapshots and diffs
//! are real word lists. An application run under the simulated DSM therefore
//! computes real results, which end-to-end tests compare against sequential
//! executions — validating the coherence protocol itself.

use ncp2_sim::{MemAccess, PrefetchStrategy, ProcReply};

/// Identifier of a 4-KB shared page (byte address / page size).
pub type PageId = u64;

/// Page id containing byte address `addr`.
pub fn page_of(addr: u64, page_bytes: u64) -> PageId {
    addr / page_bytes
}

/// Word index (4-byte granularity) of `addr` within its page.
pub fn word_index(addr: u64, page_bytes: u64) -> usize {
    ((addr % page_bytes) / 4) as usize
}

/// Virtual-memory protection state of one node's copy of a page, as driven
/// by the DSM (§2: "software DSMs use virtual memory protection bits to
/// enforce coherence at the page level").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageState {
    /// Out of date: any access faults and must collect diffs.
    Invalid,
    /// Clean: reads proceed; the first write faults (twin creation in the
    /// software protocols, dirty-vector tracking with hardware diffs).
    #[default]
    ReadOnly,
    /// Dirty in the current interval: reads and writes proceed.
    ReadWrite,
}

/// A node's reference history of its copy of a page: the input of the
/// prefetch heuristic (§3.2, reused by AURC+P) and the per-interval dirty
/// mark. TreadMarks and AURC keep it alike; only TreadMarks clears
/// `sticky` when diffs fill the copy.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PageRefs {
    /// Referenced since the copy was last (re)validated.
    pub referenced: bool,
    /// Referenced in some validity window so far: the paper's sticky
    /// heuristic, `PrefetchStrategy::AllReferenced`.
    pub sticky: bool,
    /// Referenced during the most recent validity window, the non-sticky
    /// variant used by `PrefetchStrategy::RecentlyReferenced`.
    pub recent: bool,
    /// A completed prefetch no access has used yet.
    pub prefetched_unused: bool,
    /// Dirtied in the open interval.
    pub dirty: bool,
}

impl PageRefs {
    /// An access to the copy. True when it is the first use of a completed
    /// prefetch.
    pub fn touch(&mut self) -> bool {
        self.referenced = true;
        std::mem::take(&mut self.prefetched_unused)
    }

    /// A write to the copy. True when it is the first in the open interval,
    /// so the page joins the interval's dirty list once.
    pub fn mark_dirty(&mut self) -> bool {
        !std::mem::replace(&mut self.dirty, true)
    }

    /// A write notice invalidated the copy: the reference bit rolls into
    /// the sticky and recent bits and clears. True when a completed
    /// prefetch is thrown away unused.
    pub fn invalidate(&mut self) -> bool {
        self.sticky |= self.referenced;
        self.recent = std::mem::take(&mut self.referenced);
        std::mem::take(&mut self.prefetched_unused)
    }

    /// Whether an invalid copy with this history is worth prefetching.
    pub fn wanted(self, strategy: PrefetchStrategy) -> bool {
        match strategy {
            PrefetchStrategy::RecentlyReferenced => self.recent,
            _ => self.sticky,
        }
    }
}

/// One page's worth of actual data.
///
/// Backed by a pooled buffer (see [`crate::pool`]): pages, twins and
/// whole-page reply payloads are created and dropped constantly on the hot
/// path, so the backing storage is recycled per thread.
///
/// ```
/// use ncp2_core::page::PageBuf;
/// let mut p = PageBuf::new(4096);
/// p.write(8, 4, 0xDEAD_BEEF);
/// assert_eq!(p.read(8, 4), 0xDEAD_BEEF);
/// assert_eq!(p.read(12, 4), 0);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct PageBuf {
    data: Vec<u8>,
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        let mut data = crate::pool::take_bytes();
        data.extend_from_slice(&self.data);
        PageBuf { data }
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        crate::pool::put_bytes(std::mem::take(&mut self.data));
    }
}

impl PageBuf {
    /// A zero-filled page of `bytes` bytes.
    pub fn new(bytes: u64) -> Self {
        let mut data = crate::pool::take_bytes();
        data.resize(bytes as usize, 0);
        PageBuf { data }
    }

    /// Page size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the page has zero size (never in practice).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads `size` bytes (1, 2, 4 or 8) at `offset`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned, oversized or crosses the page end.
    pub fn read(&self, offset: usize, size: u8) -> u64 {
        self.check(offset, size);
        let mut v = 0u64;
        for i in (0..size as usize).rev() {
            // invariant: check() verified offset + size <= len
            v = (v << 8) | self.data[offset + i] as u64;
        }
        v
    }

    /// Writes `size` bytes of `value` at `offset`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned, oversized or crosses the page end.
    pub fn write(&mut self, offset: usize, size: u8, value: u64) {
        self.check(offset, size);
        for i in 0..size as usize {
            // invariant: check() verified offset + size <= len
            self.data[offset + i] = (value >> (8 * i)) as u8;
        }
    }

    /// Performs `a` on this page, at `a.addr`'s offset within it: a read
    /// returns the value, a write stores its bits and acknowledges.
    pub fn perform(&mut self, a: MemAccess) -> ProcReply {
        let off = (a.addr % self.data.len() as u64) as usize;
        match a.store {
            None => ProcReply::Value(self.read(off, a.bytes)),
            Some(value) => {
                self.write(off, a.bytes, value);
                ProcReply::Ack
            }
        }
    }

    /// Raw word (4-byte) view, used by diff creation and application.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the page. Word indices always come from a
    /// same-sized copy of the page (twin comparison or a dirty vector), so
    /// an out-of-range index is a protocol bug, never a recoverable state.
    pub fn word(&self, idx: usize) -> u32 {
        match self.data.get(idx * 4..idx * 4 + 4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => panic!("word {idx} outside {}-word page", self.words()), // invariant: word indices come from a same-sized page copy (see doc)
        }
    }

    /// Stores a raw word.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the page (see [`PageBuf::word`]).
    pub fn set_word(&mut self, idx: usize, value: u32) {
        let words = self.words();
        match self.data.get_mut(idx * 4..idx * 4 + 4) {
            Some(b) => b.copy_from_slice(&value.to_le_bytes()),
            None => panic!("word {idx} outside {words}-word page"), // invariant: word indices come from a same-sized page copy (see doc)
        }
    }

    /// The page's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of 4-byte words in the page.
    pub fn words(&self) -> usize {
        self.data.len() / 4
    }

    /// Word indices where `self` and `twin` differ (diff creation).
    pub fn words_differing<'a>(&'a self, twin: &'a PageBuf) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len(), twin.len(), "twin size mismatch");
        (0..self.words()).filter(move |&i| self.word(i) != twin.word(i))
    }

    /// Copies the full contents of `src` over this page (whole-page fetch).
    pub fn copy_from(&mut self, src: &PageBuf) {
        assert_eq!(self.len(), src.len(), "page size mismatch");
        self.data.copy_from_slice(&src.data);
    }

    fn check(&self, offset: usize, size: u8) {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "access size {size} unsupported"
        );
        assert!(
            offset.is_multiple_of(size as usize),
            "misaligned access at offset {offset}"
        );
        assert!(
            offset + size as usize <= self.data.len(),
            "access crosses page end"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_helpers() {
        assert_eq!(page_of(0, 4096), 0);
        assert_eq!(page_of(4095, 4096), 0);
        assert_eq!(page_of(4096, 4096), 1);
        assert_eq!(word_index(4, 4096), 1);
        assert_eq!(word_index(4096 + 8, 4096), 2);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut p = PageBuf::new(64);
        p.write(0, 8, 0x0102_0304_0506_0708);
        assert_eq!(p.read(0, 8), 0x0102_0304_0506_0708);
        assert_eq!(p.read(0, 4), 0x0506_0708);
        assert_eq!(p.read(4, 4), 0x0102_0304);
        assert_eq!(p.read(0, 1), 0x08);
    }

    #[test]
    fn word_view_matches_byte_view() {
        let mut p = PageBuf::new(32);
        p.write(8, 4, 0xAABB_CCDD);
        assert_eq!(p.word(2), 0xAABB_CCDD);
        p.set_word(3, 7);
        assert_eq!(p.read(12, 4), 7);
    }

    #[test]
    fn perform_reads_and_writes_at_the_in_page_offset() {
        let mut p = PageBuf::new(64);
        let write = MemAccess {
            addr: 128 + 8,
            bytes: 4,
            store: Some(0xFEED),
        };
        assert_eq!(p.perform(write), ProcReply::Ack);
        assert_eq!(p.read(8, 4), 0xFEED);
        let read = MemAccess {
            store: None,
            ..write
        };
        assert_eq!(p.perform(read), ProcReply::Value(0xFEED));
    }

    #[test]
    fn reference_bits_roll_at_invalidation() {
        let (all, recent) = (
            PrefetchStrategy::AllReferenced,
            PrefetchStrategy::RecentlyReferenced,
        );
        let mut r = PageRefs::default();
        assert!(!r.touch(), "no prefetch to use");
        assert!(r.referenced);
        assert!(!r.invalidate());
        assert!(!r.referenced);
        assert!(r.wanted(all) && r.wanted(recent));
        // A window without references keeps only the sticky bit.
        assert!(!r.invalidate());
        assert!(r.wanted(all) && !r.wanted(recent));
        // A completed prefetch is used once, or wasted at invalidation.
        r.prefetched_unused = true;
        assert!(r.touch());
        assert!(!r.touch());
        r.prefetched_unused = true;
        assert!(r.invalidate());
        // The dirty mark is set once per interval.
        assert!(r.mark_dirty());
        assert!(!r.mark_dirty());
    }

    #[test]
    fn diffing_finds_changed_words() {
        let twin = PageBuf::new(64);
        let mut cur = PageBuf::new(64);
        cur.set_word(3, 9);
        cur.set_word(15, 1);
        let changed: Vec<usize> = cur.words_differing(&twin).collect();
        assert_eq!(changed, vec![3, 15]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_word_read_panics() {
        PageBuf::new(16).word(4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_word_write_panics() {
        PageBuf::new(16).set_word(4, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_access_panics() {
        PageBuf::new(16).read(2, 4);
    }

    #[test]
    #[should_panic(expected = "crosses page end")]
    fn overflow_access_panics() {
        PageBuf::new(16).read(16, 4);
    }
}
