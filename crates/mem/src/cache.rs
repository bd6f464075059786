//! Direct-mapped first-level data cache (timing side).
//!
//! 128 KB total, 32-byte lines by default. Shared pages are kept
//! **write-through** (§3.1: "forcing the cache to write shared data through
//! to the bus") so the protocol controller can snoop stores and maintain
//! per-page dirty-word bit vectors; writes are no-write-allocate.
//!
//! The tag array is allocated lazily, `CHUNK` = 128 sets at a time, on the
//! first read miss that fills a set of the chunk. A node of a large
//! cluster touches few sets (Em3d at 256 nodes fills two of each node's
//! 32 chunks on average), so building every tag up front cost 64 KiB per
//! node — 16 MiB of memory and set-up writes at 256 nodes — for nothing.
//! An absent chunk holds no line: a write or line invalidation that lands
//! there is a miss or a no-op, and a page invalidation skips it without
//! scanning.

/// Sets per lazily allocated tag chunk: one 4 KiB page of 32-byte lines
/// at the Table 1 defaults, so a page-aligned page fills one chunk and
/// invalidating it visits one chunk.
const CHUNK: usize = 128;

/// One chunk of tags: the line number cached in each of its sets, `None`
/// when the set is empty. Whole line numbers, so any address is a tag.
type Chunk = [Option<u64>; CHUNK];

/// Direct-mapped cache tag array, allocated a chunk of 128 sets at a time.
///
/// ```
/// use ncp2_mem::Cache;
/// let mut c = Cache::new(4096, 32);
/// assert!(!c.read(0x40));      // cold miss fills the line
/// assert!(c.read(0x44));       // same 32-byte line
/// assert!(!c.read(0x40 + 4096 * 32)); // conflicting tag evicts it
/// assert!(!c.read(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Chunk `c` holds sets `c * CHUNK ..`; `None` until a read fills one
    /// of them. The last chunk may extend past `sets`; those tags stay
    /// empty.
    chunks: Vec<Option<Box<Chunk>>>,
    sets: u64,
    line_bytes: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache with `lines` direct-mapped entries of `line_bytes`.
    /// Only the chunk index is allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or `line_bytes` is not a power of two.
    pub fn new(lines: u64, line_bytes: u64) -> Self {
        assert!(lines > 0, "cache needs at least one line");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            chunks: vec![None; lines.div_ceil(CHUNK as u64) as usize],
            sets: lines,
            line_bytes,
            hits: 0,
            misses: 0,
        }
    }

    /// `(chunk, offset within it, line)` of the set `addr` maps to.
    fn slot(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr / self.line_bytes;
        let set = (line % self.sets) as usize;
        (set / CHUNK, set % CHUNK, line)
    }

    /// Read lookup; fills the line on a miss. Returns whether it hit.
    pub fn read(&mut self, addr: u64) -> bool {
        let (c, off, line) = self.slot(addr);
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new([None; CHUNK]));
        if chunk[off] == Some(line) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            chunk[off] = Some(line);
            false
        }
    }

    /// Write lookup; write-through, **no** allocate on miss. Returns whether
    /// it hit (and updated) a resident line.
    pub fn write(&mut self, addr: u64) -> bool {
        let (c, off, line) = self.slot(addr);
        let hit = self.chunks[c]
            .as_ref()
            .is_some_and(|chunk| chunk[off] == Some(line));
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Invalidates every resident line of the page starting at `page_base`
    /// (used when the protocol controller or network interface writes data
    /// directly to local memory — the processor snoop of §3.1).
    pub fn invalidate_page(&mut self, page_base: u64, page_bytes: u64) {
        let mut line = page_base / self.line_bytes;
        let end = line + page_bytes / self.line_bytes;
        while line < end {
            // The run of consecutive lines that map into this set's chunk.
            let set = line % self.sets;
            let off = set as usize % CHUNK;
            let run = (CHUNK as u64 - off as u64)
                .min(self.sets - set)
                .min(end - line);
            if let Some(chunk) = &mut self.chunks[set as usize / CHUNK] {
                for (tag, l) in chunk[off..off + run as usize].iter_mut().zip(line..) {
                    if *tag == Some(l) {
                        *tag = None;
                    }
                }
            }
            line += run;
        }
    }

    /// Invalidates the single line containing `addr` if resident.
    pub fn invalidate_line(&mut self, addr: u64) {
        let (c, off, line) = self.slot(addr);
        if let Some(chunk) = &mut self.chunks[c] {
            if chunk[off] == Some(line) {
                chunk[off] = None;
            }
        }
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat direct-mapped cache that allocates every tag up front: the
    /// reference model the chunked [`Cache`] must match step for step.
    struct FlatCache {
        tags: Vec<Option<u64>>,
        line_bytes: u64,
        hits: u64,
        misses: u64,
    }

    impl FlatCache {
        fn new(lines: u64, line_bytes: u64) -> Self {
            FlatCache {
                tags: vec![None; lines as usize],
                line_bytes,
                hits: 0,
                misses: 0,
            }
        }

        fn slot(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.line_bytes;
            ((line % self.tags.len() as u64) as usize, line)
        }

        fn read(&mut self, addr: u64) -> bool {
            let (idx, tag) = self.slot(addr);
            if self.tags[idx] == Some(tag) {
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                self.tags[idx] = Some(tag);
                false
            }
        }

        fn write(&mut self, addr: u64) -> bool {
            let (idx, tag) = self.slot(addr);
            if self.tags[idx] == Some(tag) {
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn invalidate_page(&mut self, page_base: u64, page_bytes: u64) {
            let first_line = page_base / self.line_bytes;
            let lines_per_page = page_bytes / self.line_bytes;
            for line in first_line..first_line + lines_per_page {
                let idx = (line % self.tags.len() as u64) as usize;
                if self.tags[idx] == Some(line) {
                    self.tags[idx] = None;
                }
            }
        }

        fn invalidate_line(&mut self, addr: u64) {
            let (idx, tag) = self.slot(addr);
            if self.tags[idx] == Some(tag) {
                self.tags[idx] = None;
            }
        }
    }

    fn allocated_chunks(c: &Cache) -> usize {
        c.chunks.iter().filter(|chunk| chunk.is_some()).count()
    }

    /// Region bases the random addresses are offset from: the origin, one
    /// cache size of 32-byte lines away (conflicts), a base that is not
    /// aligned to a chunk or a line, and addresses far beyond the cache.
    const BASES: [u64; 5] = [0, 4096 * 32, 4096 * 5 + 1000 + 3, 1 << 32, (1 << 40) + 77];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Same random `read`/`write`/`invalidate_line`/`invalidate_page`
        /// sequence on both caches: every hit/miss and the counters agree.
        #[test]
        fn chunked_tags_match_flat_reference(
            shape in (0usize..3, 0usize..3),
            ops in prop::collection::vec(
                (0u8..4, 0usize..BASES.len(), 0u64..1024, 0usize..4),
                0..400
            )
        ) {
            let lines = [1, 100, 4096][shape.0];
            let line_bytes = [4, 32, 64][shape.1];
            let mut cache = Cache::new(lines, line_bytes);
            let mut flat = FlatCache::new(lines, line_bytes);
            for &(kind, base, off, page) in &ops {
                let addr = BASES[base] + off;
                match kind {
                    0 => prop_assert_eq!(cache.read(addr), flat.read(addr), "read {:#x}", addr),
                    1 => prop_assert_eq!(cache.write(addr), flat.write(addr), "write {:#x}", addr),
                    2 => {
                        cache.invalidate_line(addr);
                        flat.invalidate_line(addr);
                    }
                    _ => {
                        // `addr` is an arbitrary page base: unaligned to a
                        // chunk, a page or even a line.
                        let page_bytes = [line_bytes, 1024, 4096, 8192][page];
                        cache.invalidate_page(addr, page_bytes);
                        flat.invalidate_page(addr, page_bytes);
                    }
                }
                prop_assert_eq!(cache.stats(), (flat.hits, flat.misses));
            }
        }
    }

    #[test]
    fn tags_are_allocated_at_first_fill() {
        let mut c = Cache::new(4096, 32);
        assert_eq!(c.chunks.len(), 4096 / CHUNK);
        assert_eq!(allocated_chunks(&c), 0, "new allocates only the index");

        // Misses that do not fill leave every chunk absent.
        assert!(!c.write(0));
        c.invalidate_line(0);
        c.invalidate_page(0, 4096);
        assert_eq!(allocated_chunks(&c), 0);

        // A page-aligned 4 KiB page fills exactly one chunk.
        for addr in (8192..12_288).step_by(32) {
            assert!(!c.read(addr));
        }
        assert_eq!(allocated_chunks(&c), 1);
        c.invalidate_page(8192, 4096);
        assert!(!c.read(8192), "page invalidation emptied the chunk's lines");
        assert_eq!(allocated_chunks(&c), 1);
    }

    #[test]
    fn partial_last_chunk_wraps_at_the_set_count() {
        // 100 sets: one chunk whose tail past set 99 is never used.
        let mut c = Cache::new(100, 32);
        assert_eq!(c.chunks.len(), 1);
        assert!(!c.read(99 * 32));
        assert!(!c.read(100 * 32), "line 100 maps to set 0");
        assert!(c.read(99 * 32));
        assert!(!c.read(0), "set 0 holds line 100");
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = Cache::new(64, 32);
        assert!(!c.read(100));
        for off in 96..128 {
            assert!(c.read(off), "address {off} shares the line");
        }
        assert!(!c.read(128));
    }

    #[test]
    fn write_does_not_allocate() {
        let mut c = Cache::new(64, 32);
        assert!(!c.write(0));
        assert!(!c.read(0), "write miss must not have filled the line");
        assert!(c.write(0), "read fill makes later writes hit");
    }

    #[test]
    fn conflict_misses() {
        let mut c = Cache::new(8, 32);
        let stride = 8 * 32;
        assert!(!c.read(0));
        assert!(!c.read(stride)); // maps to the same set, evicts
        assert!(!c.read(0));
    }

    #[test]
    fn page_invalidation_clears_resident_lines() {
        let mut c = Cache::new(4096, 32);
        for addr in (4096..8192).step_by(32) {
            c.read(addr);
        }
        c.invalidate_page(4096, 4096);
        assert!(!c.read(4096));
        assert!(!c.read(8160));
    }

    #[test]
    fn line_invalidation_is_precise() {
        let mut c = Cache::new(4096, 32);
        c.read(0);
        c.read(32);
        c.invalidate_line(0);
        assert!(!c.read(0));
        assert!(c.read(32));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Cache::new(16, 32);
        c.read(0);
        c.read(0);
        c.write(0);
        assert_eq!(c.stats(), (2, 1));
    }
}
