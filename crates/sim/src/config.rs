//! System parameters — Table 1 of the paper: the values no experiment varies
//! as constants, and the knobs the §5.3 sweeps and the ablations turn as
//! [`SysParams`].
//!
//! All times are in 10-ns processor cycles. The protocol controller's RISC
//! core and DMA engine run at the computation-processor clock (paper §4.1).

use crate::hash::StableHasher;
use crate::time::{self, Cycles};

/// Which invalid pages an acquire-time prefetch targets. The paper's
/// heuristic prefetches every invalidated page that was ever cached and
/// referenced; its companion report (Bianchini, Pinto & Amorim, "Page Fault
/// Behavior and Prefetching in Software DSMs", 1996) explores less
/// aggressive strategies, reproduced here as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchStrategy {
    /// Every invalid page that was referenced at any point since it was
    /// first touched (the paper's sticky heuristic).
    AllReferenced,
    /// Only pages that were referenced during their most recent validity
    /// window — stale interest expires.
    RecentlyReferenced,
    /// The sticky heuristic capped at N pages per acquire (lowest page ids
    /// first, deterministic).
    Capped(usize),
}

/// Word size used for diff bit vectors and memory-transfer accounting (bytes).
pub const WORD_BYTES: u64 = 4;

// The Table 1 values that no experiment varies. The paper's §5.3 sweeps and
// this reproduction's ablations turn only the fields of [`SysParams`].

/// TLB entries per processor.
pub const TLB_ENTRIES: usize = 128;
/// TLB fill service time (cycles).
pub const TLB_FILL: Cycles = 100;
/// Cost of any interrupt delivered to the computation processor (cycles).
pub const INTERRUPT: Cycles = 400;
/// Page size in bytes.
pub const PAGE_BYTES: u64 = 4096;
/// Total first-level data cache per processor (bytes); direct mapped.
pub const CACHE_BYTES: u64 = 128 * 1024;
/// Write buffer entries.
pub const WRITE_BUFFER_ENTRIES: usize = 4;
/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 32;
/// PCI setup time (cycles).
pub const PCI_SETUP: Cycles = 10;
/// PCI burst access time after setup, cycles per word.
pub const PCI_CYCLES_PER_WORD: Cycles = 3;
/// Receive-side cost of transport acknowledgement processing (generating or
/// absorbing an ack / discarding a duplicate frame), cycles. Only charged
/// when a fault plan activates the hardened transport.
pub const ACK_OVERHEAD: Cycles = 100;
/// Base retransmission timeout for unacknowledged transport frames, cycles;
/// doubles per attempt up to the backoff cap.
pub const RETRANSMIT_TIMEOUT: Cycles = 20_000;
/// Mesh switch latency per hop (cycles).
pub const SWITCH_LATENCY: Cycles = 4;
/// Wire latency per hop (cycles).
pub const WIRE_LATENCY: Cycles = 2;
/// Protocol list processing (cycles per element).
pub const LIST_PROCESSING: Cycles = 6;
/// Software page twinning cost, cycles per word (plus memory accesses).
pub const TWIN_CYCLES_PER_WORD: Cycles = 5;
/// Software diff creation/application, cycles per word (plus memory).
pub const DIFF_CYCLES_PER_WORD: Cycles = 7;

/// Words per page.
pub const PAGE_WORDS: u64 = PAGE_BYTES / WORD_BYTES;
/// Words per cache line.
pub const LINE_WORDS: u64 = LINE_BYTES / WORD_BYTES;
/// Number of direct-mapped cache lines.
pub const CACHE_LINES: u64 = CACHE_BYTES / LINE_BYTES;
/// Per-hop head latency (switch + wire).
pub const HOP_LATENCY: Cycles = SWITCH_LATENCY + WIRE_LATENCY;

const _: () = {
    assert!(PAGE_BYTES.is_power_of_two(), "page size not a power of two");
    assert!(LINE_BYTES.is_power_of_two(), "line size not a power of two");
    assert!(LINE_WORDS >= 1, "a line must hold at least one word");
    assert!(
        PAGE_BYTES.is_multiple_of(LINE_BYTES),
        "page size must be a multiple of line size"
    );
    assert!(
        CACHE_BYTES.is_multiple_of(LINE_BYTES),
        "cache size must be a multiple of line size"
    );
    assert!(
        RETRANSMIT_TIMEOUT != 0,
        "retransmit timeout must be nonzero"
    );
};

/// PCI occupancy of a `words`-word burst.
pub const fn pci_access(words: u64) -> Cycles {
    PCI_SETUP + PCI_CYCLES_PER_WORD * words
}

/// The simulated system's knobs: every parameter that the §5.3 sweeps, the
/// ablation binaries or the CI gates set to more than one value. The rest of
/// Table 1 is the constants above ([`PAGE_BYTES`], [`INTERRUPT`], ...).
///
/// `SysParams::default()` together with those constants reproduces Table 1
/// exactly; the `with_*` builders implement the §5.3 sweeps.
///
/// ```
/// use ncp2_sim::config::PAGE_BYTES;
/// use ncp2_sim::SysParams;
/// let p = SysParams::default();
/// assert_eq!(p.nprocs, 16);
/// assert_eq!(p.messaging_overhead, 200);
/// assert_eq!(PAGE_BYTES, 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SysParams {
    /// Number of workstation nodes (computation processors).
    pub nprocs: usize,
    /// AURC network-interface write cache entries.
    pub write_cache_entries: usize,
    /// Memory setup time (cycles) before the first word of an access.
    pub mem_setup: Cycles,
    /// Memory access time after setup, cycles per 4-byte word (may be
    /// fractional when swept to a target bandwidth).
    pub mem_cycles_per_word: f64,
    /// Network serialization: cycles per byte on a link (8-bit path moving
    /// one flit per 2-cycle wire hop = 2.0 = 50 MB/s).
    pub net_cycles_per_byte: f64,
    /// Software messaging overhead per message (network-interface setup).
    pub messaging_overhead: Cycles,
    /// Per-update-message overhead for AURC automatic updates. The paper's
    /// default optimistically charges a single cycle; §5.3 shows AURC
    /// degrading when updates pay the full messaging overhead.
    pub au_messaging_overhead: Cycles,
    /// DMA bit-vector scan: cycles for an all-clean 4-KB page.
    pub dma_scan_base: Cycles,
    /// DMA bit-vector scan: cycles for an all-dirty 4-KB page.
    pub dma_scan_full: Cycles,
    /// Enable AURC's optimized pairwise sharing (ablation knob; the paper's
    /// AURC always has it on).
    pub aurc_pairwise: bool,
    /// TreadMarks faults with more pending write notices than this fetch the
    /// whole page instead of a diff chain (ablation knob).
    pub page_req_threshold: usize,
    /// Acquire-time prefetch target selection (P/I+P/I+P+D and AURC+P).
    pub prefetch_strategy: PrefetchStrategy,
    /// Record a protocol event trace on the run result (off by default —
    /// traces grow with every message).
    pub trace: bool,
    /// Time-series window width in cycles for the windowed sampler
    /// (`ncp2-core::timeseries`). `0` (the default) auto-picks: the recorder
    /// starts at a small base width and doubles it whenever the run outgrows
    /// the window cap, so every run lands in a bounded number of windows.
    /// Only read when time-series recording is enabled; never affects
    /// simulated timing.
    pub ts_window: Cycles,
}

impl Default for SysParams {
    fn default() -> Self {
        SysParams {
            nprocs: 16,
            write_cache_entries: 4,
            mem_setup: 10,
            mem_cycles_per_word: 3.0,
            net_cycles_per_byte: 2.0,
            messaging_overhead: 200,
            au_messaging_overhead: 1,
            dma_scan_base: 200,
            dma_scan_full: 2100,
            aurc_pairwise: true,
            page_req_threshold: 32,
            prefetch_strategy: PrefetchStrategy::AllReferenced,
            trace: false,
            ts_window: 0,
        }
    }
}

impl SysParams {
    /// Memory occupancy of a `words`-word access: setup plus per-word cycles.
    pub fn mem_access(&self, words: u64) -> Cycles {
        self.mem_setup + (self.mem_cycles_per_word * words as f64).round() as Cycles
    }

    /// Memory occupancy of `words` *scattered* words (diff scatter/gather):
    /// setup is paid once per cache-line-sized chunk instead of once per
    /// transfer, so scattered traffic is far more latency-sensitive than
    /// whole-page bursts — the §5.3 asymmetry between the diff-based
    /// TreadMarks and AURC's page copies.
    pub fn mem_scattered(&self, words: u64) -> Cycles {
        words.div_ceil(LINE_WORDS) * self.mem_access(LINE_WORDS)
    }

    /// DMA diff-engine bit-vector scan time for a page with `dirty_words`
    /// set bits: linear interpolation between the paper's endpoints
    /// (~200 cycles all-clean, ~2100 cycles all-dirty for a 4-KB page).
    pub fn dma_scan(&self, dirty_words: u64) -> Cycles {
        // overflow: a degenerate config may set full <= base; treat the
        // scan as flat instead of underflowing.
        let span = self.dma_scan_full.saturating_sub(self.dma_scan_base);
        self.dma_scan_base + span * dirty_words.min(PAGE_WORDS) / PAGE_WORDS
    }

    /// Network serialization time for a message body of `bytes`.
    pub fn net_serialize(&self, bytes: u64) -> Cycles {
        (self.net_cycles_per_byte * bytes as f64).ceil() as Cycles
    }

    /// Network link bandwidth implied by `net_cycles_per_byte`, in MB/s.
    pub fn net_bandwidth_mbps(&self) -> f64 {
        time::bandwidth_mbps(1, self.net_cycles_per_byte)
    }

    /// Raw memory bandwidth implied by `mem_cycles_per_word`, in MB/s.
    pub fn mem_bandwidth_mbps(&self) -> f64 {
        time::bandwidth_mbps(WORD_BYTES, self.mem_cycles_per_word)
    }

    /// Memory latency implied by `mem_setup`, in nanoseconds (paper Fig 15's
    /// x-axis: default 10 cycles = 100 ns).
    pub fn mem_latency_ns(&self) -> u64 {
        time::cycles_to_ns(self.mem_setup)
    }

    /// Sweep helper (Fig 13): sets the messaging overhead from a latency in
    /// microseconds (2 µs = the 200-cycle default).
    pub fn with_messaging_overhead_us(mut self, us: f64) -> Self {
        self.messaging_overhead = (us * 100.0).round() as Cycles;
        self
    }

    /// Sweep helper (Fig 13, second regime): make AURC automatic updates pay
    /// the full per-message overhead instead of the optimistic single cycle.
    pub fn with_expensive_updates(mut self) -> Self {
        self.au_messaging_overhead = self.messaging_overhead;
        self
    }

    /// Sweep helper (Fig 14): sets link serialization from MB/s.
    pub fn with_net_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.net_cycles_per_byte = time::cycles_per_unit_for_mbps(1, mbps);
        self
    }

    /// Sweep helper (Fig 15): sets memory setup time from nanoseconds.
    pub fn with_mem_latency_ns(mut self, ns: u64) -> Self {
        self.mem_setup = time::ns_to_cycles(ns);
        self
    }

    /// Sweep helper (Fig 16): sets memory per-word time from MB/s.
    pub fn with_mem_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.mem_cycles_per_word = time::cycles_per_unit_for_mbps(WORD_BYTES, mbps);
        self
    }

    /// Sweep helper: number of processors (Fig 1 uses 2..16).
    pub fn with_nprocs(mut self, nprocs: usize) -> Self {
        assert!(nprocs >= 1, "need at least one processor");
        self.nprocs = nprocs;
        self
    }

    /// Feeds every parameter into `h` in a fixed order, for content-hashed
    /// result caching (the experiment engine keys cached runs on this).
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// `SysParams` without deciding how it hashes is a compile error, so a
    /// new knob can never silently alias cache entries of runs that differ
    /// in it.
    pub fn stable_hash(&self, h: &mut StableHasher) {
        let SysParams {
            nprocs,
            write_cache_entries,
            mem_setup,
            mem_cycles_per_word,
            net_cycles_per_byte,
            messaging_overhead,
            au_messaging_overhead,
            dma_scan_base,
            dma_scan_full,
            aurc_pairwise,
            page_req_threshold,
            prefetch_strategy,
            trace,
            ts_window,
        } = self;
        h.write_str("SysParams");
        h.write_usize(*nprocs);
        h.write_usize(*write_cache_entries);
        h.write_u64(*mem_setup);
        h.write_f64(*mem_cycles_per_word);
        h.write_f64(*net_cycles_per_byte);
        h.write_u64(*messaging_overhead);
        h.write_u64(*au_messaging_overhead);
        h.write_u64(*dma_scan_base);
        h.write_u64(*dma_scan_full);
        h.write_bool(*aurc_pairwise);
        h.write_usize(*page_req_threshold);
        match prefetch_strategy {
            PrefetchStrategy::AllReferenced => h.write_u64(0),
            PrefetchStrategy::RecentlyReferenced => h.write_u64(1),
            PrefetchStrategy::Capped(n) => {
                h.write_u64(2);
                h.write_usize(*n);
            }
        }
        h.write_bool(*trace);
        h.write_u64(*ts_window);
    }

    /// Validates the knobs' internal consistency (the constants' checks run
    /// at compile time).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nprocs == 0 {
            return Err("nprocs must be at least 1".into());
        }
        if self.mem_cycles_per_word <= 0.0 || self.net_cycles_per_byte <= 0.0 {
            return Err("bandwidth parameters must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = SysParams::default();
        assert_eq!(p.nprocs, 16);
        assert_eq!(p.write_cache_entries, 4);
        assert_eq!(p.mem_setup, 10);
        assert_eq!(p.mem_cycles_per_word, 3.0);
        assert_eq!(p.messaging_overhead, 200);
        assert_eq!(
            (TLB_ENTRIES, TLB_FILL, INTERRUPT, PAGE_BYTES, CACHE_BYTES),
            (128, 100, 400, 4096, 128 * 1024)
        );
        assert_eq!((WRITE_BUFFER_ENTRIES, LINE_BYTES, PCI_SETUP), (4, 32, 10));
        assert_eq!((SWITCH_LATENCY, WIRE_LATENCY, LIST_PROCESSING), (4, 2, 6));
        assert_eq!((TWIN_CYCLES_PER_WORD, DIFF_CYCLES_PER_WORD), (5, 7));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn dma_scan_endpoints() {
        let p = SysParams::default();
        assert_eq!(p.dma_scan(0), 200);
        assert_eq!(p.dma_scan(1024), 2100);
        let mid = p.dma_scan(512);
        assert!(mid > 1000 && mid < 1300, "midpoint {mid} not near 1150");
    }

    #[test]
    fn sweep_helpers_round_trip() {
        let p = SysParams::default().with_net_bandwidth_mbps(200.0);
        assert!((p.net_bandwidth_mbps() - 200.0).abs() < 1e-9);
        let p = SysParams::default().with_mem_latency_ns(40);
        assert_eq!(p.mem_setup, 4);
        let p = SysParams::default().with_messaging_overhead_us(4.0);
        assert_eq!(p.messaging_overhead, 400);
        let p = SysParams::default().with_mem_bandwidth_mbps(60.0);
        assert!((p.mem_bandwidth_mbps() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let p = SysParams {
            mem_cycles_per_word: 0.0,
            ..SysParams::default()
        };
        assert!(p.validate().is_err());
        let p = SysParams {
            nprocs: 0,
            ..SysParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn stable_hash_sees_representative_fields() {
        let key = |p: &SysParams| {
            let mut h = StableHasher::new();
            p.stable_hash(&mut h);
            h.finish()
        };
        let base = key(&SysParams::default());
        assert_eq!(base, key(&SysParams::default().clone()), "hash is stable");
        for p in [
            SysParams::default().with_nprocs(8),
            SysParams::default().with_net_bandwidth_mbps(20.0),
            SysParams {
                prefetch_strategy: PrefetchStrategy::Capped(4),
                ..SysParams::default()
            },
            SysParams {
                aurc_pairwise: false,
                ..SysParams::default()
            },
            SysParams {
                ts_window: 4096,
                ..SysParams::default()
            },
        ] {
            assert_ne!(base, key(&p), "perturbation must change the key: {p:?}");
        }
        // Capped(0) and AllReferenced must not alias.
        let capped0 = SysParams {
            prefetch_strategy: PrefetchStrategy::Capped(0),
            ..SysParams::default()
        };
        assert_ne!(base, key(&capped0));
    }

    #[test]
    fn mem_access_cost() {
        let p = SysParams::default();
        // A 32-byte line: 10 + 8*3 = 34 cycles.
        assert_eq!(p.mem_access(8), 34);
        // A full page: 10 + 1024*3.
        assert_eq!(p.mem_access(1024), 10 + 3072);
    }
}
