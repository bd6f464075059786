//! # ncp2-mem — per-node memory hierarchy models
//!
//! Finite-size structures of one workstation node in the NCP2 study: the
//! 128-entry TLB, the 128-KB direct-mapped first-level data cache, the
//! 4-entry write buffer, the local DRAM and the PCI bus (both contended
//! single servers). Their sizes and the TLB and PCI timings are Table 1
//! constants (`ncp2_sim::config`); the memory timings come from
//! [`ncp2_sim::SysParams`], whose §5.3 sweeps vary them.
//!
//! These models are *timing* models: the DSM data plane (actual page
//! contents) lives in `ncp2-core`; this crate answers "how long does this
//! reference take and which stall category does it fall into".
//!
//! ```
//! use ncp2_sim::SysParams;
//! use ncp2_mem::NodeMemory;
//!
//! let p = SysParams::default();
//! let mut node = NodeMemory::new(&p);
//! // A cold read misses TLB and cache: fill + line fetch from local DRAM.
//! let r = node.read(0, 0x1000, &p);
//! assert!(!r.cache_hit && !r.tlb_hit);
//! assert!(r.done > 0);
//! ```

pub mod cache;
pub mod dram;
pub mod pci;
pub mod tlb;
pub mod write_buffer;

pub use cache::Cache;
pub use dram::Dram;
pub use pci::PciBus;
pub use tlb::Tlb;
pub use write_buffer::WriteBuffer;

use ncp2_sim::config::{CACHE_LINES, LINE_BYTES, LINE_WORDS, TLB_ENTRIES, TLB_FILL};
use ncp2_sim::config::{PAGE_BYTES, WRITE_BUFFER_ENTRIES};
use ncp2_sim::{Cycles, SysParams};

/// Outcome of one processor data reference through the node hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Simulated time at which the reference completes.
    pub done: Cycles,
    /// Cycles attributable to TLB fill.
    pub tlb_cycles: Cycles,
    /// Cycles attributable to cache-miss service / write-buffer stall.
    pub stall_cycles: Cycles,
    /// Whether the data cache hit.
    pub cache_hit: bool,
    /// Whether the TLB hit.
    pub tlb_hit: bool,
}

/// The complete per-node memory hierarchy (timing side).
#[derive(Debug, Clone)]
pub struct NodeMemory {
    /// Address-translation buffer.
    pub tlb: Tlb,
    /// First-level data cache.
    pub cache: Cache,
    /// Write buffer between processor and memory bus.
    pub wb: WriteBuffer,
    /// Local DRAM (contended).
    pub dram: Dram,
    /// PCI bus hosting the network interface and protocol controller.
    pub pci: PciBus,
}

impl NodeMemory {
    /// Builds a hierarchy of the Table 1 sizes. Every size is a constant,
    /// so `_params` is not read.
    pub fn new(_params: &SysParams) -> Self {
        NodeMemory {
            tlb: Tlb::new(TLB_ENTRIES),
            cache: Cache::new(CACHE_LINES, LINE_BYTES),
            wb: WriteBuffer::new(WRITE_BUFFER_ENTRIES),
            dram: Dram::new(),
            pci: PciBus::new(),
        }
    }

    /// Simulates a shared-data **read** issued at `now` against a locally
    /// valid page: TLB check, cache lookup, line fill from DRAM on miss.
    pub fn read(&mut self, now: Cycles, addr: u64, params: &SysParams) -> AccessOutcome {
        let mut t = now;
        let (tlb_hit, tlb_cycles) = self.translate(addr);
        t += tlb_cycles;
        let cache_hit = self.cache.read(addr);
        let mut stall = 0;
        if !cache_hit {
            // Fetch the whole line from local DRAM, paying contention.
            let (_, end) = self.dram.access(t, LINE_WORDS, params);
            stall = end - t;
            t = end;
        } else {
            t += 1; // cache-hit access cycle, charged as busy by the caller
        }
        AccessOutcome {
            done: t,
            tlb_cycles,
            stall_cycles: stall,
            cache_hit,
            tlb_hit,
        }
    }

    /// Simulates a shared-data **write** issued at `now`: TLB check, cache
    /// update (write-through, no-write-allocate), write-buffer entry which
    /// drains through DRAM. Returns the stall if the buffer is full.
    pub fn write(&mut self, now: Cycles, addr: u64, params: &SysParams) -> AccessOutcome {
        let mut t = now;
        let (tlb_hit, tlb_cycles) = self.translate(addr);
        t += tlb_cycles;
        let cache_hit = self.cache.write(addr);
        t += 1; // the store itself
                // Write-through: a one-word memory transaction via the write buffer.
        let drain = params.mem_access(1);
        let stall = self.wb.push(t, &mut self.dram.resource, drain);
        t += stall;
        AccessOutcome {
            done: t,
            tlb_cycles,
            stall_cycles: stall,
            cache_hit,
            tlb_hit,
        }
    }

    fn translate(&mut self, addr: u64) -> (bool, Cycles) {
        if self.tlb.access(addr / PAGE_BYTES) {
            (true, 0)
        } else {
            (false, TLB_FILL)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SysParams {
        SysParams::default()
    }

    #[test]
    fn second_read_hits_cache_and_tlb() {
        let p = params();
        let mut n = NodeMemory::new(&p);
        let first = n.read(0, 64, &p);
        assert!(!first.cache_hit && !first.tlb_hit);
        let second = n.read(first.done, 64, &p);
        assert!(second.cache_hit && second.tlb_hit);
        assert_eq!(second.done, first.done + 1);
        assert_eq!(second.stall_cycles, 0);
    }

    #[test]
    fn read_miss_costs_line_fill() {
        let p = params();
        let mut n = NodeMemory::new(&p);
        n.tlb.access(0); // pre-warm translation for page 0
        let r = n.read(1000, 0, &p);
        assert!(!r.cache_hit);
        // line fill = mem_access(8) = 34 cycles on an idle DRAM
        assert_eq!(r.done, 1000 + 34);
    }

    #[test]
    fn writes_stall_only_when_buffer_full() {
        let p = params();
        let mut n = NodeMemory::new(&p);
        n.tlb.access(0);
        let mut t = 0;
        let mut stalled = 0u64;
        for i in 0..8 {
            let w = n.write(t, i * 4, &p);
            stalled += w.stall_cycles;
            t = w.done;
        }
        // 4 entries absorb the first writes; later ones stall behind DRAM.
        assert!(stalled > 0, "expected eventual write-buffer stalls");
        let w = n.write(t + 10_000, 0, &p);
        assert_eq!(w.stall_cycles, 0, "drained buffer should not stall");
    }

    #[test]
    fn reads_contend_with_write_drain() {
        let p = params();
        let mut n = NodeMemory::new(&p);
        n.tlb.access(0);
        // Saturate DRAM with write drains.
        let mut t = 0;
        for i in 0..4 {
            t = n.write(t, i * 4, &p).done;
        }
        let r = n.read(t, 512, &p);
        // The line fill must queue behind pending drains.
        assert!(r.stall_cycles >= p.mem_access(LINE_WORDS) - p.mem_setup);
    }
}
