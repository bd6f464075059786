//! The NCP2 protocol controller (§3.1).
//!
//! A PCI card with an integer RISC core (same clock as the computation
//! processor), 4 MB of DRAM holding the protocol software, a command queue,
//! snooping logic that maintains per-page dirty-word bit vectors, and a DMA
//! engine performing bit-vector-directed scatter/gather.
//!
//! Timing model: the controller serially executes commands from its queue,
//! so core and DMA engine are one [`FifoResource`]. Commands reach it over
//! the node's PCI bus; command *issue* by the computation processor costs a
//! single-word PCI write. Priorities (urgent vs. prefetch) are realized in
//! the system event queue, which orders same-time work by priority.

use ncp2_sim::config::{pci_access, DIFF_CYCLES_PER_WORD, PAGE_WORDS, TWIN_CYCLES_PER_WORD};
use ncp2_sim::{Cycles, FifoResource, SysParams};

/// One node's protocol controller (timing side).
///
/// Two servers model the command-priority mechanism of §3.1 ("requests may
/// be given high or low priority, so that we can prevent prefetches from
/// delaying requests for which a computation processor is stalled"): bulk
/// datapath work (twin copies, diff generation/application) occupies
/// [`Controller::core`], while message setup — always urgent — runs on the
/// I/O front end [`Controller::io`] and is never stuck behind a queued
/// prefetch diff.
#[derive(Debug, Clone, Default)]
pub struct Controller {
    /// Occupancy of the controller's core + DMA engine (bulk datapath).
    pub core: FifoResource,
    /// Occupancy of the message/IO front end.
    pub io: FifoResource,
}

impl Controller {
    /// Cost of the processor issuing one command to the controller: a
    /// single-word PCI write.
    pub const ISSUE_COST: Cycles = pci_access(1);

    /// Instruction cost of *software* diff creation or application over a
    /// whole page scan (≈7 K cycles for a 4-KB page — §3.1's "in a standard
    /// software DSM these operations take about 7K cycles just for
    /// processor instructions").
    pub const SW_DIFF_SCAN: Cycles = DIFF_CYCLES_PER_WORD * PAGE_WORDS;

    /// Instruction cost of twin creation (page copy).
    pub const TWIN_COST: Cycles = TWIN_CYCLES_PER_WORD * PAGE_WORDS;

    /// An idle controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the datapath for `dur` cycles starting no earlier than
    /// `now`; returns `(start, end)`.
    pub fn run(&mut self, now: Cycles, dur: Cycles) -> (Cycles, Cycles) {
        self.core.reserve(now, dur)
    }

    /// Reserves the message front end for `dur` cycles (network-interface
    /// setup on behalf of the node).
    pub fn run_io(&mut self, now: Cycles, dur: Cycles) -> (Cycles, Cycles) {
        self.io.reserve(now, dur)
    }

    /// Total busy cycles so far (both servers).
    pub fn busy(&self) -> Cycles {
        self.core.busy_cycles() + self.io.busy_cycles()
    }

    /// Instruction cost of *software* diff application of `words` modified
    /// words (no full-page scan needed: the diff lists its words).
    pub fn sw_diff_apply(words: u64) -> Cycles {
        DIFF_CYCLES_PER_WORD * words.max(1)
    }

    /// DMA engine cost to generate or apply a diff of `words` dirty words
    /// (bit-vector scan, §3.1: ~200 cycles clean, ~2100 full).
    pub fn dma_cost(params: &SysParams, words: u64) -> Cycles {
        params.dma_scan(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_scan_is_about_7k_cycles() {
        assert_eq!(Controller::SW_DIFF_SCAN, 7168);
        assert_eq!(Controller::TWIN_COST, 5120);
    }

    #[test]
    fn dma_is_much_cheaper_than_software() {
        let p = SysParams::default();
        for words in [0, 1, 128, 512, 1024] {
            assert!(Controller::dma_cost(&p, words) < Controller::SW_DIFF_SCAN);
        }
        assert_eq!(Controller::dma_cost(&p, 0), 200);
        assert_eq!(Controller::dma_cost(&p, 1024), 2100);
    }

    #[test]
    fn commands_serialize_on_the_core() {
        let mut c = Controller::new();
        let (_, e1) = c.run(0, 100);
        let (s2, _) = c.run(10, 50);
        assert_eq!(s2, e1);
        assert_eq!(c.busy(), 150);
    }

    #[test]
    fn issue_cost_is_one_pci_word() {
        assert_eq!(Controller::ISSUE_COST, 13);
    }
}
