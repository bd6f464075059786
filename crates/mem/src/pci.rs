//! PCI bus: the path between main memory, the protocol controller and the
//! network interface (Fig 3 of the paper).

use ncp2_sim::config::pci_access;
use ncp2_sim::{Cycles, FifoResource};

/// The node's PCI bus, a contended single server with setup + burst timing.
///
/// Every inter-node transfer crosses the PCI bus twice (source and
/// destination nodes), and controller/NI accesses to main memory cross it
/// once, so a saturated PCI bus throttles both the DSM protocol and AURC's
/// automatic updates.
///
/// ```
/// use ncp2_mem::PciBus;
/// let mut bus = PciBus::new();
/// let (start, end) = bus.burst(100, 8);
/// assert_eq!((start, end), (100, 134));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PciBus {
    /// Underlying FIFO reservation state.
    pub resource: FifoResource,
}

impl PciBus {
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a `words`-word burst starting no earlier than `now`;
    /// returns the granted `(start, end)` slot.
    pub fn burst(&mut self, now: Cycles, words: u64) -> (Cycles, Cycles) {
        self.resource.reserve(now, pci_access(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_serialize() {
        let mut bus = PciBus::new();
        let (_, e1) = bus.burst(0, 1024);
        let (s2, _) = bus.burst(5, 8);
        assert_eq!(s2, e1);
        assert!(bus.resource.busy_cycles() > 0);
    }
}
