//! Local DRAM: a contended single server with setup + per-word timing.

use ncp2_sim::{Cycles, FifoResource, SysParams};

/// The node's local memory.
///
/// Shared by the processor (line fills, write-buffer drains), the protocol
/// controller (diff reads/writes, page stores) and the network interface;
/// all of them serialize on [`Dram::resource`].
///
/// ```
/// use ncp2_sim::SysParams;
/// use ncp2_mem::Dram;
/// let p = SysParams::default();
/// let mut d = Dram::new();
/// let (start, end) = d.access(0, 8, &p); // one 32-byte line
/// assert_eq!((start, end), (0, 34));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dram {
    /// Underlying FIFO reservation state.
    pub resource: FifoResource,
}

impl Dram {
    /// Creates an idle memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a `words`-word access starting no earlier than `now`;
    /// returns the granted `(start, end)` slot.
    pub fn access(&mut self, now: Cycles, words: u64, params: &SysParams) -> (Cycles, Cycles) {
        self.resource.reserve(now, params.mem_access(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_sim::config::PAGE_WORDS;

    #[test]
    fn serializes_concurrent_accesses() {
        let p = SysParams::default();
        let mut d = Dram::new();
        let (_, e1) = d.access(0, 8, &p);
        let (s2, _) = d.access(0, 8, &p);
        assert_eq!(s2, e1);
    }

    #[test]
    fn page_transfer_cost() {
        let p = SysParams::default();
        let mut d = Dram::new();
        let (s, e) = d.access(0, PAGE_WORDS, &p);
        assert_eq!(e - s, 10 + 3 * 1024);
    }
}
