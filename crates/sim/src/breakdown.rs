//! Execution-time breakdown accounting.
//!
//! The paper reports per-processor execution time split into **busy**, **data
//! fetch**, **synchronization**, **IPC** and **others** (TLB miss, write
//! buffer stalls, interrupts, cache miss latency). Every advance of a
//! simulated processor's clock is tagged with one of these categories so the
//! categories always sum to the processor's total time.

use crate::time::Cycles;

/// The five execution-time categories of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Useful computation (including 1-cycle cache-hit references).
    Busy,
    /// Waiting for pages/diffs as a result of access faults.
    Data,
    /// Lock/barrier waits, including interval and write-notice processing.
    Synch,
    /// Servicing requests from remote processors.
    Ipc,
    /// TLB misses, write-buffer stalls, cache-miss latency, interrupt entry.
    Other,
}

impl Category {
    /// All categories in the paper's plotting order (bottom to top).
    pub const ALL: [Category; 5] = [
        Category::Busy,
        Category::Data,
        Category::Synch,
        Category::Ipc,
        Category::Other,
    ];

    /// Short lowercase label used in tables ("busy", "data", ...).
    pub fn label(self) -> &'static str {
        match self {
            Category::Busy => "busy",
            Category::Data => "data",
            Category::Synch => "synch",
            Category::Ipc => "ipc",
            Category::Other => "others",
        }
    }
}

/// Per-category cycle counters for one processor (or aggregated).
///
/// ```
/// use ncp2_sim::{Breakdown, Category};
/// let mut b = Breakdown::default();
/// b.add(Category::Busy, 75);
/// b.add(Category::Data, 25);
/// assert_eq!(b.total(), 100);
/// assert!((b.fraction(Category::Busy) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Useful computation cycles.
    pub busy: Cycles,
    /// Data-fetch (fault service) wait cycles.
    pub data: Cycles,
    /// Synchronization wait cycles.
    pub synch: Cycles,
    /// Remote-request service cycles.
    pub ipc: Cycles,
    /// Everything else (TLB, write buffer, cache misses, interrupts).
    pub other: Cycles,
}

impl Breakdown {
    /// Adds `cycles` to one category.
    pub fn add(&mut self, cat: Category, cycles: Cycles) {
        *self.slot_mut(cat) += cycles;
    }

    /// Moves `cycles` from one category to another (used to reclassify wait
    /// time as IPC when a blocked processor services a remote request).
    /// Moves at most what the source category holds; returns the amount moved.
    pub fn reclassify(&mut self, from: Category, to: Category, cycles: Cycles) -> Cycles {
        let avail = self.get(from);
        let moved = cycles.min(avail);
        *self.slot_mut(from) -= moved;
        *self.slot_mut(to) += moved;
        moved
    }

    /// Cycle count of one category.
    pub fn get(&self, cat: Category) -> Cycles {
        match cat {
            Category::Busy => self.busy,
            Category::Data => self.data,
            Category::Synch => self.synch,
            Category::Ipc => self.ipc,
            Category::Other => self.other,
        }
    }

    fn slot_mut(&mut self, cat: Category) -> &mut Cycles {
        match cat {
            Category::Busy => &mut self.busy,
            Category::Data => &mut self.data,
            Category::Synch => &mut self.synch,
            Category::Ipc => &mut self.ipc,
            Category::Other => &mut self.other,
        }
    }

    /// Sum over all categories.
    pub fn total(&self) -> Cycles {
        self.busy + self.data + self.synch + self.ipc + self.other
    }

    /// Fraction of the total in one category (0 if the total is 0).
    pub fn fraction(&self, cat: Category) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(cat) as f64 / t as f64
        }
    }

    /// Element-wise sum, for aggregating processors.
    pub fn merged(&self, other: &Breakdown) -> Breakdown {
        Breakdown {
            busy: self.busy + other.busy,
            data: self.data + other.data,
            synch: self.synch + other.synch,
            ipc: self.ipc + other.ipc,
            other: self.other + other.other,
        }
    }
}

impl std::iter::Sum for Breakdown {
    fn sum<I: Iterator<Item = Breakdown>>(iter: I) -> Breakdown {
        iter.fold(Breakdown::default(), |a, b| a.merged(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let mut b = Breakdown::default();
        for (i, c) in Category::ALL.iter().enumerate() {
            b.add(*c, (i as u64 + 1) * 10);
        }
        assert_eq!(b.total(), 150);
        assert!((b.fraction(Category::Other) - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn reclassify_preserves_total() {
        let mut b = Breakdown {
            data: 100,
            ..Default::default()
        };
        let moved = b.reclassify(Category::Data, Category::Ipc, 30);
        assert_eq!(moved, 30);
        assert_eq!(b.data, 70);
        assert_eq!(b.ipc, 30);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn reclassify_clamps_to_available() {
        let mut b = Breakdown {
            synch: 10,
            ..Default::default()
        };
        let moved = b.reclassify(Category::Synch, Category::Ipc, 25);
        assert_eq!(moved, 10);
        assert_eq!(b.synch, 0);
        assert_eq!(b.ipc, 10);
    }

    #[test]
    fn merged_and_sum() {
        let a = Breakdown {
            busy: 1,
            data: 2,
            synch: 3,
            ipc: 4,
            other: 5,
        };
        let b = Breakdown {
            busy: 10,
            data: 20,
            synch: 30,
            ipc: 40,
            other: 50,
        };
        let m: Breakdown = [a, b].into_iter().sum();
        assert_eq!(m, a.merged(&b));
        assert_eq!(m.total(), 165);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(Breakdown::default().fraction(Category::Busy), 0.0);
    }
}
