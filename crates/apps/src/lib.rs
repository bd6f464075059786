//! # ncp2-apps — the six application workloads of the NCP2 study
//!
//! From-scratch Rust implementations of the paper's application suite (§4.2)
//! running against the simulated DSM: **TSP** (branch-and-bound),
//! **Water** (n² molecular dynamics), **Radix** (integer sort),
//! **Barnes** (Barnes-Hut N-body), **Ocean** (grid solver) and **Em3d**
//! (electromagnetic wave propagation on a bipartite graph).
//!
//! Every workload:
//!
//! * issues *all* shared-memory traffic through the simulated machine
//!   ([`Ctx`]), so the sharing pattern — migratory locks, barrier
//!   producer/consumer, page-grain false sharing, boundary exchange — drives
//!   the protocols exactly as in the paper;
//! * is **deterministic**, including a final checksum that is independent of
//!   the processor count, so a 16-node DSM run can be validated bit-for-bit
//!   against a sequential run (shared-memory reductions use fixed-point
//!   integers or fixed reduction orders to keep floating point exact);
//! * has a scaled-down default problem size (simulation-friendly) and the
//!   paper's original size behind `paper()`-style constructors.
//!
//! ```no_run
//! use ncp2_apps::{run_app, Tsp};
//! use ncp2_core::{OverlapMode, Protocol};
//! use ncp2_sim::SysParams;
//!
//! let result = run_app(SysParams::default(), Protocol::TreadMarks(OverlapMode::ID), Tsp::default());
//! println!("TSP: {} cycles, checksum {:#x}", result.total_cycles, result.checksum);
//! ```

pub mod barnes;
pub mod em3d;
pub mod framework;
pub mod ocean;
pub mod radix;
pub mod rng;
pub mod svc;
pub mod tsp;
pub mod water;

pub use barnes::Barnes;
pub use em3d::Em3d;
pub use framework::{run_app, run_app_with, sequential_baseline, Alloc, Ctx, Program, Workload};
pub use ocean::Ocean;
pub use radix::Radix;
pub use svc::Svc;
pub use tsp::Tsp;
pub use water::Water;

/// All six workloads at default (scaled) sizes, in the paper's plotting
/// order, as boxed trait objects.
pub fn default_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Tsp::default()),
        Box::new(Water::default()),
        Box::new(Radix::default()),
        Box::new(Barnes::default()),
        Box::new(Em3d::default()),
        Box::new(Ocean::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_six_applications() {
        let names: Vec<&str> = default_suite().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["TSP", "Water", "Radix", "Barnes", "Em3d", "Ocean"]
        );
    }
}
