//! # ncp2 — reproduction of *"Hiding Communication Latency and Coherence
//! Overhead in Software DSMs"* (Bianchini et al., ASPLOS 1996)
//!
//! Facade crate re-exporting the whole system:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, Table-1 parameters, coroutine front end |
//! | [`mem`] | TLB, direct-mapped cache, write buffer, DRAM, PCI bus |
//! | [`net`] | wormhole-routed mesh with per-link contention |
//! | [`core`] | TreadMarks (Base/I/I+D/P/I+P/I+P+D), the NCP2 protocol controller, AURC(+P) |
//! | [`apps`] | TSP, Water, Radix, Barnes, Ocean, Em3d |
//! | [`stats`] | breakdown tables, speedup curves, ASCII plots |
//!
//! ## Quickstart
//!
//! ```no_run
//! use ncp2::prelude::*;
//!
//! // Run Em3d under TreadMarks with hardware diffs on the 16-node default.
//! let result = run_app(
//!     SysParams::default(),
//!     Protocol::TreadMarks(OverlapMode::ID),
//!     Em3d::default(),
//! );
//! let row = ("I+D", result.total_cycles, result.aggregate(), result.diff_pct());
//! println!("{}", breakdown_table(&[row]));
//! ```

pub use ncp2_apps as apps;
pub use ncp2_core as core;
pub use ncp2_mem as mem;
pub use ncp2_net as net;
pub use ncp2_sim as sim;

pub mod stats;

/// Everything needed to run and report an experiment.
pub mod prelude {
    pub use crate::stats::{breakdown_table, normalized_bars, speedup_table, xy_plot};
    pub use ncp2_apps::{
        run_app, sequential_baseline, Barnes, Ctx, Em3d, Ocean, Radix, Svc, Tsp, Water, Workload,
    };
    pub use ncp2_core::{OverlapMode, Protocol, RunResult, Simulation};
    pub use ncp2_sim::{Breakdown, Category, Cycles, SysParams};
}
