//! Reporting for the NCP2 experiments.
//!
//! Renders the quantities the paper plots: normalized execution-time bars
//! with the busy/data/synch/ipc/others split (Figs 2, 5–12), speedup curves
//! (Fig 1) and parameter-sweep series (Figs 13–16), as plain-text tables
//! and ASCII plots plus CSV for external tooling.

pub mod plot;
pub mod table;

pub use plot::xy_plot;
pub use table::{breakdown_csv, breakdown_table, normalized_bars, speedup_table};
