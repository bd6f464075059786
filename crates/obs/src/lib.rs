//! # ncp2-obs — observability over simulated time
//!
//! Consumes the span/flight/engine timeline recorded by `ncp2-core` (see
//! [`ncp2_core::span`]) and turns it into artifacts a human (or a CI gate)
//! can read:
//!
//! * [`LogHistogram`] — HDR-style log-bucketed latency histograms with
//!   deterministic quantiles (re-exported from [`ncp2_core::hist`]);
//! * [`report::MetricsReport`] — a per-run summary (breakdown categories,
//!   protocol counters, histogram percentiles, per-barrier-epoch timeline)
//!   with a byte-deterministic JSON encoding;
//! * [`perfetto::perfetto_json`] — a Chrome/Perfetto `trace_event` export
//!   with one track per processor, controller engine and network link,
//!   plus flow arrows over the dependency edges;
//! * [`graph::ExecGraph`] — the validated execution-dependency DAG (span
//!   chains + typed dependency edges) behind the critical-path analyzer;
//! * [`critpath`] — critical-path extraction (whose length provably equals
//!   the run's total cycles), per-span slack, and the causal what-if
//!   re-executor predicting ablation speedups;
//! * [`diff`] — bench files: write one report per run, and name the first
//!   run and line at which a fresh file departs from the golden
//!   `BENCH_tier1.json`;
//! * [`timeseries::TimelineReport`] — deterministic JSON/CSV serialization
//!   of the windowed time-series log ([`ncp2_core::TsLog`]);
//! * [`hotspot`] — ranked hot-page / hot-lock attribution tables and the
//!   top-K per-node table;
//! * [`assertions`] — the SLO-style window-assertion engine
//!   (`retransmits > 0 for 2`, `monotone queue_depth for 4`, ...) behind
//!   `timeline_report --check` and the chaos gate.
//!
//! Everything here is pure data transformation over **simulated cycles**:
//! no wall-clock sources, no host-dependent iteration orders, so repeated
//! runs of the same configuration produce byte-identical output.
//!
//! Recording stays off until
//! [`Simulation::enable_obs`](ncp2_core::Simulation::enable_obs) is called.

pub mod assertions;
pub mod critpath;
pub mod diff;
pub mod graph;
pub mod hotspot;
pub mod json;
pub mod perfetto;
pub mod report;
pub mod timeseries;

pub use assertions::{
    default_check_assertions, evaluate_all, Assertion, Firing, TIMELINE_CHECK_ASSERTION,
};
pub use critpath::{critical_path, slack, what_if, CritPath, CritSegment, Scenario, WhatIf};
pub use diff::{first_difference, write_bench};
pub use graph::ExecGraph;
pub use hotspot::{render_hotspots, render_node_table, top_locks, top_pages};
pub use ncp2_core::hist::LogHistogram;
pub use perfetto::perfetto_json;
pub use report::{HistSummary, HostPhase, MetricsReport};
pub use timeseries::TimelineReport;
