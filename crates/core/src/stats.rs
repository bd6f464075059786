//! Per-run statistics: breakdowns plus the auxiliary counters the paper
//! quotes in its prose (diff-operation time, useless prefetch rates, ...).

use ncp2_net::TrafficStats;
use ncp2_sim::{Breakdown, Cycles};

/// Counters accumulated by one node over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Execution-time breakdown of the computation processor.
    pub breakdown: Breakdown,
    /// Cycles spent twinning (processor or controller).
    pub twin_cycles: Cycles,
    /// Cycles spent creating diffs (processor, controller or DMA).
    pub diff_create_cycles: Cycles,
    /// Cycles spent applying diffs (processor, controller or DMA).
    pub diff_apply_cycles: Cycles,
    /// Subset of twin/diff cycles that ran on the **computation processor**
    /// (the paper's "% of execution time spent on diff-related operations").
    pub diff_proc_cycles: Cycles,
    /// Cycles the protocol controller's core/DMA engine was busy.
    pub controller_busy: Cycles,
    /// Read/write access faults taken.
    pub faults: u64,
    /// Write faults (twin creations) taken.
    pub write_faults: u64,
    /// Lock acquires completed.
    pub lock_acquires: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Pages invalidated by write notices.
    pub invalidations: u64,
    /// Diffs created on behalf of this node's writes.
    pub diffs_created: u64,
    /// Diffs applied to this node's pages.
    pub diffs_applied: u64,
    /// Bytes of diff data created on behalf of this node's writes.
    pub diff_bytes_created: u64,
    /// Bytes of diff data applied to this node's pages.
    pub diff_bytes_applied: u64,
    /// Whole-page fetches (TreadMarks overflow path or AURC).
    pub page_fetches: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Prefetched pages invalidated again before any use.
    pub useless_prefetches: u64,
    /// Faults that found a prefetch in flight and waited for it.
    pub prefetch_joins: u64,
    /// Faults avoided entirely because a prefetch had completed.
    pub prefetch_hits: u64,
    /// Prefetch replies that filled a page (completed prefetches).
    pub prefetch_fills: u64,
    /// AURC automatic-update messages emitted.
    pub au_updates: u64,
    /// AURC write-cache combining hits.
    pub au_combined: u64,
}

impl NodeStats {
    /// Fraction of this node's execution time spent in processor-side
    /// diff-related operations (twinning + diff creation/application) — the
    /// number printed on top of each bar in Figure 2.
    pub fn diff_pct(&self) -> f64 {
        let t = self.breakdown.total();
        if t == 0 {
            0.0
        } else {
            100.0 * self.diff_proc_cycles as f64 / t as f64
        }
    }
}

/// Number of retransmit-histogram buckets: bucket `i < RETX_BUCKETS - 1`
/// counts retransmissions at attempt `i + 1`; the last bucket collects the
/// tail.
pub const RETX_BUCKETS: usize = 8;

/// Run-global counters for the hardened transport and fault injection.
/// Always present on [`RunResult`] (so result encodings have one shape);
/// all-zero unless a fault plan was attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data-frame transmissions, including retransmissions.
    pub frames_sent: u64,
    /// Acknowledgement frames injected.
    pub acks_sent: u64,
    /// Retransmissions triggered by ack timeouts.
    pub retransmits: u64,
    /// Frames the fault plan dropped in flight.
    pub drops_injected: u64,
    /// Frames the fault plan corrupted (detected and discarded on receipt).
    pub corrupts_injected: u64,
    /// Extra frame copies the fault plan injected.
    pub dups_injected: u64,
    /// Frames discarded by receive-side duplicate suppression.
    pub dup_frames_dropped: u64,
    /// In-flight frames drained undelivered at end of run (their logical
    /// messages had already been delivered by an earlier attempt).
    pub frames_drained: u64,
    /// Prefetch commands shed by the degradation policy.
    pub prefetch_shed: u64,
    /// Histogram of retransmissions by attempt number (see [`RETX_BUCKETS`]).
    pub retx_by_attempt: [u64; RETX_BUCKETS],
}

impl FaultStats {
    /// Total injected faults of all kinds.
    pub fn injected(&self) -> u64 {
        self.drops_injected + self.corrupts_injected + self.dups_injected
    }
}

/// Run-global counters for the open-loop service workload (`ncp2-svc`),
/// accumulated by the back end from `ProcOp::Svc` lifecycle markers.
/// `None` on [`RunResult`] unless the workload issued at least one service
/// operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SvcStats {
    /// Get requests completed.
    pub gets: u64,
    /// Put requests completed.
    pub puts: u64,
    /// Session requests completed.
    pub sessions: u64,
    /// Requests dequeued for service.
    pub dequeues: u64,
    /// Peak instantaneous backlog observed at any node (arrived but not
    /// yet served, sampled at each dequeue).
    pub queue_peak: u64,
    /// Open-loop response times (completion − arrival, queueing included),
    /// in simulated cycles.
    pub response: crate::hist::LogHistogram,
}

impl SvcStats {
    /// Total requests completed across all classes.
    pub fn completed(&self) -> u64 {
        self.gets + self.puts + self.sessions
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol label ("Base", "I+D", "AURC", ...).
    pub protocol: String,
    /// Number of processors simulated.
    pub nprocs: usize,
    /// End-to-end running time (max over processors), cycles.
    pub total_cycles: Cycles,
    /// Per-node counters.
    pub nodes: Vec<NodeStats>,
    /// Network traffic counters.
    pub net: TrafficStats,
    /// Workload-defined checksum (compared against a sequential run).
    pub checksum: u64,
    /// Protocol event trace (empty unless `SysParams::trace` was set).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Invariant violations reported by an attached observer (always empty
    /// unless an observer was attached via `Simulation::attach_observer`).
    pub violations: Vec<crate::observe::Violation>,
    /// Span/flight/engine timeline (`None` unless recording was enabled via
    /// `Simulation::enable_obs`).
    pub obs: Option<crate::span::ObsLog>,
    /// Transport/fault-injection counters (all-zero unless a fault plan was
    /// attached).
    pub fault: FaultStats,
    /// Windowed time series (`None` unless recording was enabled via
    /// `Simulation::enable_timeseries`).
    pub ts: Option<crate::timeseries::TsLog>,
    /// Open-loop service counters and response-time histogram (`None`
    /// unless the workload issued `ProcOp::Svc` lifecycle markers).
    pub svc: Option<SvcStats>,
}

impl RunResult {
    /// Breakdown summed over all processors.
    pub fn aggregate(&self) -> Breakdown {
        self.nodes.iter().map(|n| n.breakdown).sum()
    }

    /// Mean over processors of the diff-operation percentage.
    pub fn diff_pct(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.nodes.iter().map(|n| n.diff_pct()).sum::<f64>() / self.nodes.len() as f64
        }
    }

    /// Total diff-related cycles regardless of which engine ran them
    /// (processor, controller core, or DMA).
    pub fn diff_total_cycles(&self) -> Cycles {
        self.nodes
            .iter()
            .map(|n| n.twin_cycles + n.diff_create_cycles + n.diff_apply_cycles)
            .sum()
    }

    /// Prefetches issued / useless across all nodes.
    pub fn prefetch_totals(&self) -> (u64, u64) {
        let issued = self.nodes.iter().map(|n| n.prefetches).sum();
        let useless = self.nodes.iter().map(|n| n.useless_prefetches).sum();
        (issued, useless)
    }

    /// Running time of `self` relative to `base` in percent (the paper's
    /// normalized bars: 100 = same, lower = faster). `None` when the
    /// baseline ran for zero cycles (degenerate config).
    pub fn normalized_to(&self, base: &RunResult) -> Option<f64> {
        (base.total_cycles > 0).then(|| 100.0 * self.total_cycles as f64 / base.total_cycles as f64)
    }

    /// Speedup of this run over a sequential run taking `seq_cycles`.
    /// `None` when this run took zero cycles (degenerate config).
    pub fn speedup_over(&self, seq_cycles: Cycles) -> Option<f64> {
        (self.total_cycles > 0).then(|| seq_cycles as f64 / self.total_cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_sim::Category;

    fn node(busy: u64, diff: u64) -> NodeStats {
        let mut n = NodeStats::default();
        n.breakdown.add(Category::Busy, busy);
        n.diff_proc_cycles = diff;
        n
    }

    fn run(total: u64, nodes: Vec<NodeStats>) -> RunResult {
        RunResult {
            protocol: "Base".into(),
            nprocs: nodes.len(),
            total_cycles: total,
            nodes,
            net: TrafficStats::default(),
            checksum: 0,
            trace: Vec::new(),
            violations: Vec::new(),
            obs: None,
            fault: FaultStats::default(),
            ts: None,
            svc: None,
        }
    }

    #[test]
    fn diff_pct_is_relative_to_node_time() {
        let n = node(200, 50);
        assert!((n.diff_pct() - 25.0).abs() < 1e-12);
        assert_eq!(NodeStats::default().diff_pct(), 0.0);
    }

    #[test]
    fn normalization_and_speedup() {
        let base = run(1000, vec![node(100, 0)]);
        let fast = run(600, vec![node(100, 0)]);
        assert!((fast.normalized_to(&base).unwrap() - 60.0).abs() < 1e-12);
        assert!((fast.speedup_over(6000).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_runs_yield_none_not_panic() {
        let zero = run(0, vec![node(0, 0)]);
        let ok = run(10, vec![node(10, 0)]);
        assert_eq!(ok.normalized_to(&zero), None);
        assert_eq!(zero.speedup_over(100), None);
        assert!(ok.normalized_to(&ok).is_some());
    }

    #[test]
    fn aggregation_sums_nodes() {
        let r = run(10, vec![node(5, 1), node(7, 2)]);
        assert_eq!(r.aggregate().busy, 12);
        assert!((r.diff_pct() - (20.0 + 2.0 / 7.0 * 100.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_totals_sum() {
        let a = NodeStats {
            prefetches: 10,
            useless_prefetches: 9,
            ..NodeStats::default()
        };
        let b = NodeStats {
            prefetches: 5,
            ..NodeStats::default()
        };
        let r = run(1, vec![a, b]);
        assert_eq!(r.prefetch_totals(), (15, 9));
    }

    #[test]
    fn svc_stats_sum_classes() {
        let mut s = SvcStats {
            gets: 10,
            puts: 3,
            sessions: 2,
            ..Default::default()
        };
        s.response.observe(100);
        assert_eq!(s.completed(), 15);
        assert_eq!(s.response.count(), 1);
    }
}
