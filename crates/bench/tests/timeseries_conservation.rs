//! Conservation laws for the windowed time-series recorder: every counter's
//! per-window deltas must sum to the run's final aggregate statistic, for
//! every tier-1 application under every protocol mode — and the sums must be
//! invariant under the window width (the recorder only re-buckets charges,
//! it never creates or loses any).
//!
//! The match over [`TsCounter`] is exhaustive on purpose: adding a counter
//! variant without declaring which aggregate it conserves against is a
//! compile error here.
//!
//! Every job also records the protocol trace, and the counters whose fact
//! has a trace row must agree with it too: the row count (or the summed
//! `words` argument) equals both the counter total and the aggregate.

use ncp2::core::{RunResult, TraceKind, TsCounter, TsGauge, TS_MAX_WINDOWS};
use ncp2::sim::SysParams;
use ncp2_bench::engine::{tier1_grid, Engine, Grid, Job, RunRecord, WorkloadSpec};
use ncp2_bench::harness::{protocol_from_label, ALL_MODE_LABELS};
use ncp2_fault::{FaultPlan, Window};

/// The aggregate statistic each windowed counter conserves against.
fn aggregate_of(c: TsCounter, r: &RunResult) -> u64 {
    let nodes = |f: &dyn Fn(&ncp2::core::NodeStats) -> u64| -> u64 { r.nodes.iter().map(f).sum() };
    match c {
        TsCounter::PageFetches => nodes(&|n| n.page_fetches),
        TsCounter::DiffsCreated => nodes(&|n| n.diffs_created),
        TsCounter::DiffsApplied => nodes(&|n| n.diffs_applied),
        TsCounter::DiffBytesCreated => nodes(&|n| n.diff_bytes_created),
        TsCounter::DiffBytesApplied => nodes(&|n| n.diff_bytes_applied),
        TsCounter::Invalidations => nodes(&|n| n.invalidations),
        TsCounter::LockAcquires => nodes(&|n| n.lock_acquires),
        TsCounter::Barriers => nodes(&|n| n.barriers),
        TsCounter::PrefetchIssued => nodes(&|n| n.prefetches),
        TsCounter::PrefetchFills => nodes(&|n| n.prefetch_fills),
        TsCounter::PrefetchShed => r.fault.prefetch_shed,
        TsCounter::Retransmits => r.fault.retransmits,
        TsCounter::FramesSent => r.fault.frames_sent,
        TsCounter::Messages => r.net.messages,
        TsCounter::MessageBytes => r.net.bytes,
    }
}

/// Number of trace rows `pick` selects, and the sum of the values it
/// returns for them.
fn trace_rows(r: &RunResult, pick: impl Fn(&TraceKind) -> Option<u64>) -> (u64, u64) {
    r.trace
        .iter()
        .filter_map(|e| pick(&e.kind))
        .fold((0, 0), |(n, sum), v| (n + 1, sum + v))
}

/// Asserts that the trace, the windowed counter and the aggregate report
/// the same total for every counter whose fact has a trace row.
fn assert_trace_agrees(rec: &RunRecord) {
    let r = &rec.result;
    let label = &r.protocol;
    assert!(!r.trace.is_empty(), "{label}: trace jobs carry a trace");
    let ts = r.ts.as_ref().expect("time-series jobs carry a log");
    let (created, created_words) = trace_rows(r, |k| match k {
        TraceKind::DiffCreated { words, .. } => Some(*words),
        _ => None,
    });
    let (apply_rows, applied_words) = trace_rows(r, |k| match k {
        TraceKind::DiffApplied { words, .. } => Some(*words),
        _ => None,
    });
    let count = |want: fn(&TraceKind) -> bool| trace_rows(r, |k| want(k).then_some(0)).0;
    let agree = [
        (TsCounter::DiffsCreated, created),
        (TsCounter::DiffBytesCreated, 4 * created_words),
        (TsCounter::DiffBytesApplied, 4 * applied_words),
        (
            TsCounter::PageFetches,
            count(|k| matches!(k, TraceKind::PageFetched { .. })),
        ),
        (
            TsCounter::PrefetchIssued,
            count(|k| matches!(k, TraceKind::PrefetchIssued { .. })),
        ),
        (
            TsCounter::PrefetchFills,
            count(|k| matches!(k, TraceKind::PrefetchCompleted { .. })),
        ),
        (
            TsCounter::PrefetchShed,
            count(|k| matches!(k, TraceKind::PrefetchShed { .. })),
        ),
        (
            TsCounter::Retransmits,
            count(|k| matches!(k, TraceKind::Retransmit { .. })),
        ),
        (
            TsCounter::Retransmits,
            count(|k| matches!(k, TraceKind::RetransmitTimeout { .. })),
        ),
    ];
    for (c, rows) in agree {
        assert_eq!(
            rows,
            ts.counter_total(c),
            "{label}: trace and counter {} disagree",
            c.label()
        );
        assert_eq!(
            rows,
            aggregate_of(c, r),
            "{label}: trace and aggregate {} disagree",
            c.label()
        );
    }
    // A `diff_applied` row covers one whole batch of diffs applied to a
    // page (its `words` sum the batch), so rows bound the diff count from
    // below rather than equal it; batches that apply nothing have no row.
    let applied = ts.counter_total(TsCounter::DiffsApplied);
    assert_eq!(applied, aggregate_of(TsCounter::DiffsApplied, r));
    assert!(
        apply_rows <= applied && (apply_rows == 0) == (applied == 0),
        "{label}: {apply_rows} diff_applied rows for {applied} applied diffs"
    );
}

/// Asserts every conservation law on one record.
fn assert_conserved(rec: &RunRecord) {
    let label = &rec.result.protocol;
    let ts = rec
        .result
        .ts
        .as_ref()
        .expect("time-series jobs carry a log");
    for c in TsCounter::ALL {
        assert_eq!(
            ts.counter_total(c),
            aggregate_of(c, &rec.result),
            "{label}: counter {} does not conserve",
            c.label()
        );
    }
    // Per-link retransmit series re-partition the same aggregate.
    let link_retx: u64 = ts.link_retransmits.values().flatten().sum();
    assert_eq!(link_retx, rec.result.fault.retransmits, "{label}: links");
    // The log spans the run. (It may extend slightly past `total_cycles`:
    // charges land at delivery time, and the last ack of a run can arrive
    // after the final barrier releases.)
    assert!(!ts.windows.is_empty(), "{label}: empty log");
    assert!(
        ts.windows.len() as u64 * ts.width >= rec.result.total_cycles,
        "{label}: log stops before the run ends"
    );
}

/// The tier-1 grid with the recorder on at a given fixed width (0 = auto).
fn ts_grid(width: u64) -> Grid {
    let mut grid = tier1_grid(&ALL_MODE_LABELS);
    for job in &mut grid.jobs {
        job.obs = false;
        job.timeseries = true;
        job.params.ts_window = width;
        job.params.trace = true;
    }
    grid
}

#[test]
fn every_counter_conserves_and_sums_are_width_invariant() {
    let fine = Engine::new().no_cache().silent().run(&ts_grid(1_024));
    let coarse = Engine::new().no_cache().silent().run(&ts_grid(16_384));
    assert_eq!(fine.len(), 7 * ALL_MODE_LABELS.len());
    for (f, c) in fine.iter().zip(&coarse) {
        assert_conserved(f);
        assert_conserved(c);
        assert_trace_agrees(f);
        assert_trace_agrees(c);
        let (tf, tc) = (f.result.ts.as_ref().unwrap(), c.result.ts.as_ref().unwrap());
        assert_eq!(tf.width, 1_024);
        assert_eq!(tc.width, 16_384);
        // Same charges, different buckets: totals agree across widths...
        for counter in TsCounter::ALL {
            assert_eq!(
                tf.counter_total(counter),
                tc.counter_total(counter),
                "{}: width changes the {} sum",
                f.result.protocol,
                counter.label()
            );
        }
        // ...and a gauge's all-run maximum is partition-invariant too.
        for gauge in TsGauge::ALL {
            assert_eq!(
                tf.gauge_series(gauge).iter().max(),
                tc.gauge_series(gauge).iter().max(),
                "{}: width changes the {} peak",
                f.result.protocol,
                gauge.label()
            );
        }
    }
}

/// Auto width (ts_window = 0) must cap the window count by doubling, and the
/// conservation laws hold across merges.
#[test]
fn auto_width_merges_conserve_and_bound_the_window_count() {
    let mut params = SysParams::default().with_nprocs(4);
    params.trace = true;
    let mut grid = Grid::new();
    grid.add(Job {
        label: "TSP/I+P+D/auto".into(),
        params,
        protocol: protocol_from_label("I+P+D").unwrap(),
        workload: WorkloadSpec::named("TSP", false),
        obs: false,
        fault: FaultPlan::none(),
        verify: false,
        timeseries: true,
    });
    let records = Engine::new().no_cache().silent().run(&grid);
    assert_conserved(&records[0]);
    assert_trace_agrees(&records[0]);
    let ts = records[0].result.ts.as_ref().unwrap();
    assert!(ts.windows.len() <= TS_MAX_WINDOWS);
    assert!(!ts.windows.is_empty());
    // The width is a power-of-two multiple of the base (pure doubling).
    assert_eq!(ts.width % 1_024, 0);
    assert!((ts.width / 1_024).is_power_of_two());
}

/// Faulted runs exercise the transport counters (retransmits, frames,
/// sheds): they must conserve exactly like the protocol counters. The
/// second plan congests the network from the start of a Water run, so
/// prefetch issue is shed and the shed rows are checked against a nonzero
/// counter.
#[test]
fn faulted_runs_conserve_the_transport_counters() {
    let lossy = FaultPlan {
        seed: 0x7E57,
        drop_permille: 20,
        dup_permille: 10,
        ..FaultPlan::none()
    };
    let congested = FaultPlan {
        seed: 0x7E57,
        congestion: vec![Window {
            start: 0,
            end: 150_000,
            extra: 40_000,
        }],
        ..FaultPlan::none()
    };
    let mut params = SysParams::default().with_nprocs(4);
    params.ts_window = 2_048;
    params.trace = true;
    let mut grid = Grid::new();
    for (app, plan) in [("TSP", lossy), ("Water", congested)] {
        grid.add(Job {
            label: format!("{app}/I+P+D/faulted"),
            params: params.clone(),
            protocol: protocol_from_label("I+P+D").unwrap(),
            workload: WorkloadSpec::named(app, false),
            obs: false,
            fault: plan,
            verify: true,
            timeseries: true,
        });
    }
    let records = Engine::new().no_cache().silent().run(&grid);
    let (lossy, congested) = (&records[0].result, &records[1].result);
    assert!(
        lossy.fault.retransmits > 0,
        "plan did not exercise retransmits"
    );
    assert!(
        lossy.fault.frames_sent > 0,
        "plan did not exercise the transport"
    );
    assert!(
        congested.fault.prefetch_shed > 0,
        "plan did not exercise shedding"
    );
    for rec in &records {
        assert!(rec.result.violations.is_empty());
        assert_conserved(rec);
        assert_trace_agrees(rec);
    }
}
