//! The time-series recorder is provably inert: switching it on changes no
//! simulated outcome — checksums, total cycles, per-node statistics, network
//! traffic and the derived metrics report are all byte-identical to a run
//! with the recorder off. Recording is charge-driven (hooks piggyback on
//! state transitions that happen anyway; the recorder never schedules an
//! event), so this holds by construction — and these tests keep it that way.
//! Every build contains the recorder; the twin below covers the runtime
//! toggle, the only switch there is.

use ncp2_bench::engine::{tier1_grid, Engine, RunRecord};
use ncp2_bench::harness::ALL_MODE_LABELS;
use ncp2_obs::TimelineReport;

/// Runs the 7-workloads × 8-modes tier-1 grid with the recorder on or off.
fn run_grid(timeseries: bool) -> Vec<RunRecord> {
    let mut grid = tier1_grid(&ALL_MODE_LABELS);
    for job in &mut grid.jobs {
        job.timeseries = timeseries;
        job.params.ts_window = 4_096;
    }
    Engine::new().no_cache().silent().run(&grid)
}

#[test]
fn recorder_leaves_all_simulated_output_byte_identical() {
    let plain = run_grid(false);
    let recorded = run_grid(true);
    assert_eq!(plain.len(), recorded.len());
    assert_eq!(plain.len(), 7 * ALL_MODE_LABELS.len());

    for (p, q) in plain.iter().zip(&recorded) {
        let rep1 = p.report.clone().expect("tier-1 jobs are observed");
        let rep2 = q.report.clone().expect("tier-1 jobs are observed");
        let label = rep1.name.clone();
        assert_eq!(label, rep2.name);
        let (r1, r2) = (&p.result, &q.result);
        // Only the recorded run carries a log; everything else is identical.
        assert!(r1.ts.is_none(), "{label}: log without the flag");
        assert!(r2.ts.is_some(), "{label}: flag without a log");
        assert_eq!(r1.total_cycles, r2.total_cycles, "{label}");
        assert_eq!(r1.checksum, r2.checksum, "{label}");
        assert_eq!(r1.aggregate(), r2.aggregate(), "{label}");
        assert_eq!(r1.nodes, r2.nodes, "{label}");
        assert_eq!(r1.net.messages, r2.net.messages, "{label}");
        assert_eq!(r1.net.bytes, r2.net.bytes, "{label}");
        assert_eq!(r1.net.total_latency, r2.net.total_latency, "{label}");
        // The BENCH_tier1 metrics (the golden-file artifact) agree byte for
        // byte.
        assert_eq!(rep1.to_json(), rep2.to_json(), "{label}");
    }
}

/// The timeline artifact itself is deterministic under any worker count:
/// `--jobs 1` and `--jobs 8` produce byte-identical JSON and CSV.
#[test]
fn timeline_export_is_identical_across_worker_counts() {
    let grid = || {
        let mut g = tier1_grid(&["I+P+D"]);
        for job in &mut g.jobs {
            job.obs = false;
            job.timeseries = true;
            job.params.ts_window = 4_096;
        }
        g
    };
    let serial = Engine::new().no_cache().silent().with_jobs(1).run(&grid());
    let parallel = Engine::new().no_cache().silent().with_jobs(8).run(&grid());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let rs = TimelineReport::from_run("run", &s.result, 16).expect("ts log");
        let rp = TimelineReport::from_run("run", &p.result, 16).expect("ts log");
        assert_eq!(rs.to_json(), rp.to_json());
        assert_eq!(rs.to_csv(), rp.to_csv());
    }
}
