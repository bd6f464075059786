//! Golden-figure regression tests: the headline numbers of EXPERIMENTS.md,
//! pinned exactly.
//!
//! These are the repository's oracle for "did a protocol change move the
//! results?" — they pin Table 1 as `table1_params` prints it and the tier-1
//! bench file (`BENCH_tier1.json`) as `obs_report --bench` writes it, and
//! re-derive Figure 1 (Base speedups for 2..16 processors) and Figure 2 (the
//! 16-processor execution-time breakdown) through the parallel experiment
//! engine and compare against the committed tables at full output
//! precision. Any intentional protocol change must update this file,
//! EXPERIMENTS.md and `BENCH_tier1.json` in the same commit.
//!
//! The engine runs with the cache disabled: the cache key cannot see source
//! edits, and a golden test served from a stale cache would be a tautology.

use ncp2::prelude::*;
use ncp2_bench::engine::{Engine, Grid};
use ncp2_bench::harness::APP_NAMES;

fn engine() -> Engine {
    Engine::new().no_cache().silent()
}

/// Table 1 end to end: the `table1_params` binary prints every knob default
/// and constant, and its output must equal the committed
/// `results/table1.txt` byte for byte.
#[test]
fn table1_params_matches_results_table1() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1_params"))
        .output()
        .expect("table1_params runs");
    assert!(out.status.success(), "table1_params failed: {out:?}");
    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/table1.txt"
    ))
    .expect("results/table1.txt is readable");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "table1_params drifted from results/table1.txt"
    );
}

/// The tier-1 bench file end to end: `obs_report --bench` re-simulates every
/// tier-1 workload under every mode, and its output must equal the
/// committed `BENCH_tier1.json` byte for byte — every cycle, counter,
/// percentile and epoch of all 56 runs.
#[test]
fn obs_report_bench_matches_bench_tier1() {
    let dir = std::env::temp_dir().join(format!("ncp2-bench-tier1-{}", std::process::id()));
    let path = dir.join("bench.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .arg("--bench")
        .arg(&path)
        .arg("--quiet")
        .output()
        .expect("obs_report runs");
    assert!(out.status.success(), "obs_report --bench failed: {out:?}");
    let fresh = std::fs::read_to_string(&path).expect("obs_report wrote the bench file");
    let _ = std::fs::remove_dir_all(&dir);
    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tier1.json"
    ))
    .expect("BENCH_tier1.json is readable");
    if let Some(diff) = ncp2_obs::first_difference(&want, &fresh) {
        panic!(
            "obs_report --bench drifted from BENCH_tier1.json at {diff}\n\
             If the change is intended, re-seed the file with \
             `cargo run --release --bin obs_report -- --bench BENCH_tier1.json` \
             and say why in CHANGES.md."
        );
    }
}

/// EXPERIMENTS.md Fig 1: speedups over the 1-processor protocol-free run,
/// at "{:.2}" precision, rows = 2/4/8/12/16 processors, columns in
/// [`APP_NAMES`] order (TSP, Water, Radix, Barnes, Em3d, Ocean).
const FIG1_GOLDEN: [(usize, [&str; 6]); 5] = [
    (2, ["1.87", "1.81", "1.61", "0.95", "1.41", "0.84"]),
    (4, ["3.64", "3.43", "2.65", "1.72", "2.24", "1.22"]),
    (8, ["6.95", "5.90", "3.58", "2.75", "2.80", "1.53"]),
    (12, ["9.91", "7.04", "3.58", "3.17", "2.94", "1.58"]),
    (16, ["12.12", "6.71", "3.25", "3.35", "2.84", "1.69"]),
];

#[test]
fn figure1_speedup_table_matches_experiments_md() {
    let params = SysParams::default();
    let mut grid = Grid::new();
    let seq_ix: Vec<usize> = APP_NAMES
        .iter()
        .map(|app| grid.sequential(&params, app, false))
        .collect();
    let run_ix: Vec<Vec<usize>> = FIG1_GOLDEN
        .iter()
        .map(|&(procs, _)| {
            let pp = params.clone().with_nprocs(procs);
            APP_NAMES
                .iter()
                .map(|app| grid.run(&pp, Protocol::TreadMarks(OverlapMode::Base), app, false))
                .collect()
        })
        .collect();
    let records = engine().run(&grid);

    for ((procs, golden_row), row_ix) in FIG1_GOLDEN.iter().zip(&run_ix) {
        for ((app, want), (&r, &s)) in APP_NAMES
            .iter()
            .zip(golden_row)
            .zip(row_ix.iter().zip(&seq_ix))
        {
            let seq = records[s].result.total_cycles;
            let got = records[r]
                .result
                .speedup_over(seq)
                .expect("non-zero parallel run time");
            assert_eq!(
                format!("{got:.2}"),
                *want,
                "Fig 1 speedup for {app} on {procs} processors drifted \
                 (got {got:.4}); if intentional, update EXPERIMENTS.md and \
                 this golden table together"
            );
        }
    }
}

/// EXPERIMENTS.md Fig 2 (16 processors, TreadMarks Base): per-application
/// busy share and diff share of execution time, at "{:.1}" precision,
/// in [`APP_NAMES`] order.
const FIG2_GOLDEN: [(&str, &str, &str); 6] = [
    ("TSP", "82.7", "1.9"),
    ("Water", "41.9", "8.7"),
    ("Radix", "21.3", "15.7"),
    ("Barnes", "20.8", "11.9"),
    ("Em3d", "18.4", "14.1"),
    ("Ocean", "12.8", "14.2"),
];

#[test]
fn figure2_breakdown_matches_experiments_md() {
    let params = SysParams::default();
    let mut grid = Grid::new();
    for (app, _, _) in FIG2_GOLDEN {
        grid.run_obs(&params, Protocol::TreadMarks(OverlapMode::Base), app, false);
    }
    let records = engine().run(&grid);

    for ((app, busy_want, diff_want), rec) in FIG2_GOLDEN.iter().zip(&records) {
        let r = &rec.result;
        let busy = 100.0 * r.aggregate().fraction(Category::Busy);
        assert_eq!(
            format!("{busy:.1}"),
            *busy_want,
            "Fig 2 busy%% for {app} drifted (got {busy:.3})"
        );
        let diff = r.diff_pct();
        assert_eq!(
            format!("{diff:.1}"),
            *diff_want,
            "Fig 2 diff%% for {app} drifted (got {diff:.3})"
        );
        let report = rec.report.as_ref().expect("observed run carries a report");
        assert!(report.conservation_ok, "span conservation failed for {app}");
    }
}
