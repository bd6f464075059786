//! `obs_report` — run one application with observability enabled and render
//! the metrics report; optionally export Perfetto/CSV artifacts, run the
//! determinism/conservation self-check, or produce the bench file consumed
//! by `cargo xtask bench-diff`.
//!
//! ```sh
//! # Print the report table for one run.
//! cargo run --release --bin obs_report -- --app TSP --mode I+P+D
//!
//! # Export metrics.json + trace.json (Perfetto) + trace.csv.
//! cargo run --release --bin obs_report -- --app Water --mode AURC --out-dir /tmp/obs
//!
//! # CI self-check: byte-determinism + conservation + parse-back.
//! cargo run --release --bin obs_report -- --app TSP --mode I+P+D --nprocs 4 --selfcheck
//!
//! # Regenerate the tier-1 bench trajectory file (runs through the parallel
//! # engine; always cache-bypassing so the baseline reflects current code).
//! cargo run --release --bin obs_report -- --bench bench_new.json --jobs 4
//! ```

use std::process::ExitCode;

use ncp2::prelude::*;
use ncp2_bench::engine::{tier1_grid, Grid, Job, RunRecord, WorkloadSpec};
use ncp2_bench::gate::{self, Gate};
use ncp2_bench::harness::{write_file, Opts, TIER1_APPS};
use ncp2_obs::report::parse_metrics;
use ncp2_obs::{perfetto_json, write_bench, MetricsReport};

/// Flags beyond the engine flags.
const FLAGS: [&str; 8] = [
    "--app",
    "--mode",
    "--nprocs",
    "--top-k",
    "--paper-size",
    "--out-dir",
    "--selfcheck",
    "--bench",
];

/// The job for one observed run, with protocol tracing on so the Perfetto
/// export carries instant events too. (Trace jobs always execute fresh —
/// the cache does not persist raw timelines.)
fn observed_job(o: &Opts) -> Job {
    let (app, (mode, protocol)) = (o.app_or("TSP"), o.mode_or("I+P+D"));
    let mut params = o.params(SysParams::default().nprocs);
    params.trace = true;
    let spec = WorkloadSpec::named(app, o.paper_size);
    Job {
        obs: true,
        ..Job::new(format!("{app}/{mode}"), params, protocol, spec)
    }
}

/// The tier-1 bench suite: the six applications at oracle-test sizes, under
/// a representative protocol spread, on 4 processors. Small enough for CI,
/// broad enough that a protocol-wide slowdown cannot hide. Runs through the
/// parallel engine with the cache forced off: the baseline file must always
/// reflect the code as built, never a stale cached result.
fn bench_reports(o: &Opts) -> Vec<MetricsReport> {
    const BENCH_MODES: [&str; 3] = ["Base", "I+P+D", "AURC+P"];
    let grid = tier1_grid(&BENCH_MODES);
    let records = o.engine().no_cache().run(&grid);
    records
        .into_iter()
        .map(|rec| {
            // invariant: every tier-1 grid job is observed, so a report exists.
            rec.report.expect("tier-1 jobs carry a report")
        })
        .collect()
}

fn main() -> ExitCode {
    let o = Opts::parse_with(&FLAGS, &TIER1_APPS);

    if let Some(bench_path) = &o.bench {
        let reports = bench_reports(&o);
        write_file(bench_path, &write_bench(&reports));
        println!("wrote {} runs to {}", reports.len(), bench_path.display());
        return ExitCode::SUCCESS;
    }

    let run_observed = || -> RunRecord {
        let mut grid = Grid::new();
        grid.add(observed_job(&o));
        o.engine()
            .silent()
            .run(&grid)
            .pop()
            // invariant: run() returns exactly one record per job.
            .expect("one job in, one record out")
    };

    let rec = run_observed();
    let r = &rec.result;
    // invariant: observed_job sets obs, so the record carries a report.
    let report = rec.report.clone().expect("observed job carries a report");
    print!("{}", report.render_table());

    // Per-node breakdown, hottest (most overhead) nodes first; anything past
    // the top K collapses into one summed row so 256-node runs stay legible.
    println!();
    print!(
        "{}",
        ncp2_obs::render_node_table(&r.nodes, o.top_k.unwrap_or(16))
    );

    let mut gate = Gate::default();
    gate.ensure(r.violations.is_empty(), || {
        format!("violations: {:#?}", r.violations)
    });

    if let Some(dir) = &o.out_dir {
        write_file(&dir.join("metrics.json"), &report.to_json());
        write_file(&dir.join("trace.json"), &perfetto_json(r));
        write_file(&dir.join("trace.csv"), &ncp2::core::trace_csv(&r.trace));
        println!(
            "\nwrote metrics.json, trace.json, trace.csv to {}",
            dir.display()
        );
    }

    if !o.selfcheck {
        return gate.exit_code();
    }
    // 1. Conservation must have held (violations would have tripped above,
    //    but check the report's own flag too).
    gate.ensure(report.conservation_ok, || {
        "selfcheck: span-conservation invariant FAILED".into()
    });
    // 2. Determinism: a second identical run must produce byte-identical
    //    metrics and Perfetto exports. (Trace jobs never hit the cache, so
    //    this genuinely re-simulates.)
    let rec2 = run_observed();
    // invariant: observed_job sets obs, so the record carries a report.
    let report2 = rec2.report.expect("observed job carries a report");
    // Host-phase attribution is wall-clock data and legitimately differs
    // between runs; the determinism contract covers everything simulated.
    let sim_only = |r: &MetricsReport| {
        let mut r = r.clone();
        r.host.clear();
        r.to_json()
    };
    let (metrics, metrics2) = (sim_only(&report), sim_only(&report2));
    gate::parity(&mut gate, "selfcheck: metrics.json", &metrics, &metrics2);
    let (trace, trace2) = (perfetto_json(r), perfetto_json(&rec2.result));
    gate::parity(&mut gate, "selfcheck: trace.json", &trace, &trace2);
    // 3. The deterministic JSON must parse back to the same report.
    match parse_metrics(&report.to_json()) {
        Ok(parsed) => gate.ensure(parsed == report, || {
            "selfcheck: parsed metrics disagree with the report".into()
        }),
        Err(e) => gate.fail(format!("selfcheck: metrics.json does not parse: {e}")),
    }
    gate.verdict(|| "\nselfcheck passed: conservation ok, exports deterministic".into())
}
