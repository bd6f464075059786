//! `timeline_report` — run one application with the windowed time-series
//! recorder enabled and render/export the timeline: per-window counters and
//! gauges over simulated time, hot-page/hot-lock attribution, and SLO-style
//! window assertions.
//!
//! ```sh
//! # Print the timeline summary and hot-spot tables for one run.
//! cargo run --release --bin timeline_report -- --app TSP --mode I+P+D
//!
//! # Fixed 4096-cycle windows, full hot-spot tables, JSON + CSV export.
//! cargo run --release --bin timeline_report -- --app Water --mode AURC+P \
//!     --window 4096 --top-k 0 --out-dir /tmp/timeline
//!
//! # Evaluate an SLO assertion (exit 1 if it fires).
//! cargo run --release --bin timeline_report -- --app TSP --mode I+P+D \
//!     --assert 'occupancy_pct >= 95 for 4'
//!
//! # CI smoke: a congestion-window fault plan must fire the retransmit-storm
//! # assertion inside the injected window; the fault-free twin must fire
//! # nothing; the export must be byte-identical across reruns.
//! cargo run --release --bin timeline_report -- --check --quiet --out-dir /tmp/timeline
//! ```

use std::process::ExitCode;

use ncp2::prelude::*;
use ncp2::sim::config::RETRANSMIT_TIMEOUT;
use ncp2_bench::engine::{tier1_workloads, Grid, Job, RunRecord, WorkloadSpec};
use ncp2_bench::gate::{self, Gate};
use ncp2_bench::harness::{protocol_from_label, write_file, Opts, TIER1_APPS};
use ncp2_fault::{FaultPlan, Window};
use ncp2_obs::{render_hotspots, Assertion, Firing, TimelineReport, TIMELINE_CHECK_ASSERTION};

/// Fault seed for `--check`; fixed so the smoke run is reproducible.
const CHECK_SEED: u64 = 0x71AE11;

/// `--check` congestion window: `[0, CHECK_FAULT_END)` with extra delivery
/// latency far above the 20k-cycle retransmit timeout, so every frame sent
/// inside the window times out and retransmits — a storm that provably
/// lands inside the injected window.
const CHECK_FAULT_END: u64 = 150_000;
const CHECK_EXTRA_LATENCY: u64 = 40_000;

/// `--check` uses a fixed window width so the assertion windows (and the
/// archived JSON) are independent of run length.
const CHECK_WINDOW: u64 = 8_192;

/// Flags beyond the engine flags.
const FLAGS: [&str; 8] = [
    "--app",
    "--mode",
    "--nprocs",
    "--window",
    "--top-k",
    "--assert",
    "--out-dir",
    "--check",
];

/// Default rows per hot-spot table.
const TOP_K: usize = 16;

fn firings_json(firings: &[Firing], base: usize) -> String {
    let p = " ".repeat(base);
    let mut out = format!("{p}[\n");
    for (i, f) in firings.iter().enumerate() {
        let comma = if i + 1 == firings.len() { "" } else { "," };
        out.push_str(&format!(
            "{p}  {{\"assertion\": \"{}\", \"first_window\": {}, \"last_window\": {}, \
             \"start_cycle\": {}, \"end_cycle\": {}}}{comma}\n",
            f.assertion, f.first_window, f.last_window, f.start_cycle, f.end_cycle
        ));
    }
    out.push_str(&format!("{p}]"));
    out
}

fn print_firings(firings: &[Firing]) {
    for f in firings {
        println!(
            "FIRED: {} — windows {}..={} (cycles {}..{})",
            f.assertion, f.first_window, f.last_window, f.start_cycle, f.end_cycle
        );
    }
}

/// One run with the time-series recorder on. Time-series jobs bypass the
/// result cache, so this always re-simulates.
fn timeline_run(o: &Opts) -> TimelineReport {
    let (app, (mode, protocol)) = (o.app_or("TSP"), o.mode_or("I+P+D"));
    let mut params = o.params(SysParams::default().nprocs);
    params.ts_window = o.window.unwrap_or(0);
    let mut grid = Grid::new();
    let spec = WorkloadSpec::named(app, false);
    grid.add(Job {
        timeseries: true,
        ..Job::new(format!("{app}/{mode}"), params, protocol, spec)
    });
    let rec = o
        .engine()
        .silent()
        .run(&grid)
        .pop()
        // invariant: run() returns exactly one record per job.
        .expect("one job in, one record out");
    // invariant: the job sets `timeseries`, so the result carries a log.
    let top_k = o.top_k.unwrap_or(TOP_K);
    TimelineReport::from_run(&format!("{app}/{mode}"), &rec.result, top_k)
        .expect("time-series job carries a log")
}

fn report(o: &Opts) -> ExitCode {
    let rep = timeline_run(o);
    println!(
        "{}: {} cycles, {} windows x {} cycles",
        rep.name,
        rep.total_cycles,
        rep.log.windows.len(),
        rep.log.width
    );
    print!("{}", render_hotspots(&rep.log, o.top_k.unwrap_or(TOP_K)));

    let firings = ncp2_obs::evaluate_all(&o.asserts, &rep.log);
    print_firings(&firings);

    if let Some(dir) = &o.out_dir {
        write_file(&dir.join("timeline_report.json"), &rep.to_json());
        write_file(&dir.join("timeline_report.csv"), &rep.to_csv());
        println!(
            "wrote timeline_report.json, timeline_report.csv to {}",
            dir.display()
        );
    }
    let mut gate = Gate::default();
    gate.ensure(firings.is_empty(), || {
        format!("{} assertion firing(s)", firings.len())
    });
    gate.exit_code()
}

/// The two `--check` workloads: a closed-loop kernel and the open-loop
/// service — the congestion storm must be visible on both shapes of
/// traffic, and both fault-free twins must stay silent.
const CHECK_APPS: [&str; 2] = ["TSP", "Svc"];

/// The `--check` grid: per check app, the congested run, then its
/// fault-free twin.
fn check_grid(o: &Opts) -> Grid {
    let plan = FaultPlan {
        seed: CHECK_SEED,
        congestion: vec![Window {
            start: 0,
            end: CHECK_FAULT_END,
            extra: CHECK_EXTRA_LATENCY,
        }],
        ..FaultPlan::none()
    };
    let protocol = protocol_from_label("I+P+D").expect("known mode label");
    let mut params = o.params(SysParams::default().nprocs);
    params.ts_window = CHECK_WINDOW;
    let mut grid = Grid::new();
    for app in CHECK_APPS {
        let (_, spec) = tier1_workloads()
            .into_iter()
            .find(|(n, _)| *n == app)
            // invariant: the tier-1 table contains every check app.
            .expect("tier-1 table contains the check apps");
        let job = Job {
            verify: true,
            timeseries: true,
            ..Job::new(format!("{app}/I+P+D"), params.clone(), protocol, spec)
        };
        gate::add_twins(&mut grid, job, &plan, ["congested", "clean"]);
    }
    grid
}

/// The archived `--check` artifact: per check app, the assertion's firings
/// on the congested run and on its clean twin, and both timelines.
fn check_doc(records: &[RunRecord], top_k: usize) -> String {
    let assertion = Assertion::parse(TIMELINE_CHECK_ASSERTION).expect("built-in assertion");
    let mut doc = String::from("{\n");
    doc.push_str(&format!(
        "  \"assertion\": \"{TIMELINE_CHECK_ASSERTION}\",\n"
    ));
    doc.push_str("  \"apps\": [\n");
    for (i, (app, pair)) in CHECK_APPS.iter().zip(records.chunks(2)).enumerate() {
        let congested = timeline(app, "congested", &pair[0], top_k);
        let clean = timeline(app, "clean", &pair[1], top_k);
        let comma = if i + 1 == CHECK_APPS.len() { "" } else { "," };
        doc.push_str(&format!("    {{\n      \"app\": \"{app}\",\n"));
        doc.push_str(&format!(
            "      \"firings\": {},\n",
            firings_json(&assertion.evaluate(&congested.log), 6).trim_start()
        ));
        doc.push_str(&format!(
            "      \"clean_firings\": {},\n",
            firings_json(&assertion.evaluate(&clean.log), 6).trim_start()
        ));
        doc.push_str(&format!(
            "      \"congested\": {},\n",
            congested.to_json_indented(6).trim_start()
        ));
        doc.push_str(&format!(
            "      \"clean\": {}\n    }}{comma}\n",
            clean.to_json_indented(6).trim_start()
        ));
    }
    doc.push_str("  ]\n}\n");
    doc
}

/// The timeline of one `--check` run.
fn timeline(app: &str, kind: &str, rec: &RunRecord, top_k: usize) -> TimelineReport {
    // invariant: both check jobs set `timeseries`, so both carry a log.
    TimelineReport::from_run(&format!("{app}/I+P+D/{kind}"), &rec.result, top_k)
        .expect("check jobs record a time series")
}

/// The `--check` smoke (see the module docs): the assertion engine must fire
/// inside an injected fault window and stay silent on the fault-free twin,
/// for both a closed-loop kernel and the open-loop service workload, and
/// the archived JSON must be byte-identical across reruns.
fn check(o: &Opts) -> ExitCode {
    let top_k = o.top_k.unwrap_or(TOP_K);
    let records = o.engine().run(&check_grid(o));
    let assertion = Assertion::parse(TIMELINE_CHECK_ASSERTION).expect("built-in assertion");
    let horizon = CHECK_FAULT_END + 2 * RETRANSMIT_TIMEOUT;

    let mut gate = Gate::default();
    let mut total_firings = 0;
    for (app, pair) in CHECK_APPS.iter().zip(records.chunks(2)) {
        let name = format!("check: {app}");
        // 1. The faulted run fires, and the firing overlaps the injected
        //    window (extended by one timeout: frames sent at the very end of
        //    the window time out at most one RTO later).
        let firings = assertion.evaluate(&timeline(app, "congested", &pair[0], top_k).log);
        if firings.is_empty() {
            gate.fail(format!(
                "{name}: '{TIMELINE_CHECK_ASSERTION}' did not fire under the congestion plan"
            ));
        } else {
            gate.ensure(firings.iter().any(|f| f.start_cycle < horizon), || {
                format!(
                    "{name}: no firing overlaps the injected fault window \
                     [0, {CHECK_FAULT_END}) (+{} cycles of timeout slack)",
                    horizon - CHECK_FAULT_END
                )
            });
        }
        total_firings += firings.len();
        if !o.quiet {
            print_firings(&firings);
        }

        // 2. The fault-free twin is silent.
        let clean_firings = assertion.evaluate(&timeline(app, "clean", &pair[1], top_k).log);
        if !clean_firings.is_empty() {
            gate.fail(format!(
                "{name}: '{TIMELINE_CHECK_ASSERTION}' fired {} time(s) on the fault-free twin",
                clean_firings.len()
            ));
            print_firings(&clean_firings);
        }

        // 3. Memory stays correct under the plan, and the oracle agrees.
        gate::twins(&mut gate, &name, &pair[0].result, &pair[1].result);
    }

    // 4. Byte-determinism: a fresh rerun of the same grid must reproduce the
    //    artifact exactly (time-series jobs never hit the cache, so this
    //    genuinely re-simulates).
    let doc = check_doc(&records, top_k);
    let rerun = o.engine().silent().run(&check_grid(o));
    gate::parity(
        &mut gate,
        "check: timeline_report.json",
        &doc,
        &check_doc(&rerun, top_k),
    );

    if let Some(dir) = &o.out_dir {
        write_file(&dir.join("timeline_report.json"), &doc);
        if !o.quiet {
            println!("wrote timeline_report.json to {}", dir.display());
        }
    }
    gate.verdict(|| {
        format!(
            "timeline check passed: '{TIMELINE_CHECK_ASSERTION}' fired {total_firings} time(s) inside \
             the fault window across {} workloads, clean twins silent, export deterministic",
            CHECK_APPS.len()
        )
    })
}

fn main() -> ExitCode {
    let o = Opts::parse_with(&FLAGS, &TIER1_APPS);
    if o.check {
        check(&o)
    } else {
        report(&o)
    }
}
