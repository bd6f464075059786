//! `critpath_report` — critical-path analysis and causal what-if profiling
//! over the execution-dependency graph of observed runs.
//!
//! For each selected application (tier-1 sizes) the binary runs the **Base**
//! mode with observability on, builds the execution-dependency DAG, extracts
//! the critical path (whose length provably equals the run's total cycles),
//! and prints the exposed-vs-aggregate cycle table per category: aggregate
//! cycles say where *all* processors spent time, exposed cycles say what the
//! end-to-end running time actually waited on.
//!
//! It then re-executes the schedule under each cost-deletion scenario and
//! compares the predicted speedups against the *measured* ablation modes run
//! alongside (`I`, `I+D`, `P`), closing the causal loop: the prediction is a
//! conservative lower bound on the measured gain (DESIGN.md §11).
//!
//! ```sh
//! # Full table for every tier-1 app (runs through the parallel engine).
//! cargo run --release --bin critpath_report -- --jobs 4
//!
//! # One app, machine-readable output, validation gate for CI.
//! cargo run --release --bin critpath_report -- --app TSP --check --out /tmp/cp.json
//! ```
//!
//! The Base run carries the raw span/edge log, which the result cache does
//! not persist, so it always runs on an engine without the cache; the
//! measured ablation runs are plain grid points and hit the cache unless
//! `--no-cache` is given.

use std::process::ExitCode;

use ncp2::prelude::*;
use ncp2_bench::engine::{tier1_workloads, Grid, Job};
use ncp2_bench::gate::Gate;
use ncp2_bench::harness::{protocol_from_label, write_file, Opts, TIER1_APPS};
use ncp2_obs::json::esc;
use ncp2_obs::{critical_path, what_if, CritPath, ExecGraph, Scenario, WhatIf};

/// Measured ablation modes run alongside Base for validation, in order.
const MEASURED_MODES: [&str; 3] = ["I", "I+D", "P"];

/// Scenario → the measured mode it predicts (`None`: no single-mode
/// counterpart exists; the paper has no `D`-only ablation).
const SCENARIO_MODE: [(Scenario, Option<&str>); 4] = [
    (Scenario::OffloadFree, Some("I")),
    (Scenario::DiffsFree, None),
    (Scenario::DiffsOffloadFree, Some("I+D")),
    (Scenario::PerfectFill, Some("P")),
];

/// The documented two-sided accuracy bound (DESIGN.md §11): a prediction
/// must not over-promise by more than `OVERSHOOT` and must capture at least
/// `CAPTURE` of the measured speedup gain.
const OVERSHOOT: f64 = 1.05;
const CAPTURE: f64 = 0.3;

/// Flags beyond the engine flags.
const FLAGS: [&str; 4] = ["--app", "--nprocs", "--check", "--out"];

/// One app's complete analysis: the Base run, its critical path, the
/// what-if predictions and the measured ablation totals.
struct AppAnalysis {
    name: String,
    base: RunResult,
    path: CritPath,
    whatifs: Vec<(Scenario, WhatIf)>,
    /// `(mode label, measured total cycles)` in [`MEASURED_MODES`] order.
    measured: Vec<(String, u64)>,
}

fn analyze(o: &Opts) -> Vec<AppAnalysis> {
    let apps: Vec<_> = tier1_workloads()
        .into_iter()
        .filter(|(n, _)| o.only_app.as_deref().is_none_or(|want| want == *n))
        .collect();
    let params = o.params(4);
    // Per app: one observed Base run, which never touches the cache (a
    // cached record carries no span log, and the graph needs it), and the
    // measured ablations as plain cacheable points.
    let (mut base_grid, mut ablation_grid) = (Grid::new(), Grid::new());
    for (name, spec) in &apps {
        let base = Protocol::TreadMarks(OverlapMode::Base);
        base_grid.add(Job {
            obs: true,
            ..Job::new(format!("{name}/Base"), params.clone(), base, spec.clone())
        });
        for mode in MEASURED_MODES {
            // invariant: every MEASURED_MODES entry is a known label.
            let protocol = protocol_from_label(mode).expect("known mode label");
            let label = format!("{name}/{mode}");
            ablation_grid.add(Job::new(label, params.clone(), protocol, spec.clone()));
        }
    }
    let mut bases = o.engine().no_cache().run(&base_grid).into_iter();
    let mut records = o.engine().run(&ablation_grid).into_iter();

    let mut out = Vec::new();
    for (name, _) in &apps {
        let base = bases.next().expect("grid order: Base record").result;
        let log = base.obs.as_ref().expect("Base job was observed");
        let g = ExecGraph::build(log, base.nprocs, base.total_cycles)
            .unwrap_or_else(|e| panic!("{name}: graph build failed: {e}"));
        let path =
            critical_path(&g).unwrap_or_else(|e| panic!("{name}: critical-path walk failed: {e}"));
        let whatifs = SCENARIO_MODE
            .iter()
            .map(|&(sc, _)| (sc, what_if(&g, sc)))
            .collect();
        let measured = MEASURED_MODES
            .iter()
            .map(|mode| {
                let rec = records.next().expect("grid order: ablation record");
                (mode.to_string(), rec.result.total_cycles)
            })
            .collect();
        out.push(AppAnalysis {
            name: name.to_string(),
            base,
            path,
            whatifs,
            measured,
        });
    }
    out
}

fn render(an: &AppAnalysis) -> String {
    let mut out = String::new();
    let total = an.base.total_cycles;
    out.push_str(&format!(
        "{}  Base  nprocs={}  total={total} cycles  critical path: {} segments\n",
        an.name,
        an.base.nprocs,
        an.path.segments.len()
    ));
    // Exposed vs aggregate: what the end-to-end time waited on vs where all
    // processors together spent time.
    let agg = an.base.aggregate();
    out.push_str(&format!(
        "\n  {:<10} {:>14} {:>14} {:>10}\n",
        "category", "aggregate", "exposed", "exposed %"
    ));
    for &(cat, exposed) in &an.path.exposed {
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * exposed as f64 / total as f64
        };
        out.push_str(&format!(
            "  {:<10} {:>14} {:>14} {pct:>9.1}%\n",
            cat.label(),
            agg.get(cat),
            exposed
        ));
    }
    out.push_str(&format!(
        "\n  {:<20} {:>14} {:>10} {:>10} {:>10}\n",
        "what-if scenario", "predicted", "speedup", "measured", "speedup"
    ));
    for (sc, w) in &an.whatifs {
        let mode = SCENARIO_MODE
            .iter()
            .find(|(s, _)| s == sc)
            .and_then(|&(_, m)| m);
        let (mcol, scol) = match mode.and_then(|m| measured_total(an, m)) {
            Some(mt) => (
                mode.unwrap_or("").to_string(),
                format!("{:.3}", total as f64 / mt as f64),
            ),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "  {:<20} {:>14} {:>10.3} {mcol:>10} {scol:>10}\n",
            sc.label(),
            w.new_total,
            w.speedup
        ));
    }
    out
}

fn measured_total(an: &AppAnalysis, mode: &str) -> Option<u64> {
    an.measured.iter().find(|(m, _)| m == mode).map(|&(_, t)| t)
}

/// Deterministic JSON export: fixed key order, integers and fixed-point
/// speedups only.
fn to_json(analyses: &[AppAnalysis]) -> String {
    let mut out = String::from("{\"apps\": [\n");
    for (i, an) in analyses.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"name\": \"{}\",\n", esc(&an.name)));
        out.push_str(&format!(
            "    \"total_cycles\": {},\n",
            an.base.total_cycles
        ));
        let exposed = an
            .path
            .exposed
            .iter()
            .map(|&(c, v)| format!("\"{}\": {v}", c.label()))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("    \"exposed\": {{{exposed}}},\n"));
        let whatifs = an
            .whatifs
            .iter()
            .map(|(sc, w)| format!("\"{}\": {}", sc.label(), w.new_total))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("    \"whatif\": {{{whatifs}}},\n"));
        let measured = an
            .measured
            .iter()
            .map(|(m, t)| format!("\"{}\": {t}", esc(m)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("    \"measured\": {{{measured}}}\n"));
        out.push_str(if i + 1 == analyses.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push_str("]}\n");
    out
}

/// The validation gate: the conservation law holds for every app, and the
/// validated prediction pair — `diffs_offload_free` against the measured
/// `I+D` ablation — respects the documented accuracy bound. (`perfect_fill`
/// is a documented upper bound on `P` and the paper has no `D`-only mode,
/// so the other scenarios are informational.)
fn check(analyses: &[AppAnalysis]) -> ExitCode {
    let mut gate = Gate::default();
    for an in analyses {
        let total = an.base.total_cycles;
        let sum: u64 = an.path.segments.iter().map(|s| s.end - s.start).sum();
        gate.ensure(sum == total, || {
            format!(
                "check: {}: critical path length {sum} != total {total}",
                an.name
            )
        });
        // The prediction-accuracy bound is a closed-loop validation: it
        // assumes removing overhead from the critical path shortens the
        // run. The open-loop Svc run ends no earlier than its last arrival,
        // so run-length what-ifs legitimately over-promise there — only the
        // conservation law above applies to it.
        if an.name == "Svc" {
            continue;
        }
        let w = an
            .whatifs
            .iter()
            .find(|(sc, _)| *sc == Scenario::DiffsOffloadFree)
            .map(|&(_, w)| w)
            .expect("diffs_offload_free is always analyzed");
        let mt = measured_total(an, "I+D").expect("I+D is always measured");
        let predicted = total as f64 / w.new_total as f64;
        let measured = total as f64 / mt as f64;
        gate.ensure(predicted <= measured * OVERSHOOT, || {
            format!(
                "check: {}: diffs_offload_free prediction {predicted:.3} over-promises vs \
                 measured I+D {measured:.3}",
                an.name
            )
        });
        gate.ensure(predicted - 1.0 >= CAPTURE * (measured - 1.0), || {
            format!(
                "check: {}: diffs_offload_free prediction {predicted:.3} captures < {CAPTURE} \
                 of the measured I+D gain ({measured:.3})",
                an.name
            )
        });
    }
    gate.verdict(|| {
        "check passed: conservation holds, predictions within the documented bound".into()
    })
}

fn main() -> ExitCode {
    let o = Opts::parse_with(&FLAGS, &TIER1_APPS);
    let analyses = analyze(&o);
    for an in &analyses {
        println!("{}", render(an));
    }
    if let Some(path) = &o.out {
        write_file(path, &to_json(&analyses));
        println!("wrote {}", path.display());
    }
    if o.check {
        check(&analyses)
    } else {
        ExitCode::SUCCESS
    }
}
