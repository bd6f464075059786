//! `svc_report` — open-loop service rate sweep and tail-latency CI gate.
//!
//! The service workload (`ncp2_apps::Svc`) is the repo's only open-loop
//! measurement: requests arrive on a seeded stream whether or not the nodes
//! keep up, so the headline observable is the **response time**
//! (completion − arrival), not the run length. This binary sweeps offered
//! load (mean inter-arrival gap) against every protocol mode and reports
//! the response-time tail — the experiment the paper's closed-loop figures
//! cannot express.
//!
//! Two modes:
//!
//! * **Sweep** (default): arrival-rate × protocol-mode grid through the
//!   parallel engine (observed jobs, so cache hits replay the archived
//!   report rows), printing completed/p50/p90/p99/queue-peak per cell and
//!   optionally writing `svc_report.json`.
//! * **`--check`** (the CI gate): every protocol mode at three offered
//!   loads with the verification oracle attached, plus a 1%-frame-drop
//!   faulted/clean twin. The gate fails — exit code 1 — unless every run
//!   is oracle-silent, every cell's checksum matches the protocol-invariant
//!   service checksum, overlap (I+P+D) shows a lower p99 than Base at the
//!   highest pre-saturation load, the faulted twin's checksum equals the
//!   clean twin's with p99 inflation bounded, and the whole artifact is
//!   byte-identical when re-run with a different worker count (`--jobs 1`
//!   vs `--jobs 8`).
//!
//! ```sh
//! # Rate sweep: 8 modes x default gaps, JSON export.
//! cargo run --release --bin svc_report -- --out-dir target/svc
//!
//! # Custom offered loads (mean inter-arrival gaps, cycles).
//! cargo run --release --bin svc_report -- --gaps 12000,6000,3000
//!
//! # CI gate.
//! cargo run --release --bin svc_report -- --check --quiet --out-dir target/svc
//! ```

use std::process::ExitCode;

use ncp2::prelude::*;
use ncp2_bench::engine::{Grid, Job, RunRecord, WorkloadSpec};
use ncp2_bench::gate::{self, Gate};
use ncp2_bench::harness::{protocol_from_label, write_file, Opts, ALL_MODE_LABELS};
use ncp2_fault::FaultPlan;

/// Default sweep gaps: comfortably under-loaded down to near saturation.
const SWEEP_GAPS: [u64; 4] = [16_000, 8_000, 4_000, 2_000];

/// `--check` gaps: light, moderate, and the highest pre-saturation load
/// (the cell where queueing separates Base from I+P+D most clearly).
const CHECK_GAPS: [u64; 3] = [8_000, 4_000, 2_000];

/// `--check` twin plan: 1% frame drop; the retransmit path must preserve
/// the checksum and keep the response tail bounded.
const CHECK_DROP_PERMILLE: u16 = 10;

/// Fault seed for the `--check` twin; fixed so the gate is reproducible.
const CHECK_SEED: u64 = 0x5E4C;

/// Faulted p99 must stay within this multiple of the clean twin's p99.
const MAX_TAIL_INFLATION: f64 = 4.0;

/// Flags beyond the engine flags.
const FLAGS: [&str; 4] = ["--gaps", "--nprocs", "--out-dir", "--check"];

/// Response-time quantiles of one cell, whichever way the record carries
/// them: fresh (and `--check`) runs expose `RunResult::svc` directly;
/// cache hits replay the archived report's `svc_response` row instead
/// (service counters are not persisted raw — the report rows are).
fn tail(rec: &RunRecord) -> (u64, u64, u64, u64, u64) {
    if let Some(svc) = &rec.result.svc {
        return (
            svc.completed(),
            svc.response.quantile(0.50),
            svc.response.quantile(0.90),
            svc.response.quantile(0.99),
            svc.queue_peak,
        );
    }
    let rep = rec.report.as_ref().expect("svc jobs are observed");
    let h = rep.hist("svc_response").expect("svc run reports a tail");
    let counter = |n: &str| {
        rep.counters
            .iter()
            .find(|(name, _)| name == n)
            .map(|&(_, v)| v)
            .expect("svc run reports service counters")
    };
    (
        counter("svc_completed"),
        h.p50,
        h.p90,
        h.p99,
        counter("svc_queue_peak"),
    )
}

/// One sweep/check cell as a JSON object line.
fn cell_json(mode: &str, gap: u64, rec: &RunRecord, base: usize) -> String {
    let (completed, p50, p90, p99, peak) = tail(rec);
    format!(
        "{p}{{\"mode\": \"{mode}\", \"mean_gap\": {gap}, \"completed\": {completed}, \
         \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"queue_peak\": {peak}, \
         \"total_cycles\": {}, \"checksum\": \"{:#x}\"}}",
        rec.result.total_cycles,
        rec.result.checksum,
        p = " ".repeat(base),
    )
}

fn report_doc(gaps: &[u64], records: &[RunRecord]) -> String {
    let mut out = String::from("{\n  \"cells\": [\n");
    let mut idx = 0;
    for label in ALL_MODE_LABELS {
        for &gap in gaps {
            let comma = if idx + 1 == records.len() { "" } else { "," };
            out.push_str(&cell_json(label, gap, &records[idx], 4));
            out.push_str(comma);
            out.push('\n');
            idx += 1;
        }
    }
    out.push_str("  ]\n}\n");
    out
}

/// Builds the mode × gap grid in a fixed order (modes outer, gaps inner).
fn sweep_grid(params: &SysParams, gaps: &[u64], verify: bool, obs: bool) -> Grid {
    let mut grid = Grid::new();
    for label in ALL_MODE_LABELS {
        // invariant: every ALL_MODE_LABELS entry is a known label.
        let protocol = protocol_from_label(label).expect("known mode label");
        for &gap in gaps {
            let spec = WorkloadSpec::Svc(Svc::default().at_mean_gap(gap));
            grid.add(Job {
                obs,
                verify,
                ..Job::new(
                    format!("Svc/{label}/gap{gap}"),
                    params.clone(),
                    protocol,
                    spec,
                )
            });
        }
    }
    grid
}

fn print_table(gaps: &[u64], records: &[RunRecord]) {
    println!(
        "{:<8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>6}",
        "mode", "mean_gap", "done", "p50", "p90", "p99", "qpeak"
    );
    let mut idx = 0;
    for label in ALL_MODE_LABELS {
        for &gap in gaps {
            let (completed, p50, p90, p99, peak) = tail(&records[idx]);
            println!("{label:<8} {gap:>9} {completed:>7} {p50:>9} {p90:>9} {p99:>9} {peak:>6}");
            idx += 1;
        }
    }
}

/// Sweep mode: modes × gaps, tail table, optional JSON export.
fn sweep(o: &Opts) -> ExitCode {
    let gaps = o.gaps.clone().unwrap_or(SWEEP_GAPS.to_vec());
    let params = o.params(4);
    let records = o.engine().run(&sweep_grid(&params, &gaps, false, true));
    println!(
        "svc rate sweep: nprocs {}, {} requests/run, gaps {gaps:?} cycles",
        params.nprocs,
        Svc::default().requests,
    );
    print_table(&gaps, &records);
    if let Some(dir) = &o.out_dir {
        write_file(&dir.join("svc_report.json"), &report_doc(&gaps, &records));
        println!("wrote svc_report.json to {}", dir.display());
    }
    ExitCode::SUCCESS
}

/// `--check` mode: the CI tail-latency gate (see the module docs).
fn check(o: &Opts) -> ExitCode {
    let params = o.params(4);
    // The sweep cells run the oracle; svc stats come straight off the
    // results (the gate pins its own loads and never touches the cache).
    let build_grid = || {
        let mut grid = sweep_grid(&params, &CHECK_GAPS, true, false);
        // The twin pair: I+P+D at the moderate load, 1% frame drop vs
        // fault-free, appended after the sweep cells.
        let protocol = protocol_from_label("I+P+D").expect("known mode label");
        let spec = WorkloadSpec::Svc(Svc::default().at_mean_gap(CHECK_GAPS[1]));
        let job = Job {
            verify: true,
            ..Job::new("Svc/I+P+D", params.clone(), protocol, spec)
        };
        let plan = FaultPlan {
            seed: CHECK_SEED,
            drop_permille: CHECK_DROP_PERMILLE,
            ..FaultPlan::none()
        };
        gate::add_twins(&mut grid, job, &plan, ["drop1pct", "clean-twin"]);
        grid
    };

    let sweep_cells = ALL_MODE_LABELS.len() * CHECK_GAPS.len();
    let run_once = |jobs: usize| -> (Vec<RunRecord>, String) {
        let records = o.engine().with_jobs(jobs).no_cache().run(&build_grid());
        let doc = report_doc(&CHECK_GAPS, &records[..sweep_cells]);
        (records, doc)
    };

    let (records, doc) = run_once(1);
    let mut gate = Gate::default();

    // 1. Every run is oracle-silent, and the checksum is the same in every
    //    cell: the service state machine is protocol- and load-invariant.
    let expect_ck = records[0].result.checksum;
    for rec in &records {
        let r = &rec.result;
        gate.ensure(r.violations.is_empty(), || {
            format!(
                "check: {}: {} oracle violation(s)",
                r.protocol,
                r.violations.len()
            )
        });
        gate.ensure(r.checksum == expect_ck, || {
            format!(
                "check: checksum drift: {:#x} != {:#x}",
                r.checksum, expect_ck
            )
        });
        let (completed, ..) = tail(rec);
        gate.ensure(completed == Svc::default().requests, || {
            format!(
                "check: lost requests: served {completed} of {}",
                Svc::default().requests
            )
        });
    }
    if !o.quiet {
        print_table(&CHECK_GAPS, &records[..sweep_cells]);
    }

    // 2. At the highest pre-saturation load, overlap must beat Base on the
    //    tail: hiding fetch/diff latency drains the queue faster, and the
    //    open loop turns that directly into response time.
    let cell = |mode: &str, gap_idx: usize| -> &RunRecord {
        let mode_idx = ALL_MODE_LABELS
            .iter()
            .position(|&l| l == mode)
            .expect("known mode label");
        &records[mode_idx * CHECK_GAPS.len() + gap_idx]
    };
    let hot = CHECK_GAPS.len() - 1;
    let (_, _, _, p99_base, _) = tail(cell("Base", hot));
    let (_, _, _, p99_ipd, _) = tail(cell("I+P+D", hot));
    gate.ensure(p99_ipd < p99_base, || {
        format!(
            "check: overlap does not help the tail: p99(I+P+D) = {p99_ipd} >= \
             p99(Base) = {p99_base} at mean_gap {}",
            CHECK_GAPS[hot]
        )
    });

    // 3. The faulted twin: same memory, bounded tail.
    let (faulted, clean) = (&records[sweep_cells], &records[sweep_cells + 1]);
    gate::twins(
        &mut gate,
        "check: drop twin",
        &faulted.result,
        &clean.result,
    );
    gate.ensure(faulted.result.fault.injected() > 0, || {
        "check: the drop plan injected no faults — the twin is not being exercised".into()
    });
    let (_, _, _, p99_faulted, _) = tail(faulted);
    let (_, _, _, p99_clean, _) = tail(clean);
    let inflation = p99_faulted as f64 / p99_clean.max(1) as f64;
    gate.ensure(inflation <= MAX_TAIL_INFLATION, || {
        format!(
            "check: tail inflation unbounded under 1% drop: {inflation:.2}x > \
             {MAX_TAIL_INFLATION}x ({p99_faulted} vs {p99_clean} cycles p99)"
        )
    });

    // 4. Byte-determinism across worker counts: the artifact built from a
    //    single-worker pass must equal the eight-worker pass exactly.
    let (_, doc8) = run_once(8);
    gate::parity(
        &mut gate,
        "check: svc_report.json (--jobs 1 vs --jobs 8)",
        &doc,
        &doc8,
    );

    if let Some(dir) = &o.out_dir {
        write_file(&dir.join("svc_report.json"), &doc);
        if !o.quiet {
            println!("wrote svc_report.json to {}", dir.display());
        }
    }
    gate.verdict(|| {
        format!(
            "svc check passed: {} cells oracle-silent, checksum {:#x} invariant, \
             p99(I+P+D) {p99_ipd} < p99(Base) {p99_base} at mean_gap {}, drop-twin \
             inflation {inflation:.2}x <= {MAX_TAIL_INFLATION}x, export deterministic \
             across worker counts",
            records.len(),
            expect_ck,
            CHECK_GAPS[hot]
        )
    })
}

fn main() -> ExitCode {
    let o = Opts::parse_with(&FLAGS, &[]);
    if o.check {
        check(&o)
    } else {
        sweep(&o)
    }
}
