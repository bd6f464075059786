//! `chaos_report` — fault-injection sweep and CI chaos gate.
//!
//! Two modes:
//!
//! * **Sweep** (default): runs the tier-1 workloads under one protocol mode
//!   at a series of frame-drop rates, through the parallel engine, and
//!   prints per-run retry histograms and overhead-cycle inflation relative
//!   to the fault-free baseline. The rate-0 column doubles as the baseline:
//!   a zero-rate plan is inactive, so those runs take the legacy send path.
//! * **`--check`** (the CI gate): every tier-1 workload under every
//!   protocol mode, once under a fixed chaos plan (drop + duplicate +
//!   corrupt + ack loss + a latency spike that forces reordering) with the
//!   verification oracle attached, and once fault-free. The gate fails —
//!   exit code 1 — unless every faulted run (a) finishes with a checksum
//!   byte-equal to its fault-free twin, (b) reports zero oracle violations,
//!   and (c) stays within the bounded-degradation budget of 3x the
//!   fault-free total cycles at the 1% drop rate. It also fails if the plan
//!   injected no faults or triggered no retransmissions anywhere, which
//!   would mean the gate stopped exercising the transport.
//!
//! ```sh
//! # Sweep drop rates 0/5/10/20 permille under I+P+D.
//! cargo run --release --bin chaos_report
//!
//! # Sweep custom rates under AURC+P with 8 workers.
//! cargo run --release --bin chaos_report -- --mode AURC+P --rates 0,2,50 --jobs 8
//!
//! # CI gate: 7 tier-1 workloads x 8 modes, faulted vs fault-free.
//! cargo run --release --bin chaos_report -- --check --quiet
//! ```

use std::process::ExitCode;

use ncp2_bench::engine::{tier1_workloads, Grid, Job, RunRecord};
use ncp2_bench::gate::{self, Gate};
use ncp2_bench::harness::{protocol_from_label, Opts, ALL_MODE_LABELS};
use ncp2_fault::{FaultPlan, LinkWindow};

/// Fault seed for both modes; fixed so runs are reproducible by default.
const CHAOS_SEED: u64 = 0xC4A05;

/// Faulted runs must finish within this multiple of their fault-free twin's
/// total cycles at the `--check` drop rate (1%).
const MAX_SLOWDOWN: f64 = 3.0;

/// Flags beyond the engine flags.
const FLAGS: [&str; 5] = ["--mode", "--rates", "--nprocs", "--seed", "--check"];

/// The sweep plan: pure frame loss at `rate` permille. Rate 0 is inactive
/// (legacy path) and serves as the fault-free baseline column.
fn drop_plan(seed: u64, rate: u16) -> FaultPlan {
    FaultPlan {
        seed,
        drop_permille: rate,
        ..FaultPlan::none()
    }
}

/// The `--check` plan: 1% drop plus duplicates, detected corruption, ack
/// loss, and one latency spike large enough to overtake in-flight frames
/// (genuine reordering) on the busiest link.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_permille: 10,
        dup_permille: 5,
        corrupt_permille: 5,
        ack_faults: true,
        spikes: vec![LinkWindow {
            src: 0,
            dst: 1,
            start: 0,
            end: 500_000,
            extra: 3_000,
        }],
        ..FaultPlan::none()
    }
}

fn retx_histogram(r: &RunRecord) -> String {
    let counts = r.result.fault.retx_by_attempt;
    let body = counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    format!("[{body}]")
}

/// Sweep mode: apps x drop rates under one protocol, inflation vs rate 0.
fn sweep(o: &Opts) -> ExitCode {
    let (mode, protocol) = o.mode_or("I+P+D");
    let rates = o.rates.clone().unwrap_or(vec![0, 5, 10, 20]);
    let (params, seed) = (o.params(4), o.seed.unwrap_or(CHAOS_SEED));
    let mut grid = Grid::new();
    for (name, spec) in tier1_workloads() {
        for &rate in &rates {
            grid.add(Job {
                fault: drop_plan(seed, rate),
                ..Job::new(
                    format!("{name}/{mode}/drop{rate}"),
                    params.clone(),
                    protocol,
                    spec.clone(),
                )
            });
        }
    }
    let records = o.engine().run(&grid);

    println!(
        "chaos sweep: mode {mode}, nprocs {}, seed {seed:#x}, rates {rates:?} permille",
        params.nprocs
    );
    println!(
        "{:<8} {:>5}  {:>14} {:>8} {:>8} {:>6} {:>6}  retx_by_attempt",
        "app", "rate", "cycles", "infl", "retx", "drops", "shed"
    );
    let mut gate = Gate::default();
    let per_app = rates.len();
    for (app_idx, chunk) in records.chunks(per_app).enumerate() {
        // Records come back in grid order: rates grouped per app, and the
        // first rate in the default list (0) is the baseline. When the user
        // passes a custom rate list, inflation is relative to its first entry.
        let base_cycles = chunk[0].result.total_cycles.max(1);
        let (app_name, _) = tier1_workloads()[app_idx].clone();
        for (rate, rec) in rates.iter().zip(chunk) {
            let f = &rec.result.fault;
            println!(
                "{:<8} {:>4}‰  {:>14} {:>7.3}x {:>8} {:>6} {:>6}  {}",
                app_name,
                rate,
                rec.result.total_cycles,
                rec.result.total_cycles as f64 / base_cycles as f64,
                f.retransmits,
                f.drops_injected,
                f.prefetch_shed,
                retx_histogram(rec)
            );
            let violations = rec.result.violations.len();
            gate.ensure(violations == 0, || {
                format!("{}: {violations} oracle violation(s)", rec.result.protocol)
            });
        }
    }
    gate.exit_code()
}

/// `--check` mode: the CI chaos gate (see the module docs for the criteria).
fn check(o: &Opts) -> ExitCode {
    let params = o.params(4);
    let plan = chaos_plan(o.seed.unwrap_or(CHAOS_SEED));
    let mut grid = Grid::new();
    let mut names = Vec::new();
    for label in ALL_MODE_LABELS {
        // invariant: every ALL_MODE_LABELS entry is a known label.
        let protocol = protocol_from_label(label).expect("known mode label");
        for (name, spec) in tier1_workloads() {
            let name = format!("{name}/{label}");
            let job = Job {
                verify: true,
                timeseries: true,
                ..Job::new(&name, params.clone(), protocol, spec)
            };
            // Faulted run first, fault-free twin second: the pairing below
            // walks the records two at a time in grid order.
            gate::add_twins(&mut grid, job, &plan, ["chaos", "clean"]);
            names.push(name);
        }
    }
    let records = o.engine().run(&grid);

    let mut gate = Gate::default();
    let assertions = ncp2_obs::default_check_assertions();
    let (mut injected, mut retransmits, mut firings) = (0u64, 0u64, 0usize);
    for (name, pair) in names.iter().zip(records.chunks(2)) {
        let (chaos, clean) = (&pair[0].result, &pair[1].result);
        injected += chaos.fault.injected();
        retransmits += chaos.fault.retransmits;
        // Window assertions: faulted runs may fire (the aggregate must,
        // below); a fault-free run has no hardened transport and must not.
        // invariant: both check jobs set `timeseries`, so both carry a log.
        let chaos_ts = chaos.ts.as_ref().expect("check jobs record a time series");
        let clean_ts = clean.ts.as_ref().expect("check jobs record a time series");
        firings += ncp2_obs::evaluate_all(&assertions, chaos_ts).len();
        for f in ncp2_obs::evaluate_all(&assertions, clean_ts) {
            gate.fail(format!(
                "{name} (clean): assertion '{}' fired on a fault-free run \
                 (windows {}..={}, cycles {}..{})",
                f.assertion, f.first_window, f.last_window, f.start_cycle, f.end_cycle
            ));
        }
        gate::twins(&mut gate, name, chaos, clean);
        let slowdown = chaos.total_cycles as f64 / clean.total_cycles.max(1) as f64;
        gate.ensure(slowdown <= MAX_SLOWDOWN, || {
            format!(
                "{name}: degradation unbounded: {slowdown:.2}x > {MAX_SLOWDOWN}x \
                 ({} vs {} cycles)",
                chaos.total_cycles, clean.total_cycles
            )
        });
        if !o.quiet {
            println!(
                "{name}: checksum ok, {:>4} retx, {:>4} injected, {slowdown:.2}x",
                chaos.fault.retransmits,
                chaos.fault.injected()
            );
        }
    }
    gate.ensure(injected > 0, || {
        "chaos gate injected no faults at all — the plan is not being exercised".into()
    });
    gate.ensure(retransmits > 0, || {
        "chaos gate triggered no retransmissions — the transport is not being exercised".into()
    });
    gate.ensure(firings > 0, || {
        "chaos gate fired no window assertions anywhere — the time-series \
         recorder is not seeing the faults"
            .into()
    });
    gate.verdict(|| {
        format!(
            "chaos check passed: {} runs, {injected} faults injected, {retransmits} \
             retransmissions, {firings} assertion firings (faulted runs only), \
             checksums equal, zero violations, slowdown <= {MAX_SLOWDOWN}x",
            records.len()
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
