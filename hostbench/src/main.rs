//! `hostbench` — the end-to-end host benchmark of the NCP2 simulator.
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--iterations K]
//! ```
//!
//! With `--trace 0` it executes the workload repeatedly for `S` seconds
//! (after one untimed warm-up) and prints the end-to-end metrics: host
//! times as the least over the executions, peak memory as their median.
//! With `--trace 1` it prints the per-layer split:
//! counts from the run, times from one untraced, one oracle-off and one
//! traced execution, and unit costs from probes of each crate's public API.
//! Either way the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `run.py` builds this
//! binary, pins it to one CPU and adds the unpinned slowdown.

mod layers;
mod probes;
mod report;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{least, median, percentile_supported, Checks, Output};
use workloads::{
    check_cycles, check_grid, check_single, expected, run_grid, run_single, Bench, Expected,
};

/// Fewest timed executions in a run.
const MIN_ITERATIONS: usize = 3;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    iterations: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".hostbench-work");
    let mut iterations = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--iterations" => {
                iterations = Some(value()?.parse().map_err(|e| format!("--iterations: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        iterations,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!(
            "hostbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("hostbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let expected = expected(&bench, args.seed);
    let out = if args.trace {
        layers::traced(&bench, &expected, &args.work_dir)
    } else {
        measured(&bench, &expected, &args)
    };
    let _ = std::fs::remove_dir_all(workloads::cache_dir(&args.work_dir));
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

/// The end-to-end run: repeated executions, checked outputs.
fn measured(bench: &Bench, expected: &Expected, args: &Args) -> Output {
    let mut checks = Checks::default();
    let (mut wall, mut cpu, mut setup, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut want_cycles = expected.cycles;
    let start = Instant::now();
    // Execution 0 is the untimed warm-up: it fills the allocator's and the
    // kernel's caches and finishes lazy set-up, which users pay once.
    for i in 0.. {
        let done = match args.iterations {
            Some(k) => i > k,
            None => i > MIN_ITERATIONS && start.elapsed().as_secs_f64() >= args.seconds + wall[0],
        };
        if done {
            break;
        }
        // Per-execution peaks: the process's lifetime high-water mark
        // drifts upward over a long run (see `reset_peak_rss`).
        sys::reset_peak_rss();
        let (timing, sim_cycles) = match bench {
            Bench::Single(s) => {
                let rec = workloads::Recording {
                    verify: true,
                    ..Default::default()
                };
                let (timing, r) = run_single(s, rec);
                check_single(&mut checks, s, expected.checksums[0].1, &r);
                if let Some(svc) = &r.svc {
                    let n = svc.response.count();
                    checks.check(
                        "Svc: at least 10 responses beyond p99.9",
                        percentile_supported(n, 0.999),
                    );
                }
                (timing, r.total_cycles)
            }
            Bench::Grid(apps) => {
                // Per-phase attribution on: it times the per-job set-up.
                let pass = run_grid(apps, &args.work_dir, true);
                check_grid(&mut checks, &expected.checksums, &pass);
                let sum = pass.cold.iter().map(|r| r.result.total_cycles).sum();
                (pass.timing, sum)
            }
        };
        check_cycles(&mut checks, &mut want_cycles, sim_cycles);
        checks.end_execution();
        wall.push(timing.wall.as_secs_f64());
        cpu.push(timing.usage.cpu.as_secs_f64());
        setup.push(timing.setup.as_secs_f64());
        rss.push(sys::peak_rss_mb());
    }
    let mut out = Output::new(&checks);
    // The warm-up execution is checked but not timed. Every execution does
    // the same simulated work, so host interference only adds to its
    // times, and the least of them is the steadiest estimate of what the
    // program itself costs (see NOTES.md for the measured spreads).
    out.put("wall_s", least(&wall[1..]), "s");
    out.put("cpu_s", least(&cpu[1..]), "s");
    out.put("setup_s", least(&setup[1..]), "s");
    out.put("peak_rss_mb", median(&rss[1..]), "MiB");
    // invariant: the loop ran at least once, so `want_cycles` is set.
    out.put(
        "sim_cycles",
        want_cycles.expect("one execution") as f64,
        "cycles",
    );
    out.put("pass_frac", checks.pass_frac(), "ratio");
    eprintln!(
        "hostbench: {} timed executions; wall {:?}; setup {:?}",
        wall.len() - 1,
        &wall[1..],
        &setup[1..]
    );
    out
}
