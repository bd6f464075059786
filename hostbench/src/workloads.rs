//! The three benchmark workloads: their inputs (derived from `--seed`),
//! their pinned outputs, and one timed execution of each.
//!
//! A single-workload execution goes through `ncp2::apps::run_app_with`, the
//! program's own run path; its `configure` hook runs after
//! `Simulation::new` and just before the simulation starts, which is where
//! set-up ends.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ncp2::apps::{run_app, run_app_with, sequential_baseline};
use ncp2::prelude::*;
use ncp2_bench::engine::{tier1_workloads, Engine, Grid, Job, RunRecord, WorkloadSpec};
use ncp2_bench::harness::{protocol_from_label, ALL_MODE_LABELS};
use ncp2_fault::FaultPlan;
use ncp2_verify::VerifyOracle;

use crate::report::Checks;
use crate::sys::Usage;

/// Every workload the binary runs, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["em3d-256-ipd", "svc-16-ipd", "tier1-grid"];

/// Requests in the `svc-16-ipd` stream: enough that 16 lie beyond p99.9.
pub const SVC_REQUESTS: u64 = 16_000;

/// Checksums at the default seed (0). The DSM is transparent, so each holds
/// at every cluster size and under every protocol mode; the Em3d value is
/// the scale sweep's pin, and the tier-1 values are those of
/// `tier1_workloads()`.
const EM3D_CHECKSUM: u64 = 0x495a_2ea7_5660_24b4;
const SVC_CHECKSUM: u64 = 0x73ca_a6ed_91c1_041a;
const TIER1_CHECKSUMS: [(&str, u64); 7] = [
    ("TSP", 0x910),
    ("Water", 0x3d82_2648_3256_821f),
    ("Radix", 0x2a3f_f3b5_82cb_45e3),
    ("Barnes", 0xa3d9_f3c5_5326_dc69),
    ("Em3d", 0xce9f_3660_7d52_33c4),
    ("Ocean", 0x3388_2a88_08ae_d0be),
    ("Svc", 0x9d93_e4b2_8bb1_e7eb),
];

/// Simulated cycles at the default seed: of `em3d-256-ipd`, of
/// `svc-16-ipd`, and summed over the 56 runs of `tier1-grid`'s cold pass.
/// Simulated time is exact, so a host-only change leaves each unchanged.
const EM3D_CYCLES: u64 = 386_545_386;
const SVC_CYCLES: u64 = 41_453_822;
const GRID_CYCLES: u64 = 17_984_607;

/// Maps a benchmark seed onto a workload's own seed. Seed 0 is the
/// workload's canonical input, whose outputs are pinned above.
pub fn derive_seed(canonical: u64, seed: u64) -> u64 {
    canonical.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Re-seeds a tier-1 workload. Ocean's input has no random component, so
/// it is the same for every seed.
fn reseed(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    match spec {
        WorkloadSpec::Tsp(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Tsp(w)
        }
        WorkloadSpec::Water(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Water(w)
        }
        WorkloadSpec::Radix(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Radix(w)
        }
        WorkloadSpec::Barnes(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Barnes(w)
        }
        WorkloadSpec::Em3d(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Em3d(w)
        }
        WorkloadSpec::Svc(mut w) => {
            w.seed = derive_seed(w.seed, seed);
            WorkloadSpec::Svc(w)
        }
        other => other,
    }
}

/// One simulated run of a single application.
#[derive(Debug, Clone)]
pub struct Single {
    /// Application input.
    pub spec: WorkloadSpec,
    /// Machine (processor count).
    pub params: SysParams,
    /// Protocol mode.
    pub protocol: Protocol,
}

/// A benchmark workload.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Bench {
    /// One application run, timed as set-up plus simulation.
    Single(Single),
    /// The tier-1 grid through the experiment engine, cold then warm.
    Grid(Vec<(&'static str, WorkloadSpec)>),
}

impl Bench {
    /// The workload called `name` at `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Bench> {
        let single = |spec, nprocs, protocol| {
            Bench::Single(Single {
                spec,
                params: SysParams::default().with_nprocs(nprocs),
                protocol,
            })
        };
        let ipd = Protocol::TreadMarks(OverlapMode::IPD);
        Some(match name {
            "em3d-256-ipd" => single(
                WorkloadSpec::Em3d(Em3d {
                    nodes: 512,
                    degree: 2,
                    remote_pct: 25,
                    iters: 2,
                    seed: derive_seed(15, seed),
                }),
                256,
                ipd,
            ),
            "svc-16-ipd" => single(
                WorkloadSpec::Svc(Svc {
                    requests: SVC_REQUESTS,
                    mean_gap: 2_000,
                    seed: derive_seed(Svc::default().seed, seed),
                    ..Svc::default()
                }),
                16,
                ipd,
            ),
            "tier1-grid" => Bench::Grid(
                tier1_workloads()
                    .into_iter()
                    .map(|(name, spec)| (name, reseed(spec, seed)))
                    .collect(),
            ),
            _ => return None,
        })
    }
}

/// What a workload must output at a seed.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Each application's checksum, in the order the workload runs them.
    pub checksums: Vec<(&'static str, u64)>,
    /// Simulated cycles, pinned at seed 0. At other seeds there is no pin,
    /// and every execution must repeat the first one's cycles.
    pub cycles: Option<u64>,
}

/// The outputs `bench` must produce at `seed`: the pinned values at seed 0,
/// otherwise checksums from a reference run of the same input on fewer
/// processors (4 for a single workload, 1 for the tier-1 grid).
pub fn expected(bench: &Bench, seed: u64) -> Expected {
    let pinned = seed == 0;
    match bench {
        Bench::Single(s) => {
            let name = s.spec.build().name();
            let (sum, cycles) = match &s.spec {
                WorkloadSpec::Em3d(_) => (EM3D_CHECKSUM, EM3D_CYCLES),
                _ => (SVC_CHECKSUM, SVC_CYCLES),
            };
            let sum = if pinned {
                sum
            } else {
                run_app(s.params.clone().with_nprocs(4), s.protocol, s.spec.build()).checksum
            };
            Expected {
                checksums: vec![(name, sum)],
                cycles: pinned.then_some(cycles),
            }
        }
        Bench::Grid(apps) => Expected {
            checksums: apps
                .iter()
                .map(|(name, spec)| {
                    let sum = if pinned {
                        TIER1_CHECKSUMS
                            .iter()
                            .find(|(n, _)| n == name)
                            .map_or(0, |&(_, c)| c)
                    } else {
                        sequential_baseline(&SysParams::default(), spec.build()).checksum
                    };
                    (*name, sum)
                })
                .collect(),
            cycles: pinned.then_some(GRID_CYCLES),
        },
    }
}

/// What one execution of a single workload records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recording {
    /// Attach the verify oracle (part of every timed run).
    pub verify: bool,
    /// Record the span log (traced runs only).
    pub obs: bool,
    /// Record the windowed time series (traced runs only).
    pub timeseries: bool,
}

/// Host cost of one timed execution.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Set-up: building the input, the simulated machine and the oracle.
    pub setup: Duration,
    /// The whole execution, set-up included.
    pub wall: Duration,
    /// Process CPU time and context switches over the execution.
    pub usage: Usage,
}

/// Runs `s` once through `run_app_with`, timing set-up apart from the
/// simulation.
pub fn run_single(s: &Single, rec: Recording) -> (Timing, RunResult) {
    let u0 = Usage::now();
    let t0 = Instant::now();
    let workload = s.spec.build();
    let racy = workload.racy_ranges();
    let mut setup = Duration::ZERO;
    let result = run_app_with(s.params.clone(), s.protocol, workload, |sim| {
        if rec.verify {
            let mut oracle = VerifyOracle::new(&s.params, &s.protocol);
            for range in racy {
                oracle.exempt_range(range);
            }
            sim.attach_observer(Box::new(oracle));
        }
        if rec.obs {
            sim.enable_obs();
        }
        if rec.timeseries {
            sim.enable_timeseries();
        }
        setup = t0.elapsed();
    });
    let wall = t0.elapsed();
    let usage = Usage::now().since(&u0);
    (Timing { setup, wall, usage }, result)
}

/// Output checks on one single-workload result.
pub fn check_single(checks: &mut Checks, s: &Single, expected: u64, r: &RunResult) {
    let name = s.spec.build().name();
    if r.checksum != expected {
        eprintln!("{name}: checksum {:#x}, expected {expected:#x}", r.checksum);
    }
    checks.check(format!("{name}: checksum"), r.checksum == expected);
    checks.check(format!("{name}: oracle silent"), r.violations.is_empty());
    if let WorkloadSpec::Svc(svc) = &s.spec {
        let completed = r.svc.as_ref().map_or(0, |v| v.completed());
        checks.check(
            format!("{name}: completed = offered"),
            completed == svc.requests,
        );
    }
}

/// Checks one execution's simulated cycles against `want`: the pinned
/// value if there is one, otherwise the first execution's, which `want`
/// then keeps.
pub fn check_cycles(checks: &mut Checks, want: &mut Option<u64>, got: u64) {
    let want = *want.get_or_insert(got);
    if got != want {
        eprintln!("simulated cycles {got}, expected {want}");
    }
    checks.check("simulated cycles", got == want);
}

/// The tier-1 grid: every application under every mode at 4 processors,
/// observed and oracle-verified.
pub fn build_grid(apps: &[(&'static str, WorkloadSpec)], verify: bool, timeseries: bool) -> Grid {
    let params = SysParams::default().with_nprocs(4);
    let mut grid = Grid::new();
    for label in ALL_MODE_LABELS {
        // invariant: ALL_MODE_LABELS are exactly the labels the parser takes.
        let protocol = protocol_from_label(label).expect("known mode label");
        for (name, spec) in apps {
            grid.add(Job {
                label: format!("{name}/{label}"),
                params: params.clone(),
                protocol,
                workload: spec.clone(),
                obs: true,
                fault: FaultPlan::none(),
                verify,
                timeseries,
            });
        }
    }
    grid
}

/// One cold-then-warm pass of the grid through a one-worker engine.
pub struct GridPass {
    /// Host cost; `setup` is described at [`run_grid`].
    pub timing: Timing,
    /// Host time of the cold pass (every job simulated and stored).
    pub cold_wall: Duration,
    /// Host time of the warm pass (every job loaded).
    pub warm_wall: Duration,
    /// Cold-pass records, in grid order.
    pub cold: Vec<RunRecord>,
    /// Warm-pass records, in grid order.
    pub warm: Vec<RunRecord>,
}

/// Runs the grid cold into an empty cache directory under `work`, then
/// warm from it. `prof` turns on the engine's per-phase host attribution.
///
/// Set-up is building the grid and the engine, plus the engine's own
/// per-job `setup` laps (building each workload), which only `prof`
/// records; the warm pass loads every job and so has none.
pub fn run_grid(apps: &[(&'static str, WorkloadSpec)], work: &Path, prof: bool) -> GridPass {
    let cache = cache_dir(work);
    let _ = std::fs::remove_dir_all(&cache);
    let u0 = Usage::now();
    let t0 = Instant::now();
    let grid = build_grid(apps, true, false);
    let mut engine = Engine::new().with_jobs(1).silent();
    engine.cache_dir = Some(cache.clone());
    if prof {
        engine = engine.with_prof();
    }
    let built = t0.elapsed();
    let cold = engine.run(&grid);
    let t1 = Instant::now();
    let warm = engine.run(&grid);
    let t2 = Instant::now();
    let usage = Usage::now().since(&u0);
    let setup = built + Duration::from_secs_f64(phase_s(&cold, "setup"));
    GridPass {
        timing: Timing {
            setup,
            wall: t2 - t0,
            usage,
        },
        cold_wall: t1 - t0 - built,
        warm_wall: t2 - t1,
        cold,
        warm,
    }
}

/// Output checks on one grid pass.
pub fn check_grid(checks: &mut Checks, expected: &[(&'static str, u64)], pass: &GridPass) {
    for (phase, records) in [("cold", &pass.cold), ("warm", &pass.warm)] {
        for (i, r) in records.iter().enumerate() {
            let (name, sum) = expected[i % expected.len()];
            let label = r
                .report
                .as_ref()
                .map_or(name.to_string(), |m| m.name.clone());
            if r.result.checksum != sum {
                eprintln!(
                    "{label}: checksum {:#x}, expected {sum:#x}",
                    r.result.checksum
                );
            }
            checks.check(
                format!("{label} {phase}: checksum"),
                r.result.checksum == sum,
            );
            checks.check(
                format!("{label} {phase}: oracle silent"),
                r.result.violations.is_empty(),
            );
        }
    }
    checks.check(
        "grid cold: no cache hits",
        pass.cold.iter().all(|r| !r.cached),
    );
    checks.check(
        "grid warm: cache hit ratio = 1.0",
        hit_ratio(&pass.warm) == 1.0,
    );
}

/// Sum of one host phase's wall time over `records`, in seconds (0 unless
/// the engine ran with per-phase attribution).
pub fn phase_s(records: &[RunRecord], phase: &str) -> f64 {
    records
        .iter()
        .flat_map(|r| &r.host)
        .filter(|(name, _)| name == phase)
        .map(|(_, h)| h.wall_ns as f64 / 1e9)
        .sum()
}

/// Share of records served from the cache.
pub fn hit_ratio(records: &[RunRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter(|r| r.cached).count() as f64 / records.len() as f64
}

/// Bytes stored under `dir` (one level deep, as the cache lays entries out).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The cache directory a grid pass under `work` uses.
pub fn cache_dir(work: &Path) -> PathBuf {
    work.join("cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ocean() -> Single {
        Single {
            spec: WorkloadSpec::Ocean(Ocean { grid: 8, iters: 1 }),
            params: SysParams::default().with_nprocs(2),
            protocol: Protocol::TreadMarks(OverlapMode::Base),
        }
    }

    #[test]
    fn a_wrong_pinned_checksum_is_a_named_failure() {
        let s = tiny_ocean();
        let verify = Recording {
            verify: true,
            ..Default::default()
        };
        let (_, r) = run_single(&s, verify);
        let mut right = Checks::default();
        check_single(&mut right, &s, r.checksum, &r);
        right.end_execution();
        assert_eq!((right.attempted(), right.failed()), (2, 0));
        assert_eq!(right.pass_frac(), 1.0);
        let mut wrong = Checks::default();
        check_single(&mut wrong, &s, r.checksum ^ 1, &r);
        wrong.end_execution();
        assert_eq!((wrong.attempted(), wrong.failed()), (2, 1));
        assert_eq!(wrong.pass_frac(), 0.0);
        assert!(wrong
            .results
            .iter()
            .any(|(name, ok)| name == "Ocean: checksum" && !ok));
    }

    #[test]
    fn a_moved_simulated_time_is_a_failure() {
        let mut checks = Checks::default();
        let mut pinned = Some(1_000);
        check_cycles(&mut checks, &mut pinned, 1_000);
        check_cycles(&mut checks, &mut pinned, 1_001);
        assert_eq!((checks.attempted(), checks.failed()), (2, 1));
        // Without a pin, the first execution sets the reference.
        let mut checks = Checks::default();
        let mut first = None;
        for got in [7, 7, 8] {
            check_cycles(&mut checks, &mut first, got);
        }
        assert_eq!(first, Some(7));
        assert_eq!((checks.attempted(), checks.failed()), (3, 1));
    }

    #[test]
    fn setup_ends_before_the_simulation() {
        let (t, _) = run_single(&tiny_ocean(), Recording::default());
        assert!(t.setup > Duration::ZERO);
        assert!(t.setup < t.wall);
    }

    #[test]
    fn seed_zero_is_the_canonical_input() {
        assert_eq!(derive_seed(15, 0), 15);
        assert_ne!(derive_seed(15, 1), derive_seed(15, 2));
        for name in NAMES {
            assert!(Bench::new(name, 0).is_some(), "{name}");
        }
        assert!(Bench::new("nope", 0).is_none());
    }

    #[test]
    fn pinned_checksums_match_sequential_runs() {
        for name in NAMES {
            let bench = Bench::new(name, 0).expect("known workload");
            let pinned = expected(&bench, 0).checksums;
            let specs: Vec<WorkloadSpec> = match &bench {
                Bench::Single(s) => vec![s.spec.clone()],
                Bench::Grid(apps) => apps.iter().map(|(_, w)| w.clone()).collect(),
            };
            for ((app, sum), spec) in pinned.iter().zip(specs) {
                let seq = sequential_baseline(&SysParams::default(), spec.build());
                assert_eq!(seq.checksum, *sum, "{name}: {app}");
            }
        }
    }
}
