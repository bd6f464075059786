//! Parallel experiment engine: a work-queue scheduler over independent
//! simulation grid points, with content-hashed result caching.
//!
//! The paper's evaluation is a large grid — applications × protocol modes ×
//! processor counts × parameter sweeps — and every point is an independent,
//! deterministic simulation. The engine exploits exactly that: a [`Grid`] of
//! fully declarative [`Job`]s is executed by a bounded pool of
//! `std::thread` workers (one fresh `System` per job, so determinism is
//! untouched), and results are returned **in grid order**, never completion
//! order. A second run of an unchanged grid point is loaded from
//! `results/cache/` instead of re-simulated (see [`crate::cache`]).
//!
//! ## Cache-key scheme
//!
//! [`Job::cache_key`] feeds a fixed [`StableHasher`] with: the cache format
//! version, the `ncp2-bench` crate version, every `SysParams` field
//! (exhaustively — see `SysParams::stable_hash`), the protocol (including
//! its overlap mode), the observability and verification flags, the complete
//! fault plan (exhaustively — see `FaultPlan::stable_hash`), and the
//! complete workload configuration. Two jobs share a key **iff** they would
//! run the identical simulation. The key deliberately does not see source-code edits beyond
//! the version string, so anything that must observe a protocol change —
//! CI, golden tests, baseline regeneration — runs with the cache disabled
//! (`--no-cache` / [`Engine::no_cache`]); the cache exists to make
//! *unchanged* grid points free during iterative figure work.
//!
//! Jobs with `params.trace` set are never cached: their value is the raw
//! event timeline, which the cache does not persist. Jobs with
//! `timeseries` set are never cached for the same reason: their value is
//! the windowed [`ncp2::core::TsLog`], which the cache does not persist.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ncp2::apps::run_app_with;
use ncp2::prelude::*;
use ncp2::sim::StableHasher;
use ncp2_fault::FaultPlan;
use ncp2_obs::{HostPhase, MetricsReport};
use ncp2_prof::PhaseClock;
use ncp2_verify::VerifyOracle;

use crate::cache;

/// Fully declarative workload description — everything the engine needs to
/// rebuild (and hash) the exact workload of a grid point.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Explicitly configured TSP.
    Tsp(Tsp),
    /// Explicitly configured Water.
    Water(Water),
    /// Explicitly configured Radix.
    Radix(Radix),
    /// Explicitly configured Barnes.
    Barnes(Barnes),
    /// Explicitly configured Em3d.
    Em3d(Em3d),
    /// Explicitly configured Ocean.
    Ocean(Ocean),
    /// Explicitly configured open-loop service workload.
    Svc(Svc),
}

impl WorkloadSpec {
    /// Spec for an application by figure name ("TSP", "Water", ...), at the
    /// scaled default or the paper's problem size. The service workload has
    /// no separate paper size: the paper's closed-loop kernels don't cover
    /// it, so both sizes are tier-1.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn named(name: &str, paper_size: bool) -> WorkloadSpec {
        match (name, paper_size) {
            ("TSP", false) => WorkloadSpec::Tsp(Tsp::default()),
            ("TSP", true) => WorkloadSpec::Tsp(Tsp::paper()),
            ("Water", false) => WorkloadSpec::Water(Water::default()),
            ("Water", true) => WorkloadSpec::Water(Water::paper()),
            ("Radix", false) => WorkloadSpec::Radix(Radix::default()),
            ("Radix", true) => WorkloadSpec::Radix(Radix::paper()),
            ("Barnes", false) => WorkloadSpec::Barnes(Barnes::default()),
            ("Barnes", true) => WorkloadSpec::Barnes(Barnes::paper()),
            ("Em3d", false) => WorkloadSpec::Em3d(Em3d::default()),
            ("Em3d", true) => WorkloadSpec::Em3d(Em3d::paper()),
            ("Ocean", false) => WorkloadSpec::Ocean(Ocean::default()),
            ("Ocean", true) => WorkloadSpec::Ocean(Ocean::paper()),
            ("Svc", _) => WorkloadSpec::Svc(Svc::default()),
            _ => panic!("unknown application {name}"),
        }
    }

    /// Instantiates the workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Tsp(w) => Box::new(w.clone()),
            WorkloadSpec::Water(w) => Box::new(w.clone()),
            WorkloadSpec::Radix(w) => Box::new(w.clone()),
            WorkloadSpec::Barnes(w) => Box::new(w.clone()),
            WorkloadSpec::Em3d(w) => Box::new(w.clone()),
            WorkloadSpec::Ocean(w) => Box::new(w.clone()),
            WorkloadSpec::Svc(w) => Box::new(w.clone()),
        }
    }

    /// Feeds the complete workload configuration into a cache-key hasher.
    ///
    /// Like `SysParams::stable_hash`, the exhaustive destructuring makes
    /// "added a workload knob but forgot the cache key" a compile error.
    pub fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            WorkloadSpec::Tsp(Tsp {
                cities,
                prefix_depth,
                seed,
            }) => {
                h.write_str("tsp");
                h.write_usize(*cities);
                h.write_usize(*prefix_depth);
                h.write_u64(*seed);
            }
            WorkloadSpec::Water(Water {
                molecules,
                steps,
                seed,
            }) => {
                h.write_str("water");
                h.write_usize(*molecules);
                h.write_usize(*steps);
                h.write_u64(*seed);
            }
            WorkloadSpec::Radix(Radix {
                keys,
                radix,
                passes,
                seed,
            }) => {
                h.write_str("radix");
                h.write_usize(*keys);
                h.write_usize(*radix);
                h.write_usize(*passes);
                h.write_u64(*seed);
            }
            WorkloadSpec::Barnes(Barnes {
                bodies,
                steps,
                theta_16,
                seed,
            }) => {
                h.write_str("barnes");
                h.write_usize(*bodies);
                h.write_usize(*steps);
                h.write_u64(*theta_16 as u64);
                h.write_u64(*seed);
            }
            WorkloadSpec::Em3d(Em3d {
                nodes,
                degree,
                remote_pct,
                iters,
                seed,
            }) => {
                h.write_str("em3d");
                h.write_usize(*nodes);
                h.write_usize(*degree);
                h.write_u64(*remote_pct as u64);
                h.write_usize(*iters);
                h.write_u64(*seed);
            }
            WorkloadSpec::Ocean(Ocean { grid, iters }) => {
                h.write_str("ocean");
                h.write_usize(*grid);
                h.write_usize(*iters);
            }
            WorkloadSpec::Svc(Svc {
                requests,
                mean_gap,
                keys,
                sessions,
                put_permille,
                session_permille,
                skew_x100,
                service_compute,
                seed,
            }) => {
                h.write_str("svc");
                h.write_u64(*requests);
                h.write_u64(*mean_gap);
                h.write_usize(*keys);
                h.write_usize(*sessions);
                h.write_u64(*put_permille as u64);
                h.write_u64(*session_permille as u64);
                h.write_u64(*skew_x100 as u64);
                h.write_u64(*service_compute);
                h.write_u64(*seed);
            }
        }
    }
}

/// One grid point: a complete, self-contained run description.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label, conventionally `"APP/MODE"`; used for progress output
    /// and as the name of the derived [`MetricsReport`]. Not part of the
    /// cache key — the same configuration under two labels is one entry.
    pub label: String,
    /// Full system parameters (including `nprocs` and `trace`).
    pub params: SysParams,
    /// Protocol to run under.
    pub protocol: Protocol,
    /// Workload configuration.
    pub workload: WorkloadSpec,
    /// Record the observability timeline and derive a [`MetricsReport`].
    pub obs: bool,
    /// Fault plan injected into the run. [`FaultPlan::none`] (what every
    /// grid-builder convenience sets) leaves the hardened transport
    /// disengaged and the run byte-identical to a fault-free one.
    pub fault: FaultPlan,
    /// Attach the `ncp2-verify` shadow oracle (with the workload's annotated
    /// benign races exempted); violations land in the result.
    pub verify: bool,
    /// Record the windowed time-series log (`RunResult::ts`). Like trace
    /// jobs, time-series jobs bypass the cache: their value is the log,
    /// which the cache does not persist. Provably inert for the simulation
    /// itself — see `tests/timeseries_inert.rs`.
    pub timeseries: bool,
}

impl Job {
    /// A plain run: not observed, fault-free, no oracle, no time series.
    /// Set those with struct-update syntax (`Job { verify: true, ..job }`).
    pub fn new(
        label: impl Into<String>,
        params: SysParams,
        protocol: Protocol,
        workload: WorkloadSpec,
    ) -> Job {
        Job {
            label: label.into(),
            params,
            protocol,
            workload,
            obs: false,
            fault: FaultPlan::none(),
            verify: false,
            timeseries: false,
        }
    }

    /// Content hash identifying this job's result: equal keys ⇔ identical
    /// simulations (see the module docs for the exact scheme).
    pub fn cache_key(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(cache::FORMAT_VERSION);
        h.write_str(env!("CARGO_PKG_VERSION"));
        self.params.stable_hash(&mut h);
        h.write_str(&self.protocol.to_string());
        h.write_bool(self.obs);
        h.write_bool(self.verify);
        h.write_bool(self.timeseries);
        self.fault.stable_hash(&mut h);
        self.workload.stable_hash(&mut h);
        h.finish()
    }
}

/// One finished grid point, in grid order.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The simulation result. For cache hits, `trace` is empty and `obs` is
    /// `None` (the raw timeline is not persisted); every published
    /// statistic — cycles, checksum, per-node counters, traffic — is exact.
    pub result: RunResult,
    /// Derived metrics report for observed jobs (`Job::obs`), fresh or
    /// restored; its `name` is always the job's label.
    pub report: Option<MetricsReport>,
    /// Whether this record was loaded from the cache.
    pub cached: bool,
    /// Per-phase host-time/allocation attribution (`Engine::with_prof`
    /// runs only; empty otherwise). Cache hits attribute `cache_io` alone;
    /// fresh runs attribute `setup`/`sim`/`obs_export` plus `cache_io`
    /// when a cache is configured. Also mirrored into the report's `host`
    /// field — but never into the cache: host cost describes one
    /// particular execution, not the result.
    pub host: Vec<(String, HostPhase)>,
}

/// An ordered collection of jobs, built before anything runs.
///
/// Binaries declare their whole grid up front (the builder methods return
/// the job's index), hand it to [`Engine::run`], and then format results by
/// index — which is what makes output deterministic under any worker count.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    /// The jobs, in submission (= result) order.
    pub jobs: Vec<Job>,
}

impl Grid {
    /// An empty grid.
    pub fn new() -> Grid {
        Grid::default()
    }

    /// Adds a fully built job; returns its index.
    pub fn add(&mut self, job: Job) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Adds a protocol run of a named app.
    pub fn run(
        &mut self,
        params: &SysParams,
        protocol: Protocol,
        app: &str,
        paper_size: bool,
    ) -> usize {
        self.add(Job::new(
            format!("{app}/{}", protocol.label()),
            params.clone(),
            protocol,
            WorkloadSpec::named(app, paper_size),
        ))
    }

    /// Adds an observed (metrics-report-carrying) protocol run.
    pub fn run_obs(
        &mut self,
        params: &SysParams,
        protocol: Protocol,
        app: &str,
        paper_size: bool,
    ) -> usize {
        let at = self.run(params, protocol, app, paper_size);
        self.jobs[at].obs = true;
        at
    }

    /// Adds the 1-processor, protocol-free sequential baseline of an app
    /// (TreadMarks Base on one node — no remote party exists, so no
    /// protocol activity occurs).
    pub fn sequential(&mut self, params: &SysParams, app: &str, paper_size: bool) -> usize {
        self.add(Job::new(
            format!("{app}/seq"),
            params.clone().with_nprocs(1),
            Protocol::TreadMarks(OverlapMode::Base),
            WorkloadSpec::named(app, paper_size),
        ))
    }

    /// Adds the full `apps × protocols` product in row-major (app-outer)
    /// order; returns the starting index. This is the shared grid loop the
    /// figure and ablation binaries all build on.
    pub fn product(
        &mut self,
        params: &SysParams,
        apps: &[&str],
        protocols: &[Protocol],
        paper_size: bool,
    ) -> usize {
        let start = self.jobs.len();
        for app in apps {
            for &p in protocols {
                self.run(params, p, app, paper_size);
            }
        }
        start
    }
}

/// The tier-1 bench suite workloads: the six applications at oracle-test
/// sizes, small enough for CI, broad enough that a protocol-wide change
/// cannot hide. Shared by `obs_report --bench`, the determinism tests and
/// the cache property tests.
pub fn tier1_workloads() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        (
            "TSP",
            WorkloadSpec::Tsp(Tsp {
                cities: 6,
                prefix_depth: 2,
                seed: 11,
            }),
        ),
        (
            "Water",
            WorkloadSpec::Water(Water {
                molecules: 8,
                steps: 1,
                seed: 12,
            }),
        ),
        (
            "Radix",
            WorkloadSpec::Radix(Radix {
                keys: 256,
                radix: 16,
                passes: 2,
                seed: 13,
            }),
        ),
        (
            "Barnes",
            WorkloadSpec::Barnes(Barnes {
                bodies: 16,
                steps: 1,
                theta_16: 8,
                seed: 14,
            }),
        ),
        (
            "Em3d",
            WorkloadSpec::Em3d(Em3d {
                nodes: 96,
                degree: 2,
                remote_pct: 25,
                iters: 2,
                seed: 15,
            }),
        ),
        ("Ocean", WorkloadSpec::Ocean(Ocean { grid: 16, iters: 2 })),
        ("Svc", WorkloadSpec::Svc(Svc::default())),
    ]
}

/// Doubling processor counts 2..=256 — the scale sweep's x-axis. The paper
/// stops at 16; everything beyond is the ROADMAP's node-count dimension.
pub const SCALE_NPROCS: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// The scale-sweep workloads: two applications whose parallel structure
/// partitions cleanly to hundreds of processors (Ocean's row-block Jacobi,
/// Em3d's bipartite graph relaxation), sized so the full 2..=256 doubling
/// sweep stays CI-feasible. Their checksums are processor-count-invariant:
/// the DSM is transparent, so every size must compute identical data.
pub fn scale_workloads() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("Ocean", WorkloadSpec::Ocean(Ocean { grid: 32, iters: 2 })),
        (
            "Em3d",
            WorkloadSpec::Em3d(Em3d {
                nodes: 512,
                degree: 2,
                remote_pct: 25,
                iters: 2,
                seed: 15,
            }),
        ),
    ]
}

/// Builds the scale grid: every scale workload (optionally restricted to
/// `only_app`, case-insensitively) under each given mode label at each
/// given processor count, observed (for critical-path conservation checks)
/// and oracle-verified (violations land in the result).
///
/// # Panics
///
/// Panics on an unknown mode label.
pub fn scale_grid(nprocs: &[usize], mode_labels: &[&str], only_app: Option<&str>) -> Grid {
    let mut grid = Grid::new();
    for &np in nprocs {
        let params = SysParams::default().with_nprocs(np);
        for label in mode_labels {
            let protocol = crate::harness::protocol_from_label(label)
                .unwrap_or_else(|| panic!("unknown mode label {label}"));
            for (name, spec) in scale_workloads() {
                if only_app.is_some_and(|o| !o.eq_ignore_ascii_case(name)) {
                    continue;
                }
                grid.add(Job {
                    obs: true,
                    verify: true,
                    ..Job::new(
                        format!("{name}/{label}@{np}"),
                        params.clone(),
                        protocol,
                        spec,
                    )
                });
            }
        }
    }
    grid
}

/// Builds the tier-1 grid: every tier-1 workload under each of the given
/// mode labels (see `harness::ALL_MODE_LABELS`), observed, on 4 processors.
///
/// # Panics
///
/// Panics on an unknown mode label.
pub fn tier1_grid(mode_labels: &[&str]) -> Grid {
    let params = SysParams::default().with_nprocs(4);
    let mut grid = Grid::new();
    for label in mode_labels {
        let protocol = crate::harness::protocol_from_label(label)
            .unwrap_or_else(|| panic!("unknown mode label {label}"));
        for (name, spec) in tier1_workloads() {
            grid.add(Job {
                obs: true,
                ..Job::new(format!("{name}/{label}"), params.clone(), protocol, spec)
            });
        }
    }
    grid
}

/// Converts a finished phase clock into the report-facing host pairs.
fn host_phases(clock: PhaseClock) -> Vec<(String, HostPhase)> {
    clock
        .finish()
        .into_iter()
        .map(|(n, c)| {
            (
                n.to_string(),
                HostPhase {
                    wall_ns: c.wall_ns,
                    allocs: c.allocs,
                    alloc_bytes: c.alloc_bytes,
                },
            )
        })
        .collect()
}

/// The work-queue scheduler.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Worker threads (≥ 1).
    pub jobs: usize,
    /// Cache directory, or `None` when caching is disabled.
    pub cache_dir: Option<PathBuf>,
    /// Suppress per-job progress lines on stderr.
    pub quiet: bool,
    /// Attach per-phase host-time/allocation attribution to every record
    /// (the `--prof` flag). Provably inert for the simulation itself:
    /// cycles, checksums and reports (minus the `host` field) are
    /// byte-identical either way — see `tests/prof_inert.rs`.
    pub prof: bool,
}

/// Default cache location, relative to the working directory (binaries run
/// from the repository root).
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine sized from `std::thread::available_parallelism`, with the
    /// cache enabled at [`DEFAULT_CACHE_DIR`] and progress output on.
    pub fn new() -> Engine {
        Engine {
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_dir: Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            quiet: false,
            prof: false,
        }
    }

    /// Sets the worker count (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Engine {
        self.jobs = jobs.max(1);
        self
    }

    /// Disables the result cache: every grid point simulates fresh, and
    /// nothing is written. Required wherever results must reflect the
    /// *current code* (CI, golden tests, baseline regeneration).
    pub fn no_cache(mut self) -> Engine {
        self.cache_dir = None;
        self
    }

    /// Disables progress output (tests).
    pub fn silent(mut self) -> Engine {
        self.quiet = true;
        self
    }

    /// Enables host-side profiling: every record (and its report) carries
    /// per-phase wall-time and allocation attribution, and the run prints
    /// aggregate phase totals. Allocation counts are exact only when the
    /// binary was built with the `prof` feature (counting allocator);
    /// otherwise they read zero and only wall time is attributed.
    pub fn with_prof(mut self) -> Engine {
        self.prof = true;
        self
    }

    /// Runs every job in the grid and returns records **in grid order**.
    ///
    /// Workers pull jobs from a shared queue; each job builds a fresh
    /// simulation, so concurrent execution cannot perturb results. A panic
    /// in any job propagates after the scope joins.
    pub fn run(&self, grid: &Grid) -> Vec<RunRecord> {
        let n = grid.jobs.len();
        let slots: Vec<Mutex<Option<RunRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let workers = self.jobs.min(n).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = &grid.jobs[i];
                    let rec = self.run_one(job);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if !self.quiet {
                        eprintln!(
                            "[{finished}/{n}] {} — {} cycles{}",
                            job.label,
                            rec.result.total_cycles,
                            if rec.cached { " (cached)" } else { "" }
                        );
                    }
                    // invariant: each index is stored exactly once, by the
                    // worker that claimed it from the queue.
                    *slots[i].lock().expect("result slot poisoned") = Some(rec);
                });
            }
        });
        let records: Vec<RunRecord> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    // invariant: the scope joined, so every slot was filled.
                    .expect("grid slot never filled")
            })
            .collect();
        if self.prof {
            self.print_prof_summary(&records);
        }
        records
    }

    /// Aggregate host-phase totals across all records, printed to stderr
    /// whenever profiling was requested (`--prof` asks for this output, so
    /// `--quiet` does not suppress it).
    fn print_prof_summary(&self, records: &[RunRecord]) {
        let mut agg: Vec<(String, HostPhase)> = Vec::new();
        for rec in records {
            for (name, h) in &rec.host {
                match agg.iter_mut().find(|(n, _)| n == name) {
                    Some((_, a)) => {
                        a.wall_ns += h.wall_ns;
                        a.allocs += h.allocs;
                        a.alloc_bytes += h.alloc_bytes;
                    }
                    None => agg.push((name.clone(), *h)),
                }
            }
        }
        eprintln!(
            "[prof] host-phase totals over {} job(s){}:",
            records.len(),
            if ncp2_prof::prof_enabled() {
                ""
            } else {
                " (alloc counts need --features prof)"
            }
        );
        for (name, h) in &agg {
            eprintln!(
                "[prof]   {name:<12} {:>12.3} ms  {:>12} allocs  {:>14} bytes",
                h.wall_ns as f64 / 1e6,
                h.allocs,
                h.alloc_bytes
            );
        }
    }

    /// Convenience: run a single ad-hoc job.
    pub fn run_job(&self, job: Job) -> RunRecord {
        let mut grid = Grid::new();
        grid.add(job);
        self.run(&grid)
            .pop()
            // invariant: run() returns exactly one record per job.
            .expect("one job in, one record out")
    }

    fn run_one(&self, job: &Job) -> RunRecord {
        // Host-phase attribution. Jobs run start-to-finish on one worker
        // thread, so the clock's same-thread allocation deltas are exactly
        // this job's allocations, whatever the worker count. A disabled
        // clock (no `--prof`) touches neither the wall clock nor the
        // counters.
        let mut clock = PhaseClock::new(self.prof);
        // Trace and time-series runs exist for their raw timeline /
        // windowed log, which is not persisted — never serve or store them
        // from the cache.
        let cache_dir = self
            .cache_dir
            .as_deref()
            .filter(|_| !job.params.trace && !job.timeseries);
        let key = job.cache_key();
        if let Some(dir) = cache_dir {
            let loaded = cache::load(dir, key);
            clock.lap("cache_io");
            if let Some((result, mut report)) = loaded {
                let host = host_phases(clock);
                if let Some(r) = &mut report {
                    // The label is presentation, not configuration: restore
                    // the caller's name.
                    r.name = job.label.clone();
                    r.host.clone_from(&host);
                }
                return RunRecord {
                    result,
                    report,
                    cached: true,
                    host,
                };
            }
        }
        let obs = job.obs;
        let timeseries = job.timeseries;
        let workload = job.workload.build();
        let racy = workload.racy_ranges();
        let (params, protocol) = (job.params.clone(), job.protocol);
        let (verify, fault) = (job.verify, job.fault.clone());
        clock.lap("setup");
        let result = run_app_with(job.params.clone(), job.protocol, workload, move |sim| {
            if obs {
                sim.enable_obs();
            }
            if timeseries {
                sim.enable_timeseries();
            }
            if verify {
                let mut oracle = VerifyOracle::new(&params, &protocol);
                for range in racy {
                    oracle.exempt_range(range);
                }
                sim.attach_observer(Box::new(oracle));
            }
            // No-op for inactive plans (`FaultPlan::none()`): the legacy
            // send path runs and results match a fault-free build exactly.
            sim.attach_fault_plan(fault);
        });
        clock.lap("sim");
        let mut report = obs.then(|| MetricsReport::from_run(&job.label, &result));
        clock.lap("obs_export");
        if let Some(dir) = cache_dir {
            // Runs that tripped an invariant are not representative results;
            // keep them out of the cache. The report goes in *before* host
            // attribution is attached — cache entries never carry host data.
            if result.violations.is_empty() {
                cache::store(dir, key, &job.label, &result, report.as_ref());
            }
            clock.lap("cache_io");
        }
        let host = host_phases(clock);
        if let Some(r) = &mut report {
            r.host.clone_from(&host);
        }
        RunRecord {
            result,
            report,
            cached: false,
            host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(label: &str, obs: bool) -> Job {
        Job {
            label: label.to_string(),
            params: SysParams::default().with_nprocs(2),
            protocol: Protocol::TreadMarks(OverlapMode::Base),
            workload: WorkloadSpec::Ocean(Ocean { grid: 8, iters: 1 }),
            obs,
            fault: FaultPlan::none(),
            verify: false,
            timeseries: false,
        }
    }

    #[test]
    fn results_are_in_grid_order_under_any_worker_count() {
        let mut grid = Grid::new();
        for (name, spec) in tier1_workloads().into_iter().take(3) {
            grid.add(Job {
                label: format!("{name}/Base"),
                params: SysParams::default().with_nprocs(2),
                protocol: Protocol::TreadMarks(OverlapMode::Base),
                workload: spec,
                obs: false,
                fault: FaultPlan::none(),
                verify: false,
                timeseries: false,
            });
        }
        let serial = Engine::new().no_cache().silent().with_jobs(1).run(&grid);
        let parallel = Engine::new().no_cache().silent().with_jobs(4).run(&grid);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.result.total_cycles, b.result.total_cycles);
            assert_eq!(a.result.checksum, b.result.checksum);
            assert_eq!(a.result.nodes, b.result.nodes);
        }
    }

    #[test]
    fn cache_keys_separate_jobs_and_merge_duplicates() {
        let a = tiny_job("a", false);
        let same_config_other_label = tiny_job("b", false);
        assert_eq!(a.cache_key(), same_config_other_label.cache_key());
        let observed = tiny_job("a", true);
        assert_ne!(a.cache_key(), observed.cache_key());
        let mut other_procs = tiny_job("a", false);
        other_procs.params = other_procs.params.with_nprocs(3);
        assert_ne!(a.cache_key(), other_procs.cache_key());
        let mut other_workload = tiny_job("a", false);
        other_workload.workload = WorkloadSpec::Ocean(Ocean { grid: 8, iters: 2 });
        assert_ne!(a.cache_key(), other_workload.cache_key());
        let mut other_protocol = tiny_job("a", false);
        other_protocol.protocol = Protocol::Aurc { prefetch: false };
        assert_ne!(a.cache_key(), other_protocol.cache_key());
        let mut timeseries = tiny_job("a", false);
        timeseries.timeseries = true;
        assert_ne!(a.cache_key(), timeseries.cache_key());
    }

    #[test]
    fn timeseries_jobs_bypass_the_cache_and_carry_a_log() {
        let dir = std::env::temp_dir().join(format!("ncp2-engine-ts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            quiet: true,
            prof: false,
        };
        let mut job = tiny_job("Ocean/Base", false);
        job.timeseries = true;
        let first = engine.run_job(job.clone());
        let second = engine.run_job(job);
        assert!(!first.cached && !second.cached);
        let ts = second.result.ts.expect("time-series log must be recorded");
        assert_eq!(
            ts.counter_total(ncp2::core::TsCounter::Barriers),
            second.result.nodes.iter().map(|n| n.barriers).sum::<u64>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trip_is_transparent() {
        let dir = std::env::temp_dir().join(format!("ncp2-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            prof: false,
        };
        let cold = engine.run_job(tiny_job("Ocean/Base", true));
        assert!(!cold.cached);
        let warm = engine.run_job(tiny_job("Ocean/Base", true));
        assert!(warm.cached, "second identical run must hit the cache");
        assert_eq!(cold.result.total_cycles, warm.result.total_cycles);
        assert_eq!(cold.result.checksum, warm.result.checksum);
        assert_eq!(cold.result.nodes, warm.result.nodes);
        assert_eq!(cold.result.net, warm.result.net);
        let (a, b) = (
            cold.report.expect("obs report"),
            warm.report.expect("obs report"),
        );
        assert_eq!(a.to_json(), b.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_jobs_bypass_the_cache() {
        let dir = std::env::temp_dir().join(format!("ncp2-engine-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            quiet: true,
            prof: false,
        };
        let mut job = tiny_job("Ocean/Base", false);
        job.params.trace = true;
        let first = engine.run_job(job.clone());
        let second = engine.run_job(job);
        assert!(!first.cached && !second.cached);
        assert!(!second.result.trace.is_empty(), "trace must be recorded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
