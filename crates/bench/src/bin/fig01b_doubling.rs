//! The abstract's headline: "our protocol controller can improve running
//! time performance by up to 50% for TreadMarks, which means that it can
//! double the TreadMarks speedups." This binary measures 16-processor
//! speedups under Base and under the full controller (I+P+D picking the
//! best per app, as the paper's 'best overlapping' does), and the ratio.
//!
//! With `--scale` it instead sweeps the cluster from 2 to 256 processors
//! (doubling each step) on the two scale workloads under Base and I+P+D,
//! holding three laws at every size: the verify oracle stays silent, each
//! application's checksum is invariant across cluster sizes (DSM
//! transparency — the program computes the same answer no matter how it is
//! partitioned), and the critical-path decomposition of every run tiles its
//! execution exactly.

use ncp2::prelude::*;
use ncp2_bench::engine::{scale_grid, scale_workloads, Grid, SCALE_NPROCS};
use ncp2_bench::harness::{Opts, APP_NAMES};
use ncp2_obs::{critical_path, ExecGraph};

/// The `--scale` sweep: 2..=256 processors x scale workloads x {Base, I+P+D}.
/// It never touches the cache: a cached record carries no span log, and
/// Law 3 needs one from every run.
fn run_scale(opts: &Opts) {
    let modes = ["Base", "I+P+D"];
    let only = opts.only_app.as_deref();
    let grid = scale_grid(&SCALE_NPROCS, &modes, only);
    let records = opts.engine().no_cache().run(&grid);
    let apps: Vec<_> = scale_workloads()
        .into_iter()
        .filter(|(name, _)| only.is_none_or(|o| o.eq_ignore_ascii_case(name)))
        .collect();
    let (napps, nmodes) = (apps.len(), modes.len());
    assert!(napps > 0, "--app matched no scale workload (Ocean, Em3d)");

    // Index into the grid-ordered records: nprocs-major, then mode, then app.
    let ix = |ni: usize, mi: usize, ai: usize| (ni * nmodes + mi) * napps + ai;

    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>7}",
        "procs", "app", "Base Mcyc", "I+P+D Mcyc", "ratio"
    );
    let mut checksums: Vec<Option<u64>> = vec![None; napps];
    // Runs that passed all three laws.
    let mut checked = 0usize;
    for (ni, &np) in SCALE_NPROCS.iter().enumerate() {
        for (ai, (name, _)) in apps.iter().enumerate() {
            let base = &records[ix(ni, 0, ai)].result;
            let ipd = &records[ix(ni, 1, ai)].result;
            println!(
                "{:<6} {:<8} {:>12.2} {:>12.2} {:>6.2}x",
                np,
                name,
                base.total_cycles as f64 / 1e6,
                ipd.total_cycles as f64 / 1e6,
                base.total_cycles as f64 / ipd.total_cycles as f64
            );
            for r in [base, ipd] {
                // Law 1: the verify oracle stays silent at every size.
                assert!(
                    r.violations.is_empty(),
                    "{name}@{np}: oracle violations: {:?}",
                    r.violations
                );
                // Law 2: the answer is independent of the cluster size.
                match checksums[ai] {
                    None => checksums[ai] = Some(r.checksum),
                    Some(c) => assert_eq!(
                        c, r.checksum,
                        "{name}@{np}: checksum drifted across cluster sizes"
                    ),
                }
                // Law 3: the span graph tiles the run and the critical path
                // walks it end to end.
                let log = r
                    .obs
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}@{np}: no span log recorded"));
                let g = ExecGraph::build(log, r.nprocs, r.total_cycles)
                    .unwrap_or_else(|e| panic!("{name}@{np}: span tiling broken: {e}"));
                critical_path(&g)
                    .unwrap_or_else(|e| panic!("{name}@{np}: critical-path walk failed: {e}"));
                checked += 1;
            }
        }
    }
    println!(
        "\nscale sweep clean: oracle silent, checksums size-invariant, critpath conserved \
         in each of {checked} runs"
    );
}

fn main() {
    let opts = Opts::parse_with(&["--app", "--paper-size", "--scale"], &APP_NAMES);
    if opts.scale {
        run_scale(&opts);
        return;
    }
    let params = SysParams::default();
    let apps = opts.apps();
    // Base first, then the controller modes the paper's "best overlapping"
    // minimizes over.
    let contenders = [
        OverlapMode::I,
        OverlapMode::ID,
        OverlapMode::IP,
        OverlapMode::IPD,
    ];

    let mut grid = Grid::new();
    let seq_ix: Vec<usize> = apps
        .iter()
        .map(|app| grid.sequential(&params, app, opts.paper_size))
        .collect();
    let base_ix: Vec<usize> = apps
        .iter()
        .map(|app| {
            grid.run(
                &params,
                Protocol::TreadMarks(OverlapMode::Base),
                app,
                opts.paper_size,
            )
        })
        .collect();
    let mode_ix = grid.product(
        &params,
        &apps,
        &contenders
            .iter()
            .map(|&m| Protocol::TreadMarks(m))
            .collect::<Vec<_>>(),
        opts.paper_size,
    );
    let records = opts.engine().run(&grid);

    println!(
        "{:<8} {:>9} {:>10} {:>12} {:>9} {:>8}",
        "app", "seq Mcyc", "Base spdup", "best overlap", "spdup", "ratio"
    );
    for (ai, app) in apps.iter().enumerate() {
        let seq = records[seq_ix[ai]].result.total_cycles;
        let base = records[base_ix[ai]].result.total_cycles;
        let mut best = ("I", u64::MAX);
        for (mi, mode) in contenders.iter().enumerate() {
            let cycles = records[mode_ix + ai * contenders.len() + mi]
                .result
                .total_cycles;
            if cycles < best.1 {
                best = (mode.label(), cycles);
            }
        }
        let s_base = seq as f64 / base as f64;
        let s_best = seq as f64 / best.1 as f64;
        println!(
            "{:<8} {:>9.1} {:>10.2} {:>12} {:>9.2} {:>7.2}x",
            app,
            seq as f64 / 1e6,
            s_base,
            best.0,
            s_best,
            s_best / s_base
        );
    }
}
