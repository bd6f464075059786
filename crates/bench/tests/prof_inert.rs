//! `--prof` is provably inert: host-side profiling may read the wall clock
//! and the allocator counters, but it must never perturb anything the
//! simulation computes. These tests run the full tier-1 application set
//! under every protocol mode with and without profiling and demand
//! byte-identical simulated output — the same shape as the observability
//! and fault-plan inertness guarantees.

use ncp2_bench::engine::{tier1_grid, Engine, RunRecord};
use ncp2_bench::harness::ALL_MODE_LABELS;

/// Runs the 7-workloads × 8-modes tier-1 grid, profiled or not.
fn run_grid(prof: bool) -> Vec<RunRecord> {
    let mut e = Engine::new().no_cache().silent();
    if prof {
        e = e.with_prof();
    }
    e.run(&tier1_grid(&ALL_MODE_LABELS))
}

#[test]
fn prof_leaves_all_simulated_output_byte_identical() {
    let plain = run_grid(false);
    let profiled = run_grid(true);
    assert_eq!(plain.len(), profiled.len());
    assert_eq!(plain.len(), 7 * ALL_MODE_LABELS.len());

    for (p, q) in plain.iter().zip(&profiled) {
        let rep1 = p.report.clone().expect("tier-1 jobs are observed");
        let mut rep2 = q.report.clone().expect("tier-1 jobs are observed");
        let label = rep1.name.clone();
        assert_eq!(label, rep2.name);
        let (r1, r2) = (&p.result, &q.result);
        assert_eq!(r1.total_cycles, r2.total_cycles, "{label}");
        assert_eq!(r1.checksum, r2.checksum, "{label}");
        assert_eq!(r1.aggregate(), r2.aggregate(), "{label}");
        assert_eq!(r1.nodes, r2.nodes, "{label}");

        // The derived metrics report must be byte-identical once the (host
        // wall-clock, hence legitimately differing) attribution is removed.
        assert!(rep1.host.is_empty(), "unprofiled runs carry no host data");
        rep2.host.clear();
        assert_eq!(rep1.to_json(), rep2.to_json(), "{label}");
    }
}

#[test]
fn prof_attaches_per_phase_attribution() {
    let profiled = run_grid(true);
    for rec in &profiled {
        let report = rec.report.as_ref().expect("tier-1 jobs are observed");
        let label = &report.name;
        let phases: Vec<&str> = rec.host.iter().map(|(n, _)| n.as_str()).collect();
        // Cache-off runs attribute every phase that actually happened, in
        // order; `cache_io` only appears when a cache is configured.
        assert_eq!(phases, ["setup", "sim", "obs_export"], "{label}");
        assert_eq!(report.host, rec.host, "{label}");
        // Wall time is attributed even without the `prof` feature; the sim
        // phase of a real run can never take zero nanoseconds.
        let sim = &rec.host.iter().find(|(n, _)| n == "sim").unwrap().1;
        assert!(sim.wall_ns > 0, "{label}");
        // Allocation counts are exact when the counting allocator is in,
        // and all zero when it is not (nothing writes the counters).
        if !ncp2_prof::prof_enabled() {
            assert!(rec.host.iter().all(|(_, c)| c.allocs == 0));
        }
    }
}

#[test]
fn prof_cache_hits_attribute_cache_io_only() {
    let dir = std::env::temp_dir().join(format!("ncp2-prof-inert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = tier1_grid(&["I+P+D"]);
    let engine = Engine {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        quiet: true,
        prof: true,
    };
    let cold = engine.run(&grid);
    let warm = engine.run(&grid);
    let _ = std::fs::remove_dir_all(&dir);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.result.total_cycles, w.result.total_cycles);
        let phases: Vec<&str> = w.host.iter().map(|(n, _)| n.as_str()).collect();
        assert!(w.cached);
        assert_eq!(phases, ["cache_io"]);
    }
}
