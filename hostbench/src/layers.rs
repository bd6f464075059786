//! The traced run: the per-layer split of one workload.
//!
//! Counts come from the simulation's own results (exact, repeatable).
//! Times come from executions of the workload on the same thread —
//! untraced, oracle off, and traced (span log plus time series on),
//! interleaved over a few rounds — and from unit-cost probes of each
//! crate's public API. The slowdown of an
//! unpinned run, `sim.proc.unpinned_x`, is added by `run.py`, which alone
//! controls CPU placement.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ncp2::core::{NodeStats, SpanKind, TsGauge};
use ncp2::prelude::*;
use ncp2_bench::engine::{Engine, RunRecord, WorkloadSpec};
use ncp2_prof::prof_global_stats;

use crate::probes;
use crate::report::{median, Checks, Output};
use crate::sys::Usage;
use crate::workloads::{
    build_grid, cache_dir, check_cycles, check_grid, check_single, dir_bytes, hit_ratio, phase_s,
    run_grid, run_single, Bench, Expected, GridPass, Recording, Single,
};

/// Every per-layer metric the traced run prints, with its unit, grouped by
/// the end-to-end metric it should move. A metric a workload does not
/// exercise reads 0. `sim.proc.unpinned_x` is appended by `run.py`.
pub const PER_LAYER: [(&str, &str); 53] = [
    // Front end: wall_s and cpu_s on tier1-grid and svc-16-ipd.
    ("sim.proc.ops", "count"),
    ("sim.proc.roundtrip_ns", "ns"),
    ("sim.proc.spawn_s", "s"),
    ("sim.proc.est_share", "ratio"),
    ("sim.proc.ctx_switches_vol", "count"),
    ("sim.proc.ctx_switches_invol", "count"),
    ("sim.ns_per_op", "ns"),
    ("sim.ns_per_msg", "ns"),
    // Event core, network, memory, diffs: wall_s and peak_rss_mb on
    // em3d-256-ipd.
    ("sim.queue.peak_depth", "count"),
    ("sim.queue.push_pop_ns", "ns"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.blocking_cycles", "cycles"),
    ("net.transfer_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("core.diff.twin_ns", "ns"),
    ("core.diff.gather_ns", "ns"),
    ("core.diff.apply_ns", "ns"),
    ("core.sim_new_s", "s"),
    ("prof.allocs", "count"),
    ("prof.alloc_bytes", "bytes"),
    // Protocol work: sim_cycles on every workload.
    ("core.faults", "count"),
    ("core.page_fetches", "count"),
    ("core.diffs_created", "count"),
    ("core.diffs_applied", "count"),
    ("core.diff_bytes", "bytes"),
    ("core.invalidations", "count"),
    ("core.lock_acquires", "count"),
    ("core.barriers", "count"),
    ("core.prefetch_useful_ratio", "ratio"),
    ("core.cycles.busy", "cycles"),
    ("core.cycles.data", "cycles"),
    ("core.cycles.synch", "cycles"),
    ("core.cycles.ipc", "cycles"),
    ("core.cycles.others", "cycles"),
    // Service: the tail and wall_s on svc-16-ipd.
    ("svc.queue_peak", "count"),
    ("svc.arrival_ns", "ns"),
    ("svc.p50_cycles", "cycles"),
    ("svc.p999_cycles", "cycles"),
    // Observation, oracle, engine, cache: wall_s and peak_rss_mb on
    // tier1-grid (the oracle also runs in every single-workload execution).
    ("obs.spans", "count"),
    ("obs.edges", "count"),
    ("obs.report_s", "s"),
    ("verify.violations", "count"),
    ("verify.overhead_s", "s"),
    ("bench.engine.overhead_s", "s"),
    ("bench.cache.store_s", "s"),
    ("bench.cache.load_s", "s"),
    ("bench.cache.hit_ratio", "ratio"),
    ("bench.cache.bytes", "bytes"),
    // The traced run's own cost.
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.probes_s", "s"),
];

/// ProcOps the handoff probe issues in total, spread over its threads.
const PROBE_OPS: u64 = 64_000;

/// Spans with one per processor operation: computation and data accesses.
fn is_op_span(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Compute | SpanKind::MemHit | SpanKind::MemStall
    )
}

/// Protocol and network counters of `results`, summed over runs and nodes.
fn protocol_counts(m: &mut BTreeMap<&'static str, f64>, results: &[&RunResult]) {
    type Field = fn(&NodeStats) -> u64;
    let total = |f: Field| -> u64 { results.iter().flat_map(|r| &r.nodes).map(f).sum() };
    let fields: [(&'static str, Field); 13] = [
        ("core.faults", |n| n.faults),
        ("core.page_fetches", |n| n.page_fetches),
        ("core.diffs_created", |n| n.diffs_created),
        ("core.diffs_applied", |n| n.diffs_applied),
        ("core.diff_bytes", |n| n.diff_bytes_created),
        ("core.invalidations", |n| n.invalidations),
        ("core.lock_acquires", |n| n.lock_acquires),
        ("core.barriers", |n| n.barriers),
        ("core.cycles.busy", |n| n.breakdown.busy),
        ("core.cycles.data", |n| n.breakdown.data),
        ("core.cycles.synch", |n| n.breakdown.synch),
        ("core.cycles.ipc", |n| n.breakdown.ipc),
        ("core.cycles.others", |n| n.breakdown.other),
    ];
    for (name, f) in fields {
        m.insert(name, total(f) as f64);
    }
    let issued = total(|n| n.prefetches);
    let useful = total(|n| n.prefetch_hits + n.prefetch_joins);
    let ratio = if issued == 0 {
        0.0
    } else {
        useful as f64 / issued as f64
    };
    m.insert("core.prefetch_useful_ratio", ratio);
    let net = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.insert("net.messages", net(&|r| r.net.messages));
    m.insert("net.bytes", net(&|r| r.net.bytes));
    m.insert("net.blocking_cycles", net(&|r| r.net.total_blocking));
    m.insert(
        "verify.violations",
        results.iter().map(|r| r.violations.len()).sum::<usize>() as f64,
    );
}

/// Processor-operation spans and peak event-queue depth of traced results.
fn traced_counts(results: &[&RunResult]) -> (u64, u64) {
    let ops = results
        .iter()
        .filter_map(|r| r.obs.as_ref())
        .flat_map(|log| &log.spans)
        .filter(|s| is_op_span(s.kind))
        .count() as u64;
    let depth = results
        .iter()
        .filter_map(|r| r.ts.as_ref())
        .flat_map(|ts| ts.gauge_series(TsGauge::QueueDepth))
        .max()
        .unwrap_or(0);
    (ops, depth)
}

/// Allocations and bytes allocated process-wide while `f` runs (zero
/// unless built with the `prof` feature).
fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let a0 = prof_global_stats();
    let v = f();
    let a1 = prof_global_stats();
    (
        v,
        (a1.allocs - a0.allocs) as f64,
        (a1.bytes - a0.bytes) as f64,
    )
}

/// Sum of every host phase's wall time over `records`, in seconds.
fn all_phases_s(records: &[RunRecord]) -> f64 {
    records
        .iter()
        .flat_map(|r| &r.host)
        .map(|(_, h)| h.wall_ns as f64 / 1e9)
        .sum()
}

/// Rounds of interleaved untraced, oracle-off and traced executions: a
/// slow phase of the host then hits all three alike, and the times are
/// medians over the rounds.
const ROUNDS: usize = 3;

/// Per-layer metrics of a single application; returns the processor
/// operations, the untraced wall time and the untraced execution's usage.
fn single_layers(
    s: &Single,
    expected: &Expected,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> (u64, f64, Usage) {
    let sum = expected.checksums[0].1;
    let mut cycles = expected.cycles;
    let mut check = |checks: &mut Checks, r: &RunResult| {
        check_single(checks, s, sum, r);
        check_cycles(checks, &mut cycles, r.total_cycles);
    };
    let verify = Recording {
        verify: true,
        ..Default::default()
    };
    let all = Recording {
        verify: true,
        obs: true,
        timeseries: true,
    };
    let (_, warm) = run_single(s, verify);
    check(checks, &warm);
    let (mut on, mut off, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..ROUNDS {
        let ((t, r), allocs, bytes) = counting_allocs(|| run_single(s, verify));
        check(checks, &r);
        on.push(t.wall.as_secs_f64());
        off.push(run_single(s, Recording::default()).0.wall.as_secs_f64());
        let (tt, tr) = run_single(s, all);
        check(checks, &tr);
        traced.push(tt.wall.as_secs_f64());
        first.get_or_insert((t.usage, r, tr, allocs, bytes));
    }
    // invariant: ROUNDS > 0, so the loop filled `first`.
    let (usage, r, tr, allocs, bytes) = first.expect("at least one round");
    let untraced = median(&on);
    m.insert("prof.allocs", allocs);
    m.insert("prof.alloc_bytes", bytes);
    m.insert("verify.overhead_s", untraced - median(&off));
    m.insert("trace.traced_wall_s", median(&traced));
    let (ops, depth) = traced_counts(&[&tr]);
    m.insert("sim.queue.peak_depth", depth as f64);
    protocol_counts(m, &[&r]);
    if let (Some(svc), WorkloadSpec::Svc(cfg)) = (&r.svc, &s.spec) {
        m.insert("svc.queue_peak", svc.queue_peak as f64);
        m.insert("svc.p50_cycles", svc.response.quantile(0.5) as f64);
        m.insert("svc.p999_cycles", svc.response.quantile(0.999) as f64);
        m.insert(
            "svc.arrival_ns",
            probes::svc_arrival(cfg.seed, cfg.mean_gap),
        );
    }
    (ops, untraced, usage)
}

/// Per-layer metrics of the tier-1 grid; returns what [`single_layers`]
/// does. "Traced" here means the engine's per-phase host attribution.
fn grid_layers(
    apps: &[(&'static str, WorkloadSpec)],
    expected: &Expected,
    work: &Path,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> (u64, f64, Usage) {
    let mut cycles = expected.cycles;
    let mut check = |checks: &mut Checks, pass: &GridPass| {
        check_grid(checks, &expected.checksums, pass);
        let sum = pass.cold.iter().map(|r| r.result.total_cycles).sum();
        check_cycles(checks, &mut cycles, sum);
    };
    let warm = run_grid(apps, work, false);
    check(checks, &warm);
    let (mut on, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..ROUNDS {
        let (pass, allocs, bytes) = counting_allocs(|| run_grid(apps, work, false));
        check(checks, &pass);
        on.push(pass.timing.wall.as_secs_f64());
        let tr = run_grid(apps, work, true);
        check(checks, &tr);
        traced.push(tr.timing.wall.as_secs_f64());
        if first.is_none() {
            m.insert("bench.cache.bytes", dir_bytes(&cache_dir(work)) as f64);
            first = Some((pass, tr, allocs, bytes));
        }
    }
    // invariant: ROUNDS > 0, so the loop filled `first`.
    let (pass, tr, allocs, bytes) = first.expect("at least one round");
    m.insert("prof.allocs", allocs);
    m.insert("prof.alloc_bytes", bytes);
    m.insert("trace.traced_wall_s", median(&traced));
    m.insert("bench.cache.hit_ratio", hit_ratio(&tr.warm));
    m.insert("bench.cache.store_s", phase_s(&tr.cold, "cache_io"));
    m.insert("bench.cache.load_s", phase_s(&tr.warm, "cache_io"));
    m.insert("obs.report_s", phase_s(&tr.cold, "obs_export"));
    let engine_s = tr.cold_wall.as_secs_f64() + tr.warm_wall.as_secs_f64();
    m.insert(
        "bench.engine.overhead_s",
        engine_s - all_phases_s(&tr.cold) - all_phases_s(&tr.warm),
    );
    let cold: Vec<&RunResult> = pass.cold.iter().map(|r| &r.result).collect();
    protocol_counts(m, &cold);
    let logs = cold.iter().filter_map(|r| r.obs.as_ref());
    let (spans, edges) = logs.fold((0, 0), |(s, e), l| (s + l.spans.len(), e + l.edges.len()));
    m.insert("obs.spans", spans as f64);
    m.insert("obs.edges", edges as f64);
    // Oracle twin: the same grid uncached, oracle on and off.
    let engine = Engine::new().with_jobs(1).silent().no_cache();
    let (mut v_on, mut v_off) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for (verify, times) in [(true, &mut v_on), (false, &mut v_off)] {
            let t = Instant::now();
            engine.run(&build_grid(apps, verify, false));
            times.push(t.elapsed().as_secs_f64());
        }
    }
    m.insert("verify.overhead_s", median(&v_on) - median(&v_off));
    // Queue depth needs the time series, which bypasses the cache.
    let ts = engine.run(&build_grid(apps, false, true));
    let ts: Vec<&RunResult> = ts.iter().map(|r| &r.result).collect();
    let (ops, depth) = traced_counts(&ts);
    m.insert("sim.queue.peak_depth", depth as f64);
    (ops, median(&on), pass.timing.usage)
}

/// Runs the traced pass of `bench` and returns its per-layer metrics.
pub fn traced(bench: &Bench, expected: &Expected, work: &Path) -> Output {
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (nprocs, protocol) = match bench {
        Bench::Single(s) => (s.params.nprocs, s.protocol),
        Bench::Grid(_) => (4, Protocol::TreadMarks(OverlapMode::Base)),
    };
    let (ops, untraced, ctx) = match bench {
        Bench::Single(s) => single_layers(s, expected, &mut checks, &mut m),
        Bench::Grid(apps) => grid_layers(apps, expected, work, &mut checks, &mut m),
    };
    m.insert("sim.proc.ops", ops as f64);
    m.insert("sim.proc.ctx_switches_vol", ctx.vol_switches as f64);
    m.insert("sim.proc.ctx_switches_invol", ctx.invol_switches as f64);
    m.insert("trace.untraced_wall_s", untraced);
    let traced_wall = m["trace.traced_wall_s"];
    m.insert("trace.overhead_s", traced_wall - untraced);
    let per = |count: f64| {
        if count > 0.0 {
            untraced * 1e9 / count
        } else {
            0.0
        }
    };
    m.insert("sim.ns_per_op", per(ops as f64));
    m.insert("sim.ns_per_msg", per(m["net.messages"]));

    let t = Instant::now();
    let (spawn_s, roundtrip_ns) = probes::proc_harness(nprocs, (PROBE_OPS / nprocs as u64).max(16));
    m.insert("sim.proc.spawn_s", spawn_s);
    m.insert("sim.proc.roundtrip_ns", roundtrip_ns);
    m.insert(
        "sim.proc.est_share",
        ops as f64 * roundtrip_ns / (untraced * 1e9),
    );
    let depth = m["sim.queue.peak_depth"] as usize;
    m.insert("sim.queue.push_pop_ns", probes::queue_push_pop(depth));
    m.insert("net.transfer_ns", probes::net_transfer(nprocs));
    m.insert("mem.access_ns", probes::mem_access());
    let (twin, gather, apply) = probes::diffs();
    m.insert("core.diff.twin_ns", twin);
    m.insert("core.diff.gather_ns", gather);
    m.insert("core.diff.apply_ns", apply);
    m.insert(
        "core.sim_new_s",
        probes::sim_new(&SysParams::default().with_nprocs(nprocs), protocol),
    );
    m.insert("trace.probes_s", t.elapsed().as_secs_f64());

    let mut out = Output::new(&checks);
    for (name, unit) in PER_LAYER {
        out.put(name, m.get(name).copied().unwrap_or(0.0), unit);
    }
    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{valid_name, valid_unit};

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside hostbench/");
        let spec = ncp2_obs::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let list = spec.get(key).and_then(|v| v.as_arr()).expect("metric list");
            list.iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let mut declared: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        declared.push(("sim.proc.unpinned_x".into(), "x".into()));
        assert_eq!(names("per_layer"), declared);
        let end_to_end: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            end_to_end,
            [
                "wall_s",
                "cpu_s",
                "setup_s",
                "peak_rss_mb",
                "sim_cycles",
                "pass_frac"
            ]
        );
    }
}
