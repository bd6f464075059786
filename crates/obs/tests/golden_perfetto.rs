//! Golden tests for the exporters: the Perfetto trace and metrics JSON must
//! be well-formed for every application and byte-identical across repeated
//! runs of the same configuration — the property `ci.sh` and the committed
//! golden `BENCH_tier1.json` depend on.

use ncp2_apps::{run_app_with, Barnes, Em3d, Ocean, Radix, Tsp, Water, Workload};
use ncp2_core::{OverlapMode, Protocol, RunResult};
use ncp2_fault::{FaultPlan, Window};
use ncp2_obs::json::parse;
use ncp2_obs::{perfetto_json, MetricsReport};
use ncp2_sim::SysParams;

fn observed_traced_run<W: Workload>(app: W, protocol: Protocol) -> RunResult {
    let params = SysParams {
        trace: true,
        ..SysParams::default().with_nprocs(4)
    };
    run_app_with(params, protocol, app, |sim| sim.enable_obs())
}

fn tiny_tsp() -> Tsp {
    Tsp {
        cities: 6,
        prefix_depth: 2,
        seed: 11,
    }
}

#[test]
fn tiny_tsp_export_is_bit_identical_across_runs() {
    let proto = Protocol::TreadMarks(OverlapMode::IPD);
    let r1 = observed_traced_run(tiny_tsp(), proto);
    let r2 = observed_traced_run(tiny_tsp(), proto);
    assert_eq!(perfetto_json(&r1), perfetto_json(&r2));
    assert_eq!(
        MetricsReport::from_run("TSP/I+P+D", &r1).to_json(),
        MetricsReport::from_run("TSP/I+P+D", &r2).to_json()
    );
}

#[test]
fn tiny_tsp_export_parses_and_names_every_track() {
    let r = observed_traced_run(tiny_tsp(), Protocol::TreadMarks(OverlapMode::IPD));
    let doc = perfetto_json(&r);
    let v = parse(&doc).expect("well-formed JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event carries the mandatory fields; metadata names the tracks.
    let mut saw_cpu = false;
    let mut saw_link = false;
    let mut saw_span = false;
    let mut saw_counter = false;
    let mut flow_starts: Vec<(u64, u64)> = Vec::new(); // (id, ts)
    let mut flow_ends: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(e.get("pid").and_then(|p| p.as_u64()).is_some());
        match ph {
            "M" => {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .expect("metadata name");
                saw_cpu |= name == "cpu";
                saw_link |= name.starts_with("link ");
            }
            "X" => {
                assert!(e.get("ts").and_then(|t| t.as_u64()).is_some());
                assert!(e.get("dur").and_then(|d| d.as_u64()).is_some());
                saw_span = true;
            }
            "i" => {
                assert!(e.get("ts").and_then(|t| t.as_u64()).is_some());
            }
            "C" => {
                assert!(e.get("ts").and_then(|t| t.as_u64()).is_some());
                assert!(e.get("args").is_some(), "counter sample without args");
                saw_counter = true;
            }
            "s" | "f" => {
                let id = e.get("id").and_then(|i| i.as_u64()).expect("flow id");
                let ts = e.get("ts").and_then(|t| t.as_u64()).expect("flow ts");
                if ph == "s" {
                    flow_starts.push((id, ts));
                } else {
                    assert_eq!(e.get("bp").and_then(|b| b.as_str()), Some("e"));
                    flow_ends.push((id, ts));
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(saw_cpu && saw_link && saw_span);
    assert!(saw_counter, "no cycles_by_category counter lane");
    // Every flow arrow has exactly one start and one matching, non-earlier
    // finish — the dependency edges behind them are forward in time.
    assert!(!flow_starts.is_empty(), "no flow events emitted");
    assert_eq!(flow_starts.len(), flow_ends.len());
    for (s, f) in flow_starts.iter().zip(&flow_ends) {
        assert_eq!(s.0, f.0, "flow ids out of pairing order");
        assert!(s.1 <= f.1, "flow {} goes backward in time", s.0);
    }
}

/// An aggressively faulted run: enough frame loss and duplication that the
/// transport retransmits and drops duplicates, plus a permanent congestion
/// window so every prefetch is shed. All fault handling happens in simulated
/// time under a fixed seed, so the export must still be byte-reproducible.
fn faulted_traced_run<W: Workload>(app: W, protocol: Protocol) -> RunResult {
    let params = SysParams {
        trace: true,
        ..SysParams::default().with_nprocs(4)
    };
    let plan = FaultPlan {
        seed: 0xFA117,
        drop_permille: 50,
        dup_permille: 50,
        congestion: vec![Window {
            start: 0,
            end: u64::MAX,
            extra: 0,
        }],
        ..FaultPlan::none()
    };
    run_app_with(params, protocol, app, move |sim| {
        sim.enable_obs();
        sim.attach_fault_plan(plan);
    })
}

#[test]
fn faulted_run_exports_transport_instants_and_stays_deterministic() {
    let proto = Protocol::TreadMarks(OverlapMode::IPD);
    let r1 = faulted_traced_run(tiny_tsp(), proto);
    let r2 = faulted_traced_run(tiny_tsp(), proto);

    // The plan actually exercised every new trace kind...
    assert!(r1.fault.retransmits > 0, "no retransmissions under 5% drop");
    assert!(r1.fault.dup_frames_dropped > 0, "no duplicates suppressed");
    assert!(
        r1.fault.prefetch_shed > 0,
        "no prefetches shed under congestion"
    );

    // ...each of which renders as a protocol instant in the export.
    let doc = perfetto_json(&r1);
    parse(&doc).expect("faulted Perfetto export is well-formed JSON");
    for needle in [
        "retransmit_timeout",
        "\"retransmit ",
        "duplicate_dropped",
        "prefetch_shed",
    ] {
        assert!(doc.contains(needle), "export lacks {needle} instants");
    }

    // Span conservation holds on the faulted timeline, and the whole export
    // is byte-identical across runs of the same seed.
    let report = MetricsReport::from_run("TSP/I+P+D/faulted", &r1);
    assert!(report.conservation_ok, "conservation failed under faults");
    assert_eq!(doc, perfetto_json(&r2));
    assert_eq!(
        report.to_json(),
        MetricsReport::from_run("TSP/I+P+D/faulted", &r2).to_json()
    );
}

#[test]
fn exports_are_well_formed_for_all_six_applications() {
    let proto = Protocol::TreadMarks(OverlapMode::IPD);
    let runs: Vec<(&str, RunResult)> = vec![
        ("TSP", observed_traced_run(tiny_tsp(), proto)),
        (
            "Water",
            observed_traced_run(
                Water {
                    molecules: 8,
                    steps: 1,
                    seed: 12,
                },
                proto,
            ),
        ),
        (
            "Radix",
            observed_traced_run(
                Radix {
                    keys: 256,
                    radix: 16,
                    passes: 2,
                    seed: 13,
                },
                proto,
            ),
        ),
        (
            "Barnes",
            observed_traced_run(
                Barnes {
                    bodies: 16,
                    steps: 1,
                    theta_16: 8,
                    seed: 14,
                },
                proto,
            ),
        ),
        (
            "Em3d",
            observed_traced_run(
                Em3d {
                    nodes: 96,
                    degree: 2,
                    remote_pct: 25,
                    iters: 2,
                    seed: 15,
                },
                proto,
            ),
        ),
        (
            "Ocean",
            observed_traced_run(Ocean { grid: 16, iters: 2 }, proto),
        ),
    ];
    for (name, r) in &runs {
        let doc = perfetto_json(r);
        parse(&doc).unwrap_or_else(|e| panic!("{name}: Perfetto export unparseable: {e}"));
        let report = MetricsReport::from_run(&format!("{name}/I+P+D"), r);
        assert!(report.conservation_ok, "{name}: conservation failed");
        let back = ncp2_obs::report::parse_metrics(&report.to_json())
            .unwrap_or_else(|e| panic!("{name}: metrics.json unparseable: {e}"));
        assert_eq!(back, report, "{name}");
        assert_eq!(back.total_cycles, r.total_cycles, "{name}");
        assert_eq!(back.nprocs, 4, "{name}");
    }
}
