//! End-to-end hardened-transport runs: applications under fault injection
//! must produce **checksums identical to the fault-free run** with **zero
//! oracle violations** — message loss, duplication, reordering, corruption
//! and controller outages are all absorbed by the ack/timeout/retransmit
//! machinery without perturbing what the programs compute.

use ncp2_apps::{run_app_with, Em3d, Tsp, Workload};
use ncp2_core::observe::Violation;
use ncp2_core::{FaultPlan, OverlapMode, Protocol, RunResult};
use ncp2_fault::{LinkWindow, TargetedDrop, Window};
use ncp2_sim::SysParams;
use ncp2_verify::VerifyOracle;

const ALL_MODES: [Protocol; 8] = [
    Protocol::TreadMarks(OverlapMode::Base),
    Protocol::TreadMarks(OverlapMode::I),
    Protocol::TreadMarks(OverlapMode::ID),
    Protocol::TreadMarks(OverlapMode::P),
    Protocol::TreadMarks(OverlapMode::IP),
    Protocol::TreadMarks(OverlapMode::IPD),
    Protocol::Aurc { prefetch: false },
    Protocol::Aurc { prefetch: true },
];

fn tsp() -> Tsp {
    Tsp {
        cities: 6,
        prefix_depth: 2,
        seed: 11,
    }
}

fn em3d() -> Em3d {
    Em3d {
        nodes: 96,
        degree: 2,
        remote_pct: 25,
        iters: 2,
        seed: 15,
    }
}

/// A run with the oracle attached and (optionally) a fault plan.
fn run<W: Workload>(app: W, protocol: Protocol, plan: Option<FaultPlan>) -> RunResult {
    let params = SysParams::default().with_nprocs(4);
    let racy = app.racy_ranges();
    run_app_with(params.clone(), protocol, app, move |sim| {
        let mut oracle = VerifyOracle::new(&params, &protocol);
        for range in racy {
            oracle.exempt_range(range);
        }
        sim.attach_observer(Box::new(oracle));
        if let Some(plan) = plan {
            sim.attach_fault_plan(plan);
        }
    })
}

/// The chaos plan: 1% drop + 0.5% duplication + 0.5% corruption on every
/// link, one latency-spike window (reorders frames), ack loss enabled.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
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

#[test]
fn faulted_runs_preserve_checksums_and_pass_the_oracle() {
    let mut total_retransmits = 0u64;
    for protocol in ALL_MODES {
        let clean = run(tsp(), protocol, None);
        assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
        let faulted = run(tsp(), protocol, Some(chaos_plan()));
        assert_eq!(
            clean.checksum, faulted.checksum,
            "checksum diverged under faults ({protocol})"
        );
        assert!(
            faulted.violations.is_empty(),
            "oracle violations under faults ({protocol}): {:#?}",
            faulted.violations
        );
        assert!(
            faulted.fault.injected() > 0,
            "chaos plan injected nothing ({protocol})"
        );
        total_retransmits += faulted.fault.retransmits;
    }
    assert!(
        total_retransmits > 0,
        "1% drop across all modes never retransmitted"
    );
}

#[test]
fn em3d_survives_chaos_under_full_overlap() {
    for protocol in [
        Protocol::TreadMarks(OverlapMode::IPD),
        Protocol::Aurc { prefetch: true },
    ] {
        let clean = run(em3d(), protocol, None);
        let faulted = run(em3d(), protocol, Some(chaos_plan()));
        assert_eq!(clean.checksum, faulted.checksum, "{protocol}");
        assert!(faulted.violations.is_empty(), "{:#?}", faulted.violations);
    }
}

#[test]
fn targeted_drop_is_recovered_by_retransmission() {
    let protocol = Protocol::TreadMarks(OverlapMode::Base);
    let clean = run(tsp(), protocol, None);
    let plan = FaultPlan {
        seed: 1,
        targeted_drops: vec![TargetedDrop {
            src: 0,
            dst: 1,
            nth: 0,
        }],
        ..FaultPlan::none()
    };
    let faulted = run(tsp(), protocol, Some(plan));
    assert_eq!(clean.checksum, faulted.checksum);
    assert!(faulted.violations.is_empty(), "{:#?}", faulted.violations);
    assert_eq!(faulted.fault.drops_injected, 1);
    assert!(faulted.fault.retransmits >= 1);
    assert!(
        faulted.fault.retx_by_attempt[0] >= 1,
        "first-retry histogram bucket empty: {:?}",
        faulted.fault.retx_by_attempt
    );
}

#[test]
fn congestion_window_sheds_prefetches_without_changing_results() {
    let protocol = Protocol::TreadMarks(OverlapMode::IP);
    let clean = run(tsp(), protocol, None);
    let plan = FaultPlan {
        seed: 2,
        congestion: vec![Window {
            start: 0,
            end: u64::MAX,
            extra: 0,
        }],
        ..FaultPlan::none()
    };
    let faulted = run(tsp(), protocol, Some(plan));
    assert_eq!(clean.checksum, faulted.checksum);
    assert!(faulted.violations.is_empty(), "{:#?}", faulted.violations);
    assert!(
        faulted.fault.prefetch_shed > 0,
        "run-long congestion window shed no prefetches"
    );
}

#[test]
fn inactive_plan_is_byte_identical_to_no_plan() {
    // `FaultPlan::none()` attaches nothing: the legacy send path runs and
    // results are bit-for-bit those of a run with no plan at all — the
    // zero-cost-when-unused contract.
    for protocol in ALL_MODES {
        let a = run(tsp(), protocol, None);
        let b = run(tsp(), protocol, Some(FaultPlan::none()));
        assert_eq!(a.total_cycles, b.total_cycles, "{protocol}");
        assert_eq!(a.checksum, b.checksum, "{protocol}");
        assert_eq!(a.nodes, b.nodes, "{protocol}");
        assert_eq!(a.net, b.net, "{protocol}");
        assert_eq!(a.fault, b.fault, "{protocol}");
        assert_eq!(b.fault, Default::default(), "{protocol}");
    }
}

#[test]
fn same_fault_seed_is_bit_identical() {
    let protocol = Protocol::TreadMarks(OverlapMode::IPD);
    let a = run(tsp(), protocol, Some(chaos_plan()));
    let b = run(tsp(), protocol, Some(chaos_plan()));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.fault, b.fault);
}

#[test]
fn silently_lost_frame_is_caught_by_the_oracle() {
    // An active plan with zero behavioral faults (a 0-extra spike) engages
    // the transport framing; the armed mutation then consumes one intact
    // frame without a terminal event. The retransmit-aware conservation law
    // must flag it even though the run still completes (the retransmission
    // redelivers the message).
    let params = SysParams::default().with_nprocs(2);
    let protocol = Protocol::TreadMarks(OverlapMode::Base);
    let neutral = FaultPlan {
        seed: 3,
        spikes: vec![LinkWindow {
            src: 0,
            dst: 1,
            start: 0,
            end: 1,
            extra: 0,
        }],
        ..FaultPlan::none()
    };
    let mutant = run_app_with(params.clone(), protocol, tsp(), move |sim| {
        VerifyOracle::attach(sim, &params, &protocol);
        sim.attach_fault_plan(neutral);
        sim.inject_silent_frame_loss();
    });
    assert!(
        mutant.violations.iter().any(|v| matches!(
            v,
            Violation::MessageConservation { detail } if detail.contains("never")
        )),
        "silent frame loss not detected: {:#?}",
        mutant.violations
    );
}
