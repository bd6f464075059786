//! End-to-end hardened-transport runs: applications under fault injection
//! must produce **checksums identical to the fault-free run** with **zero
//! oracle violations** — message loss, duplication, reordering and
//! corruption are all absorbed by the ack/timeout/retransmit machinery
//! without perturbing what the programs compute.

use std::sync::{Arc, Mutex};

use ncp2_apps::{run_app_with, Em3d, Tsp, Workload};
use ncp2_core::observe::Violation;
use ncp2_core::trace::TraceKind;
use ncp2_core::{FaultPlan, FaultStats, Observer, OverlapMode, Protocol, ProtocolEvent, RunResult};
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
    run_on(4, app, protocol, plan)
}

/// [`run`] on `nprocs` nodes.
fn run_on<W: Workload>(
    nprocs: usize,
    app: W,
    protocol: Protocol,
    plan: Option<FaultPlan>,
) -> RunResult {
    let params = SysParams::default().with_nprocs(nprocs);
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
fn fault_free_run_drains_no_frames() {
    // Under I+P+D prefetch traffic can still be queued when the run ends,
    // but without a plan no message travels as a transport frame, so the
    // drain finds none (and every other transport counter stays zero).
    let clean = run_on(16, em3d(), Protocol::TreadMarks(OverlapMode::IPD), None);
    assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
    assert_eq!(clean.fault, FaultStats::default());
}

#[test]
fn chaos_plan_at_16_nodes_pins_every_fault_counter() {
    // The end-of-run drain must hand every frame still in flight its
    // terminal event: a lost or doubled one moves `frames_drained` and
    // trips the oracle's frame conservation law.
    let faulted = run_on(
        16,
        em3d(),
        Protocol::TreadMarks(OverlapMode::IPD),
        Some(chaos_plan()),
    );
    assert_eq!(faulted.violations, Vec::new());
    assert_eq!(
        faulted.fault,
        FaultStats {
            frames_sent: 4793,
            acks_sent: 4295,
            retransmits: 2637,
            drops_injected: 41,
            corrupts_injected: 25,
            dups_injected: 28,
            dup_frames_dropped: 2314,
            frames_drained: 431,
            prefetch_shed: 5,
            retx_by_attempt: [1784, 847, 6, 0, 0, 0, 0, 0],
        }
    );
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

/// One transport-frame fact on link 0→1, or a terminal event elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFact {
    /// A copy of frame `seq` left node 0 and reaches node 1 at `arrival`.
    Sent {
        seq: u64,
        attempt: u32,
        arrival: u64,
    },
    /// Frame `seq`'s terminal event: accepted, or dropped / duplicate.
    Terminal {
        seq: u64,
        attempt: u32,
        accepted: bool,
    },
    /// A terminal event on any other link.
    Elsewhere,
}

/// The verification oracle plus a log of frame facts in observation order
/// (a simulation holds one observer).
struct FrameLog {
    oracle: VerifyOracle,
    facts: Arc<Mutex<Vec<FrameFact>>>,
}

impl Observer for FrameLog {
    fn on_event(&mut self, ev: &ProtocolEvent) {
        use ProtocolEvent as E;
        self.oracle.on_event(ev);
        let fact = match *ev {
            E::FrameSent {
                src: 0,
                dst: 1,
                seq,
                attempt,
                wire,
                ..
            } => FrameFact::Sent {
                seq,
                attempt,
                arrival: wire.arrival,
            },
            E::FrameAccepted {
                src: 0,
                dst: 1,
                seq,
                attempt,
            } => FrameFact::Terminal {
                seq,
                attempt,
                accepted: true,
            },
            E::FrameDuplicate {
                src: 0,
                dst: 1,
                seq,
                attempt,
            }
            | E::FrameDropped {
                src: 0,
                dst: 1,
                seq,
                attempt,
            } => FrameFact::Terminal {
                seq,
                attempt,
                accepted: false,
            },
            E::FrameAccepted { .. } | E::FrameDuplicate { .. } | E::FrameDropped { .. } => {
                FrameFact::Elsewhere
            }
            _ => return,
        };
        // invariant: the test body reads the log only after the run
        self.facts.lock().expect("frame log poisoned").push(fact);
    }

    fn finish(&mut self) -> Vec<Violation> {
        self.oracle.finish()
    }
}

#[test]
fn frame_behind_a_dropped_frame_waits_for_the_gap_to_fill() {
    // Under I+P+D, TSP's second frame on 0→1 does not depend on the first
    // being delivered: it arrives ~4.4k cycles after the first, far inside
    // the 20,000-cycle retransmit timeout. Dropping the first leaves a gap
    // the second must wait behind.
    let params = SysParams {
        trace: true,
        ..SysParams::default().with_nprocs(4)
    };
    let protocol = Protocol::TreadMarks(OverlapMode::IPD);
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
    let mut oracle = VerifyOracle::new(&params, &protocol);
    for range in tsp().racy_ranges() {
        oracle.exempt_range(range);
    }
    let facts = Arc::new(Mutex::new(Vec::new()));
    let log = FrameLog {
        oracle,
        facts: Arc::clone(&facts),
    };
    let faulted = run_app_with(params, protocol, tsp(), move |sim| {
        sim.attach_observer(Box::new(log));
        sim.attach_fault_plan(plan);
    });
    assert_eq!(clean.checksum, faulted.checksum);
    assert!(faulted.violations.is_empty(), "{:#?}", faulted.violations);
    let facts = facts.lock().expect("frame log poisoned").clone();

    let arrival = |want_seq, want_attempt| {
        facts
            .iter()
            .find_map(|f| match *f {
                FrameFact::Sent {
                    seq,
                    attempt,
                    arrival,
                } if (seq, attempt) == (want_seq, want_attempt) => Some(arrival),
                _ => None,
            })
            .unwrap_or_else(|| panic!("frame {want_seq} attempt {want_attempt} never sent"))
    };
    let (frame1, refill) = (arrival(1, 0), arrival(0, 1));
    let retransmitted_at = faulted
        .trace
        .iter()
        .find(|e| {
            let retx = TraceKind::Retransmit {
                dst: 1,
                seq: 0,
                attempt: 1,
            };
            e.node == 0 && e.kind == retx
        })
        .expect("frame 0 was never retransmitted")
        .time;
    assert!(
        frame1 < retransmitted_at && retransmitted_at < refill,
        "frame 1 (arrives {frame1}) must beat the retransmission of frame 0 \
         (sent {retransmitted_at}, arrives {refill})"
    );

    // On 0→1: the lost first copy of frame 0, then both frames accepted in
    // sequence order.
    let terminal = |seq, attempt, accepted| FrameFact::Terminal {
        seq,
        attempt,
        accepted,
    };
    let terminals: Vec<FrameFact> = facts
        .into_iter()
        .filter(|f| !matches!(f, FrameFact::Sent { .. }))
        .collect();
    let on_link: Vec<FrameFact> = terminals
        .iter()
        .copied()
        .filter(|&f| f != FrameFact::Elsewhere)
        .collect();
    assert_eq!(
        on_link[..3],
        [
            terminal(0, 0, false),
            terminal(0, 1, true),
            terminal(1, 0, true)
        ]
    );
    // No terminal event on any link separates the two acceptances, so both
    // come from one frame arrival — the retransmitted frame 0 at `refill`:
    // frame 1 sat in the resequencing buffer until the gap filled.
    let gap_fill = terminals
        .iter()
        .position(|&f| f == terminal(0, 1, true))
        .expect("frame 0 accepted");
    assert_eq!(terminals[gap_fill + 1], terminal(1, 0, true));
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
