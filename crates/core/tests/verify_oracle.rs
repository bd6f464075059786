//! Whole-stack oracle runs: every application under every protocol mode with
//! the `ncp2-verify` shadow oracle attached must finish with zero violations
//! — no data races under the observed happens-before order, every diff
//! complete, every write notice delivered, vector times monotone, message
//! traffic conserved.
//!
//! The oracle itself is then mutation-tested: a protocol with an injected
//! bug (a dropped write notice) must be caught, proving the checks are live.

use ncp2_apps::{
    run_app, run_app_with, Barnes, Ctx, Em3d, Ocean, Program, Radix, Tsp, Water, Workload,
};
use ncp2_core::observe::Violation;
use ncp2_core::{OverlapMode, Protocol, RunResult, Simulation};
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

/// Runs `app` with the oracle attached (honoring the workload's annotated
/// benign races) and returns the result.
fn verified_run<W: Workload>(app: W, nprocs: usize, protocol: Protocol) -> RunResult {
    let params = SysParams::default().with_nprocs(nprocs);
    let racy = app.racy_ranges();
    run_app_with(params.clone(), protocol, app, |sim| {
        let mut oracle = VerifyOracle::new(&params, &protocol);
        for range in racy {
            oracle.exempt_range(range);
        }
        sim.attach_observer(Box::new(oracle));
    })
}

fn assert_clean<W: Workload + Clone>(app: W, nprocs: usize) {
    for protocol in ALL_MODES {
        let name = app.name();
        let result = verified_run(app.clone(), nprocs, protocol);
        assert!(
            result.violations.is_empty(),
            "{name} under {protocol} (nprocs={nprocs}): {:#?}",
            result.violations
        );
    }
}

#[test]
fn tsp_is_clean_under_every_protocol() {
    assert_clean(
        Tsp {
            cities: 6,
            prefix_depth: 2,
            seed: 11,
        },
        4,
    );
}

#[test]
fn water_is_clean_under_every_protocol() {
    assert_clean(
        Water {
            molecules: 8,
            steps: 1,
            seed: 12,
        },
        4,
    );
}

#[test]
fn radix_is_clean_under_every_protocol() {
    assert_clean(
        Radix {
            keys: 256,
            radix: 16,
            passes: 2,
            seed: 13,
        },
        4,
    );
}

#[test]
fn barnes_is_clean_under_every_protocol() {
    assert_clean(
        Barnes {
            bodies: 16,
            steps: 1,
            theta_16: 8,
            seed: 14,
        },
        4,
    );
}

#[test]
fn em3d_is_clean_under_every_protocol() {
    assert_clean(
        Em3d {
            nodes: 96,
            degree: 2,
            remote_pct: 25,
            iters: 2,
            seed: 15,
        },
        4,
    );
}

#[test]
fn ocean_is_clean_under_every_protocol() {
    assert_clean(Ocean { grid: 16, iters: 2 }, 4);
}

/// Attaching the oracle is inert: it only watches the fact stream, so a
/// verified run's timing, result and traffic equal a plain run's.
#[test]
fn attaching_the_oracle_changes_no_simulated_output() {
    let app = Em3d {
        nodes: 96,
        degree: 2,
        remote_pct: 25,
        iters: 2,
        seed: 15,
    };
    for protocol in ALL_MODES {
        let params = SysParams::default().with_nprocs(4);
        let plain = run_app(params, protocol, app.clone());
        let verified = verified_run(app.clone(), 4, protocol);
        assert!(verified.violations.is_empty(), "{protocol}");
        assert_eq!(plain.total_cycles, verified.total_cycles, "{protocol}");
        assert_eq!(plain.checksum, verified.checksum, "{protocol}");
        assert_eq!(plain.nodes, verified.nodes, "{protocol}");
        assert_eq!(plain.net, verified.net, "{protocol}");
    }
}

// ---------------------------------------------------------------------------
// Oracle sensitivity: mutation testing and a deliberately racy program
// ---------------------------------------------------------------------------

/// Producer/consumer over a barrier: P0 writes, everyone reads after the
/// barrier. Correct by construction — unless the protocol loses the notice.
#[derive(Clone)]
struct ProducerConsumer;

impl Workload for ProducerConsumer {
    fn name(&self) -> &'static str {
        "ProducerConsumer"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(async move {
            if ctx.pid == 0 {
                ctx.write_u64(0, 0xFEED).await;
            }
            ctx.barrier().await;
            let v = ctx.read_u64(0).await;
            ctx.barrier().await;
            if ctx.pid == 0 {
                v
            } else {
                0
            }
        })
    }
}

#[test]
fn dropped_write_notice_is_caught_by_the_oracle() {
    let params = SysParams::default().with_nprocs(2);
    let protocol = Protocol::TreadMarks(OverlapMode::Base);

    // Sanity: the unmutated protocol is clean on this workload.
    let clean = run_app_with(params.clone(), protocol, ProducerConsumer, |sim| {
        VerifyOracle::attach(sim, &params, &protocol);
    });
    assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
    assert_eq!(clean.checksum, 0xFEED);

    // Mutant: the first foreign write notice is dropped on the floor.
    let mutant = run_app_with(params.clone(), protocol, ProducerConsumer, |sim| {
        VerifyOracle::attach(sim, &params, &protocol);
        assert!(sim.inject_drop_write_notice());
    });
    assert!(
        mutant.violations.iter().any(|v| matches!(
            v,
            Violation::WriteNoticeCoverage {
                pid: 1,
                owner: 0,
                ..
            }
        )),
        "write-notice mutation not detected: {:#?}",
        mutant.violations
    );
}

#[test]
fn drop_write_notice_arms_only_under_treadmarks() {
    let params = SysParams::default().with_nprocs(2);
    for (protocol, arms) in [
        (Protocol::TreadMarks(OverlapMode::Base), true),
        (Protocol::TreadMarks(OverlapMode::IPD), true),
        (Protocol::Aurc { prefetch: false }, false),
        (Protocol::Aurc { prefetch: true }, false),
    ] {
        let mut sim = Simulation::new(params.clone(), protocol);
        assert_eq!(sim.inject_drop_write_notice(), arms, "{}", protocol.label());
    }
}

/// Two processors update the same word with no synchronization at all.
#[derive(Clone)]
struct RacyCounter;

impl Workload for RacyCounter {
    fn name(&self) -> &'static str {
        "RacyCounter"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(async move {
            let v = ctx.read_u64(0).await;
            ctx.write_u64(0, v + 1).await;
            ctx.barrier().await;
            0
        })
    }
}

#[test]
fn unsynchronized_updates_are_reported_as_a_race() {
    let result = verified_run(RacyCounter, 4, Protocol::TreadMarks(OverlapMode::Base));
    assert!(
        result
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Race { addr: 0, .. })),
        "racy program not detected: {:#?}",
        result.violations
    );
}

/// The same race must be visible under AURC, where the single-master data
/// plane makes the protocol "exact for data-race-free programs" — the race
/// detector is what certifies the precondition.
#[test]
fn unsynchronized_updates_are_reported_under_aurc() {
    let result = verified_run(RacyCounter, 4, Protocol::Aurc { prefetch: false });
    assert!(
        result
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Race { addr: 0, .. })),
        "racy program not detected under AURC: {:#?}",
        result.violations
    );
}
