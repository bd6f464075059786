//! The acquire-time prefetch strategies under both prefetching protocols,
//! I+P (TreadMarks) and AURC+P, on workloads whose acquires invalidate
//! pages. A cap of zero must issue nothing, a cap no acquire reaches must
//! run exactly like the uncapped sticky heuristic, and the recency-limited
//! variant must stay coherent: a silent oracle and the default checksum.

use ncp2_apps::{run_app_with, Em3d, Ocean, Workload};
use ncp2_core::{OverlapMode, Protocol, RunResult};
use ncp2_sim::{PrefetchStrategy, SysParams};
use ncp2_verify::VerifyOracle;

const PREFETCHING: [Protocol; 2] = [
    Protocol::TreadMarks(OverlapMode::IP),
    Protocol::Aurc { prefetch: true },
];

/// Runs `app` on 4 processors under `protocol` and `strategy` with the
/// oracle attached.
fn run<W: Workload>(app: W, protocol: Protocol, strategy: PrefetchStrategy) -> RunResult {
    let params = SysParams {
        prefetch_strategy: strategy,
        ..SysParams::default().with_nprocs(4)
    };
    let racy = app.racy_ranges();
    run_app_with(params.clone(), protocol, app, |sim| {
        let mut oracle = VerifyOracle::new(&params, &protocol);
        for range in racy {
            oracle.exempt_range(range);
        }
        sim.attach_observer(Box::new(oracle));
    })
}

fn check_strategies<W: Workload + Clone>(app: W) {
    let name = app.name();
    for protocol in PREFETCHING {
        let all = run(app.clone(), protocol, PrefetchStrategy::AllReferenced);
        let (issued, _) = all.prefetch_totals();
        assert!(issued > 0, "{name} under {protocol} never prefetches");
        assert!(all.violations.is_empty(), "{name} under {protocol}");

        let none = run(app.clone(), protocol, PrefetchStrategy::Capped(0));
        assert_eq!(none.prefetch_totals(), (0, 0), "{name} under {protocol}");

        let uncapped = run(app.clone(), protocol, PrefetchStrategy::Capped(usize::MAX));
        assert_eq!(
            format!("{uncapped:?}"),
            format!("{all:?}"),
            "{name} under {protocol}: an unreachable cap changed the run"
        );

        let recent = run(app.clone(), protocol, PrefetchStrategy::RecentlyReferenced);
        assert!(
            recent.violations.is_empty(),
            "{name} under {protocol}: {:#?}",
            recent.violations
        );
        assert_eq!(recent.checksum, all.checksum, "{name} under {protocol}");
    }
}

#[test]
fn em3d_prefetch_strategies() {
    check_strategies(Em3d {
        nodes: 2048,
        degree: 3,
        remote_pct: 10,
        iters: 4,
        seed: 3,
    });
}

#[test]
fn ocean_prefetch_strategies() {
    check_strategies(Ocean { grid: 34, iters: 4 });
}
