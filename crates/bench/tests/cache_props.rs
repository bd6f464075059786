//! Property tests for the result cache's key scheme and transparency.
//!
//! Two things must hold for content-hashed caching to be sound:
//!
//! 1. **Key sensitivity** — perturbing any single `SysParams` or `FaultPlan`
//!    field (or the protocol, workload, observability or verification flag)
//!    produces a different cache key, so two configurations can never alias
//!    one entry;
//! 2. **Hit transparency** — a cache hit is byte-identical to the fresh run
//!    it stands in for, down to the serialized entry and report JSON.

use ncp2::prelude::*;
use ncp2::sim::PrefetchStrategy;
use ncp2_bench::engine::{Engine, Job, WorkloadSpec};
use ncp2_bench::{cache, engine};
use ncp2_fault::{FaultPlan, LinkWindow, TargetedDrop, Window};
use proptest::prelude::*;

/// One mutator per `SysParams` field. Each takes a nonzero `delta` so the
/// property quantifies over *which* different value the field takes, not
/// just one hand-picked alternative.
type Mutator = (&'static str, fn(&mut SysParams, u64));

const MUTATORS: [Mutator; 14] = [
    ("nprocs", |p, d| p.nprocs += d as usize),
    ("write_cache_entries", |p, d| {
        p.write_cache_entries += d as usize
    }),
    ("mem_setup", |p, d| p.mem_setup += d),
    ("mem_cycles_per_word", |p, d| {
        p.mem_cycles_per_word += d as f64
    }),
    ("net_cycles_per_byte", |p, d| {
        p.net_cycles_per_byte += d as f64
    }),
    ("messaging_overhead", |p, d| p.messaging_overhead += d),
    ("au_messaging_overhead", |p, d| p.au_messaging_overhead += d),
    ("dma_scan_base", |p, d| p.dma_scan_base += d),
    ("dma_scan_full", |p, d| p.dma_scan_full += d),
    ("aurc_pairwise", |p, _| p.aurc_pairwise = !p.aurc_pairwise),
    ("page_req_threshold", |p, d| {
        p.page_req_threshold += d as usize
    }),
    ("prefetch_strategy", |p, d| {
        p.prefetch_strategy = match p.prefetch_strategy {
            PrefetchStrategy::AllReferenced => PrefetchStrategy::Capped(d as usize),
            _ => PrefetchStrategy::AllReferenced,
        }
    }),
    ("trace", |p, _| p.trace = !p.trace),
    ("ts_window", |p, d| p.ts_window += d),
];

/// Compile-time guard that [`MUTATORS`] stays exhaustive: adding a
/// `SysParams` field breaks this destructuring, pointing here to add the
/// matching mutator.
#[allow(clippy::no_effect_underscore_binding)]
fn assert_mutators_cover_every_field(p: &SysParams) -> usize {
    let SysParams {
        nprocs: _,
        write_cache_entries: _,
        mem_setup: _,
        mem_cycles_per_word: _,
        net_cycles_per_byte: _,
        messaging_overhead: _,
        au_messaging_overhead: _,
        dma_scan_base: _,
        dma_scan_full: _,
        aurc_pairwise: _,
        page_req_threshold: _,
        prefetch_strategy: _,
        trace: _,
        ts_window: _,
    } = p;
    14
}

/// One mutator per `FaultPlan` field, mirroring [`MUTATORS`]: a faulted run
/// must never alias the cache entry of a fault-free (or differently-faulted)
/// run.
type FaultMutator = (&'static str, fn(&mut FaultPlan, u64));

const FAULT_MUTATORS: [FaultMutator; 8] = [
    ("seed", |p, d| p.seed ^= d),
    ("drop_permille", |p, d| {
        p.drop_permille = 1 + (d % 500) as u16
    }),
    ("dup_permille", |p, d| p.dup_permille = 1 + (d % 500) as u16),
    ("corrupt_permille", |p, d| {
        p.corrupt_permille = 1 + (d % 500) as u16
    }),
    ("ack_faults", |p, _| p.ack_faults = !p.ack_faults),
    ("targeted_drops", |p, d| {
        p.targeted_drops.push(TargetedDrop {
            src: 0,
            dst: 1,
            nth: d,
        })
    }),
    ("spikes", |p, d| {
        p.spikes.push(LinkWindow {
            src: 0,
            dst: 1,
            start: 0,
            end: d,
            extra: d,
        })
    }),
    ("congestion", |p, d| {
        p.congestion.push(Window {
            start: 0,
            end: d,
            extra: d,
        })
    }),
];

/// Compile-time guard that [`FAULT_MUTATORS`] stays exhaustive, like
/// [`assert_mutators_cover_every_field`] for `SysParams`.
fn assert_fault_mutators_cover_every_field(p: &FaultPlan) -> usize {
    let FaultPlan {
        seed: _,
        drop_permille: _,
        dup_permille: _,
        corrupt_permille: _,
        ack_faults: _,
        targeted_drops: _,
        spikes: _,
        congestion: _,
    } = p;
    8
}

/// One mutator per `Svc` field, mirroring [`MUTATORS`]: the service
/// workload's whole configuration must feed the cache key, or two different
/// offered loads could alias one tail-latency result.
type SvcMutator = (&'static str, fn(&mut Svc, u64));

const SVC_MUTATORS: [SvcMutator; 9] = [
    ("requests", |w, d| w.requests += d),
    ("mean_gap", |w, d| w.mean_gap += d),
    ("keys", |w, d| w.keys += d as usize),
    ("sessions", |w, d| w.sessions += d as usize),
    ("put_permille", |w, d| {
        w.put_permille = (w.put_permille + d as u32) % 1000
    }),
    ("session_permille", |w, d| {
        w.session_permille = (w.session_permille + d as u32) % 1000
    }),
    ("skew_x100", |w, d| w.skew_x100 += d as u32),
    ("service_compute", |w, d| w.service_compute += d),
    ("seed", |w, d| w.seed ^= d),
];

/// Compile-time guard that [`SVC_MUTATORS`] stays exhaustive, like
/// [`assert_mutators_cover_every_field`] for `SysParams`.
fn assert_svc_mutators_cover_every_field(w: &Svc) -> usize {
    let Svc {
        requests: _,
        mean_gap: _,
        keys: _,
        sessions: _,
        put_permille: _,
        session_permille: _,
        skew_x100: _,
        service_compute: _,
        seed: _,
    } = w;
    9
}

fn job_with(params: SysParams) -> Job {
    Job {
        label: "probe".into(),
        params,
        protocol: Protocol::TreadMarks(OverlapMode::ID),
        workload: WorkloadSpec::Ocean(Ocean { grid: 8, iters: 1 }),
        obs: false,
        fault: FaultPlan::none(),
        verify: false,
        timeseries: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_single_field_perturbation_changes_the_cache_key(delta in 1u64..1_000) {
        let base = job_with(SysParams::default());
        let field_count = assert_mutators_cover_every_field(&base.params);
        prop_assert_eq!(MUTATORS.len(), field_count);

        // The key is a pure function of the configuration...
        prop_assert_eq!(base.cache_key(), job_with(SysParams::default()).cache_key());

        // ...and injective across every one-field change.
        for (field, mutate) in MUTATORS {
            let mut params = SysParams::default();
            mutate(&mut params, delta);
            let perturbed = job_with(params);
            prop_assert_ne!(
                base.cache_key(),
                perturbed.cache_key(),
                "perturbing SysParams::{} (delta {}) did not change the cache key",
                field,
                delta
            );
        }

        // Label changes alone must NOT change the key (one config = one entry).
        let mut relabeled = job_with(SysParams::default());
        relabeled.label = format!("probe-{delta}");
        prop_assert_eq!(base.cache_key(), relabeled.cache_key());

        // Protocol, observability, verification and workload are part of the
        // key too.
        let mut other_proto = job_with(SysParams::default());
        other_proto.protocol = Protocol::Aurc { prefetch: false };
        prop_assert_ne!(base.cache_key(), other_proto.cache_key());
        let mut observed = job_with(SysParams::default());
        observed.obs = true;
        prop_assert_ne!(base.cache_key(), observed.cache_key());
        let mut verified = job_with(SysParams::default());
        verified.verify = true;
        prop_assert_ne!(base.cache_key(), verified.cache_key());
        let mut other_workload = job_with(SysParams::default());
        other_workload.workload = WorkloadSpec::Ocean(Ocean {
            grid: 8,
            iters: 1 + delta as usize,
        });
        prop_assert_ne!(base.cache_key(), other_workload.cache_key());
    }

    #[test]
    fn any_single_svc_field_perturbation_changes_the_cache_key(delta in 1u64..900) {
        let mut base = job_with(SysParams::default());
        base.workload = WorkloadSpec::Svc(Svc::default());
        let field_count = assert_svc_mutators_cover_every_field(&Svc::default());
        prop_assert_eq!(SVC_MUTATORS.len(), field_count);

        for (field, mutate) in SVC_MUTATORS {
            let mut w = Svc::default();
            mutate(&mut w, delta);
            let mut perturbed = job_with(SysParams::default());
            perturbed.workload = WorkloadSpec::Svc(w);
            prop_assert_ne!(
                base.cache_key(),
                perturbed.cache_key(),
                "perturbing Svc::{} (delta {}) did not change the cache key",
                field,
                delta
            );
        }
    }

    #[test]
    fn any_single_fault_plan_perturbation_changes_the_cache_key(delta in 1u64..1_000) {
        let base = job_with(SysParams::default());
        let field_count = assert_fault_mutators_cover_every_field(&base.fault);
        prop_assert_eq!(FAULT_MUTATORS.len(), field_count);

        for (field, mutate) in FAULT_MUTATORS {
            let mut perturbed = job_with(SysParams::default());
            mutate(&mut perturbed.fault, delta);
            prop_assert_ne!(
                base.cache_key(),
                perturbed.cache_key(),
                "perturbing FaultPlan::{} (delta {}) did not change the cache key",
                field,
                delta
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn a_cache_hit_is_byte_identical_to_a_fresh_run(
        grid_size in 0usize..3,
        iters in 1usize..3,
        nprocs in 1usize..4,
        obs in any::<bool>()
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ncp2-cache-props-{}-{grid_size}-{iters}-{nprocs}-{obs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            quiet: true,
            prof: false,
        };
        let job = Job {
            label: "Ocean/probe".into(),
            params: SysParams::default().with_nprocs(nprocs),
            protocol: Protocol::TreadMarks(OverlapMode::IPD),
            workload: WorkloadSpec::Ocean(Ocean {
                grid: 8 + 2 * grid_size,
                iters,
            }),
            obs,
            fault: FaultPlan::none(),
            verify: false,
            timeseries: false,
        };

        let cold = engine.run_job(job.clone());
        prop_assert!(!cold.cached);
        let warm = engine.run_job(job.clone());
        prop_assert!(warm.cached, "second identical run must hit the cache");

        // Byte-level identity of everything the cache round-trips: encode
        // both records with the entry serializer and compare the strings.
        let cold_bytes = cache::encode(&job.label, &cold.result, cold.report.as_ref());
        let warm_bytes = cache::encode(&job.label, &warm.result, warm.report.as_ref());
        prop_assert_eq!(cold_bytes, warm_bytes);

        // And the on-disk entry is exactly what decode() hands back.
        let text = std::fs::read_to_string(cache::entry_path(&dir, job.cache_key()))
            .expect("cache entry exists after a cold run");
        let (decoded, decoded_report) = cache::decode(&text).expect("stored entry decodes");
        prop_assert_eq!(decoded.total_cycles, cold.result.total_cycles);
        prop_assert_eq!(decoded.checksum, cold.result.checksum);
        prop_assert_eq!(&decoded.nodes, &cold.result.nodes);
        prop_assert_eq!(&decoded.net, &cold.result.net);
        prop_assert_eq!(decoded_report.is_some(), obs);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cached-run acceptance criterion, as a test: a warm engine pass over a
/// small grid must serve every record from the cache.
#[test]
fn warm_grid_runs_are_served_entirely_from_cache() {
    let dir = std::env::temp_dir().join(format!("ncp2-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        quiet: true,
        prof: false,
    };
    let mut grid = engine::Grid::new();
    let params = SysParams::default().with_nprocs(2);
    for (name, spec) in engine::tier1_workloads().into_iter().take(2) {
        grid.add(Job {
            label: format!("{name}/Base"),
            params: params.clone(),
            protocol: Protocol::TreadMarks(OverlapMode::Base),
            workload: spec,
            obs: true,
            fault: FaultPlan::none(),
            verify: false,
            timeseries: false,
        });
    }
    let cold = engine.run(&grid);
    assert!(cold.iter().all(|r| !r.cached));
    let warm = engine.run(&grid);
    assert!(warm.iter().all(|r| r.cached), "warm pass must be all hits");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.result.total_cycles, w.result.total_cycles);
        let (cr, wr) = (c.report.as_ref().unwrap(), w.report.as_ref().unwrap());
        assert_eq!(cr.to_json(), wr.to_json());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A gate binary on a warm cache: `critpath_report --check` run twice with
/// the cache on (cold, then warm) and once with `--no-cache` must pass all
/// three times and write the same bytes. Its observed Base run bypasses the
/// cache; the three measured ablations are served from it on the second run.
#[test]
fn critpath_report_gate_is_cache_transparent() {
    let dir = std::env::temp_dir().join(format!("ncp2-critpath-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the working dir");
    let run = |out: &str, extra: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_critpath_report"))
            .args(["--app", "TSP", "--quiet", "--check", "--out", out])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("critpath_report runs");
        assert!(
            output.status.success(),
            "critpath_report {extra:?} failed: {output:?}"
        );
        std::fs::read_to_string(dir.join(out)).expect("critpath_report wrote its JSON")
    };
    let cold = run("cold.json", &[]);
    let cached = std::fs::read_dir(dir.join(engine::DEFAULT_CACHE_DIR))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(
        cached, 3,
        "the cold run caches its three measured ablations, not the observed Base run"
    );
    let warm = run("warm.json", &[]);
    let fresh = run("fresh.json", &["--no-cache"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold, warm, "a warm cache changed critpath.json");
    assert_eq!(cold, fresh, "--no-cache changed critpath.json");
}
