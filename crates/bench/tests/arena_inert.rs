//! The pooled buffer arenas (`ncp2-core`'s `pool` module) are provably
//! inert: recycling backing `Vec`s through thread-local free lists changes
//! *where host memory comes from* and nothing the simulation computes.
//! These tests run the full tier-1 application set under every protocol
//! mode with pooling off and on and demand byte-identical simulated output
//! — the same shape as the `--prof` and fault-plan inertness guarantees —
//! and, when the counting allocator is compiled in (`--features prof`),
//! prove the pools still cut allocations on the Ocean hot path and that the
//! pooled count does not grow. The same allocator also guards the set-up
//! of a 256-node simulation: per-node cache tags are allocated at first
//! fill, never up front.

use std::sync::Mutex;

use ncp2::apps::{run_app, Ocean};
use ncp2::core::pool::set_pooling;
use ncp2::prelude::*;
use ncp2_bench::engine::{tier1_grid, Engine, RunRecord};
use ncp2_bench::harness::ALL_MODE_LABELS;

/// `set_pooling` flips a process-wide switch and the test harness runs
/// tests concurrently, so every test here serializes on this lock (and
/// restores the default before releasing it).
static POOLING: Mutex<()> = Mutex::new(());

/// Runs the 7-workloads × 8-modes tier-1 grid under the current pooling
/// mode.
fn run_grid() -> Vec<RunRecord> {
    Engine::new()
        .no_cache()
        .silent()
        .run(&tier1_grid(&ALL_MODE_LABELS))
}

#[test]
fn pooling_leaves_all_simulated_output_byte_identical() {
    let _guard = POOLING.lock().unwrap();
    set_pooling(false);
    let fresh = run_grid();
    set_pooling(true);
    let pooled = run_grid();

    assert_eq!(fresh.len(), pooled.len());
    assert_eq!(fresh.len(), 7 * ALL_MODE_LABELS.len());
    for (f, p) in fresh.iter().zip(&pooled) {
        let mut rep1 = f.report.clone().expect("tier-1 jobs are observed");
        let mut rep2 = p.report.clone().expect("tier-1 jobs are observed");
        let label = rep1.name.clone();
        assert_eq!(label, rep2.name);
        let (r1, r2) = (&f.result, &p.result);
        assert_eq!(r1.total_cycles, r2.total_cycles, "{label}");
        assert_eq!(r1.checksum, r2.checksum, "{label}");
        assert_eq!(r1.aggregate(), r2.aggregate(), "{label}");
        assert_eq!(r1.nodes, r2.nodes, "{label}");
        // The derived metrics report must be byte-identical too (host
        // attribution is wall-clock and legitimately differs).
        rep1.host.clear();
        rep2.host.clear();
        assert_eq!(rep1.to_json(), rep2.to_json(), "{label}");
    }
}

/// One Ocean run at 64 nodes with the given iteration count, returning the
/// result and how many host allocations the event-loop thread (where all
/// protocol work happens) performed during it.
fn ocean64(params: &SysParams, iters: usize) -> (RunResult, u64) {
    let (a0, _) = ncp2_prof::prof_thread_counts();
    let r = run_app(
        params.clone(),
        Protocol::TreadMarks(OverlapMode::Base),
        Ocean { grid: 64, iters },
    );
    let (a1, _) = ncp2_prof::prof_thread_counts();
    (r, a1 - a0)
}

/// Pooled allocations per Ocean@64 iteration: 1,577 in every run since
/// diff requests and replies carry their lists inline (1,746–1,751 before,
/// with the keyed event heap; the count varies by a few). The heap's slab
/// and free list stop allocating once the queue has been at its deepest, so
/// the pooled count may not exceed this.
const POOLED_ALLOCS_PER_ITER_CEILING: u64 = 1_590;

#[test]
fn pooling_cuts_ocean_hot_path_allocations() {
    let _guard = POOLING.lock().unwrap();
    let params = SysParams::default().with_nprocs(64);

    // Measuring a 2-iteration and a 6-iteration run and dividing the
    // difference by 4 cancels the per-run setup cost (page tables, node
    // state, channels), leaving the *marginal* allocations of one Ocean
    // iteration — the quantity that scales with simulated work and that
    // pooling targets. Each mode warms up with one run first so the pooled
    // side measures its steady state, not free-list population.
    set_pooling(false);
    let (r_off, _) = ocean64(&params, 2);
    let (r2, off_2) = ocean64(&params, 2);
    let (_, off_6) = ocean64(&params, 6);
    let marginal_off = (off_6 - off_2) / 4;

    set_pooling(true);
    let (r_warm, _) = ocean64(&params, 2);
    let (r_on, on_2) = ocean64(&params, 2);
    let (_, on_6) = ocean64(&params, 6);
    let marginal_on = (on_6 - on_2) / 4;

    // Inert regardless of allocator strategy.
    for r in [&r2, &r_warm, &r_on] {
        assert_eq!(r_off.total_cycles, r.total_cycles);
        assert_eq!(r_off.checksum, r.checksum);
        assert_eq!(r_off.aggregate(), r.aggregate());
        assert_eq!(r_off.nodes, r.nodes);
    }

    if ncp2_prof::prof_enabled() {
        eprintln!(
            "ocean@64 marginal allocs/iter: pooling off = {marginal_off}, on = {marginal_on}"
        );
        assert!(
            marginal_on < marginal_off,
            "pooling must cut steady-state event-loop allocations per Ocean@64 \
             iteration: off = {marginal_off}/iter, on = {marginal_on}/iter"
        );
        assert!(
            marginal_on <= POOLED_ALLOCS_PER_ITER_CEILING,
            "pooled steady-state event-loop allocations per Ocean@64 iteration grew: \
             {marginal_on}/iter, ceiling {POOLED_ALLOCS_PER_ITER_CEILING}/iter"
        );
    } else {
        // Without the counting allocator nothing writes the counters.
        assert_eq!((off_2, off_6, on_2, on_6), (0, 0, 0, 0));
    }
}

/// Host bytes a 256-node I+P+D `Simulation::new` may allocate. Building
/// every node's 4,096 cache tags up front took 17.6 MiB; with tags
/// allocated at first fill the set-up measures 1.6 MiB.
const SIM_NEW_256_BYTES_CEILING: u64 = 4 << 20;

#[test]
fn simulation_setup_at_256_nodes_allocates_no_cache_tags() {
    let params = SysParams::default().with_nprocs(256);
    let (a0, b0) = ncp2_prof::prof_thread_counts();
    let _sim = Simulation::new(params, Protocol::TreadMarks(OverlapMode::IPD));
    let (a1, b1) = ncp2_prof::prof_thread_counts();
    let bytes = b1 - b0;

    if ncp2_prof::prof_enabled() {
        eprintln!(
            "256-node I+P+D Simulation::new: {} allocs, {bytes} bytes",
            a1 - a0
        );
        assert!(
            bytes < SIM_NEW_256_BYTES_CEILING,
            "256-node Simulation::new allocated {bytes} bytes, ceiling \
             {SIM_NEW_256_BYTES_CEILING}: are cache tags built up front again?"
        );
    } else {
        // Without the counting allocator nothing writes the counters.
        assert_eq!((a1 - a0, bytes), (0, 0));
    }
}

/// Allocations the current thread makes while running `f` (0 without the
/// counting allocator, which alone writes the counters).
fn allocs_during(f: impl FnOnce()) -> u64 {
    let (a0, _) = ncp2_prof::prof_thread_counts();
    f();
    let (a1, _) = ncp2_prof::prof_thread_counts();
    a1 - a0
}

#[test]
fn one_interval_diff_traffic_allocates_nothing() {
    use std::sync::Arc;

    use ncp2::core::diff::{Diff, DiffList};
    use ncp2::core::interval::IvlList;
    use ncp2::core::msg::Msg;
    use ncp2::core::PageBuf;

    let _guard = POOLING.lock().unwrap();
    let vt = Arc::new(ncp2::core::VectorTime::new(256));
    let page = PageBuf::new(4096);
    let diff = Arc::new(Diff::from_twin(3, 1, 7, &page, &page));

    let req = allocs_during(|| {
        let mut intervals = IvlList::new();
        intervals.push(7);
        let msg = Msg::DiffReq {
            page: 3,
            intervals,
            requester: 0,
            requester_vt: Arc::clone(&vt),
            prefetch: true,
            want_page: false,
        };
        let copy = msg.clone();
        drop((msg, copy));
    });
    assert_eq!(req, 0, "a one-interval DiffReq allocated");

    let reply = allocs_during(|| {
        let mut diffs = DiffList::new();
        diffs.push(Arc::clone(&diff));
        let msg = Msg::DiffReply {
            page: 3,
            diffs,
            full_page: None,
            prefetch: true,
        };
        let copy = msg.clone();
        drop((msg, copy));
    });
    assert_eq!(reply, 0, "a one-diff DiffReply allocated");
}

#[test]
fn vector_times_do_not_inherit_spilled_interval_lists() {
    use ncp2::core::interval::{IvlList, IVL_INLINE};
    use ncp2::core::VectorTime;

    let _guard = POOLING.lock().unwrap();
    // Park one 256-node vector time's buffer, then spill and drop many
    // interval lists at once: a vector time built next must find a buffer
    // of its own size, not one of theirs to reallocate.
    drop(VectorTime::new(256));
    let lists: Vec<IvlList> = (0..64)
        .map(|_| {
            let mut l = IvlList::new();
            for id in 0..=IVL_INLINE as u32 {
                l.push(id);
            }
            l
        })
        .collect();
    drop(lists);
    let allocs = allocs_during(|| drop(VectorTime::new(256)));
    assert_eq!(
        allocs, 0,
        "a VectorTime reallocated a spilled list's buffer"
    );
}
