//! End-to-end protocol tests: tiny workloads driven through the full
//! simulated machine, checking both data correctness (the DSM moves real
//! bytes) and structural timing properties.

use ncp2_core::{OverlapMode, Protocol, Simulation};
use ncp2_sim::{Port, ProcOp, SysParams};

const ALL_PROTOCOLS: [Protocol; 8] = [
    Protocol::TreadMarks(OverlapMode::Base),
    Protocol::TreadMarks(OverlapMode::I),
    Protocol::TreadMarks(OverlapMode::ID),
    Protocol::TreadMarks(OverlapMode::P),
    Protocol::TreadMarks(OverlapMode::IP),
    Protocol::TreadMarks(OverlapMode::IPD),
    Protocol::Aurc { prefetch: false },
    Protocol::Aurc { prefetch: true },
];

fn params(n: usize) -> SysParams {
    SysParams::default().with_nprocs(n)
}

async fn read_u32(port: &Port, addr: u64) -> u64 {
    port.call(ProcOp::Read { addr, bytes: 4 }).await.value()
}

async fn write_u32(port: &Port, addr: u64, value: u64) {
    port.call(ProcOp::Write {
        addr,
        bytes: 4,
        value,
    })
    .await;
}

/// Producer/consumer through a barrier: proc 0 writes, everyone reads.
#[test]
fn barrier_propagates_writes_under_every_protocol() {
    for proto in ALL_PROTOCOLS {
        let sim = Simulation::new(params(4), proto);
        let result = sim.run(move |pid, port| async move {
            if pid == 0 {
                for i in 0..64u64 {
                    write_u32(&port, i * 4, 1000 + i).await;
                }
            }
            port.call(ProcOp::Barrier(0)).await;
            for i in 0..64u64 {
                let v = read_u32(&port, i * 4).await;
                assert_eq!(v, 1000 + i, "{proto:?}: proc {pid} read stale word {i}");
            }
            port.call(ProcOp::Barrier(1)).await;
        });
        assert!(result.total_cycles > 0);
        assert_eq!(result.nodes.len(), 4);
    }
}

/// Migratory counter under a lock: the canonical LRC litmus test.
#[test]
fn lock_protected_counter_is_coherent() {
    for proto in ALL_PROTOCOLS {
        let n = 4;
        let rounds = 8u64;
        let sim = Simulation::new(params(n), proto);
        let result = sim.run(move |pid, port| async move {
            for _ in 0..rounds {
                port.call(ProcOp::Lock(3)).await;
                let v = read_u32(&port, 0).await;
                port.call(ProcOp::Compute(50)).await;
                write_u32(&port, 0, v + 1).await;
                port.call(ProcOp::Unlock(3)).await;
            }
            port.call(ProcOp::Barrier(0)).await;
            let total = read_u32(&port, 0).await;
            assert_eq!(
                total,
                n as u64 * rounds,
                "{proto:?}: proc {pid} saw bad counter"
            );
        });
        let acquires: u64 = result.nodes.iter().map(|s| s.lock_acquires).sum();
        assert_eq!(
            acquires,
            n as u64 * rounds,
            "{proto:?}: wrong acquire count"
        );
    }
}

/// False sharing: every processor owns a disjoint word range of the same
/// page; after a barrier everyone must see everyone's words (diff merge).
#[test]
fn false_sharing_within_one_page_merges() {
    for proto in ALL_PROTOCOLS {
        let n = 4;
        let sim = Simulation::new(params(n), proto);
        sim.run(move |pid, port| async move {
            for round in 1..4u64 {
                for i in 0..8u64 {
                    let word = pid as u64 * 8 + i;
                    write_u32(&port, word * 4, round * 100 + word).await;
                }
                port.call(ProcOp::Barrier(0)).await;
                for word in 0..(n as u64 * 8) {
                    let v = read_u32(&port, word * 4).await;
                    assert_eq!(
                        v,
                        round * 100 + word,
                        "{proto:?}: round {round} word {word}"
                    );
                }
                port.call(ProcOp::Barrier(1)).await;
            }
        });
    }
}

/// Chained producer/consumer through locks only (no barrier in the middle):
/// tests write-notice propagation along the lock-grant chain.
#[test]
fn lock_chain_carries_notices() {
    for proto in ALL_PROTOCOLS {
        let n = 4;
        let sim = Simulation::new(params(n), proto);
        sim.run(move |pid, port| async move {
            // Each proc appends its id to a log guarded by the lock.
            port.call(ProcOp::Lock(0)).await;
            let len = read_u32(&port, 0).await;
            write_u32(&port, 4 * (1 + len), pid as u64 + 77).await;
            write_u32(&port, 0, len + 1).await;
            port.call(ProcOp::Unlock(0)).await;
            port.call(ProcOp::Barrier(9)).await;
            let len = read_u32(&port, 0).await;
            assert_eq!(len, n as u64, "{proto:?}: log length");
            let mut seen = Vec::new();
            for i in 1..=n as u64 {
                seen.push(read_u32(&port, 4 * i).await);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![77, 78, 79, 80], "{proto:?}: log contents");
        });
    }
}

/// Bit-for-bit determinism: identical runs produce identical cycle counts
/// and breakdowns.
#[test]
fn runs_are_deterministic() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::TreadMarks(OverlapMode::IPD),
        Protocol::Aurc { prefetch: true },
    ] {
        let run = |_: usize| {
            let sim = Simulation::new(params(4), proto);
            sim.run(move |pid, port| async move {
                for r in 0..6u64 {
                    port.call(ProcOp::Lock(1)).await;
                    let v = read_u32(&port, 128).await;
                    write_u32(&port, 128, v + pid as u64 + r).await;
                    port.call(ProcOp::Unlock(1)).await;
                    port.call(ProcOp::Compute(200)).await;
                    port.call(ProcOp::Barrier(0)).await;
                }
            })
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.total_cycles, b.total_cycles, "{proto:?} nondeterministic");
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(
                x.breakdown, y.breakdown,
                "{proto:?} nondeterministic breakdown"
            );
        }
    }
}

/// A sequential (1-processor) run bypasses the protocol: no faults, no
/// synchronization cost beyond the nominal op charges.
#[test]
fn sequential_mode_is_protocol_free() {
    let sim = Simulation::new(params(1), Protocol::TreadMarks(OverlapMode::Base));
    let result = sim.run(move |_, port| async move {
        for i in 0..256u64 {
            write_u32(&port, i * 4, i).await;
        }
        for i in 0..256u64 {
            assert_eq!(read_u32(&port, i * 4).await, i);
        }
        port.call(ProcOp::Lock(0)).await;
        port.call(ProcOp::Unlock(0)).await;
        port.call(ProcOp::Barrier(0)).await;
    });
    let s = &result.nodes[0];
    assert_eq!(s.faults, 0);
    assert_eq!(s.diffs_created, 0);
    assert_eq!(result.net.messages, 0);
    assert!(s.breakdown.busy > 0);
}

/// Overlap-mode structure: hardware diffs eliminate twins; Base does not.
#[test]
fn hw_diffs_eliminate_twins() {
    async fn worker(pid: usize, port: Port) {
        for r in 0..4u64 {
            if pid == 0 {
                for i in 0..32u64 {
                    write_u32(&port, i * 4, r * 10 + i).await;
                }
            }
            port.call(ProcOp::Barrier(0)).await;
            let _ = read_u32(&port, 0).await;
            port.call(ProcOp::Barrier(1)).await;
        }
    }
    let base = Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::Base)).run(worker);
    let hw = Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::ID)).run(worker);
    let base_twins: u64 = base.nodes.iter().map(|s| s.twin_cycles).sum();
    let hw_twins: u64 = hw.nodes.iter().map(|s| s.twin_cycles).sum();
    assert!(base_twins > 0, "Base should create twins");
    assert_eq!(hw_twins, 0, "I+D must not create twins");
    assert!(base.nodes.iter().map(|s| s.diffs_created).sum::<u64>() > 0);
    assert!(hw.nodes.iter().map(|s| s.diffs_created).sum::<u64>() > 0);
    // Diff work costs far fewer cycles on the DMA engine.
    assert!(hw.diff_total_cycles() < base.diff_total_cycles());
}

/// Prefetching modes issue prefetches for re-invalidated referenced pages,
/// and useless prefetches are detected.
#[test]
fn prefetch_heuristic_fires_and_tracks_uselessness() {
    let result = Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::IP)).run(
        move |pid, port| async move {
            // Proc 0 repeatedly rewrites a block everyone reads, so readers'
            // pages are invalidated and re-referenced every round.
            for r in 1..6u64 {
                if pid == 0 {
                    for i in 0..16u64 {
                        write_u32(&port, i * 4, r + i).await;
                    }
                }
                port.call(ProcOp::Barrier(0)).await;
                if pid != 0 {
                    let v = read_u32(&port, 0).await;
                    assert_eq!(v, r);
                }
                port.call(ProcOp::Barrier(1)).await;
            }
        },
    );
    let (issued, _useless) = result.prefetch_totals();
    assert!(issued > 0, "prefetches should have been issued");
    // The same workload under Base issues none.
    let base = Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::Base)).run(
        move |pid, port| async move {
            for r in 1..6u64 {
                if pid == 0 {
                    write_u32(&port, 0, r).await;
                }
                port.call(ProcOp::Barrier(0)).await;
                if pid != 0 {
                    let _ = read_u32(&port, 0).await;
                }
                port.call(ProcOp::Barrier(1)).await;
            }
        },
    );
    assert_eq!(base.prefetch_totals().0, 0);
}

/// AURC: two sharers never fault after pairing; a third+fourth force home
/// mode and fetches resume.
#[test]
fn aurc_pairwise_sharing_avoids_faults() {
    // Two processors ping-pong a flag page; the other two stay out of it.
    let result = Simulation::new(params(4), Protocol::Aurc { prefetch: false }).run(
        move |pid, port| async move {
            if pid < 2 {
                for r in 0..10u64 {
                    port.call(ProcOp::Lock(0)).await;
                    let v = read_u32(&port, 0).await;
                    write_u32(&port, 0, v + 1).await;
                    port.call(ProcOp::Unlock(0)).await;
                    port.call(ProcOp::Compute(100 + r)).await;
                }
            }
            port.call(ProcOp::Barrier(0)).await;
        },
    );
    // Pairwise: after the initial pairing fetch, no page fetches from locks.
    let fetches: u64 = result.nodes.iter().map(|s| s.page_fetches).sum();
    assert!(
        fetches <= 2,
        "pairwise sharing should avoid repeated fetches, got {fetches}"
    );
    let updates: u64 = result.nodes.iter().map(|s| s.au_updates).sum();
    assert!(updates > 0, "writes must generate automatic updates");
}

/// AURC with >2 sharers reverts to home mode and pages are re-fetched after
/// invalidation.
#[test]
fn aurc_home_mode_faults_after_invalidation() {
    let result = Simulation::new(params(4), Protocol::Aurc { prefetch: false }).run(
        move |_pid, port| async move {
            for r in 1..5u64 {
                port.call(ProcOp::Lock(0)).await;
                let v = read_u32(&port, 0).await;
                write_u32(&port, 0, v + 1).await;
                port.call(ProcOp::Unlock(0)).await;
                port.call(ProcOp::Compute(50 + r)).await;
            }
            port.call(ProcOp::Barrier(0)).await;
            let total = read_u32(&port, 0).await;
            assert_eq!(total, 16);
        },
    );
    let fetches: u64 = result.nodes.iter().map(|s| s.page_fetches).sum();
    assert!(
        fetches >= 3,
        "home mode should force re-fetches, got {fetches}"
    );
}

/// The execution-time breakdown accounts for every processor cycle: the
/// categories sum to each node's final clock.
#[test]
fn breakdown_sums_to_total_time() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::Aurc { prefetch: false },
    ] {
        let result = Simulation::new(params(4), proto).run(move |pid, port| async move {
            for _ in 0..4u64 {
                port.call(ProcOp::Lock(0)).await;
                let v = read_u32(&port, 64).await;
                write_u32(&port, 64, v + pid as u64).await;
                port.call(ProcOp::Unlock(0)).await;
                port.call(ProcOp::Barrier(0)).await;
            }
        });
        for (pid, s) in result.nodes.iter().enumerate() {
            let total = s.breakdown.total();
            assert!(total > 0, "{proto:?}: node {pid} recorded no time");
            assert!(
                total <= result.total_cycles + 1,
                "{proto:?}: node {pid} breakdown {total} exceeds run {t}",
                t = result.total_cycles
            );
        }
    }
}
