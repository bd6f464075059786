//! Edge-case protocol tests: heavy lock contention, barrier-object reuse,
//! AURC sharing-mode transitions, prefetch/invalidation races, and mixed
//! access widths.

use ncp2_core::{OverlapMode, Protocol, Simulation};
use ncp2_sim::{Port, ProcOp, SysParams};

fn params(n: usize) -> SysParams {
    SysParams::default().with_nprocs(n)
}

async fn r32(port: &Port, addr: u64) -> u64 {
    port.call(ProcOp::Read { addr, bytes: 4 }).await.value()
}
async fn w32(port: &Port, addr: u64, v: u64) {
    port.call(ProcOp::Write {
        addr,
        bytes: 4,
        value: v,
    })
    .await;
}

/// All 16 processors hammer one lock; mutual exclusion and notice chains
/// must survive the forwarding chain under maximum contention.
#[test]
fn sixteen_way_lock_contention() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::Aurc { prefetch: false },
    ] {
        let result = Simulation::new(params(16), proto).run(move |_pid, port| async move {
            for _ in 0..4 {
                port.call(ProcOp::Lock(5)).await;
                let v = r32(&port, 256).await;
                port.call(ProcOp::Compute(25)).await;
                w32(&port, 256, v + 1).await;
                port.call(ProcOp::Unlock(5)).await;
            }
            port.call(ProcOp::Barrier(0)).await;
            assert_eq!(r32(&port, 256).await, 64);
        });
        assert_eq!(
            result.nodes.iter().map(|s| s.lock_acquires).sum::<u64>(),
            64
        );
    }
}

/// Several distinct barrier objects interleaved with reuse across epochs.
#[test]
fn multiple_barrier_objects_reused() {
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::ID)).run(
        move |pid, port| async move {
            for round in 0..3u64 {
                w32(&port, 4 * pid as u64, round * 10 + pid as u64).await;
                port.call(ProcOp::Barrier(2)).await; // manager = node 2
                for p in 0..4u64 {
                    assert_eq!(r32(&port, 4 * p).await, round * 10 + p);
                }
                port.call(ProcOp::Barrier(7)).await; // manager = node 3
            }
        },
    );
}

/// Mixed access widths (1/2/4/8 bytes) on the same page stay coherent.
#[test]
fn mixed_width_accesses() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::TreadMarks(OverlapMode::ID),
        Protocol::Aurc { prefetch: false },
    ] {
        Simulation::new(params(4), proto).run(move |pid, port| async move {
            let base = 64 * pid as u64;
            port.call(ProcOp::Write {
                addr: base,
                bytes: 1,
                value: 0xAB,
            })
            .await;
            port.call(ProcOp::Write {
                addr: base + 2,
                bytes: 2,
                value: 0xCDEF,
            })
            .await;
            port.call(ProcOp::Write {
                addr: base + 4,
                bytes: 4,
                value: 0xDEADBEEF,
            })
            .await;
            port.call(ProcOp::Write {
                addr: base + 8,
                bytes: 8,
                value: 0x0123_4567_89AB_CDEF,
            })
            .await;
            port.call(ProcOp::Barrier(0)).await;
            for p in 0..4u64 {
                let b = 64 * p;
                assert_eq!(
                    port.call(ProcOp::Read { addr: b, bytes: 1 }).await.value(),
                    0xAB
                );
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 2,
                        bytes: 2
                    })
                    .await
                    .value(),
                    0xCDEF
                );
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 4,
                        bytes: 4
                    })
                    .await
                    .value(),
                    0xDEADBEEF
                );
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 8,
                        bytes: 8
                    })
                    .await
                    .value(),
                    0x0123_4567_89AB_CDEF
                );
            }
        });
    }
}

/// AURC mode ladder: 1 sharer = Single (no traffic), 2 = pairwise (updates,
/// no fetches), 3 = replacement, 4+ = home mode with re-fetches.
#[test]
fn aurc_mode_ladder() {
    let result = Simulation::new(params(8), Protocol::Aurc { prefetch: false }).run(
        move |pid, port| async move {
            // Processors join the sharing set of page 0 one at a time.
            for joiner in 0..5usize {
                if pid == joiner {
                    port.call(ProcOp::Lock(0)).await;
                    let v = r32(&port, 0).await;
                    w32(&port, 0, v + 1).await;
                    port.call(ProcOp::Unlock(0)).await;
                }
                port.call(ProcOp::Barrier(0)).await;
            }
            if pid == 0 {
                port.call(ProcOp::Lock(0)).await;
                assert_eq!(r32(&port, 0).await, 5);
                port.call(ProcOp::Unlock(0)).await;
            }
        },
    );
    let updates: u64 = result.nodes.iter().map(|s| s.au_updates).sum();
    assert!(updates > 0, "pairwise/home writes must emit updates");
}

/// A page with a prefetch in flight that gets re-invalidated must fault
/// again rather than serve stale data.
#[test]
fn prefetch_reinvalidation_is_not_stale() {
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::IPD)).run(
        move |pid, port| async move {
            for round in 1..6u64 {
                if pid == 0 {
                    // Writer updates the page twice per round through two locks,
                    // so readers' prefetches frequently race an invalidation.
                    port.call(ProcOp::Lock(1)).await;
                    w32(&port, 0, round).await;
                    port.call(ProcOp::Unlock(1)).await;
                    port.call(ProcOp::Lock(2)).await;
                    w32(&port, 4, round * 7).await;
                    port.call(ProcOp::Unlock(2)).await;
                }
                port.call(ProcOp::Barrier(0)).await;
                let a = r32(&port, 0).await;
                let b = r32(&port, 4).await;
                assert_eq!(a, round, "stale word 0 in round {round}");
                assert_eq!(b, round * 7, "stale word 1 in round {round}");
                port.call(ProcOp::Barrier(0)).await;
            }
        },
    );
}

/// The overflow (whole-page) path: more writers' intervals than the
/// threshold forces full-page validation with correct contents.
#[test]
fn page_request_threshold_path_is_correct() {
    let mut p = params(8);
    p.page_req_threshold = 3; // force the overflow path quickly
    Simulation::new(p, Protocol::TreadMarks(OverlapMode::Base)).run(move |pid, port| async move {
        // Everybody updates its own word of one page under a lock, many
        // times; proc 7 stays away, accumulating dozens of notices.
        for round in 0..6u64 {
            if pid != 7 {
                port.call(ProcOp::Lock(3)).await;
                w32(&port, 4 * pid as u64, 100 * round + pid as u64).await;
                port.call(ProcOp::Unlock(3)).await;
            }
            port.call(ProcOp::Barrier(0)).await;
        }
        if pid == 7 {
            for p in 0..7u64 {
                assert_eq!(r32(&port, 4 * p).await, 500 + p);
            }
        }
    });
}

/// Locks with different managers and holders chain correctly when a node
/// re-acquires its own last lock (the manager shortcut).
#[test]
fn reacquire_shortcut_preserves_coherence() {
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::Base)).run(
        move |pid, port| async move {
            if pid == 1 {
                for i in 0..5u64 {
                    port.call(ProcOp::Lock(9)).await;
                    w32(&port, 0, i).await;
                    port.call(ProcOp::Unlock(9)).await;
                }
            }
            port.call(ProcOp::Barrier(0)).await;
            if pid == 2 {
                port.call(ProcOp::Lock(9)).await;
                assert_eq!(r32(&port, 0).await, 4);
                port.call(ProcOp::Unlock(9)).await;
            }
            port.call(ProcOp::Barrier(0)).await;
        },
    );
}

/// Node 1 reads P (a word on a page of its own) again and again, then
/// acquires the lock node 0 wrote P under: the read after the acquire must
/// see node 0's write, under every TreadMarks mode.
#[test]
fn a_lock_acquire_shows_a_rereader_the_releasers_write() {
    const P: u64 = 8192;
    for mode in OverlapMode::ALL {
        let params = params(2);
        Simulation::new(params, Protocol::TreadMarks(mode)).run(move |pid, port| async move {
            if pid == 0 {
                port.call(ProcOp::Lock(3)).await;
                w32(&port, P, 42).await;
                port.call(ProcOp::Unlock(3)).await;
            } else {
                for _ in 0..3 {
                    assert_eq!(r32(&port, P).await, 0, "{mode:?}: before the acquire");
                }
                // Long enough for node 0 to release the lock first.
                port.call(ProcOp::Compute(1_000_000)).await;
                port.call(ProcOp::Lock(3)).await;
                assert_eq!(r32(&port, P).await, 42, "{mode:?}: after the acquire");
                port.call(ProcOp::Unlock(3)).await;
            }
        });
    }
}

/// The same across a barrier: node 0 writes P while node 1 re-reads it;
/// after the barrier node 1 must read the new value.
#[test]
fn a_barrier_shows_a_rereader_the_writers_write() {
    const P: u64 = 8192;
    for mode in OverlapMode::ALL {
        let params = params(2);
        Simulation::new(params, Protocol::TreadMarks(mode)).run(move |pid, port| async move {
            if pid == 0 {
                w32(&port, P, 42).await;
            } else {
                for _ in 0..3 {
                    assert_eq!(r32(&port, P).await, 0, "{mode:?}: before the barrier");
                }
            }
            port.call(ProcOp::Barrier(0)).await;
            assert_eq!(r32(&port, P).await, 42, "{mode:?}: after the barrier");
        });
    }
}

/// A workload that panics with writes already issued must make the run
/// panic once, with the workload's own message, not hang waiting for ops
/// that never arrive.
#[test]
#[should_panic(expected = "workload bug")]
fn workload_panic_after_buffered_writes_fails_the_run() {
    Simulation::new(params(2), Protocol::TreadMarks(OverlapMode::Base)).run(
        move |pid, port| async move {
            w32(&port, 4 * pid as u64, 1).await;
            w32(&port, 4 * pid as u64 + 64, 2).await;
            if pid == 1 {
                panic!("workload bug");
            }
            port.call(ProcOp::Barrier(0)).await;
        },
    );
}
