//! Edge-case protocol tests: heavy lock contention, barrier-object reuse,
//! AURC sharing-mode transitions, prefetch/invalidation races, and mixed
//! access widths.

use ncp2_core::{OverlapMode, Protocol, Simulation};
use ncp2_sim::{ProcOp, ProcPort, SysParams};

fn params(n: usize) -> SysParams {
    SysParams::default().with_nprocs(n)
}

fn r32(port: &ProcPort, addr: u64) -> u64 {
    port.call(ProcOp::Read { addr, bytes: 4 }).value()
}
fn w32(port: &ProcPort, addr: u64, v: u64) {
    port.call(ProcOp::Write {
        addr,
        bytes: 4,
        value: v,
    });
}

/// All 16 processors hammer one lock; mutual exclusion and notice chains
/// must survive the forwarding chain under maximum contention.
#[test]
fn sixteen_way_lock_contention() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::Aurc { prefetch: false },
    ] {
        let result = Simulation::new(params(16), proto).run(|_pid, port| {
            for _ in 0..4 {
                port.call(ProcOp::Lock(5));
                let v = r32(&port, 256);
                port.call(ProcOp::Compute(25));
                w32(&port, 256, v + 1);
                port.call(ProcOp::Unlock(5));
            }
            port.call(ProcOp::Barrier(0));
            assert_eq!(r32(&port, 256), 64);
            port.call(ProcOp::Finish);
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
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::ID)).run(|pid, port| {
        for round in 0..3u64 {
            w32(&port, 4 * pid as u64, round * 10 + pid as u64);
            port.call(ProcOp::Barrier(2)); // manager = node 2
            for p in 0..4u64 {
                assert_eq!(r32(&port, 4 * p), round * 10 + p);
            }
            port.call(ProcOp::Barrier(7)); // manager = node 3
        }
        port.call(ProcOp::Finish);
    });
}

/// Mixed access widths (1/2/4/8 bytes) on the same page stay coherent.
#[test]
fn mixed_width_accesses() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::TreadMarks(OverlapMode::ID),
        Protocol::Aurc { prefetch: false },
    ] {
        Simulation::new(params(4), proto).run(move |pid, port| {
            let base = 64 * pid as u64;
            port.call(ProcOp::Write {
                addr: base,
                bytes: 1,
                value: 0xAB,
            });
            port.call(ProcOp::Write {
                addr: base + 2,
                bytes: 2,
                value: 0xCDEF,
            });
            port.call(ProcOp::Write {
                addr: base + 4,
                bytes: 4,
                value: 0xDEADBEEF,
            });
            port.call(ProcOp::Write {
                addr: base + 8,
                bytes: 8,
                value: 0x0123_4567_89AB_CDEF,
            });
            port.call(ProcOp::Barrier(0));
            for p in 0..4u64 {
                let b = 64 * p;
                assert_eq!(port.call(ProcOp::Read { addr: b, bytes: 1 }).value(), 0xAB);
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 2,
                        bytes: 2
                    })
                    .value(),
                    0xCDEF
                );
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 4,
                        bytes: 4
                    })
                    .value(),
                    0xDEADBEEF
                );
                assert_eq!(
                    port.call(ProcOp::Read {
                        addr: b + 8,
                        bytes: 8
                    })
                    .value(),
                    0x0123_4567_89AB_CDEF
                );
            }
            port.call(ProcOp::Finish);
        });
    }
}

/// AURC mode ladder: 1 sharer = Single (no traffic), 2 = pairwise (updates,
/// no fetches), 3 = replacement, 4+ = home mode with re-fetches.
#[test]
fn aurc_mode_ladder() {
    let result = Simulation::new(params(8), Protocol::Aurc { prefetch: false }).run(|pid, port| {
        // Processors join the sharing set of page 0 one at a time.
        for joiner in 0..5usize {
            if pid == joiner {
                port.call(ProcOp::Lock(0));
                let v = r32(&port, 0);
                w32(&port, 0, v + 1);
                port.call(ProcOp::Unlock(0));
            }
            port.call(ProcOp::Barrier(0));
        }
        if pid == 0 {
            port.call(ProcOp::Lock(0));
            assert_eq!(r32(&port, 0), 5);
            port.call(ProcOp::Unlock(0));
        }
        port.call(ProcOp::Finish);
    });
    let updates: u64 = result.nodes.iter().map(|s| s.au_updates).sum();
    assert!(updates > 0, "pairwise/home writes must emit updates");
}

/// A page with a prefetch in flight that gets re-invalidated must fault
/// again rather than serve stale data.
#[test]
fn prefetch_reinvalidation_is_not_stale() {
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::IPD)).run(|pid, port| {
        for round in 1..6u64 {
            if pid == 0 {
                // Writer updates the page twice per round through two locks,
                // so readers' prefetches frequently race an invalidation.
                port.call(ProcOp::Lock(1));
                w32(&port, 0, round);
                port.call(ProcOp::Unlock(1));
                port.call(ProcOp::Lock(2));
                w32(&port, 4, round * 7);
                port.call(ProcOp::Unlock(2));
            }
            port.call(ProcOp::Barrier(0));
            let a = r32(&port, 0);
            let b = r32(&port, 4);
            assert_eq!(a, round, "stale word 0 in round {round}");
            assert_eq!(b, round * 7, "stale word 1 in round {round}");
            port.call(ProcOp::Barrier(0));
        }
        port.call(ProcOp::Finish);
    });
}

/// The overflow (whole-page) path: more writers' intervals than the
/// threshold forces full-page validation with correct contents.
#[test]
fn page_request_threshold_path_is_correct() {
    let mut p = params(8);
    p.page_req_threshold = 3; // force the overflow path quickly
    Simulation::new(p, Protocol::TreadMarks(OverlapMode::Base)).run(|pid, port| {
        // Everybody updates its own word of one page under a lock, many
        // times; proc 7 stays away, accumulating dozens of notices.
        for round in 0..6u64 {
            if pid != 7 {
                port.call(ProcOp::Lock(3));
                w32(&port, 4 * pid as u64, 100 * round + pid as u64);
                port.call(ProcOp::Unlock(3));
            }
            port.call(ProcOp::Barrier(0));
        }
        if pid == 7 {
            for p in 0..7u64 {
                assert_eq!(r32(&port, 4 * p), 500 + p);
            }
        }
        port.call(ProcOp::Finish);
    });
}

/// Locks with different managers and holders chain correctly when a node
/// re-acquires its own last lock (the manager shortcut).
#[test]
fn reacquire_shortcut_preserves_coherence() {
    Simulation::new(params(4), Protocol::TreadMarks(OverlapMode::Base)).run(|pid, port| {
        if pid == 1 {
            for i in 0..5u64 {
                port.call(ProcOp::Lock(9));
                w32(&port, 0, i);
                port.call(ProcOp::Unlock(9));
            }
        }
        port.call(ProcOp::Barrier(0));
        if pid == 2 {
            port.call(ProcOp::Lock(9));
            assert_eq!(r32(&port, 0), 4);
            port.call(ProcOp::Unlock(9));
        }
        port.call(ProcOp::Barrier(0));
        port.call(ProcOp::Finish);
    });
}

/// A workload that panics with writes still queued in its port must make
/// the run panic (naming the dead processor), not hang waiting for ops
/// that never arrive.
#[test]
#[should_panic(expected = "died before Finish")]
fn workload_panic_after_buffered_writes_fails_the_run() {
    Simulation::new(params(2), Protocol::TreadMarks(OverlapMode::Base)).run(|pid, port| {
        w32(&port, 4 * pid as u64, 1);
        w32(&port, 4 * pid as u64 + 64, 2);
        if pid == 1 {
            panic!("workload bug");
        }
        port.call(ProcOp::Barrier(0));
        port.call(ProcOp::Finish);
    });
}
