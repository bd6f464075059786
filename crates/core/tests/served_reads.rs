//! Reads served on the workload thread: under every TreadMarks mode a
//! port's page copies must not outlive the acquire that can change the
//! page, and the back end's replay must catch a wrong served value.

use ncp2_core::{OverlapMode, Protocol, Simulation};
use ncp2_sim::{ProcOp, ProcPort, SysParams};

/// A shared word on a page of its own.
const P: u64 = 8192;

fn r32(port: &ProcPort, addr: u64) -> u64 {
    port.call(ProcOp::Read { addr, bytes: 4 }).value()
}

fn w32(port: &ProcPort, addr: u64, value: u64) {
    port.call(ProcOp::Write {
        addr,
        bytes: 4,
        value,
    });
}

fn run(mode: OverlapMode, body: impl Fn(usize, ProcPort) + Send + Sync + 'static) {
    let params = SysParams::default().with_nprocs(2);
    Simulation::new(params, Protocol::TreadMarks(mode)).run(body);
}

/// Node 1 caches P (its second read asks for a copy), then acquires the
/// lock node 0 wrote P under: the acquire must drop the copy, so the read
/// after it sees node 0's write.
#[test]
fn a_lock_acquire_drops_cached_pages() {
    for mode in OverlapMode::ALL {
        run(mode, move |pid, port| {
            if pid == 0 {
                port.call(ProcOp::Lock(3));
                w32(&port, P, 42);
                port.call(ProcOp::Unlock(3));
            } else {
                for _ in 0..3 {
                    assert_eq!(r32(&port, P), 0, "{mode:?}: before the acquire");
                }
                // Long enough for node 0 to release the lock first.
                port.call(ProcOp::Compute(1_000_000));
                port.call(ProcOp::Lock(3));
                assert_eq!(r32(&port, P), 42, "{mode:?}: after the acquire");
                port.call(ProcOp::Unlock(3));
            }
            port.call(ProcOp::Finish);
        });
    }
}

/// The same across a barrier: node 0 writes P while node 1 holds a copy;
/// after the barrier node 1 must read the new value.
#[test]
fn a_barrier_drops_cached_pages() {
    for mode in OverlapMode::ALL {
        run(mode, move |pid, port| {
            if pid == 0 {
                w32(&port, P, 42);
            } else {
                for _ in 0..3 {
                    assert_eq!(r32(&port, P), 0, "{mode:?}: before the barrier");
                }
            }
            port.call(ProcOp::Barrier(0));
            assert_eq!(r32(&port, P), 42, "{mode:?}: after the barrier");
            port.call(ProcOp::Finish);
        });
    }
}

/// A served read whose value is not what the read returns in the back end
/// stops the run with the cross-check message naming the processor, the
/// address and both values.
#[test]
fn a_wrong_served_value_fails_the_cross_check() {
    for mode in OverlapMode::ALL {
        let outcome = std::panic::catch_unwind(|| {
            run(mode, move |pid, port| {
                if pid == 1 {
                    port.call(ProcOp::ServedRead {
                        addr: P + 4,
                        bytes: 4,
                        value: 7,
                    });
                }
                port.call(ProcOp::Finish);
            })
        });
        let payload = outcome.expect_err("the wrong value must be caught");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(
            msg,
            "served read cross-check failed: processor 1 was served 0x7 at 0x2004, \
             but the read it stands for returns 0x0",
            "{mode:?}"
        );
    }
}
