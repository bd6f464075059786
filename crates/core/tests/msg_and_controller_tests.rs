//! Supplementary unit coverage for message-flow corners that the big
//! integration tests exercise only implicitly.

use ncp2_core::{OverlapMode, Protocol, Simulation};
use ncp2_sim::{Port, ProcOp, SysParams};

async fn w(port: &Port, addr: u64, v: u64) {
    port.call(ProcOp::Write {
        addr,
        bytes: 4,
        value: v,
    })
    .await;
}
async fn r(port: &Port, addr: u64) -> u64 {
    port.call(ProcOp::Read { addr, bytes: 4 }).await.value()
}

/// Controller modes keep controller-busy accounting: I-modes use the
/// controller, Base/P never touch it, AURC has none.
#[test]
fn controller_busy_accounting_by_mode() {
    async fn body(pid: usize, port: Port) {
        if pid == 0 {
            for i in 0..64 {
                w(&port, i * 4, i + 1).await;
            }
        }
        port.call(ProcOp::Barrier(0)).await;
        let _ = r(&port, 0).await;
        port.call(ProcOp::Barrier(1)).await;
    }
    let run = |proto| Simulation::new(SysParams::default().with_nprocs(4), proto).run(body);
    let base = run(Protocol::TreadMarks(OverlapMode::Base));
    let id = run(Protocol::TreadMarks(OverlapMode::ID));
    let aurc = run(Protocol::Aurc { prefetch: false });
    assert_eq!(base.nodes.iter().map(|n| n.controller_busy).sum::<u64>(), 0);
    assert!(id.nodes.iter().map(|n| n.controller_busy).sum::<u64>() > 0);
    assert_eq!(aurc.nodes.iter().map(|n| n.controller_busy).sum::<u64>(), 0);
}

/// Network traffic exists exactly when processors share (no self-traffic in
/// a partitioned workload beyond synchronization).
#[test]
fn message_counts_scale_with_sharing() {
    let run = |share: bool| {
        Simulation::new(
            SysParams::default().with_nprocs(4),
            Protocol::TreadMarks(OverlapMode::Base),
        )
        .run(move |pid, port| async move {
            // Partitioned: each proc touches its own page. Shared: everyone
            // reads page 0 afterwards.
            w(&port, 4096 * pid as u64, pid as u64 + 1).await;
            port.call(ProcOp::Barrier(0)).await;
            if share {
                let _ = r(&port, 0).await;
            }
            port.call(ProcOp::Barrier(1)).await;
        })
    };
    let partitioned = run(false);
    let shared = run(true);
    assert!(
        shared.net.bytes > partitioned.net.bytes,
        "sharing must add diff traffic ({} vs {})",
        shared.net.bytes,
        partitioned.net.bytes
    );
}

/// Barrier manager placement follows the barrier id.
#[test]
fn barrier_manager_follows_object_id() {
    // Managers service arrivals: their nodes record IPC or controller work.
    let run = |id: u32| {
        Simulation::new(
            SysParams::default().with_nprocs(4),
            Protocol::TreadMarks(OverlapMode::Base),
        )
        .run(move |pid, port| async move {
            w(&port, 4 * pid as u64, 1).await;
            port.call(ProcOp::Barrier(id)).await;
        })
    };
    let b1 = run(1);
    let b2 = run(2);
    // The manager absorbs the arrival-processing IPC.
    assert!(b1.nodes[1].breakdown.ipc >= b1.nodes[3].breakdown.ipc);
    assert!(b2.nodes[2].breakdown.ipc >= b2.nodes[3].breakdown.ipc);
}

/// Unlock without contention leaves the token at the releaser; a later
/// remote acquire still finds it (token chain integrity across idle time).
#[test]
fn token_survives_idle_periods() {
    Simulation::new(
        SysParams::default().with_nprocs(4),
        Protocol::TreadMarks(OverlapMode::Base),
    )
    .run(move |pid, port| async move {
        if pid == 3 {
            port.call(ProcOp::Lock(11)).await;
            w(&port, 0, 42).await;
            port.call(ProcOp::Unlock(11)).await;
        }
        port.call(ProcOp::Barrier(0)).await;
        port.call(ProcOp::Barrier(1)).await;
        port.call(ProcOp::Barrier(2)).await;
        if pid == 0 {
            port.call(ProcOp::Lock(11)).await;
            assert_eq!(r(&port, 0).await, 42);
            port.call(ProcOp::Unlock(11)).await;
        }
    });
}

/// Reads of never-written pages are valid zeroes under every protocol.
#[test]
fn cold_pages_read_zero() {
    for proto in [
        Protocol::TreadMarks(OverlapMode::Base),
        Protocol::TreadMarks(OverlapMode::IPD),
        Protocol::Aurc { prefetch: true },
    ] {
        Simulation::new(SysParams::default().with_nprocs(2), proto).run(
            move |_pid, port| async move {
                for page in 0..4u64 {
                    assert_eq!(r(&port, page * 4096 + 128).await, 0);
                }
                port.call(ProcOp::Barrier(0)).await;
            },
        );
    }
}
