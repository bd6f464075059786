//! Tests for the optional protocol event trace.

use ncp2_core::{trace_csv, OverlapMode, Protocol, Simulation, TraceKind};
use ncp2_sim::{ProcOp, SysParams};

fn run_traced(proto: Protocol) -> ncp2_core::RunResult {
    let params = SysParams {
        trace: true,
        ..SysParams::default().with_nprocs(4)
    };
    Simulation::new(params, proto).run(move |pid, port| async move {
        port.call(ProcOp::Lock(1)).await;
        let v = port.call(ProcOp::Read { addr: 0, bytes: 4 }).await.value();
        port.call(ProcOp::Write {
            addr: 0,
            bytes: 4,
            value: v + pid as u64 + 1,
        })
        .await;
        port.call(ProcOp::Unlock(1)).await;
        port.call(ProcOp::Barrier(0)).await;
    })
}

#[test]
fn trace_records_the_protocol_story() {
    let r = run_traced(Protocol::TreadMarks(OverlapMode::Base));
    assert!(!r.trace.is_empty(), "tracing was enabled");
    let count = |pred: fn(&TraceKind) -> bool| r.trace.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, TraceKind::LockAcquired { .. })), 4);
    assert_eq!(count(|k| matches!(k, TraceKind::BarrierReleased)), 4);
    assert!(
        count(|k| matches!(k, TraceKind::Fault { .. })) >= 3,
        "later acquirers fault"
    );
    assert!(count(|k| matches!(k, TraceKind::MsgSent { .. })) > 8);
    // Timestamps are sane and non-decreasing is NOT required (events from
    // different nodes interleave), but every event fits inside the run.
    assert!(r
        .trace
        .iter()
        .all(|e| e.time <= r.total_cycles && e.node < 4));
}

#[test]
fn trace_is_off_by_default() {
    let r = Simulation::new(
        SysParams::default().with_nprocs(2),
        Protocol::TreadMarks(OverlapMode::Base),
    )
    .run(move |_, port| async move {
        port.call(ProcOp::Write {
            addr: 0,
            bytes: 4,
            value: 1,
        })
        .await;
        port.call(ProcOp::Barrier(0)).await;
    });
    assert!(r.trace.is_empty());
}

#[test]
fn trace_renders_to_csv() {
    let r = run_traced(Protocol::Aurc { prefetch: false });
    let csv = trace_csv(&r.trace);
    assert_eq!(csv.lines().count(), r.trace.len() + 1);
    assert!(csv.contains("msg_sent"));
    assert!(csv.contains("lock_acquired"));
}

#[test]
fn traced_and_untraced_runs_have_identical_timing() {
    let traced = run_traced(Protocol::TreadMarks(OverlapMode::ID));
    let untraced = {
        let params = SysParams {
            trace: false,
            ..SysParams::default().with_nprocs(4)
        };
        Simulation::new(params, Protocol::TreadMarks(OverlapMode::ID)).run(
            move |pid, port| async move {
                port.call(ProcOp::Lock(1)).await;
                let v = port.call(ProcOp::Read { addr: 0, bytes: 4 }).await.value();
                port.call(ProcOp::Write {
                    addr: 0,
                    bytes: 4,
                    value: v + pid as u64 + 1,
                })
                .await;
                port.call(ProcOp::Unlock(1)).await;
                port.call(ProcOp::Barrier(0)).await;
            },
        )
    };
    assert_eq!(
        traced.total_cycles, untraced.total_cycles,
        "tracing must be timing-neutral"
    );
}

#[test]
fn new_event_kinds_fire_under_the_right_modes() {
    // Base: diffs are created and applied by the processors themselves.
    let base = run_traced(Protocol::TreadMarks(OverlapMode::Base));
    let count = |r: &ncp2_core::RunResult, pred: fn(&TraceKind) -> bool| {
        r.trace.iter().filter(|e| pred(&e.kind)).count()
    };
    assert!(
        count(&base, |k| matches!(k, TraceKind::DiffCreated { .. })) > 0,
        "writes under locks force diffs"
    );
    assert!(count(&base, |k| matches!(k, TraceKind::DiffApplied { .. })) > 0);
    assert_eq!(
        count(&base, |k| matches!(k, TraceKind::ControllerCommand { .. })),
        0,
        "Base has no protocol controller"
    );

    // I+D: the controller executes twin/diff/send commands on the nodes'
    // behalf, and every command is traced.
    let id = run_traced(Protocol::TreadMarks(OverlapMode::ID));
    assert!(count(&id, |k| matches!(k, TraceKind::ControllerCommand { .. })) > 0);

    // I+P+D: completions never outnumber issues (prefetches still in
    // flight when the run ends are the only legal imbalance), every
    // completion is preceded by its own issue, and the trace agrees with
    // the per-node counters.
    let ipd = run_traced(Protocol::TreadMarks(OverlapMode::IPD));
    let issued = count(&ipd, |k| matches!(k, TraceKind::PrefetchIssued { .. }));
    assert!(issued > 0, "the shared page is invalid at lock acquire");
    for e in &ipd.trace {
        let TraceKind::PrefetchCompleted { page } = e.kind else {
            continue;
        };
        assert!(
            ipd.trace.iter().any(|i| i.node == e.node
                && i.time <= e.time
                && matches!(i.kind, TraceKind::PrefetchIssued { page: p } if p == page)),
            "completion of page {page} at P{} without a prior issue",
            e.node
        );
    }
    let completed = count(&ipd, |k| matches!(k, TraceKind::PrefetchCompleted { .. }));
    assert!(completed <= issued);
    let counted: u64 = ipd.nodes.iter().map(|n| n.prefetches).sum();
    assert_eq!(
        issued as u64, counted,
        "trace and stats agree on prefetches"
    );
}
