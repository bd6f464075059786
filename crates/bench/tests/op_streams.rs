//! Op-stream equivalence: every processor issues exactly the op sequence
//! pinned for it, as the back end receives it.
//!
//! Each workload runs as in `ncp2_apps::run_app`, inside a wrapper future
//! that records the op its workload suspends on (`Port::pending_op`) and
//! the `Finish` its return stands for. A digest hashes each processor's
//! sequence, in processor order. The pinned digests were computed from the
//! threaded front end's op streams, counting a read its port answered from
//! a page copy as the read it stood for: they pin that running workloads
//! as coroutines changed no op of any processor.

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::task::Poll;

use ncp2::apps::{Ctx, Svc, Workload};
use ncp2::core::{OverlapMode, Protocol, Simulation};
use ncp2::sim::{ProcOp, StableHasher, SvcClass, SvcOp, SysParams};
use ncp2_bench::engine::{tier1_workloads, WorkloadSpec};
use ncp2_bench::harness::{protocol_from_label, ALL_MODE_LABELS};

/// (app, mode, ops, digest) of every tier-1 run at 4 processors, in grid
/// order.
const TIER1: [(&str, &str, usize, u64); 56] = [
    ("TSP", "Base", 345, 0x62fb_f7a3_2d82_1f18),
    ("TSP", "I", 345, 0x333b_6115_7397_0368),
    ("TSP", "I+D", 350, 0x6fca_d3a1_c5f9_f6b2),
    ("TSP", "P", 345, 0x62fb_f7a3_2d82_1f18),
    ("TSP", "I+P", 345, 0x333b_6115_7397_0368),
    ("TSP", "I+P+D", 350, 0x6fca_d3a1_c5f9_f6b2),
    ("TSP", "AURC", 317, 0x9eea_8b9f_4188_539d),
    ("TSP", "AURC+P", 317, 0x9eea_8b9f_4188_539d),
    ("Water", "Base", 580, 0x021b_bce2_99fb_e5e9),
    ("Water", "I", 580, 0x021b_bce2_99fb_e5e9),
    ("Water", "I+D", 580, 0xa4d9_b85f_b121_8fc5),
    ("Water", "P", 580, 0x021b_bce2_99fb_e5e9),
    ("Water", "I+P", 580, 0x021b_bce2_99fb_e5e9),
    ("Water", "I+P+D", 580, 0xa4d9_b85f_b121_8fc5),
    ("Water", "AURC", 580, 0x6df0_1c23_1623_bd24),
    ("Water", "AURC+P", 580, 0xe924_8b44_8b96_cb41),
    ("Radix", "Base", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "I", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "I+D", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "P", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "I+P", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "I+P+D", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "AURC", 2224, 0xb66e_3f97_5151_c79e),
    ("Radix", "AURC+P", 2224, 0xb66e_3f97_5151_c79e),
    ("Barnes", "Base", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "I", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "I+D", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "P", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "I+P", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "I+P+D", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "AURC", 3558, 0xf82f_d56d_2c52_8735),
    ("Barnes", "AURC+P", 3558, 0xf82f_d56d_2c52_8735),
    ("Em3d", "Base", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "I", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "I+D", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "P", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "I+P", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "I+P+D", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "AURC", 2328, 0xbdcd_5c23_2666_35b3),
    ("Em3d", "AURC+P", 2328, 0xbdcd_5c23_2666_35b3),
    ("Ocean", "Base", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "I", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "I+D", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "P", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "I+P", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "I+P+D", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "AURC", 3164, 0x0abc_e300_e404_547d),
    ("Ocean", "AURC+P", 3164, 0x0abc_e300_e404_547d),
    ("Svc", "Base", 1109, 0xf8f5_99d6_2d62_c35d),
    ("Svc", "I", 1125, 0x540f_fa8c_80f0_8080),
    ("Svc", "I+D", 1163, 0xa9ef_39fa_b1b4_ce75),
    ("Svc", "P", 1107, 0x799b_a3b4_9e41_08d0),
    ("Svc", "I+P", 1124, 0xe2f7_d8fe_4ec3_0edb),
    ("Svc", "I+P+D", 1165, 0x75ee_e20d_e05b_1fc0),
    ("Svc", "AURC", 1114, 0x7fa3_f9ab_3fbd_7f4e),
    ("Svc", "AURC+P", 1116, 0x159c_af09_7f20_457b),
];

/// Ops and digest of the open-loop service run at 16 processors under
/// I+P+D (16,000 requests at mean gap 2,000, the host benchmark's shape).
const SVC_16: (usize, u64) = (165_509, 0x95c7_cce4_121b_fbd8);

/// Absorbs one op: a tag, then every field.
fn absorb(h: &mut StableHasher, op: ProcOp) {
    match op {
        ProcOp::Compute(c) => {
            h.write_u64(0);
            h.write_u64(c);
        }
        ProcOp::Read { addr, bytes } => {
            h.write_u64(1);
            h.write_u64(addr);
            h.write_u64(bytes.into());
        }
        ProcOp::Write { addr, bytes, value } => {
            h.write_u64(2);
            h.write_u64(addr);
            h.write_u64(bytes.into());
            h.write_u64(value);
        }
        ProcOp::Lock(l) => {
            h.write_u64(3);
            h.write_u64(l.into());
        }
        ProcOp::Unlock(l) => {
            h.write_u64(4);
            h.write_u64(l.into());
        }
        ProcOp::Barrier(b) => {
            h.write_u64(5);
            h.write_u64(b.into());
        }
        ProcOp::Finish => h.write_u64(6),
        ProcOp::Svc(SvcOp::Now) => h.write_u64(7),
        ProcOp::Svc(SvcOp::Dequeue { depth }) => {
            h.write_u64(8);
            h.write_u64(depth);
        }
        ProcOp::Svc(SvcOp::Reply { class, response }) => {
            h.write_u64(9);
            h.write_u64(match class {
                SvcClass::Get => 0,
                SvcClass::Put => 1,
                SvcClass::Session => 2,
            });
            h.write_u64(response);
        }
    }
}

/// Runs `app` and returns its op count and digest.
fn op_digest(params: SysParams, protocol: Protocol, app: &dyn Workload) -> (usize, u64) {
    let nprocs = params.nprocs;
    let streams = RefCell::new(vec![Vec::new(); nprocs]);
    let streams_ref = &streams;
    Simulation::new(params, protocol).run(move |pid, port| async move {
        let tap = port.clone();
        let mut ctx = Ctx::new(port, pid, nprocs);
        let mut program = pin!(app.run(&mut ctx));
        poll_fn(|cx| {
            let step = program.as_mut().poll(cx);
            let op = match step {
                Poll::Ready(_) => ProcOp::Finish,
                Poll::Pending => tap.pending_op().expect("a workload suspends on an op"),
            };
            streams_ref.borrow_mut()[pid].push(op);
            step.map(|_| ())
        })
        .await;
    });
    let mut h = StableHasher::new();
    let mut ops = 0;
    for stream in streams.into_inner() {
        h.write_usize(stream.len());
        ops += stream.len();
        for op in stream {
            absorb(&mut h, op);
        }
    }
    (ops, h.finish())
}

#[test]
fn tier1_op_streams_match_the_pinned_digests() {
    let mut pinned = TIER1.iter();
    for (app, spec) in tier1_workloads() {
        let workload = spec.build();
        for label in ALL_MODE_LABELS {
            let protocol = protocol_from_label(label).expect("known mode");
            let got = op_digest(SysParams::default().with_nprocs(4), protocol, &workload);
            let &(p_app, p_mode, ops, digest) = pinned.next().expect("a pinned row per run");
            assert_eq!(
                (app, label),
                (p_app, p_mode),
                "pinned rows out of grid order"
            );
            assert_eq!(got, (ops, digest), "{app} under {label}: (ops, digest)");
        }
    }
    assert!(pinned.next().is_none(), "a pinned row without a run");
}

#[test]
fn svc_op_streams_at_16_processors_match_the_pinned_digest() {
    let svc = WorkloadSpec::Svc(Svc {
        requests: 16_000,
        mean_gap: 2_000,
        ..Svc::default()
    });
    let params = SysParams::default().with_nprocs(16);
    let got = op_digest(params, Protocol::TreadMarks(OverlapMode::IPD), &svc.build());
    assert_eq!(got, SVC_16);
}
