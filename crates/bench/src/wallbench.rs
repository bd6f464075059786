//! The wall-clock microbench suite behind the `wall_bench` binary and the
//! `BENCH_WALL.json` regression gate.
//!
//! Where `ncp2-obs` accounts for *simulated* cycles, this suite measures the
//! *host* cost of the implementation's known hot paths: diff create/apply,
//! bit-vector scans, vector-clock merges, span/edge emission, router hops,
//! transport resequencing under retransmission, cache-key hashing, and
//! front-end op handoffs. Every bench runs through the in-tree criterion
//! stand-in, which reports the median of K samples and — when `ncp2-prof`'s
//! counting allocator is installed (the `prof` feature) — exact
//! per-iteration allocation counts.
//!
//! The suite lives in the library (not the binary) so `wall_bench` stays a
//! thin driver; keeping it out of `benches/` lets the engine's `--prof`
//! plumbing and the xtask `wall-diff` gate share one crate graph.

use criterion::{BatchSize, Criterion};
use std::hint::black_box;

use ncp2::core::bitvec::DirtyVec;
use ncp2::core::diff::Diff;
use ncp2::core::page::PageBuf;
use ncp2::core::span::ObsRecorder;
use ncp2::core::vtime::VectorTime;
use ncp2::core::{EdgeKind, MsgKind, SpanKind};
use ncp2::net::Network;
use ncp2::prelude::*;
use ncp2::sim::SimRng;
use ncp2_fault::{FaultPlan, LinkWindow};

use crate::engine::{Job, WorkloadSpec};

/// A 4 KiB page pair (pristine twin + mutated copy) with `dirty_words`
/// random word writes, plus the matching dirty bit-vector.
fn dirty_page(dirty_words: usize) -> (PageBuf, PageBuf, DirtyVec) {
    let twin = PageBuf::new(4096);
    let mut cur = twin.clone();
    let mut dv = DirtyVec::new(1024);
    let mut rng = SimRng::new(42);
    for _ in 0..dirty_words {
        let w = rng.next_below(1024) as usize;
        cur.set_word(w, rng.next_u64() as u32);
        dv.set(w);
    }
    (twin, cur, dv)
}

/// Diff creation (both the software twin-compare and the DMA bit-vector
/// gather path) and diff application, at a representative dirty density.
fn bench_diff(c: &mut Criterion) {
    let (twin, cur, dv) = dirty_page(256);
    c.bench_function("diff/software_twin_compare_256", |b| {
        b.iter(|| Diff::from_twin(0, 0, 1, black_box(&cur), black_box(&twin)))
    });
    c.bench_function("diff/dma_bitvec_gather_256", |b| {
        b.iter(|| Diff::from_dirty_vec(0, 0, 1, black_box(&cur), black_box(&dv)))
    });
    let d = Diff::from_dirty_vec(0, 0, 1, &cur, &dv);
    c.bench_function("diff/apply_256", |b| {
        b.iter_batched(
            || PageBuf::new(4096),
            |mut p| d.apply(black_box(&mut p)),
            BatchSize::SmallInput,
        )
    });
}

/// Dirty bit-vector scan and set/clear cycling.
fn bench_bitvec(c: &mut Criterion) {
    let (_, _, dv) = dirty_page(256);
    c.bench_function("bitvec/scan_256_of_1024", |b| {
        b.iter(|| black_box(&dv).iter_set().count())
    });
    c.bench_function("bitvec/set_clear_1024", |b| {
        b.iter_batched(
            || DirtyVec::new(1024),
            |mut v| {
                for i in (0..1024).step_by(3) {
                    v.set(i);
                }
                v.clear();
                v
            },
            BatchSize::SmallInput,
        )
    });
}

/// Vector-clock merge and dominance checks at the 16-processor width.
fn bench_vtime(c: &mut Criterion) {
    let mut a = VectorTime::new(16);
    let mut b = VectorTime::new(16);
    for i in 0..16 {
        a.observe(i, (i * 7) as u32 % 13);
        b.observe(i, (i * 11) as u32 % 17);
    }
    c.bench_function("vtime/merge_16", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut x| {
                x.merge(black_box(&b));
                x
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("vtime/covers_16", |bch| {
        bch.iter(|| black_box(&a).covers(black_box(&b)))
    });
}

/// Observability-log emission: ~1k spans with a message edge each, the
/// per-event cost every traced run pays. One recorder lives per iteration
/// (its teardown is timed with it), so `peak_bytes` is one recorder's
/// working set rather than every iteration's output held at once.
fn bench_obs_emit(c: &mut Criterion) {
    c.bench_function("obs/span_edge_emit_1k", |b| {
        b.iter(|| {
            let mut r = ObsRecorder::new(4);
            for i in 0..1024u64 {
                let node = (i % 4) as usize;
                r.span(node, SpanKind::Compute, Category::Busy, i, 3);
                r.edge(
                    EdgeKind::Msg(MsgKind::DiffReq),
                    node,
                    i,
                    (node + 1) % 4,
                    i + 5,
                    0,
                    r.last_span(node),
                );
            }
            r
        })
    });
}

/// Router hot paths: a full 4 KiB page transfer and all-pairs mesh routing.
fn bench_network(c: &mut Criterion) {
    let params = SysParams::default();
    c.bench_function("network/transfer_4k_page", |b| {
        b.iter_batched(
            || Network::new(16),
            |mut net| net.transfer(0, 0, 15, 4096, black_box(&params)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("network/route_all_pairs_16", |b| {
        let net = Network::new(16);
        b.iter(|| {
            let mut h = 0u64;
            for s in 0..16 {
                for d in 0..16 {
                    h += net.mesh().route(s, d).len() as u64;
                }
            }
            h
        })
    });
    // The 256-node variant walks every pair through the allocation-free
    // `route_iter` — the path `transfer_timed` takes — so the gate watches
    // the cost that actually scales with the cluster, not `Vec` building.
    c.bench_function("network/route_iter_all_pairs_256", |b| {
        let net = Network::new(256);
        b.iter(|| {
            let mut h = 0u64;
            for s in 0..256 {
                for d in 0..256 {
                    h += net.mesh().route_iter(s, d).count() as u64;
                }
            }
            h
        })
    });
}

/// Event-queue push/pop throughput with 10^5 events pending — the
/// steady-state regime of a 256-node simulation, where every send lands in
/// a deep future and every push and pop sifts a key through a deep heap.
fn bench_queue(c: &mut Criterion) {
    use ncp2::sim::{EventQueue, Priority};
    let mut rng = SimRng::new(7);
    let seed: Vec<(u64, Priority)> = (0..100_000)
        .map(|_| {
            let t = rng.next_below(1 << 20);
            let p = if rng.next_below(4) == 0 {
                Priority::Low
            } else {
                Priority::Normal
            };
            (t, p)
        })
        .collect();
    c.bench_function("queue/push_pop_at_1e5_pending", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                for &(t, p) in &seed {
                    q.push(t, p, 0u32);
                }
                q
            },
            |mut q| {
                // 1024 pop-push cycles at full depth: each pop sifts the
                // last key down from the root, each push sifts up from a
                // leaf, and the payload slot comes off the free list.
                for i in 0..1024u64 {
                    let ev = q.pop().expect("queue stays full");
                    q.push(ev.time + (1 << 20), ev.priority, i as u32);
                }
                q.len()
            },
            BatchSize::LargeInput,
        )
    });
}

/// Transport resequencing under retransmission: a complete (tiny) Ocean run
/// with frame drops and a latency spike, so the hardened transport's
/// retransmit/reorder machinery dominates. End-to-end by design — the
/// resequencing buffers have no isolated public surface, and the engine's
/// per-run host cost is exactly what `--prof` attributes.
fn bench_transport_resequence(c: &mut Criterion) {
    let params = SysParams::default().with_nprocs(2);
    let fault = FaultPlan {
        drop_permille: 40,
        ack_faults: true,
        spikes: vec![LinkWindow {
            src: 0,
            dst: 1,
            start: 2_000,
            end: 12_000,
            extra: 900,
        }],
        ..FaultPlan::none()
    };
    c.bench_function("transport/resequence_ocean8_drop40", |b| {
        b.iter_with_large_drop(|| {
            let plan = fault.clone();
            ncp2::apps::run_app_with(
                params.clone(),
                Protocol::TreadMarks(OverlapMode::IPD),
                Ocean { grid: 8, iters: 1 },
                move |sim| sim.attach_fault_plan(plan),
            )
        })
    });
}

/// Content-hash cache-key derivation over a fully populated job.
fn bench_cache_key(c: &mut Criterion) {
    let job = Job {
        obs: true,
        ..Job::new(
            "Ocean/I+P+D",
            SysParams::default().with_nprocs(8),
            Protocol::TreadMarks(OverlapMode::IPD),
            WorkloadSpec::named("Ocean", false),
        )
    };
    c.bench_function("cache/job_key_hash", |b| {
        b.iter(|| black_box(&job).cache_key())
    });
}

/// The open-loop arrival stream: one million gap draws plus the bounded
/// reorder shuffle, through the alloc-free iterator. The stream is
/// re-derived on every node of every service run, so its steady state must
/// stay allocation-free (the iterator holds its reorder window inline).
fn bench_svc_arrivals(c: &mut Criterion) {
    let stream = ncp2_svc::ArrivalStream::new(0x5ecc, 4_000, 1_000_000);
    c.bench_function("svc/arrival_stream_1e6", |b| {
        b.iter(|| {
            let mut last = 0;
            for a in black_box(&stream).iter() {
                last = a.at;
            }
            black_box(last)
        })
    });
}

/// Front-end handoffs: 4 workload threads issue 1,000 ops each, served
/// round robin. Ack-only `Compute` ops run ahead in batches; `Read` ops are
/// one blocking handoff each, unless the port holds a copy of their page:
/// in the served variant the second read of the page fetches a copy and
/// the rest are answered on the workload thread. Thread spawn and join are
/// timed with them.
fn bench_proc_handoff(c: &mut Criterion) {
    use ncp2::sim::{ProcHarness, ProcOp, ProcPort, ProcReply};
    const PROCS: usize = 4;
    const OPS: u64 = 1_000;
    const PAGE: u64 = 4096;
    let page = vec![0u8; PAGE as usize];
    let serve = |op: ProcOp, cached: bool| {
        let body = move |_, port: ProcPort| {
            for _ in 0..OPS {
                port.call(op);
            }
            port.call(ProcOp::Finish);
        };
        let h = if cached {
            ProcHarness::spawn_with_pages(PROCS, PAGE, body)
        } else {
            ProcHarness::spawn(PROCS, body)
        };
        for _ in 0..OPS {
            for pid in 0..PROCS {
                if !h.next_op(pid).returns_value() {
                    continue;
                }
                if h.wants_page(pid) {
                    h.reply_page(pid, 0, &page);
                } else {
                    h.reply(pid, ProcReply::Value(0));
                }
            }
        }
        for pid in 0..PROCS {
            black_box(h.next_op(pid));
        }
        h.join();
    };
    let read = ProcOp::Read { addr: 0, bytes: 4 };
    c.bench_function("sim/proc_handoff_ack_4", |b| {
        b.iter(|| serve(ProcOp::Compute(1), false))
    });
    c.bench_function("sim/proc_handoff_value_4", |b| {
        b.iter(|| serve(read, false))
    });
    c.bench_function("sim/proc_handoff_served_4", |b| {
        b.iter(|| serve(read, true))
    });
}

/// Registers the whole suite on `c`, in gate order. This is the single
/// source of truth for what `BENCH_WALL.json` covers.
pub fn register_all(c: &mut Criterion) {
    bench_diff(c);
    bench_bitvec(c);
    bench_vtime(c);
    bench_obs_emit(c);
    bench_network(c);
    bench_queue(c);
    bench_transport_resequence(c);
    bench_cache_key(c);
    bench_svc_arrivals(c);
    bench_proc_handoff(c);
}
