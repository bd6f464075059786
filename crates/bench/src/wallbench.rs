//! The wall-clock microbench suite behind the `wall_bench` binary and the
//! `BENCH_WALL.json` regression gate.
//!
//! Where `ncp2-obs` accounts for *simulated* cycles, this suite measures the
//! *host* cost of the implementation's known hot paths: diff create/apply,
//! bit-vector scans, vector-clock merges, span/edge emission, router hops,
//! transport resequencing under retransmission, cache-key hashing, and
//! front-end op handoffs. Each bench reports the median of K per-iteration
//! samples and — when `ncp2-prof`'s counting allocator is installed (the
//! `prof` feature) — exact per-iteration allocation counts, into one
//! [`WallReport`].
//!
//! The suite lives in the library (not the binary) so `wall_bench` stays a
//! thin driver; keeping it out of `benches/` lets the engine's `--prof`
//! plumbing and the xtask `wall-diff` gate share one crate graph.

use std::hint::black_box;
use std::time::{Duration, Instant};

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
use ncp2_prof::walldiff::{WallBench, WallReport};
use ncp2_prof::{prof_enabled, prof_peak, prof_reset_peak, prof_thread_counts};

use crate::engine::{Job, WorkloadSpec};

/// How long one bench is timed: the K of median-of-K, the budget the K
/// samples share, and the untimed warm-up before them.
#[derive(Debug, Clone, Copy)]
struct Budget {
    samples: u32,
    measurement: Duration,
    warm_up: Duration,
}

/// A full run's budget.
const FULL: Budget = Budget {
    samples: 20,
    measurement: Duration::from_secs(1),
    warm_up: Duration::from_millis(300),
};

/// The `--fast` CI smoke run's budget.
const FAST: Budget = Budget {
    samples: 5,
    measurement: Duration::from_millis(100),
    warm_up: Duration::from_millis(30),
};

/// The timing loop: runs each bench under one budget and collects its
/// numbers.
struct Suite {
    budget: Budget,
    report: WallReport,
}

impl Suite {
    fn new(budget: Budget) -> Suite {
        Suite {
            budget,
            report: WallReport {
                alloc_counting: prof_enabled(),
                ..WallReport::default()
            },
        }
    }

    /// Times one bench: warm up, size the samples to the budget, then take
    /// the median of the per-iteration time and allocation samples.
    fn bench<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let Budget {
            samples,
            measurement,
            warm_up,
        } = self.budget;

        // Warm-up: run single iterations until the warm-up budget is spent,
        // measuring the per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut per_iter = Duration::from_nanos(1);
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < warm_up || warm_iters == 0 {
            let mut b = Bencher::new(1);
            f(&mut b);
            per_iter = b.elapsed.max(Duration::from_nanos(1));
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }

        // Size each sample so all samples together fit the measurement budget.
        let budget_per_sample = measurement / samples;
        let iters =
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        let peak_base = prof_reset_peak();
        let mut ns_samples = Vec::with_capacity(samples as usize);
        let mut alloc_samples = Vec::with_capacity(samples as usize);
        let mut byte_samples = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let mut b = Bencher::new(iters);
            f(&mut b);
            let ns = u64::try_from(b.elapsed.as_nanos()).unwrap_or(u64::MAX);
            // Per-iteration numbers (rounded), so results are independent of
            // how many iterations the host's speed packed into one sample.
            ns_samples.push((ns + iters / 2) / iters);
            alloc_samples.push((b.d_allocs + iters / 2) / iters);
            byte_samples.push((b.d_bytes + iters / 2) / iters);
        }
        let result = WallBench {
            median_ns: median(&mut ns_samples),
            samples: u64::from(samples),
            allocs: median(&mut alloc_samples),
            alloc_bytes: median(&mut byte_samples),
            peak_bytes: prof_peak().saturating_sub(peak_base),
        };
        println!(
            "wall_bench: {id:<48} {:>10} ns/iter (median of {}; {} allocs/iter, {} B/iter; \
             {} iters)",
            result.median_ns,
            result.samples,
            result.allocs,
            result.alloc_bytes,
            iters * u64::from(samples)
        );
        self.report.benches.insert(id.to_string(), result);
    }
}

/// Timing handle passed to a bench closure: one of its three methods times
/// the routine for the sample's iteration count.
struct Bencher {
    iters: u64,
    elapsed: Duration,
    d_allocs: u64,
    d_bytes: u64,
}

impl Bencher {
    fn new(iters: u64) -> Bencher {
        Bencher {
            iters,
            elapsed: Duration::ZERO,
            d_allocs: 0,
            d_bytes: 0,
        }
    }

    /// Times `routine` back to back for the sample's iteration count.
    fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let (a0, b0) = prof_thread_counts();
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        let (a1, b1) = prof_thread_counts();
        self.d_allocs = a1 - a0;
        self.d_bytes = b1 - b0;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time (and its
    /// allocations) is excluded.
    fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        let (mut allocs, mut bytes) = (0u64, 0u64);
        for _ in 0..self.iters {
            let input = setup();
            let (a0, b0) = prof_thread_counts();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
            let (a1, b1) = prof_thread_counts();
            allocs += a1 - a0;
            bytes += b1 - b0;
        }
        self.elapsed = total;
        self.d_allocs = allocs;
        self.d_bytes = bytes;
    }

    /// Like [`iter`](Bencher::iter), but the routine's outputs are kept
    /// alive until after the timed region, so their drop cost (a large
    /// deallocation, say) never pollutes the measurement.
    fn iter_with_large_drop<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut kept: Vec<O> = Vec::with_capacity(usize::try_from(self.iters).unwrap_or(0));
        let (a0, b0) = prof_thread_counts();
        let start = Instant::now();
        for _ in 0..self.iters {
            kept.push(black_box(routine()));
        }
        self.elapsed = start.elapsed();
        let (a1, b1) = prof_thread_counts();
        self.d_allocs = a1 - a0;
        self.d_bytes = b1 - b0;
        drop(kept);
    }
}

/// Median of a sorted-in-place sample vector (mean of the middle two for
/// even counts); zero for an empty one.
fn median(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

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
fn bench_diff(s: &mut Suite) {
    let (twin, cur, dv) = dirty_page(256);
    s.bench("diff/software_twin_compare_256", |b| {
        b.iter(|| Diff::from_twin(0, 0, 1, black_box(&cur), black_box(&twin)))
    });
    s.bench("diff/dma_bitvec_gather_256", |b| {
        b.iter(|| Diff::from_dirty_vec(0, 0, 1, black_box(&cur), black_box(&dv)))
    });
    let d = Diff::from_dirty_vec(0, 0, 1, &cur, &dv);
    s.bench("diff/apply_256", |b| {
        b.iter_batched(|| PageBuf::new(4096), |mut p| d.apply(black_box(&mut p)))
    });
}

/// Dirty bit-vector scan and set/clear cycling.
fn bench_bitvec(s: &mut Suite) {
    let (_, _, dv) = dirty_page(256);
    s.bench("bitvec/scan_256_of_1024", |b| {
        b.iter(|| black_box(&dv).iter_set().count())
    });
    s.bench("bitvec/set_clear_1024", |b| {
        b.iter_batched(
            || DirtyVec::new(1024),
            |mut v| {
                for i in (0..1024).step_by(3) {
                    v.set(i);
                }
                v.clear();
                v
            },
        )
    });
}

/// Vector-clock merge and dominance checks at the 16-processor width.
fn bench_vtime(s: &mut Suite) {
    let mut a = VectorTime::new(16);
    let mut b = VectorTime::new(16);
    for i in 0..16 {
        a.observe(i, (i * 7) as u32 % 13);
        b.observe(i, (i * 11) as u32 % 17);
    }
    s.bench("vtime/merge_16", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut x| {
                x.merge(black_box(&b));
                x
            },
        )
    });
    s.bench("vtime/covers_16", |bch| {
        bch.iter(|| black_box(&a).covers(black_box(&b)))
    });
}

/// Observability-log emission: ~1k spans with a message edge each, the
/// per-event cost every traced run pays. One recorder lives per iteration
/// (its teardown is timed with it), so `peak_bytes` is one recorder's
/// working set rather than every iteration's output held at once.
fn bench_obs_emit(s: &mut Suite) {
    s.bench("obs/span_edge_emit_1k", |b| {
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

/// Router hot paths: a full 4 KiB page transfer, all-pairs mesh routing and
/// all-pairs transfer booking at 256 nodes.
fn bench_network(s: &mut Suite) {
    let params = SysParams::default();
    s.bench("network/transfer_4k_page", |b| {
        b.iter_batched(
            || Network::new(16),
            |mut net| net.transfer(0, 0, 15, 4096, black_box(&params)),
        )
    });
    s.bench("network/route_all_pairs_16", |b| {
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
    // `route_iter`, the hop-by-hop reference walk, so the gate watches the
    // cost of a walk that scales with the cluster, not `Vec` building.
    s.bench("network/route_iter_all_pairs_256", |b| {
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
    // The per-message booking `transfer_timed` does at 256 nodes, over
    // every pair (loopbacks included). One network serves every iteration,
    // so later messages book behind earlier ones, as in a long run.
    s.bench("network/transfer_all_pairs_256", |b| {
        let mut net = Network::new(256);
        b.iter(|| {
            let mut last = 0;
            for s in 0..256 {
                for d in 0..256 {
                    let t = net.transfer_timed(0, s, d, 64, black_box(&params));
                    last = last.max(t.arrival);
                }
            }
            last
        })
    });
}

/// Event-queue push/pop throughput with 10^5 events pending — the
/// steady-state regime of a 256-node simulation, where every send lands in
/// a deep future and every push and pop sifts a key through a deep heap.
fn bench_queue(s: &mut Suite) {
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
    s.bench("queue/push_pop_at_1e5_pending", |b| {
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
        )
    });
}

/// Transport resequencing under retransmission: a complete (tiny) Ocean run
/// with frame drops and a latency spike, so the hardened transport's
/// retransmit/reorder machinery dominates. End-to-end by design — the
/// resequencing buffers have no isolated public surface, and the engine's
/// per-run host cost is exactly what `--prof` attributes.
fn bench_transport_resequence(s: &mut Suite) {
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
    s.bench("transport/resequence_ocean8_drop40", |b| {
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
fn bench_cache_key(s: &mut Suite) {
    let job = Job {
        obs: true,
        ..Job::new(
            "Ocean/I+P+D",
            SysParams::default().with_nprocs(8),
            Protocol::TreadMarks(OverlapMode::IPD),
            WorkloadSpec::named("Ocean", false),
        )
    };
    s.bench("cache/job_key_hash", |b| {
        b.iter(|| black_box(&job).cache_key())
    });
}

/// The open-loop arrival stream: one million gap draws plus the bounded
/// reorder shuffle, through the alloc-free iterator. The stream is
/// re-derived on every node of every service run, so its steady state must
/// stay allocation-free (the iterator holds its reorder window inline).
fn bench_svc_arrivals(s: &mut Suite) {
    let stream = ncp2_svc::ArrivalStream::new(0x5ecc, 4_000, 1_000_000);
    s.bench("svc/arrival_stream_1e6", |b| {
        b.iter(|| {
            let mut last = 0;
            for a in black_box(&stream).iter() {
                last = a.at;
            }
            black_box(last)
        })
    });
}

/// Front-end handoffs: 4 workload coroutines issue 1,000 ops each,
/// resumed round robin, as `Simulation::run` drives them. A `Compute` op
/// completes when it is taken; a `Read` stays pending until its reply is
/// stored. Building the coroutines is timed with them. Everything runs on
/// one thread, so the allocation counts are exact.
fn bench_proc_handoff(s: &mut Suite) {
    use ncp2::sim::{Coroutines, ProcOp, ProcReply};
    const PROCS: usize = 4;
    const OPS: u64 = 1_000;
    let serve = |op: ProcOp| {
        let mut procs = Coroutines::new(PROCS, |_, port| async move {
            for _ in 0..OPS {
                port.call(op).await;
            }
        });
        for _ in 0..OPS {
            for pid in 0..PROCS {
                if procs.next_op(pid).returns_value() {
                    procs.reply(pid, ProcReply::Value(0));
                }
            }
        }
        for pid in 0..PROCS {
            black_box(procs.next_op(pid));
        }
    };
    s.bench("sim/proc_handoff_ack_4", |b| {
        b.iter(|| serve(ProcOp::Compute(1)))
    });
    s.bench("sim/proc_handoff_value_4", |b| {
        b.iter(|| serve(ProcOp::Read { addr: 0, bytes: 4 }))
    });
}

/// Runs the whole suite, in gate order, under the full budget or (`fast`)
/// the CI smoke budget. This is the single source of truth for what
/// `BENCH_WALL.json` covers.
pub fn run(fast: bool) -> WallReport {
    let mut s = Suite::new(if fast { FAST } else { FULL });
    bench_diff(&mut s);
    bench_bitvec(&mut s);
    bench_vtime(&mut s);
    bench_obs_emit(&mut s);
    bench_network(&mut s);
    bench_queue(&mut s);
    bench_transport_resequence(&mut s);
    bench_cache_key(&mut s);
    bench_svc_arrivals(&mut s);
    bench_proc_handoff(&mut s);
    s.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loop_runs_and_registers_results() {
        let mut s = Suite::new(Budget {
            samples: 2,
            measurement: Duration::from_millis(10),
            warm_up: Duration::from_millis(1),
        });
        let mut hits = 0u64;
        s.bench("smoke/iter", |b| b.iter(|| black_box(1 + 1)));
        s.bench("smoke/large_drop", |b| {
            b.iter_with_large_drop(|| vec![0u8; 32])
        });
        s.bench("grp/batched", |b| {
            b.iter_batched(|| 3u64, |x| x * 2);
            hits += 1;
        });
        assert!(hits > 0);
        let ids: Vec<&str> = s.report.benches.keys().map(String::as_str).collect();
        assert_eq!(ids, ["grp/batched", "smoke/iter", "smoke/large_drop"]);
        assert_eq!(s.report.alloc_counting, prof_enabled());
        for (id, r) in &s.report.benches {
            // Sub-nanosecond routines (like `1 + 1`) can legitimately round
            // to a 0 ns/iter median; the heap-allocating bench cannot.
            assert_eq!(r.samples, 2);
            if id == "smoke/large_drop" {
                assert!(r.median_ns >= 1);
            }
        }
    }

    #[test]
    fn median_of_k() {
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [7]), 7);
        assert_eq!(median(&mut [1, 100, 3]), 3);
        assert_eq!(median(&mut [4, 1, 100, 2]), 3);
    }
}
