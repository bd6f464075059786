//! Unit-cost probes for the traced run: each times one layer's public API
//! in isolation, at the size the workload uses it, and reports the median
//! of a few repetitions.

use std::hint::black_box;
use std::time::Instant;

use ncp2::core::bitvec::DirtyVec;
use ncp2::core::diff::Diff;
use ncp2::core::page::PageBuf;
use ncp2::mem::NodeMemory;
use ncp2::net::Network;
use ncp2::prelude::*;
use ncp2::sim::{EventQueue, Priority, ProcHarness, ProcOp, ProcReply, SimRng};
use ncp2_svc::ArrivalStream;

use crate::report::median;

/// Repetitions behind every probe's median.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `body`'s wall time divided by the count of
/// operations it returns, in nanoseconds.
fn ns_per_op(mut body: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = body().max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Front-end cost at `n` workload threads: `(spawn_s, roundtrip_ns)`.
///
/// `spawn_s` spawns `n` threads that only finish, and joins them.
/// `roundtrip_ns` is one `ProcOp` handoff (op channel, back-end receive,
/// reply channel, workload wake-up) with the back end serving processors
/// round robin, as the simulation does when their clocks advance together.
pub fn proc_harness(n: usize, ops_per_proc: u64) -> (f64, f64) {
    let serve = |ops: u64| {
        let h = ProcHarness::spawn(n, move |_, port| {
            for _ in 0..ops {
                port.call(ProcOp::Compute(1));
            }
            port.call(ProcOp::Finish);
        });
        for _ in 0..ops {
            for pid in 0..n {
                black_box(h.next_op(pid));
                h.reply(pid, ProcReply::Ack);
            }
        }
        for pid in 0..n {
            black_box(h.next_op(pid));
            h.reply(pid, ProcReply::Ack);
        }
        h.join();
    };
    let spawn: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            serve(0);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let spawn_s = median(&spawn);
    let total = n as u64 * ops_per_proc;
    let round: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            serve(ops_per_proc);
            (t.elapsed().as_secs_f64() - spawn_s).max(0.0) * 1e9 / total as f64
        })
        .collect();
    (spawn_s, median(&round))
}

/// One push plus one pop on an event queue holding `depth` events.
pub fn queue_push_pop(depth: usize) -> f64 {
    let depth = depth.max(1);
    let mut rng = SimRng::new(7);
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(rng.next_below(1 << 20), Priority::Normal, i as u32);
    }
    ns_per_op(|| {
        const PAIRS: u64 = 100_000;
        for i in 0..PAIRS {
            // invariant: the queue is refilled after every pop.
            let ev = q.pop().expect("queue holds `depth` events");
            q.push(ev.time + 1 + rng.next_below(1 << 20), ev.priority, i as u32);
        }
        PAIRS
    })
}

/// One 4 KiB page transfer between random nodes of an `n`-node mesh.
pub fn net_transfer(n: usize) -> f64 {
    let params = SysParams::default().with_nprocs(n);
    let mut net = Network::new(n);
    let mut rng = SimRng::new(11);
    let mut now = 0;
    ns_per_op(|| {
        const SENDS: u64 = 20_000;
        for _ in 0..SENDS {
            let (src, dst) = (rng.next_below(n as u64), rng.next_below(n as u64));
            now = black_box(net.transfer(now, src as usize, dst as usize, 4096, &params));
        }
        SENDS
    })
}

/// One shared-data access (alternating reads and writes) through a node's
/// TLB, cache, write buffer and DRAM model, over a 1 MiB working set.
pub fn mem_access() -> f64 {
    let params = SysParams::default();
    let mut mem = NodeMemory::new(&params);
    let mut rng = SimRng::new(13);
    let mut now = 0;
    ns_per_op(|| {
        const ACCESSES: u64 = 200_000;
        for i in 0..ACCESSES {
            let addr = rng.next_below(1 << 20) & !7;
            let out = if i % 2 == 0 {
                mem.read(now, addr, &params)
            } else {
                mem.write(now, addr, &params)
            };
            now = black_box(out.done);
        }
        ACCESSES
    })
}

/// Diff costs on a 4 KiB page with 256 dirty words:
/// `(twin_compare_ns, dma_gather_ns, apply_ns)`.
pub fn diffs() -> (f64, f64, f64) {
    let twin = PageBuf::new(4096);
    let mut cur = twin.clone();
    let mut dv = DirtyVec::new(1024);
    let mut rng = SimRng::new(42);
    for _ in 0..256 {
        let w = rng.next_below(1024) as usize;
        cur.set_word(w, rng.next_u64() as u32);
        dv.set(w);
    }
    const N: u64 = 20_000;
    let twin_ns = ns_per_op(|| {
        for _ in 0..N {
            black_box(Diff::from_twin(0, 0, 1, black_box(&cur), black_box(&twin)));
        }
        N
    });
    let gather_ns = ns_per_op(|| {
        for _ in 0..N {
            black_box(Diff::from_dirty_vec(
                0,
                0,
                1,
                black_box(&cur),
                black_box(&dv),
            ));
        }
        N
    });
    let d = Diff::from_dirty_vec(0, 0, 1, &cur, &dv);
    let mut page = PageBuf::new(4096);
    let apply_ns = ns_per_op(|| {
        for _ in 0..N {
            d.apply(black_box(&mut page));
        }
        N
    });
    (twin_ns, gather_ns, apply_ns)
}

/// `Simulation::new` for `params` under `protocol`, in seconds (the
/// machine is dropped outside the timed region).
pub fn sim_new(params: &SysParams, protocol: Protocol) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let sim = Simulation::new(params.clone(), protocol);
            let dt = t.elapsed().as_secs_f64();
            drop(black_box(sim));
            dt
        })
        .collect();
    median(&samples)
}

/// One arrival drawn from the open-loop stream (gap draw plus the bounded
/// reorder shuffle).
pub fn svc_arrival(seed: u64, mean_gap: Cycles) -> f64 {
    const COUNT: u64 = 1_000_000;
    let stream = ArrivalStream::new(seed, mean_gap, COUNT);
    ns_per_op(|| {
        let mut last = 0;
        for a in black_box(&stream).iter() {
            last = a.at;
        }
        black_box(last);
        COUNT
    })
}
