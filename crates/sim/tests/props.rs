//! Property-based tests for the simulation engine primitives.

use std::cell::RefCell;

use ncp2_sim::{
    Breakdown, Category, Coroutines, EventQueue, FifoResource, Priority, ProcOp, ProcReply, SimRng,
    SvcOp,
};
use proptest::prelude::*;

/// One processor's random op script. A value op is drawn at a per-script
/// density of 0, 1, 100 or 500 per mille, so some scripts are long
/// Ack-only runs and some are read-heavy.
fn op_script(rng: &mut SimRng, len: usize) -> Vec<ProcOp> {
    let per_mille = [0, 1, 100, 500][rng.next_below(4) as usize];
    (0..len)
        .map(|i| {
            let i = i as u64;
            let addr = 8 * rng.next_below(16);
            if rng.next_below(1000) < per_mille {
                return match rng.next_below(3) {
                    0 => ProcOp::Read { addr, bytes: 8 },
                    1 => ProcOp::Read {
                        addr: addr + 4,
                        bytes: 4,
                    },
                    _ => ProcOp::Svc(SvcOp::Now),
                };
            }
            match rng.next_below(9) {
                0 | 1 => ProcOp::Compute(i),
                2..=4 => ProcOp::Write {
                    addr,
                    bytes: [1, 2, 4, 8][rng.next_below(4) as usize],
                    value: rng.next_u64(),
                },
                5 => ProcOp::Lock(i as u32),
                6 => ProcOp::Unlock(i as u32),
                7 => ProcOp::Barrier(i as u32),
                _ => ProcOp::Svc(SvcOp::Dequeue { depth: i }),
            }
        })
        .collect()
}

/// The value the back end replies to op `i` of processor `pid`.
fn reply_value(pid: usize, i: usize) -> u64 {
    ((pid as u64) << 32) | i as u64
}

proptest! {
    /// Events pop in non-decreasing (time, priority) order, FIFO within ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        events in prop::collection::vec((0u64..1000, 0u8..3), 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, p)) in events.iter().enumerate() {
            let prio = match p { 0 => Priority::Urgent, 1 => Priority::Normal, _ => Priority::Low };
            q.push(t, prio, i);
        }
        let mut last: Option<(u64, Priority, usize)> = None;
        while let Some(ev) = q.pop() {
            let (t, p) = events[ev.payload];
            let prio = match p { 0 => Priority::Urgent, 1 => Priority::Normal, _ => Priority::Low };
            prop_assert_eq!(ev.time, t);
            if let Some((lt, lp, lseq)) = last {
                prop_assert!((lt, lp) <= (ev.time, prio), "order violated");
                if (lt, lp) == (ev.time, prio) {
                    prop_assert!(lseq < ev.payload, "FIFO violated within equal keys");
                }
            }
            last = Some((ev.time, prio, ev.payload));
        }
    }

    /// A FIFO resource never grants overlapping slots and never moves
    /// backwards in time.
    #[test]
    fn fifo_resource_slots_never_overlap(
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)
    ) {
        let mut r = FifoResource::new();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for &(now, dur) in &reqs {
            let (start, end) = r.reserve(now, dur);
            prop_assert!(start >= now);
            prop_assert!(start >= prev_end, "slot overlaps predecessor");
            prop_assert_eq!(end - start, dur);
            prev_end = end;
            total += dur;
        }
        prop_assert_eq!(r.busy_cycles(), total);
        prop_assert_eq!(r.requests(), reqs.len() as u64);
    }

    /// Breakdown totals are conserved by any sequence of adds/reclassifies.
    #[test]
    fn breakdown_total_is_conserved_by_reclassify(
        adds in prop::collection::vec((0usize..5, 0u64..10_000), 1..50),
        moves in prop::collection::vec((0usize..5, 0usize..5, 0u64..10_000), 0..50)
    ) {
        let mut b = Breakdown::default();
        for &(c, v) in &adds {
            b.add(Category::ALL[c], v);
        }
        let total = b.total();
        for &(from, to, v) in &moves {
            if from != to {
                b.reclassify(Category::ALL[from], Category::ALL[to], v);
            }
            prop_assert_eq!(b.total(), total, "reclassify changed the total");
        }
    }

    /// The RNG respects bounds and shuffles are permutations.
    #[test]
    fn rng_invariants(seed in any::<u64>(), bound in 1u64..1_000_000, n in 1usize..100) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Two generators with the same seed agree; split streams are
    /// reproducible.
    #[test]
    fn rng_determinism(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut ca = a.split(salt);
        let mut cb = b.split(salt);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    /// The coroutine front end delivers each processor's exact op
    /// sequence to the back end, ending in `Finish`, under any service
    /// order. Every value op gets the value the back end replied, and every
    /// other op is acknowledged.
    #[test]
    fn op_streams_arrive_in_issue_order(
        nprocs in 1usize..5,
        seed in any::<u64>(),
        max_len in 0usize..4096
    ) {
        let mut rng = SimRng::new(seed);
        let scripts: Vec<Vec<ProcOp>> = (0..nprocs)
            .map(|_| {
                let len = rng.next_below(max_len as u64 + 1) as usize;
                op_script(&mut rng, len)
            })
            .collect();
        let got: RefCell<Vec<Vec<u64>>> = RefCell::new(vec![Vec::new(); nprocs]);
        let (issued, workload_got) = (&scripts, &got);
        let mut procs = Coroutines::new(nprocs, |pid, port| async move {
            let mut values = Vec::new();
            for &op in &issued[pid] {
                match port.call(op).await {
                    ProcReply::Value(v) => values.push(v),
                    ProcReply::Ack => assert!(!op.returns_value(), "{op:?} acknowledged"),
                }
            }
            workload_got.borrow_mut()[pid] = values;
        });
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
        let mut done = vec![0usize; nprocs];
        let mut live: Vec<usize> = (0..nprocs).collect();
        while !live.is_empty() {
            let k = rng.next_below(live.len() as u64) as usize;
            let pid = live[k];
            let i = done[pid];
            let op = procs.next_op(pid);
            match scripts[pid].get(i) {
                Some(&script_op) => {
                    prop_assert_eq!(op, script_op, "processor {} op {}", pid, i);
                    if op.returns_value() {
                        procs.reply(pid, ProcReply::Value(reply_value(pid, i)));
                        sent[pid].push(reply_value(pid, i));
                    }
                }
                None => {
                    prop_assert_eq!(op, ProcOp::Finish, "processor {} op {}", pid, i);
                    live.swap_remove(k);
                }
            }
            done[pid] += 1;
        }
        drop(procs);
        prop_assert_eq!(got.into_inner(), sent);
    }
}
