//! Property-based tests for the simulation engine primitives.

use std::sync::Arc;

use ncp2_sim::{
    Breakdown, Category, EventQueue, FifoResource, Priority, ProcHarness, ProcOp, ProcPort,
    ProcReply, SimRng, SvcOp,
};
use proptest::prelude::*;

/// One processor's random op script, ending in `Finish`. A value op is
/// drawn at a per-script density of 0, 1, 100 or 500 per mille, so some
/// scripts have Ack-only runs longer than a batch and some are read-heavy.
fn op_script(rng: &mut SimRng, len: usize) -> Vec<ProcOp> {
    let per_mille = [0, 1, 100, 500][rng.next_below(4) as usize];
    let mut ops: Vec<ProcOp> = (0..len)
        .map(|i| {
            let i = i as u64;
            if rng.next_below(1000) < per_mille {
                return match rng.next_below(2) {
                    0 => ProcOp::Read { addr: i, bytes: 4 },
                    _ => ProcOp::Svc(SvcOp::Now),
                };
            }
            match rng.next_below(6) {
                0 => ProcOp::Compute(i),
                1 => ProcOp::Write {
                    addr: i,
                    bytes: 8,
                    value: rng.next_u64(),
                },
                2 => ProcOp::Lock(i as u32),
                3 => ProcOp::Unlock(i as u32),
                4 => ProcOp::Barrier(i as u32),
                _ => ProcOp::Svc(SvcOp::Dequeue { depth: i }),
            }
        })
        .collect();
    ops.push(ProcOp::Finish);
    ops
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

    /// The run-ahead front end delivers each processor's exact op sequence
    /// to the back end, across batch boundaries, through full streams and
    /// under any service order, and every value op receives the value
    /// replied to it.
    #[test]
    fn op_streams_arrive_in_issue_order(
        nprocs in 1usize..5,
        seed in any::<u64>(),
        max_len in 0usize..8 * ProcPort::BATCH_CAP
    ) {
        let mut rng = SimRng::new(seed);
        let scripts: Arc<Vec<Vec<ProcOp>>> = Arc::new(
            (0..nprocs)
                .map(|_| {
                    let len = rng.next_below(max_len as u64 + 1) as usize;
                    op_script(&mut rng, len)
                })
                .collect(),
        );
        let issued = Arc::clone(&scripts);
        let harness = ProcHarness::spawn(nprocs, move |pid, port| {
            for (i, &op) in issued[pid].iter().enumerate() {
                let reply = port.call(op);
                if op.returns_value() {
                    assert_eq!(reply, ProcReply::Value(reply_value(pid, i)));
                } else {
                    assert_eq!(reply, ProcReply::Ack);
                }
            }
        });
        let mut served = vec![0usize; nprocs];
        let mut live: Vec<usize> = (0..nprocs).collect();
        while !live.is_empty() {
            let k = rng.next_below(live.len() as u64) as usize;
            let pid = live[k];
            let i = served[pid];
            let op = harness.next_op(pid);
            prop_assert_eq!(op, scripts[pid][i], "processor {} op {}", pid, i);
            if op.returns_value() {
                harness.reply(pid, ProcReply::Value(reply_value(pid, i)));
            }
            served[pid] += 1;
            if op == ProcOp::Finish {
                live.swap_remove(k);
            }
        }
        harness.join();
    }
}
