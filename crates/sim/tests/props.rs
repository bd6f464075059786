//! Property-based tests for the simulation engine primitives.

use std::sync::{Arc, Mutex};

use ncp2_sim::{
    Breakdown, Category, EventQueue, FifoResource, Priority, ProcHarness, ProcOp, ProcPort,
    ProcReply, SimRng, SvcOp,
};
use proptest::prelude::*;

/// Page size of the reference back end behind the op-stream property.
const PAGE: u64 = 64;

/// Pages the op scripts touch: few, so reads come back to cached pages.
const PAGES: u64 = 2;

/// One processor's random op script, ending in `Finish`. A value op is
/// drawn at a per-script density of 0, 1, 100 or 500 per mille, so some
/// scripts have Ack-only runs longer than a batch and some are read-heavy.
/// Reads and writes go to [`PAGES`] small pages, so pages are read again
/// within a sync epoch and served from the port's copies.
fn op_script(rng: &mut SimRng, len: usize) -> Vec<ProcOp> {
    let per_mille = [0, 1, 100, 500][rng.next_below(4) as usize];
    let mut ops: Vec<ProcOp> = (0..len)
        .map(|i| {
            let i = i as u64;
            let addr = 8 * rng.next_below(PAGES * PAGE / 8);
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
        .collect();
    ops.push(ProcOp::Finish);
    ops
}

/// The value the back end replies to op `i` of processor `pid`.
fn reply_value(pid: usize, i: usize) -> u64 {
    ((pid as u64) << 32) | i as u64
}

/// One node's memory as the reference back end holds it: its own writes,
/// plus other nodes' writes made visible at its acquires.
struct PageModel {
    bytes: Vec<u8>,
}

impl PageModel {
    fn new() -> Self {
        PageModel {
            bytes: vec![0; (PAGES * PAGE) as usize],
        }
    }

    fn read(&self, addr: u64, bytes: u8) -> u64 {
        let mut le = [0u8; 8];
        let at = addr as usize;
        le[..bytes as usize].copy_from_slice(&self.bytes[at..at + bytes as usize]);
        u64::from_le_bytes(le)
    }

    fn write(&mut self, addr: u64, bytes: u8, value: u64) {
        let at = addr as usize;
        self.bytes[at..at + bytes as usize].copy_from_slice(&value.to_le_bytes()[..bytes as usize]);
    }

    fn page(&self, addr: u64) -> &[u8] {
        let base = (addr - addr % PAGE) as usize;
        &self.bytes[base..base + PAGE as usize]
    }
}

/// The port's caching rule, replayed in issue order: which pages one port
/// holds a copy of, and which it read by round trip, this sync epoch.
#[derive(Default)]
struct CacheRule {
    held: Vec<u64>,
    read: Vec<u64>,
}

impl CacheRule {
    /// Whether a read of `addr` is served from a copy.
    fn serves(&self, addr: u64) -> bool {
        self.held.contains(&(addr / PAGE))
    }

    /// A round-trip read of `addr`: returns whether it asks for a copy (its
    /// page was read by round trip before this epoch), which it then holds.
    fn round_trip(&mut self, addr: u64) -> bool {
        let page = addr / PAGE;
        let again = self.read.contains(&page);
        if again {
            self.held.push(page);
        } else {
            self.read.push(page);
        }
        again
    }

    /// An acquire starts the next epoch.
    fn acquire(&mut self) {
        self.held.clear();
        self.read.clear();
    }
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
    /// under any service order, with reads of cached pages arriving as
    /// served reads in their issue slot. Every served value equals the
    /// reference page model's, and every value the workload gets is the one
    /// the back end replied or checked.
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
        let got: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); nprocs]));
        let issued = Arc::clone(&scripts);
        let workload_got = Arc::clone(&got);
        let harness = ProcHarness::spawn_with_pages(nprocs, PAGE, move |pid, port| {
            let mut values = Vec::new();
            for &op in &issued[pid] {
                match port.call(op) {
                    ProcReply::Value(v) => values.push(v),
                    ProcReply::Ack => assert!(!op.returns_value(), "{op:?} acknowledged"),
                }
            }
            workload_got.lock().expect("no workload panicked")[pid] = values;
        });
        let mut models: Vec<PageModel> = (0..nprocs).map(|_| PageModel::new()).collect();
        let mut rules: Vec<CacheRule> = (0..nprocs).map(|_| CacheRule::default()).collect();
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
        let mut done = vec![0usize; nprocs];
        let mut live: Vec<usize> = (0..nprocs).collect();
        while !live.is_empty() {
            let k = rng.next_below(live.len() as u64) as usize;
            let pid = live[k];
            let i = done[pid];
            let op = harness.next_op(pid);
            let (model, rule) = (&mut models[pid], &mut rules[pid]);
            match scripts[pid][i] {
                ProcOp::Read { addr, bytes } if rule.serves(addr) => {
                    let value = model.read(addr, bytes);
                    prop_assert_eq!(
                        op,
                        ProcOp::ServedRead { addr, bytes, value },
                        "processor {} op {}",
                        pid,
                        i
                    );
                    sent[pid].push(value);
                }
                ProcOp::Read { addr, bytes } => {
                    prop_assert_eq!(op, ProcOp::Read { addr, bytes }, "processor {} op {}", pid, i);
                    prop_assert_eq!(harness.wants_page(pid), rule.round_trip(addr), "op {}", i);
                    let value = model.read(addr, bytes);
                    if harness.wants_page(pid) {
                        harness.reply_page(pid, value, model.page(addr));
                    } else {
                        harness.reply(pid, ProcReply::Value(value));
                    }
                    sent[pid].push(value);
                }
                script_op => {
                    prop_assert_eq!(op, script_op, "processor {} op {}", pid, i);
                    match op {
                        ProcOp::Write { addr, bytes, value } => model.write(addr, bytes, value),
                        // Another node's write becomes visible at the acquire.
                        ProcOp::Lock(_) | ProcOp::Barrier(_) => {
                            rule.acquire();
                            let addr = 8 * rng.next_below(PAGES * PAGE / 8);
                            model.write(addr, 8, rng.next_u64());
                        }
                        ProcOp::Svc(SvcOp::Now) => {
                            harness.reply(pid, ProcReply::Value(reply_value(pid, i)));
                            sent[pid].push(reply_value(pid, i));
                        }
                        _ => {}
                    }
                }
            }
            done[pid] += 1;
            if op == ProcOp::Finish {
                live.swap_remove(k);
            }
        }
        harness.join();
        prop_assert_eq!(&*got.lock().expect("workloads joined"), &sent);
    }
}
