//! Deterministic event queue.
//!
//! Events are ordered by `(time, priority, sequence)`. The sequence number is
//! assigned at push time, so two runs that push the same events in the same
//! order pop them in the same order — the foundation of the simulator's
//! bit-for-bit determinism.
//!
//! The implementation is an indexed 4-ary min-heap of 24-byte keys over a
//! payload slab. Sifting moves only the keys (time, priority packed above
//! the sequence number, slab slot); payloads stay where they were pushed,
//! in a `Vec<Option<T>>` whose vacant slots are recycled through a free
//! list. Pop never allocates, and push allocates only when the queue grows
//! deeper than it has ever been. Because sequence numbers are unique, `(time, priority,
//! seq)` is a total order and any correct priority queue pops exactly the
//! same sequence; the equivalence tests below pin that against a
//! `BinaryHeap` reference model. See DESIGN.md §15.

use crate::time::Cycles;

/// Scheduling priority for events that share a timestamp.
///
/// `Urgent` models the paper's high-priority protocol-controller commands
/// ("so that we can prevent prefetches from delaying requests for which a
/// computation processor is stalled waiting"); `Low` models prefetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Serviced before anything else at the same timestamp.
    Urgent,
    /// Ordinary protocol traffic.
    #[default]
    Normal,
    /// Prefetches and other deferrable work.
    Low,
}

impl Priority {
    /// Every priority, indexed by its discriminant.
    const ALL: [Priority; 3] = [Priority::Urgent, Priority::Normal, Priority::Low];
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Absolute simulated time at which the event fires.
    pub time: Cycles,
    /// Tie-break priority at equal `time`.
    pub priority: Priority,
    /// Push-order sequence number (unique per queue).
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

/// Bits of [`Key::rank`] holding the sequence number; the priority sits in
/// the two bits above them.
const SEQ_BITS: u32 = 62;
/// Children per heap node: a shallower tree than a binary heap, and the
/// four children of a node share a cache line or two. `sift_root_down`'s
/// tournament assumes four.
const ARITY: usize = 4;

/// The heap's view of one pending event.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: Cycles,
    /// `priority << SEQ_BITS | seq`, so comparing `(time, rank)` compares
    /// the full `(time, priority, seq)` key.
    rank: u64,
    /// Index of the payload in the slab.
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// Whether `self` pops first. One 128-bit comparison, which compiles
    /// to fewer branches than comparing `(time, rank)` field by field.
    fn before(&self, other: &Key) -> bool {
        let ord = |k: &Key| (u128::from(k.time) << 64) | u128::from(k.rank);
        ord(self) < ord(other)
    }

    fn priority(&self) -> Priority {
        Priority::ALL[(self.rank >> SEQ_BITS) as usize]
    }

    fn seq(&self) -> u64 {
        self.rank & ((1 << SEQ_BITS) - 1)
    }
}

/// A deterministic min-priority queue of [`Event`]s.
///
/// ```
/// use ncp2_sim::{EventQueue, Priority};
/// let mut q = EventQueue::new();
/// q.push(5, Priority::Normal, 'x');
/// assert_eq!(q.peek_time(), Some(5));
/// assert_eq!(q.peek().map(|(_, _, _, p)| *p), Some('x'));
/// assert_eq!(q.pop().map(|e| e.payload), Some('x'));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// 4-ary min-heap on `(time, rank)`; `keys[0]` is the next event.
    keys: Vec<Key>,
    /// Payloads by slot; `None` marks a vacant slot.
    slab: Vec<Option<T>>,
    /// Vacant slots of `slab`, reused before it grows. Its capacity keeps
    /// up with the slab's.
    free: Vec<u32>,
    /// Next push-order sequence number.
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn push(&mut self, time: Cycles, priority: Priority, payload: T) {
        let seq = self.next_seq;
        // overflow: 2^62 pushes would take centuries at any host speed.
        debug_assert!(seq >> SEQ_BITS == 0, "sequence numbers exhausted");
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                // invariant: a u32 slot index covers 4 billion pending
                // events, far beyond any simulation's memory.
                let slot = u32::try_from(self.slab.len()).expect("event slab full");
                self.slab.push(Some(payload));
                // Room for every slot to fall vacant, so `pop` never
                // allocates.
                self.free.reserve(self.slab.capacity());
                slot
            }
        };
        self.keys.push(Key {
            time,
            rank: (priority as u64) << SEQ_BITS | seq,
            slot,
        });
        self.sift_up(self.keys.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<T>> {
        if self.keys.is_empty() {
            return None;
        }
        let top = self.keys.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_root_down();
        }
        let payload = self.slab[top.slot as usize]
            .take()
            // invariant: every key names the occupied slot its push filled.
            .expect("heap key points at a vacant slot");
        self.free.push(top.slot);
        Some(Event {
            time: top.time,
            priority: top.priority(),
            seq: top.seq(),
            payload,
        })
    }

    /// Empties the queue, yielding every pending payload in slab-slot
    /// order rather than pop order, without sifting the heap. For callers
    /// that only collect what is left, such as an end-of-run drain. The
    /// queue is empty as soon as this returns, whether or not the iterator
    /// is consumed, and keeps its capacity.
    pub fn drain_unordered(&mut self) -> impl Iterator<Item = T> + '_ {
        self.keys.clear();
        self.free.clear();
        self.slab.drain(..).flatten()
    }

    /// The earliest pending event as `(time, priority, seq, payload)`.
    pub fn peek(&self) -> Option<(Cycles, Priority, u64, &T)> {
        let top = self.keys.first()?;
        // invariant: every key names the occupied slot its push filled.
        let payload = self.slab[top.slot as usize]
            .as_ref()
            .expect("heap key points at a vacant slot");
        Some((top.time, top.priority(), top.seq(), payload))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.keys.first().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Moves the key at `i` up until its parent is not after it.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !key.before(&self.keys[parent]) {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Restores heap order after `swap_remove(0)` moved the last key to
    /// the root. That key almost always belongs near the bottom, so the
    /// hole it leaves walks down the earliest child of each level without
    /// comparing against it, and the key then sifts up from the leaf where
    /// the hole stopped.
    fn sift_root_down(&mut self) {
        let key = self.keys[0];
        let n = self.keys.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let child = if first + ARITY <= n {
                // All four children exist: a two-round tournament.
                let k = &self.keys[first..first + ARITY];
                let a = usize::from(k[1].before(&k[0]));
                let b = 2 + usize::from(k[3].before(&k[2]));
                first + if k[b].before(&k[a]) { b } else { a }
            } else {
                (first + 1..n).fold(first, |best, c| {
                    if self.keys[c].before(&self.keys[best]) {
                        c
                    } else {
                        best
                    }
                })
            };
            self.keys[i] = self.keys[child];
            i = child;
        }
        self.keys[i] = key;
        self.sift_up(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Observed = (Cycles, Priority, u64, u64);

    /// A `BinaryHeap` on the full key, kept as the reference model for the
    /// observational-equivalence property tests below.
    struct HeapQueue {
        heap: BinaryHeap<Reverse<Observed>>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: Cycles, priority: Priority, payload: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((time, priority, seq, payload)));
        }

        fn pop(&mut self) -> Option<Observed> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn peek(&self) -> Option<Observed> {
            self.heap.peek().map(|&Reverse(e)| e)
        }
    }

    fn prio(p: u8) -> Priority {
        match p % 3 {
            0 => Priority::Urgent,
            1 => Priority::Normal,
            _ => Priority::Low,
        }
    }

    fn observe_pop(q: &mut EventQueue<u64>) -> Option<Observed> {
        q.pop().map(|e| (e.time, e.priority, e.seq, e.payload))
    }

    #[test]
    fn orders_by_time_then_priority_then_seq() {
        let mut q = EventQueue::new();
        q.push(10, Priority::Normal, 1);
        q.push(10, Priority::Low, 2);
        q.push(10, Priority::Urgent, 3);
        q.push(5, Priority::Low, 4);
        q.push(10, Priority::Urgent, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![4, 3, 5, 1, 2]);
    }

    #[test]
    fn fifo_within_same_key() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, Priority::Normal, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(42, Priority::Normal, ());
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.peek().map(|(t, ..)| t), Some(42));
        assert_eq!(q.pop().map(|e| e.time), Some(42));
        assert_eq!(q.peek_time(), None);
        assert!(q.peek().is_none());
    }

    #[test]
    fn far_future_events_pop_correctly() {
        let mut q = EventQueue::new();
        q.push(1u64 << 40, Priority::Normal, 'd');
        q.push(0, Priority::Normal, 'a');
        q.push(1u64 << 20, Priority::Normal, 'c');
        q.push(3, Priority::Normal, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn grows_and_shrinks_without_reordering() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(i * 37 % 4096, prio(i as u8), i);
        }
        let mut last = None;
        let mut n = 0;
        while let Some(ev) = q.pop() {
            let k = (ev.time, ev.priority, ev.seq);
            if let Some(prev) = last {
                assert!(prev < k, "pop order violated: {prev:?} then {k:?}");
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn pushes_below_the_last_popped_time_pop_in_full_key_order() {
        let mut q = EventQueue::new();
        for t in [100, 200, 300] {
            q.push(t, Priority::Normal, 0u64);
        }
        assert_eq!(q.pop().map(|e| e.time), Some(100));
        q.push(50, Priority::Low, 0);
        q.push(50, Priority::Urgent, 0);
        q.push(150, Priority::Normal, 0);
        q.push(50, Priority::Low, 0);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.priority, e.seq))).collect();
        assert_eq!(
            order,
            vec![
                (50, Priority::Urgent, 4),
                (50, Priority::Low, 3),
                (50, Priority::Low, 6),
                (150, Priority::Normal, 5),
                (200, Priority::Normal, 1),
                (300, Priority::Normal, 2),
            ]
        );
    }

    #[test]
    fn steady_state_reuses_slots() {
        const DEPTH: u64 = 1000;
        const BATCH: u64 = 64;
        let mut q = EventQueue::new();
        for i in 0..DEPTH {
            q.push(i * 7 % 300, prio(i as u8), i);
        }
        // Pops `BATCH` events, then pushes `BATCH` later ones: the depth
        // swings by a batch and returns to `DEPTH` every cycle.
        let cycle = |q: &mut EventQueue<u64>, round: u64| {
            let popped: Vec<_> = (0..BATCH)
                .map(|_| q.pop().expect("queue is full"))
                .collect();
            for (i, ev) in popped.into_iter().enumerate() {
                q.push(
                    ev.time + 1 + (round + i as u64) % 500,
                    prio(i as u8),
                    ev.payload,
                );
            }
        };
        let caps = |q: &EventQueue<u64>| {
            (
                q.keys.capacity(),
                q.slab.len(),
                q.slab.capacity(),
                q.free.capacity(),
            )
        };
        let before = caps(&q);
        for round in 0..1000 {
            cycle(&mut q, round);
        }
        assert_eq!(caps(&q), before);
        assert_eq!(q.len(), DEPTH as usize);
    }

    /// Drives the queue and the heap reference model through the same
    /// operation sequence and checks every observation is identical.
    fn check_equivalence(ops: &[(u8, u64, u8)], wide: bool) {
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut payload = 0u64;
        for &(kind, t, p) in ops {
            match kind % 4 {
                // Push twice as often as pop so queues actually fill up.
                0 | 1 => {
                    // `wide` mixes near and very distant times; otherwise
                    // keep times colliding.
                    let time = if wide && t % 7 == 0 { t << 30 } else { t % 64 };
                    q.push(time, prio(p), payload);
                    heap.push(time, prio(p), payload);
                    payload += 1;
                }
                2 => {
                    assert_eq!(
                        observe_pop(&mut q),
                        heap.pop(),
                        "pop diverged from reference model"
                    );
                }
                _ => {
                    let a = q.peek().map(|(t, p, s, &v)| (t, p, s, v));
                    assert_eq!(a, heap.peek(), "peek diverged from reference model");
                    assert_eq!(q.peek_time(), heap.peek().map(|e| e.0));
                }
            }
            assert_eq!(q.len(), heap.heap.len());
        }
        // Drain both completely: the tails must agree too.
        loop {
            let a = observe_pop(&mut q);
            assert_eq!(a, heap.pop(), "drain diverged from reference model");
            if a.is_none() {
                break;
            }
        }
    }

    /// Drives the queue and the reference model through `ops` as
    /// [`check_equivalence`] does, then empties the queue with
    /// `drain_unordered` and the model by popping: the payloads agree as a
    /// multiset, and the drained queue then pushes and pops like a new one.
    fn check_drain(ops: &[(u8, u64, u8)]) {
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (payload, &(kind, t, p)) in ops.iter().enumerate() {
            if kind % 3 == 0 {
                assert_eq!(observe_pop(&mut q), heap.pop());
            } else {
                q.push(t % 64, prio(p), payload as u64);
                heap.push(t % 64, prio(p), payload as u64);
            }
        }
        let mut drained: Vec<u64> = q.drain_unordered().collect();
        let mut popped: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.3)).collect();
        drained.sort_unstable();
        popped.sort_unstable();
        assert_eq!(drained, popped, "drain lost or invented a payload");
        assert!(q.is_empty() && q.peek().is_none() && q.pop().is_none());
        // The drained queue keeps working: a fresh push/pop sequence
        // observes what the reference model does, sequence numbers aside.
        for &(_, t, p) in ops.iter().take(50) {
            q.push(t % 64, prio(p), t);
            heap.push(t % 64, prio(p), t);
        }
        loop {
            let a = q.pop().map(|e| (e.time, e.priority, e.payload));
            assert_eq!(a, heap.pop().map(|e| (e.0, e.1, e.3)));
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drain_unordered_empties_even_if_not_consumed() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(i % 7, Priority::Normal, i);
        }
        assert_eq!(q.drain_unordered().take(3).count(), 3);
        assert!(q.is_empty() && q.pop().is_none());
        q.push(5, Priority::Low, 1);
        q.push(5, Priority::Urgent, 2);
        assert_eq!(q.pop().map(|e| e.payload), Some(2));
        assert_eq!(q.len(), 1);
    }

    proptest! {
        /// `drain_unordered` yields exactly the payloads repeated `pop`
        /// would, leaves the queue empty, and the queue stays usable.
        #[test]
        fn drain_unordered_yields_what_pop_would(
            ops in prop::collection::vec((0u8..3, 0u64..1000, 0u8..3), 0..400)
        ) {
            check_drain(&ops);
        }

        /// Random interleaved push/pop/peek sequences with heavily colliding
        /// times and priorities observe identical behavior from the queue
        /// and the `BinaryHeap` reference model.
        #[test]
        fn queue_equals_heap_colliding_keys(
            ops in prop::collection::vec((0u8..4, 0u64..1000, 0u8..3), 1..400)
        ) {
            check_equivalence(&ops, false);
        }

        /// Same, with times spread over forty bits.
        #[test]
        fn queue_equals_heap_wide_times(
            ops in prop::collection::vec((0u8..4, 0u64..1000, 0u8..3), 1..400)
        ) {
            check_equivalence(&ops, true);
        }
    }
}
