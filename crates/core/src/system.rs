//! The simulated machine: 16 workstation nodes, their memory hierarchies,
//! protocol controllers, the mesh interconnect and the DSM protocol glue.
//!
//! [`Simulation`] owns the deterministic back end. Workload threads (the
//! front end) drive it through [`ncp2_sim::ProcHarness`]: the back end
//! always resumes the runnable processor with the smallest local clock, or
//! handles the earliest pending event, whichever comes first — so a run is
//! a deterministic function of (parameters, protocol, workload).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use ncp2_mem::NodeMemory;
use ncp2_net::Network;
use ncp2_sim::ops::LockId;
use ncp2_sim::{
    Breakdown, Category, Cycles, EventQueue, MemAccess, Priority, ProcHarness, ProcOp, ProcReply,
    ProcStatus, SysParams,
};

use crate::bitvec::DirtyVec;
use crate::controller::Controller;
use crate::diff::DiffList;
use crate::interval::{AnnList, IntervalStore};
use crate::msg::Msg;
use crate::observe::{ProtocolEvent, Sinks};
use crate::page::{page_of, PageBuf, PageId, PageRefs, PageState};
use crate::protocol::Protocol;
use crate::span::{CtrlCmd, EdgeKind, Engine, SpanKind};
use crate::stats::{NodeStats, RunResult};
use crate::table::{DiffTable, FlatMap, IdSet};
use crate::timeseries::TsGauge;
use crate::transport::Frame;
use crate::vtime::{IntervalId, VectorTime};

/// Back-end events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A protocol message reaches `dst`'s network interface.
    Msg { dst: usize, msg: Msg },
    /// A blocked processor's pending operation completes.
    Wake { pid: usize },
    /// One physical transport-frame copy reaches `dst`'s interface
    /// (hardened transport engaged). Boxed: fault-free runs never build
    /// one, and inline it would widen every pending event.
    Frame(Box<Frame>),
    /// A cumulative acknowledgement for link `src → dst` arrives back at
    /// `src`: every frame with sequence number below `cum` is delivered.
    Ack { src: usize, dst: usize, cum: u64 },
    /// A retransmit timer for frame `seq` (at `attempt`) on `src → dst`.
    RetxCheck {
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    },
}

// Every pending event holds an `Ev`; keep the common variants compact.
const _: () = assert!(std::mem::size_of::<Ev>() <= 96);

/// One page fill in flight, for a demand fault or a prefetch: replies still
/// outstanding plus the payloads collected so far.
#[derive(Debug, Default)]
pub(crate) struct Fill {
    pub outstanding: usize,
    /// Latest of the request issue time and every reply arrival.
    pub ready_at: Cycles,
    pub diffs: DiffList,
    pub full_page: Option<(PageBuf, VectorTime)>,
}

impl Fill {
    /// A fill awaiting `outstanding` replies to requests issued by `ready_at`.
    pub fn new(outstanding: usize, ready_at: Cycles) -> Self {
        Fill {
            outstanding,
            ready_at,
            ..Fill::default()
        }
    }

    /// Absorbs one reply arriving at `t`; true once every reply is in.
    pub fn absorb(
        &mut self,
        t: Cycles,
        mut diffs: DiffList,
        full_page: Option<(PageBuf, VectorTime)>,
    ) -> bool {
        for d in diffs.drain() {
            self.diffs.push(d);
        }
        if full_page.is_some() {
            self.full_page = full_page;
        }
        self.outstanding -= 1;
        self.ready_at = self.ready_at.max(t);
        self.outstanding == 0
    }
}

/// In-flight fault state: the faulting page and its fill.
#[derive(Debug, Default)]
pub(crate) struct FaultWait {
    pub page: PageId,
    pub fill: Fill,
}

/// Why a processor is blocked.
#[derive(Debug, Default)]
pub(crate) enum Wait {
    #[default]
    None,
    /// TreadMarks access fault collecting diffs.
    Fault(FaultWait),
    /// Fault that found a prefetch already in flight for the page.
    PrefetchJoin,
    /// Waiting for a lock grant.
    Lock { lock: LockId },
    /// Waiting for a barrier release.
    Barrier,
    /// AURC page fetch from the home node.
    AurcFault { page: PageId },
}

impl Wait {
    fn category(&self) -> Category {
        match self {
            Wait::None => Category::Other,
            Wait::Fault(_) | Wait::PrefetchJoin | Wait::AurcFault { .. } => Category::Data,
            Wait::Lock { .. } | Wait::Barrier => Category::Synch,
        }
    }
}

/// One node's copy of a TreadMarks page.
#[derive(Debug)]
pub(crate) struct TmPage {
    pub data: PageBuf,
    pub state: PageState,
    /// Twin snapshot and the interval it belongs to (software modes only).
    pub twin: Option<(IntervalId, PageBuf)>,
    /// Snooped dirty-word bits (hardware-diff modes only).
    pub dirty: DirtyVec,
    /// Reference history and the open interval's dirty mark.
    pub refs: PageRefs,
    /// Unapplied write notices `(owner, interval)`.
    pub pending: Vec<(usize, IntervalId)>,
    /// Intervals of *this* node that dirtied the page (for full-page apply).
    pub own_intervals: Vec<IntervalId>,
}

impl TmPage {
    fn new(page_bytes: u64, page_words: u64) -> Self {
        TmPage {
            data: PageBuf::new(page_bytes),
            state: PageState::ReadOnly,
            twin: None,
            dirty: DirtyVec::new(page_words as usize),
            refs: PageRefs::default(),
            pending: Vec::new(),
            own_intervals: Vec::new(),
        }
    }
}

/// In-flight prefetch for one page.
#[derive(Debug, Default)]
pub(crate) struct PrefetchState {
    pub fill: Fill,
    /// Notices the prefetch will satisfy.
    pub requested: Vec<(usize, IntervalId)>,
    /// A fault is blocked waiting for this prefetch.
    pub joined: bool,
}

/// AURC per-node view of one page: four protocol flags packed into one
/// byte, beside the reference history both protocols keep.
#[derive(Debug, Default)]
pub(crate) struct AurcLocal {
    flags: u8,
    /// Reference history and the open interval's dirty mark.
    pub refs: PageRefs,
}

/// Generates `name()` / `set_name()` (and optionally `take_name()`)
/// accessors for one packed flag bit.
macro_rules! aurc_flags {
    ($($(#[$doc:meta])* $bit:literal => $get:ident, $set:ident $(, $take:ident)?;)+) => {
        impl AurcLocal {
            $(
                $(#[$doc])*
                pub fn $get(&self) -> bool {
                    self.flags & (1 << $bit) != 0
                }

                /// Sets the flag read by the same-named accessor.
                pub fn $set(&mut self, v: bool) {
                    if v {
                        self.flags |= 1 << $bit;
                    } else {
                        self.flags &= !(1 << $bit);
                    }
                }

                $(
                    /// Returns the flag and clears it.
                    pub fn $take(&mut self) -> bool {
                        let v = self.$get();
                        self.$set(false);
                        v
                    }
                )?
            )+
        }
    };
}

aurc_flags! {
    /// The local copy (or home/pairwise mapping) is up to date.
    0 => valid, set_valid;
    /// A prefetch for this page is in flight.
    1 => prefetching, set_prefetching;
    /// The page was invalidated again while a prefetch was in flight; the
    /// reply must not re-validate it.
    2 => prefetch_stale, set_prefetch_stale, take_prefetch_stale;
    /// A fault is blocked waiting for an in-flight prefetch of this page.
    3 => joined, set_joined, take_joined;
}

/// AURC global sharing mode of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AurcMode {
    /// Touched by one processor only.
    Single(usize),
    /// Bi-directional pairwise mapping; `replaced` is set once the third
    /// sharer has displaced the original first sharer (§3.3) — the next
    /// outsider then forces home mode.
    Pairwise(usize, usize, bool),
    /// Written through to a home node by everyone.
    Home(usize),
}

/// AURC network-interface write cache: combines consecutive updates per
/// cache line before they hit the wire (§3.3).
#[derive(Debug, Default)]
pub(crate) struct WriteCache {
    /// FIFO of `(line address, destination)` entries.
    pub entries: VecDeque<(u64, usize)>,
    pub capacity: usize,
}

impl WriteCache {
    /// Inserts a line; returns an evicted entry if the cache was full.
    /// Returns `None` with no effect when the line is already present
    /// (combining hit, recorded by the caller).
    pub fn insert(&mut self, line: u64, dst: usize) -> InsertOutcome {
        if self.entries.iter().any(|&(l, d)| l == line && d == dst) {
            return InsertOutcome::Combined;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back((line, dst));
        InsertOutcome::Inserted { evicted }
    }

    /// Drains every entry (release-time flush).
    pub fn flush(&mut self) -> Vec<(u64, usize)> {
        self.entries.drain(..).collect()
    }
}

/// Result of a write-cache insert.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    Combined,
    Inserted { evicted: Option<(u64, usize)> },
}

/// Everything belonging to one workstation node.
pub(crate) struct Node {
    pub time: Cycles,
    pub status: ProcStatus,
    pub wait: Wait,
    pub wait_start: Cycles,
    /// Cycles spent servicing others while this processor was blocked
    /// (reclassified from wait time to IPC at wake).
    pub ipc_during_wait: Cycles,
    pub pending_op: Option<ProcOp>,
    pub mem: NodeMemory,
    pub ctrl: Controller,
    pub stats: NodeStats,
    // --- TreadMarks state ---
    pub vt: VectorTime,
    /// The last snapshot of `vt` handed to this node's diff requests.
    pub vt_snapshot: Option<Arc<VectorTime>>,
    pub pages: FlatMap<TmPage>,
    pub store: IntervalStore,
    /// Diffs this node created for its own writes, keyed by (page, interval).
    pub diffs: DiffTable,
    pub cur_dirty: Vec<PageId>,
    pub last_barrier_vt: VectorTime,
    pub held_locks: IdSet,
    /// Locks whose grant token this node possesses (held or last released
    /// here and not yet passed on).
    pub owned_locks: IdSet,
    /// Forwarded acquire requests queued while this node holds the lock.
    pub lock_queue: FlatMap<VecDeque<(usize, VectorTime)>>,
    pub prefetches: FlatMap<PrefetchState>,
    // --- AURC state ---
    pub aurc_pages: FlatMap<AurcLocal>,
    pub wcache: WriteCache,
    /// At a home node: per-page arrival horizon of incoming updates.
    pub home_horizon: FlatMap<Cycles>,
    /// Per-destination arrival horizon of updates this node has emitted.
    pub out_horizon: Vec<Cycles>,
}

impl Node {
    fn new(params: &SysParams) -> Self {
        Node {
            time: 0,
            status: ProcStatus::Runnable,
            wait: Wait::None,
            wait_start: 0,
            ipc_during_wait: 0,
            pending_op: None,
            mem: NodeMemory::new(params),
            ctrl: Controller::new(),
            stats: NodeStats::default(),
            vt: VectorTime::new(params.nprocs),
            vt_snapshot: None,
            pages: FlatMap::new(),
            store: IntervalStore::new(),
            diffs: DiffTable::new(),
            cur_dirty: Vec::new(),
            last_barrier_vt: VectorTime::new(params.nprocs),
            held_locks: IdSet::new(),
            owned_locks: IdSet::new(),
            lock_queue: FlatMap::new(),
            prefetches: FlatMap::new(),
            aurc_pages: FlatMap::new(),
            wcache: WriteCache {
                entries: VecDeque::new(),
                capacity: params.write_cache_entries,
            },
            home_horizon: FlatMap::new(),
            out_horizon: vec![0; params.nprocs],
        }
    }
}

/// Pending barrier episode at its manager.
#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub arrived: usize,
    pub merged_vt: Option<VectorTime>,
    /// The arrivals' announcements so far, merged in `(owner, id)` order.
    pub anns: AnnList,
    /// AURC: `horizons[src][dst]` arrival horizon reported by each arrival.
    pub horizons: Vec<Vec<Cycles>>,
}

/// Runnable processors ordered by `(clock, pid)`: a min-heap updated
/// lazily. Clocks never go back, so an entry's key may lag its processor's
/// clock but never lead it; [`RunQueue::min`] re-keys lagging entries and
/// drops those of processors that stopped being runnable. Each processor
/// has at most one entry, and every runnable one has one.
struct RunQueue {
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
    queued: Vec<bool>,
}

impl RunQueue {
    /// All `n` processors, runnable at clock 0.
    fn new(n: usize) -> Self {
        RunQueue {
            heap: (0..n).map(|pid| Reverse((0, pid))).collect(),
            queued: vec![true; n],
        }
    }

    /// The runnable processor with the smallest `(clock, pid)`, and its
    /// clock.
    fn min(&mut self, nodes: &[Node]) -> Option<(usize, Cycles)> {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((key, pid)) = *top;
            let nd = &nodes[pid];
            if nd.status != ProcStatus::Runnable {
                PeekMut::pop(top);
                self.queued[pid] = false;
            } else if nd.time != key {
                debug_assert!(nd.time > key, "clock of {pid} went back");
                *top = Reverse((nd.time, pid));
            } else {
                return Some((pid, key));
            }
        }
        None
    }

    /// Gives `pid` an entry again after a wake, unless it still has one.
    fn push(&mut self, pid: usize, nodes: &[Node]) {
        if !std::mem::replace(&mut self.queued[pid], true) {
            self.heap.push(Reverse((nodes[pid].time, pid)));
        }
    }
}

/// The complete simulated machine for one run.
pub struct Simulation {
    pub(crate) params: SysParams,
    pub(crate) protocol: Protocol,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) net: Network,
    pub(crate) nodes: Vec<Node>,
    /// Lock manager state: last owner per lock (chain head).
    pub(crate) lock_last: FlatMap<usize>,
    pub(crate) barriers: FlatMap<BarrierState>,
    /// AURC master data plane and global sharing modes.
    pub(crate) master: FlatMap<PageBuf>,
    pub(crate) aurc_modes: FlatMap<AurcMode>,
    pub(crate) done: usize,
    pub(crate) seq: bool,
    /// Open-loop service counters, lazily created by the first
    /// [`ProcOp::Svc`] lifecycle marker (stays `None` for the closed-loop
    /// kernels, so their results are bit-for-bit unchanged).
    pub(crate) svc: Option<crate::stats::SvcStats>,
    /// Every consumer of the reported protocol facts: oracle, trace,
    /// aggregates, span recorder and time series.
    pub(crate) sinks: Sinks,
    /// Mutation hook for oracle self-tests: when armed, exactly one foreign
    /// write notice is silently discarded during announcement processing.
    pub(crate) drop_notice_armed: bool,
    /// Hardened-transport state, engaged via
    /// [`Simulation::attach_fault_plan`] with an active plan; `None` means
    /// every message takes the legacy exactly-once path.
    pub(crate) fault: Option<Box<crate::transport::FaultCtx>>,
    /// Mutation hook for oracle self-tests: when armed, the next intact
    /// inter-node data frame is consumed without delivery and without a
    /// terminal frame event — the conservation oracle must flag it.
    pub(crate) silent_frame_loss_armed: bool,
}

impl Simulation {
    /// Builds a machine with the given parameters and protocol.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SysParams::validate`].
    pub fn new(params: SysParams, protocol: Protocol) -> Self {
        // invariant: construction-time precondition — a bad machine
        // description must fail loudly before any cycle is simulated
        params.validate().expect("invalid system parameters");
        let n = params.nprocs;
        Simulation {
            queue: EventQueue::new(),
            net: Network::new(n),
            nodes: (0..n).map(|_| Node::new(&params)).collect(),
            lock_last: FlatMap::new(),
            barriers: FlatMap::new(),
            master: FlatMap::new(),
            aurc_modes: FlatMap::new(),
            done: 0,
            seq: n == 1,
            svc: None,
            sinks: Sinks::new(n, params.trace),
            drop_notice_armed: false,
            fault: None,
            silent_frame_loss_armed: false,
            params,
            protocol,
        }
    }

    /// Attaches a shadow observer that receives every protocol event; its
    /// findings land in [`RunResult::violations`].
    pub fn attach_observer(&mut self, observer: Box<dyn crate::observe::Observer>) {
        self.sinks.attach_observer(observer);
    }

    /// Arms the oracle-test mutation: the next foreign write notice processed
    /// anywhere in the machine is dropped without invalidating its page —
    /// the coverage oracle must flag it.
    pub fn inject_drop_write_notice(&mut self) {
        self.drop_notice_armed = true;
    }

    /// Arms span/flight/engine recording over simulated time; the resulting
    /// timeline lands in [`RunResult::obs`] and its conservation invariant
    /// (per-node, per-category span time equals the node's `Breakdown`) is
    /// checked at [`RunResult::violations`].
    pub fn enable_obs(&mut self) {
        self.sinks.enable_obs(self.params.nprocs);
    }

    /// Arms windowed time-series recording over simulated time; the finished
    /// series lands in [`RunResult::ts`]. The window width comes from
    /// [`SysParams::ts_window`] (`0` auto-picks, doubling as the run grows).
    pub fn enable_timeseries(&mut self) {
        self.sinks
            .enable_timeseries(self.params.nprocs, self.params.ts_window);
    }

    /// Runs `body` on every simulated processor to completion and returns
    /// the run's statistics.
    ///
    /// The body receives `(pid, port)` and must finish with
    /// [`ProcOp::Finish`] (the `ncp2-apps` framework does this for you).
    ///
    /// # Panics
    ///
    /// Panics on deadlock (blocked processors with no pending events) and on
    /// workload panics.
    pub fn run<F>(mut self, body: F) -> RunResult
    where
        F: Fn(usize, ncp2_sim::ProcPort) + Send + Sync + 'static,
    {
        let n = self.params.nprocs;
        let harness = if self.ships_pages() {
            ProcHarness::spawn_with_pages(n, self.params.page_bytes, body)
        } else {
            ProcHarness::spawn(n, body)
        };
        let mut runq = RunQueue::new(n);
        while self.done < n {
            let next_proc = runq.min(&self.nodes);
            // `peek_time` reads the time of the key at the event heap's
            // root; no payload is touched until the `pop` below.
            let next_ev = self.queue.peek_time();
            match (next_proc, next_ev) {
                (Some((pid, pt)), Some(et)) if et > pt => self.step_proc(pid, &harness),
                (_, Some(_)) => {
                    // invariant: peek returned Some just above
                    let ev = self.queue.pop().expect("peeked event");
                    let depth = self.queue.len() as u64;
                    self.sinks.gauge(TsGauge::QueueDepth, ev.time, depth);
                    let woken = match ev.payload {
                        Ev::Wake { pid } => Some(pid),
                        _ => None,
                    };
                    self.handle_event(ev.time, ev.payload, &harness);
                    if let Some(pid) = woken {
                        runq.push(pid, &self.nodes);
                    }
                }
                (Some((pid, _)), None) => self.step_proc(pid, &harness),
                (None, None) => {
                    let stuck: Vec<usize> = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, nd)| nd.status == ProcStatus::Blocked)
                        .map(|(p, _)| p)
                        .collect();
                    // invariant: no runnable processor and no event means the
                    // protocol lost a wakeup — unrecoverable by definition
                    panic!("simulation deadlock: processors {stuck:?} blocked with no events");
                }
            }
        }
        harness.join();
        self.finish()
    }

    /// Whether read replies may carry page copies for the workload thread
    /// to serve later reads from (see `ncp2_sim::proc`). Under TreadMarks a
    /// page a node holds changes only through the node's own writes,
    /// faults and acquires. AURC's master data plane changes under other
    /// nodes' writes at any time, and the sequential run gains nothing.
    fn ships_pages(&self) -> bool {
        !self.seq && matches!(self.protocol, Protocol::TreadMarks(_))
    }

    fn finish(mut self) -> RunResult {
        // Frames still in flight at run end (their messages already
        // delivered by another attempt, or gap-blocked prefetch stragglers)
        // get their terminal event so the conservation law balances.
        self.drain_inflight_frames();
        let total = self.nodes.iter().map(|nd| nd.time).max().unwrap_or(0);
        for nd in &mut self.nodes {
            nd.stats.controller_busy = nd.ctrl.busy();
        }
        let fault = self.fault.as_ref().map(|c| c.stats).unwrap_or_default();
        let mut run = RunResult {
            violations: Vec::new(),
            protocol: self.protocol.label().to_string(),
            nprocs: self.params.nprocs,
            total_cycles: total,
            nodes: self.nodes.iter().map(|nd| nd.stats).collect(),
            net: self.net.stats(),
            checksum: 0,
            trace: Vec::new(),
            obs: None,
            fault,
            ts: None,
            svc: self.svc.take(),
        };
        self.sinks.finish(&mut run);
        run
    }

    // ----- processor stepping -------------------------------------------

    /// Executes processor `pid`'s next op. Only value replies reach the
    /// workload (the harness drops `Ack`s): every other op was acknowledged
    /// when the workload issued it.
    fn step_proc(&mut self, pid: usize, harness: &ProcHarness) {
        let op = harness.next_op(pid);
        match op {
            ProcOp::Compute(c) => self.advance(pid, c, Category::Busy, SpanKind::Compute),
            ProcOp::Read { .. } | ProcOp::Write { .. } => {
                self.nodes[pid].pending_op = Some(op);
                self.complete_access(pid, harness);
            }
            ProcOp::ServedRead { addr, bytes, value } => {
                // Replayed as the read it stands for, so cycles, spans and
                // bookkeeping are those of a round-trip read.
                let read = MemAccess {
                    addr,
                    bytes,
                    store: None,
                };
                let replayed = self.access(pid, read);
                if replayed != Some(ProcReply::Value(value)) {
                    let got = match replayed {
                        Some(ProcReply::Value(v)) => format!("returns {v:#x}"),
                        _ => "blocks".to_string(),
                    };
                    // invariant: a page a node holds changes only through its
                    // own writes and acquires, so its port's copy matches
                    panic!(
                        "served read cross-check failed: processor {pid} was served \
                         {value:#x} at {addr:#x}, but the read it stands for {got}"
                    );
                }
            }
            ProcOp::Lock(l) => {
                self.nodes[pid].pending_op = Some(op);
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                    self.nodes[pid].pending_op = None;
                } else {
                    self.op_lock(pid, l);
                }
            }
            ProcOp::Unlock(l) => {
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                } else {
                    self.op_unlock(pid, l);
                }
            }
            ProcOp::Barrier(b) => {
                self.nodes[pid].pending_op = Some(op);
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                    self.nodes[pid].pending_op = None;
                } else {
                    self.op_barrier(pid, b);
                }
            }
            ProcOp::Finish => {
                self.nodes[pid].status = ProcStatus::Done;
                self.done += 1;
            }
            ProcOp::Svc(svc_op) => {
                let reply = self.svc_op(pid, svc_op);
                harness.reply(pid, reply);
            }
        }
    }

    /// Handles a zero-time service-plane marker: clock reads answer from
    /// the node clock, dequeue/reply markers accumulate the open-loop
    /// service statistics and emit trace/time-series samples. Never blocks
    /// and never advances simulated time.
    fn svc_op(&mut self, pid: usize, op: ncp2_sim::SvcOp) -> ProcReply {
        let now = self.nodes[pid].time;
        match op {
            ncp2_sim::SvcOp::Now => ProcReply::Value(now),
            ncp2_sim::SvcOp::Dequeue { depth } => {
                let svc = self.svc.get_or_insert_with(Default::default);
                svc.dequeues += 1;
                svc.queue_peak = svc.queue_peak.max(depth);
                self.sinks
                    .note(now, pid, ProtocolEvent::SvcDequeue { pid, depth });
                ProcReply::Ack
            }
            ncp2_sim::SvcOp::Reply { class, response } => {
                let svc = self.svc.get_or_insert_with(Default::default);
                match class {
                    ncp2_sim::SvcClass::Get => svc.gets += 1,
                    ncp2_sim::SvcClass::Put => svc.puts += 1,
                    ncp2_sim::SvcClass::Session => svc.sessions += 1,
                }
                svc.response.observe(response);
                self.sinks.note(
                    now,
                    pid,
                    ProtocolEvent::SvcReply {
                        pid,
                        class,
                        response,
                    },
                );
                ProcReply::Ack
            }
        }
    }

    /// Runs `pid`'s pending read or write and, when it completes, answers
    /// it: with a copy of the page read when the port asked for one. A
    /// blocked access is retried at wake.
    fn complete_access(&mut self, pid: usize, harness: &ProcHarness) {
        let a = self.nodes[pid]
            .pending_op
            .and_then(ProcOp::mem_access)
            // invariant: callers record the read or write before running it
            .expect("pending read or write");
        let Some(reply) = self.access(pid, a) else {
            return;
        };
        self.nodes[pid].pending_op = None;
        match reply {
            ProcReply::Value(value) if harness.wants_page(pid) => {
                let page = page_of(a.addr, self.params.page_bytes);
                // invariant: the read just completed on this node's copy
                let tp = self.nodes[pid].pages.get(page).expect("read page exists");
                harness.reply_page(pid, value, tp.data.bytes());
            }
            _ => harness.reply(pid, reply),
        }
    }

    /// Performs a read/write. Returns `Some(reply)` when it completed
    /// synchronously, `None` when the processor blocked. The sequential
    /// run times the reference and moves its bytes on the master copy; it
    /// reports no protocol fact.
    fn access(&mut self, pid: usize, a: MemAccess) -> Option<ProcReply> {
        if self.seq {
            self.charge_mem(pid, a.addr, a.is_write());
            let page = page_of(a.addr, self.params.page_bytes);
            return Some(self.master_page(page).perform(a));
        }
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_access(pid, a),
            Protocol::Aurc { .. } => self.aurc_access(pid, a),
        }
    }

    // ----- shared helpers -----------------------------------------------

    /// Advances `pid`'s clock by `c` cycles of `cat`, spent on `kind`.
    pub(crate) fn advance(&mut self, pid: usize, c: Cycles, cat: Category, kind: SpanKind) {
        let nd = &mut self.nodes[pid];
        let start = nd.time;
        nd.time += c;
        nd.stats.breakdown.add(cat, c);
        self.sinks.span(pid, kind, cat, start, c);
    }

    /// Runs the hardware timing of one data reference and charges the
    /// breakdown (1 busy cycle on a hit; TLB/stall cycles as Other).
    pub(crate) fn charge_mem(&mut self, pid: usize, addr: u64, write: bool) {
        let now = self.nodes[pid].time;
        let params = self.params.clone();
        let nd = &mut self.nodes[pid];
        let out = if write {
            nd.mem.write(now, addr, &params)
        } else {
            nd.mem.read(now, addr, &params)
        };
        let hit_cycles = if out.cache_hit || write { 1 } else { 0 };
        // overflow: a same-cycle hit makes the window shorter than the
        // busy charge; clamp the remainder to zero.
        let other = (out.done - now).saturating_sub(hit_cycles);
        nd.time = out.done;
        nd.stats.breakdown.add(Category::Busy, hit_cycles);
        nd.stats.breakdown.add(Category::Other, other);
        self.sinks
            .span(pid, SpanKind::MemHit, Category::Busy, now, hit_cycles);
        self.sinks.span(
            pid,
            SpanKind::MemStall,
            Category::Other,
            now + hit_cycles,
            other,
        );
    }

    /// The opening both protocols give an access to a valid copy: reports
    /// it, runs its hardware timing, marks the copy referenced (and, for a
    /// write, dirty: its first write in the open interval puts the page on
    /// the interval's dirty list), and reports the first use of a completed
    /// prefetch. `refs` finds the copy's reference history in the
    /// protocol's page table. Returns the page.
    pub(crate) fn begin_access(
        &mut self,
        pid: usize,
        a: MemAccess,
        refs: impl FnOnce(&mut Node, PageId) -> &mut PageRefs,
    ) -> PageId {
        let (addr, bytes, write) = (a.addr, a.bytes, a.is_write());
        let now = self.nodes[pid].time;
        self.sinks.note(
            now,
            pid,
            ProtocolEvent::Access {
                pid,
                addr,
                bytes,
                write,
            },
        );
        self.charge_mem(pid, addr, write);
        let page = page_of(addr, self.params.page_bytes);
        let nd = &mut self.nodes[pid];
        let r = refs(nd, page);
        let used_prefetch = r.touch();
        if write && r.mark_dirty() {
            nd.cur_dirty.push(page);
        }
        if used_prefetch {
            let now = self.nodes[pid].time;
            self.sinks
                .note(now, pid, ProtocolEvent::PrefetchUsed { pid, page });
        }
        page
    }

    /// Charges `dur` cycles of unexpected service work to processor `pid`
    /// starting at event time `now`; returns the service completion time.
    ///
    /// * Runnable processors are preempted (their clock is pushed back).
    /// * Blocked processors overlap the service with their wait; the cycles
    ///   are reclassified from wait time to `cat` at wake.
    /// * Finished processors absorb the work without extending the run.
    pub(crate) fn interrupt_proc(
        &mut self,
        pid: usize,
        now: Cycles,
        dur: Cycles,
        cat: Category,
        kind: SpanKind,
    ) -> Cycles {
        let nd = &mut self.nodes[pid];
        match nd.status {
            ProcStatus::Runnable => {
                let start = nd.time;
                nd.time += dur;
                nd.stats.breakdown.add(cat, dur);
                self.sinks.span(pid, kind, cat, start, dur);
            }
            ProcStatus::Blocked => {
                // Overlapped with the wait; the span (reclassified to IPC)
                // is emitted at wake.
                nd.ipc_during_wait += dur;
            }
            ProcStatus::Done => {
                nd.stats.breakdown.add(cat, dur);
                // Charged at the requester's event time: the node's own
                // timeline already ended, so the span would puncture the
                // per-node tiling the dependency graph is built on.
                self.sinks.span_detached(pid, kind, cat, now, dur);
            }
        }
        now + dur
    }

    /// Schedules delivery of `msg` leaving `src` at `t`. With an active
    /// fault plan the hardened transport carries every inter-node message
    /// (sequence numbers, acks, retransmission); without one, and for
    /// loopback sends, it goes straight on the wire.
    pub(crate) fn dispatch(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) {
        if self.fault.is_none() || src == dst {
            self.send_on_wire(t, src, dst, msg);
        } else {
            self.note_sent(t, src, dst, &msg, None);
            self.transport_send(t, src, dst, msg);
        }
    }

    /// Puts `msg` on the wire from `src` at `t`, exactly once and outside
    /// the transport: times the transfer, reports the send and its
    /// dependency edge, and queues the delivery (prefetch traffic at low
    /// priority). Returns the arrival time.
    pub(crate) fn send_on_wire(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) -> Cycles {
        let bytes = self.msg_bytes(&msg);
        let wire = self.net.transfer_timed(t, src, dst, bytes, &self.params);
        self.note_sent(t, src, dst, &msg, Some(wire));
        self.sinks.obs_edge(
            EdgeKind::Msg(msg.kind()),
            src,
            t,
            dst,
            wire.arrival,
            0,
            self.sinks.obs_last_span(src),
        );
        let prio = if msg.is_prefetch() {
            Priority::Low
        } else {
            Priority::Normal
        };
        self.queue.push(wire.arrival, prio, Ev::Msg { dst, msg });
        wire.arrival
    }

    /// Reports `msg` leaving `src` for `dst` at `t`, with its wire timing
    /// when it travels outside the transport.
    fn note_sent(
        &mut self,
        t: Cycles,
        src: usize,
        dst: usize,
        msg: &Msg,
        wire: Option<ncp2_net::Transfer>,
    ) {
        let bytes = self.msg_bytes(msg);
        let (kind, demand) = (msg.kind(), !msg.is_prefetch());
        let sent = ProtocolEvent::MsgSent {
            src,
            dst,
            kind,
            demand,
            bytes,
            wire,
        };
        self.sinks.note(t, src, sent);
    }

    /// Size of `msg` on the wire.
    fn msg_bytes(&self, msg: &Msg) -> u64 {
        msg.bytes(self.params.page_bytes, self.params.page_words())
    }

    /// Sends a message with the setup performed by the **protocol
    /// controller** (I-modes): occupies the controller, not the processor.
    pub(crate) fn ctrl_send(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) {
        let oh = self.params.messaging_overhead;
        let (s, end) = self.nodes[src].ctrl.run_io(t, oh);
        self.note_ctrl(src, Engine::CtrlIo, CtrlCmd::Send, s, end);
        self.dispatch(end, src, dst, msg);
    }

    /// Reports a controller command run over `[start, end)` plus its
    /// dependency edge.
    pub(crate) fn note_ctrl(
        &mut self,
        node: usize,
        engine: Engine,
        cmd: CtrlCmd,
        start: Cycles,
        end: Cycles,
    ) {
        self.sinks.note(
            start,
            node,
            ProtocolEvent::ControllerCommand {
                node,
                engine,
                cmd,
                end,
            },
        );
        self.sinks.obs_edge(
            EdgeKind::Ctrl(cmd),
            node,
            start,
            node,
            end,
            0,
            self.sinks.obs_last_span(node),
        );
    }

    /// Blocks `pid` with the given wait reason.
    pub(crate) fn block(&mut self, pid: usize, wait: Wait) {
        let nd = &mut self.nodes[pid];
        debug_assert_eq!(nd.status, ProcStatus::Runnable, "double block of {pid}");
        nd.status = ProcStatus::Blocked;
        nd.wait_start = nd.time;
        nd.ipc_during_wait = 0;
        nd.wait = wait;
    }

    /// Schedules `pid` to wake at `t`.
    pub(crate) fn schedule_wake(&mut self, pid: usize, t: Cycles) {
        self.queue.push(t, Priority::Urgent, Ev::Wake { pid });
    }

    // ----- event handling -------------------------------------------------

    fn handle_event(&mut self, t: Cycles, ev: Ev, harness: &ProcHarness) {
        match ev {
            Ev::Wake { pid } => self.handle_wake(pid, t, harness),
            Ev::Msg { dst, msg } => self.handle_msg(dst, t, msg),
            Ev::Frame(frame) => self.on_frame(t, frame),
            Ev::Ack { src, dst, cum } => self.on_ack(t, src, dst, cum),
            Ev::RetxCheck {
                src,
                dst,
                seq,
                attempt,
            } => self.on_retx_check(t, src, dst, seq, attempt),
        }
    }

    fn handle_wake(&mut self, pid: usize, t: Cycles, harness: &ProcHarness) {
        let cat = self.nodes[pid].wait.category();
        let stall_kind = match self.nodes[pid].wait {
            Wait::None => SpanKind::SyncOp,
            Wait::Fault(_) | Wait::AurcFault { .. } => SpanKind::FaultStall,
            Wait::PrefetchJoin => SpanKind::PrefetchStall,
            Wait::Lock { .. } => SpanKind::LockStall,
            Wait::Barrier => SpanKind::BarrierStall,
        };
        let (lock_wait, barrier_wait) = match self.nodes[pid].wait {
            Wait::Lock { lock } => (Some(lock), false),
            Wait::Barrier => (None, true),
            _ => (None, false),
        };
        let (wait_start, stall, reclass);
        {
            let nd = &mut self.nodes[pid];
            debug_assert_eq!(nd.status, ProcStatus::Blocked, "wake of non-blocked {pid}");
            // overflow: zero-length waits can wake in the arrival cycle;
            // clamp rather than underflow.
            let wait_dur = t.saturating_sub(nd.wait_start);
            reclass = nd.ipc_during_wait.min(wait_dur);
            stall = wait_dur - reclass;
            wait_start = nd.wait_start;
            nd.stats.breakdown.add(cat, stall);
            nd.stats.breakdown.add(Category::Ipc, reclass);
            nd.ipc_during_wait = 0;
            nd.time = nd.wait_start.max(t);
            nd.status = ProcStatus::Runnable;
            nd.wait = Wait::None;
        }
        self.sinks.span(pid, stall_kind, cat, wait_start, stall);
        self.sinks.span(
            pid,
            SpanKind::Service,
            Category::Ipc,
            wait_start + stall,
            reclass,
        );
        if let Some(lock) = lock_wait {
            // The full stall is attributed to the lock whose grant ended it.
            self.sinks
                .note(t, pid, ProtocolEvent::LockWaitEnded { pid, lock, stall });
        } else if barrier_wait {
            // The barrier wait belongs to the epoch it closes; the next
            // epoch begins with the processor's release.
            self.sinks
                .note(t, pid, ProtocolEvent::BarrierWaitEnded { pid });
        }
        // invariant: a processor only blocks with its faulting op recorded
        let op = self.nodes[pid].pending_op.expect("wake without pending op");
        match op {
            // The access retries; it may block again (e.g. new notices
            // arrived for the page while a prefetch was in flight).
            ProcOp::Read { .. } | ProcOp::Write { .. } => self.complete_access(pid, harness),
            ProcOp::Lock(_) | ProcOp::Barrier(_) => self.nodes[pid].pending_op = None,
            other => unreachable!("unexpected pending op {other:?}"),
        }
    }

    pub(crate) fn handle_msg(&mut self, dst: usize, t: Cycles, msg: Msg) {
        self.sinks.note(
            t,
            dst,
            ProtocolEvent::MsgDelivered {
                dst,
                kind: msg.kind(),
                demand: !msg.is_prefetch(),
            },
        );
        match msg {
            Msg::LockReq { lock, acquirer, vt } => self.on_lock_req(dst, t, lock, acquirer, vt),
            Msg::LockForward { lock, acquirer, vt } => {
                self.on_lock_forward(dst, t, lock, acquirer, vt)
            }
            Msg::LockGrant {
                lock,
                anns,
                update_horizon,
            } => self.on_lock_grant(dst, t, lock, anns, update_horizon),
            Msg::BarrierArrive {
                barrier,
                from,
                vt,
                anns,
                horizons,
            } => self.on_barrier_arrive(dst, t, barrier, from, vt, anns, horizons),
            Msg::BarrierRelease {
                barrier,
                vt,
                anns,
                update_horizon,
            } => self.on_barrier_release(dst, t, barrier, vt, anns, update_horizon),
            Msg::DiffReq {
                page,
                intervals,
                requester,
                requester_vt,
                prefetch,
                want_page,
            } => self.on_diff_req(
                dst,
                t,
                page,
                intervals,
                requester,
                requester_vt,
                prefetch,
                want_page,
            ),
            Msg::DiffReply {
                page,
                diffs,
                full_page,
                prefetch,
            } => self.on_diff_reply(dst, t, page, diffs, full_page, prefetch),
            Msg::AurcUpdate { page, .. } => self.on_aurc_update(dst, t, page),
            Msg::AurcPageReq {
                page,
                requester,
                prefetch,
            } => self.on_aurc_page_req(dst, t, page, requester, prefetch),
            Msg::AurcPageReply { page, prefetch } => {
                self.on_aurc_page_reply(dst, t, page, prefetch)
            }
        }
    }

    /// Sends `msg` from `src`, charging the per-message software overhead to
    /// the right engine: the protocol controller under the I-modes, the
    /// computation processor otherwise. `servicing` selects preemptive
    /// charging ([`Self::interrupt_proc`]) over in-line charging (the
    /// processor is the acting party). Advances `*t` to the injection time.
    pub(crate) fn send_msg(
        &mut self,
        t: &mut Cycles,
        src: usize,
        dst: usize,
        msg: Msg,
        cat: Category,
        servicing: bool,
    ) {
        let offload = matches!(self.protocol, Protocol::TreadMarks(m) if m.offload());
        let setup = if offload {
            Controller::issue_cost(&self.params)
        } else {
            self.params.messaging_overhead
        };
        if servicing {
            *t = self.interrupt_proc(src, *t, setup, cat, SpanKind::MsgSetup);
        } else {
            self.advance(src, setup, cat, SpanKind::MsgSetup);
            *t = self.nodes[src].time;
        }
        if offload {
            self.ctrl_send(*t, src, dst, msg);
        } else {
            self.dispatch(*t, src, dst, msg);
        }
    }

    // ----- small accessors used by the protocol modules -------------------

    /// The overlap mode (TreadMarks protocols only).
    pub(crate) fn mode(&self) -> crate::protocol::OverlapMode {
        match self.protocol {
            Protocol::TreadMarks(m) => m,
            Protocol::Aurc { .. } => unreachable!("mode() called under AURC"),
        }
    }

    /// Lazily materializes node `pid`'s copy of `page`.
    pub(crate) fn tm_page(&mut self, pid: usize, page: PageId) -> &mut TmPage {
        self.tm_page_and_sinks(pid, page).0
    }

    /// [`Self::tm_page`] alongside the sinks, so a fact can borrow the page
    /// while it is reported.
    pub(crate) fn tm_page_and_sinks(
        &mut self,
        pid: usize,
        page: PageId,
    ) -> (&mut TmPage, &mut Sinks) {
        let (pb, pw) = (self.params.page_bytes, self.params.page_words());
        let tp = self.nodes[pid]
            .pages
            .get_or_insert_with(page, || TmPage::new(pb, pw));
        (tp, &mut self.sinks)
    }

    /// Lazily materializes the AURC master copy of `page`.
    pub(crate) fn master_page(&mut self, page: PageId) -> &mut PageBuf {
        let pb = self.params.page_bytes;
        self.master.get_or_insert_with(page, || PageBuf::new(pb))
    }

    /// Aggregated breakdown over every node (testing aid).
    pub fn aggregate(&self) -> Breakdown {
        self.nodes.iter().map(|n| n.stats.breakdown).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OverlapMode;

    fn sim(n: usize) -> Simulation {
        Simulation::new(
            SysParams::default().with_nprocs(n),
            Protocol::TreadMarks(OverlapMode::Base),
        )
    }

    #[test]
    fn write_cache_combines_and_evicts_fifo() {
        let mut wc = WriteCache {
            entries: VecDeque::new(),
            capacity: 2,
        };
        assert_eq!(wc.insert(1, 0), InsertOutcome::Inserted { evicted: None });
        assert_eq!(wc.insert(1, 0), InsertOutcome::Combined);
        assert_eq!(wc.insert(2, 0), InsertOutcome::Inserted { evicted: None });
        assert_eq!(
            wc.insert(3, 0),
            InsertOutcome::Inserted {
                evicted: Some((1, 0))
            }
        );
        let flushed = wc.flush();
        assert_eq!(flushed, vec![(2, 0), (3, 0)]);
        assert!(wc.entries.is_empty());
    }

    #[test]
    fn write_cache_keys_on_line_and_destination() {
        let mut wc = WriteCache {
            entries: VecDeque::new(),
            capacity: 4,
        };
        assert_eq!(wc.insert(7, 0), InsertOutcome::Inserted { evicted: None });
        // Same line to a different destination is a distinct entry.
        assert_eq!(wc.insert(7, 1), InsertOutcome::Inserted { evicted: None });
        assert_eq!(wc.insert(7, 0), InsertOutcome::Combined);
        assert_eq!(wc.entries.len(), 2);
    }

    #[test]
    fn wait_categories_match_paper_buckets() {
        assert_eq!(Wait::Fault(FaultWait::default()).category(), Category::Data);
        assert_eq!(Wait::PrefetchJoin.category(), Category::Data);
        assert_eq!(Wait::AurcFault { page: 0 }.category(), Category::Data);
        assert_eq!(Wait::Lock { lock: 0 }.category(), Category::Synch);
        assert_eq!(Wait::Barrier.category(), Category::Synch);
    }

    #[test]
    fn interrupt_proc_preempts_runnable_processors() {
        let mut s = sim(2);
        s.nodes[1].time = 1000;
        let done = s.interrupt_proc(1, 500, 100, Category::Ipc, SpanKind::Service);
        assert_eq!(done, 600, "service completes at event time + duration");
        assert_eq!(s.nodes[1].time, 1100, "the processor is pushed back");
        assert_eq!(s.nodes[1].stats.breakdown.ipc, 100);
    }

    #[test]
    fn interrupt_proc_overlaps_blocked_processors() {
        let mut s = sim(2);
        s.nodes[1].status = ncp2_sim::ProcStatus::Blocked;
        s.nodes[1].wait_start = 400;
        let done = s.interrupt_proc(1, 500, 100, Category::Ipc, SpanKind::Service);
        assert_eq!(done, 600);
        assert_eq!(
            s.nodes[1].ipc_during_wait, 100,
            "charged against the wait at wake"
        );
        assert_eq!(
            s.nodes[1].stats.breakdown.ipc, 0,
            "not yet in the breakdown"
        );
    }

    #[test]
    fn advance_tags_categories() {
        let mut s = sim(1);
        s.advance(0, 10, Category::Busy, SpanKind::Compute);
        s.advance(0, 5, Category::Synch, SpanKind::SyncOp);
        assert_eq!(s.nodes[0].time, 15);
        assert_eq!(s.nodes[0].stats.breakdown.busy, 10);
        assert_eq!(s.nodes[0].stats.breakdown.synch, 5);
    }

    #[test]
    fn tm_page_is_lazily_zeroed_and_readable() {
        let mut s = sim(2);
        let tp = s.tm_page(1, 42);
        assert_eq!(tp.state, PageState::ReadOnly);
        assert_eq!(tp.data.read(0, 8), 0);
        assert!(!tp.refs.referenced && tp.pending.is_empty());
        // Master pages too.
        assert_eq!(s.master_page(7).read(64, 4), 0);
    }

    #[test]
    fn dispatch_prioritizes_prefetch_messages_low() {
        let mut s = sim(2);
        let demand = Msg::AurcPageReq {
            page: 0,
            requester: 0,
            prefetch: false,
        };
        let pf = Msg::AurcPageReq {
            page: 1,
            requester: 0,
            prefetch: true,
        };
        assert!(!demand.is_prefetch());
        assert!(pf.is_prefetch());
        // At equal delivery time, the queue orders by priority: the demand
        // message (Normal) pops before the prefetch (Low) even though it
        // was pushed second — the paper's command-priority mechanism.
        let prio = |m: &Msg| {
            if m.is_prefetch() {
                Priority::Low
            } else {
                Priority::Normal
            }
        };
        s.queue.push(100, prio(&pf), Ev::Msg { dst: 1, msg: pf });
        s.queue.push(
            100,
            prio(&demand),
            Ev::Msg {
                dst: 1,
                msg: demand,
            },
        );
        let first = s.queue.pop().expect("event");
        match first.payload {
            Ev::Msg {
                msg: Msg::AurcPageReq { prefetch, .. },
                ..
            } => assert!(!prefetch),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid system parameters")]
    fn bad_params_are_rejected() {
        let p = SysParams {
            page_bytes: 3000,
            ..SysParams::default()
        };
        let _ = Simulation::new(p, Protocol::TreadMarks(OverlapMode::Base));
    }
}
