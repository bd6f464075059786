//! Simulated-time spans: the data model behind span recording.
//!
//! When [`Simulation::enable_obs`](crate::Simulation::enable_obs) is called,
//! the simulation records three kinds of timed regions over **simulated
//! cycles** (never wall clock):
//!
//! * **Conserved processor spans** ([`Span`]) — one span per breakdown
//!   charge. Every call that adds cycles to a node's [`Breakdown`] emits
//!   exactly one span of the same duration and category, so per-node,
//!   per-category span time sums *exactly* to the node's breakdown totals.
//!   [`ObsLog::conservation_errors`] checks this invariant and
//!   [`Simulation::finish`] reports any mismatch as a
//!   [`Violation::SpanConservation`](crate::observe::Violation).
//! * **Engine spans** ([`EngineSpan`]) — occupancy of the protocol
//!   controller's core/DMA datapath and message front end, labelled with the
//!   command that ran ([`CtrlCmd`]).
//! * **Message flights** ([`Flight`]) — injection, network entry (after link
//!   contention) and arrival of every protocol message.
//!
//! Spans are tagged with the node's current *barrier epoch* (incremented
//! each time the node is released from a barrier) so breakdowns can be
//! inspected per phase. A barrier's own wait time is attributed to the epoch
//! it closes; the epoch advances at the wake that ends the wait.
//!
//! Spans and edges are recorded directly by the charge helpers and edge
//! sites; everything else arrives as reported protocol facts
//! ([`ObsRecorder::note`]).
//!
//! [`Breakdown`]: ncp2_sim::Breakdown

use std::collections::HashMap;

use ncp2_sim::{Category, Cycles};

use crate::observe::{MsgKind, ProtocolEvent};
use crate::stats::NodeStats;

/// What a conserved processor span was spent on. The kind is finer than the
/// five [`Category`] buckets: several kinds map into one category (e.g.
/// `DiffCreate` cycles are `Data` when taken on a write fault but `Ipc` when
/// taken while servicing a remote request), so each [`Span`] carries both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Useful application computation.
    Compute,
    /// The 1-cycle hit portion of a shared-memory reference.
    MemHit,
    /// TLB / cache-miss / write-buffer stall of a memory reference.
    MemStall,
    /// Trap / interrupt entry overhead.
    Interrupt,
    /// Twin creation (page copy) on the processor.
    Twin,
    /// Diff generation (twin comparison or issue of a DMA gather).
    DiffCreate,
    /// Diff application to a local page copy.
    DiffApply,
    /// Interval / write-notice / list processing.
    NoticeMgmt,
    /// Sequential-mode synchronization stand-in operations.
    SyncOp,
    /// Per-message software overhead or controller command issue.
    MsgSetup,
    /// AURC automatic-update emission (write-cache flush / eviction).
    UpdateFlush,
    /// Servicing a remote request (handler body charged as IPC).
    Service,
    /// Blocked collecting diffs / fetching a page on an access fault.
    FaultStall,
    /// Blocked waiting for an in-flight prefetch it joined.
    PrefetchStall,
    /// Blocked waiting for a lock grant.
    LockStall,
    /// Blocked waiting for a barrier release.
    BarrierStall,
    /// Transport ack timer expired; retransmission decision overhead.
    RetransmitTimeout,
    /// Re-sending an unacknowledged transport frame.
    Retransmit,
    /// Discarding an already-delivered duplicate frame.
    DuplicateDropped,
    /// Degradation policy shedding a prefetch command under congestion.
    PrefetchShed,
}

impl SpanKind {
    /// Every kind, in rendering order.
    pub const ALL: [SpanKind; 20] = [
        SpanKind::Compute,
        SpanKind::MemHit,
        SpanKind::MemStall,
        SpanKind::Interrupt,
        SpanKind::Twin,
        SpanKind::DiffCreate,
        SpanKind::DiffApply,
        SpanKind::NoticeMgmt,
        SpanKind::SyncOp,
        SpanKind::MsgSetup,
        SpanKind::UpdateFlush,
        SpanKind::Service,
        SpanKind::FaultStall,
        SpanKind::PrefetchStall,
        SpanKind::LockStall,
        SpanKind::BarrierStall,
        SpanKind::RetransmitTimeout,
        SpanKind::Retransmit,
        SpanKind::DuplicateDropped,
        SpanKind::PrefetchShed,
    ];

    /// Stable snake_case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::MemHit => "mem_hit",
            SpanKind::MemStall => "mem_stall",
            SpanKind::Interrupt => "interrupt",
            SpanKind::Twin => "twin",
            SpanKind::DiffCreate => "diff_create",
            SpanKind::DiffApply => "diff_apply",
            SpanKind::NoticeMgmt => "notice_mgmt",
            SpanKind::SyncOp => "sync_op",
            SpanKind::MsgSetup => "msg_setup",
            SpanKind::UpdateFlush => "update_flush",
            SpanKind::Service => "service",
            SpanKind::FaultStall => "fault_stall",
            SpanKind::PrefetchStall => "prefetch_stall",
            SpanKind::LockStall => "lock_stall",
            SpanKind::BarrierStall => "barrier_stall",
            SpanKind::RetransmitTimeout => "retransmit_timeout",
            SpanKind::Retransmit => "retransmit",
            SpanKind::DuplicateDropped => "duplicate_dropped",
            SpanKind::PrefetchShed => "prefetch_shed",
        }
    }
}

/// Which controller engine executed an [`EngineSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The controller's RISC core + DMA datapath.
    CtrlCore,
    /// The message / network-interface front end.
    CtrlIo,
}

impl Engine {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Engine::CtrlCore => "ctrl.core",
            Engine::CtrlIo => "ctrl.io",
        }
    }
}

/// The command class a controller engine ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrlCmd {
    /// Twin creation (page copy).
    Twin,
    /// Diff generation (software scan or DMA bit-vector gather).
    DiffCreate,
    /// Diff application (software or DMA scatter).
    DiffApply,
    /// Interval-table walk for a prefetch request.
    ListWalk,
    /// Message setup on behalf of the node.
    Send,
}

impl CtrlCmd {
    /// Stable snake_case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CtrlCmd::Twin => "twin",
            CtrlCmd::DiffCreate => "diff_create",
            CtrlCmd::DiffApply => "diff_apply",
            CtrlCmd::ListWalk => "list_walk",
            CtrlCmd::Send => "send",
        }
    }
}

/// One conserved processor span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The node whose breakdown the span's duration was charged to.
    pub node: usize,
    /// The node's barrier epoch at emission.
    pub epoch: u64,
    /// What the time was spent on.
    pub kind: SpanKind,
    /// The breakdown category the duration was charged under.
    pub cat: Category,
    /// Start, simulated cycles.
    pub start: Cycles,
    /// End, simulated cycles (`end - start` is the charged duration).
    pub end: Cycles,
    /// Charged at the *requester's* event time rather than on the node's own
    /// local timeline (a handler whose node had already finished its
    /// program). Detached spans still count toward breakdown conservation
    /// but are excluded from the per-node tiling the dependency graph is
    /// built on.
    pub detached: bool,
}

/// Index of a [`Span`] in [`ObsLog::spans`]; [`SpanId::NONE`] marks "no span
/// emitted yet on that node".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// Sentinel: no span recorded on the node so far.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this is the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// What kind of cross-activity dependency a [`DepEdge`] records.
///
/// *Binding* kinds ([`EdgeKind::is_binding`]) are self-edges on the waking
/// node — from the event (last reply arrival, grant arrival, release
/// arrival) to the scheduled wake — and are the joints the critical-path
/// walk pivots on. `Msg` edges are the network flights feeding them; `Ctrl`
/// and `PrefetchUse` edges annotate the graph but never carry the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Message send (injection) → receive (arrival at the NI).
    Msg(MsgKind),
    /// Fault-triggering event → fill completion (wake from a fault stall).
    FaultFill,
    /// Joined-prefetch event → fill completion (wake from a prefetch stall).
    PrefetchFill,
    /// Lock-grant arrival → acquirer's wake after notice processing.
    LockGrant,
    /// Barrier-release arrival → departure after update processing.
    BarrierRelease,
    /// Controller command issue → completion on a controller engine.
    Ctrl(CtrlCmd),
    /// Prefetch issue → first access that consumed it.
    PrefetchUse,
}

impl EdgeKind {
    /// Stable snake_case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Msg(k) => match k {
                MsgKind::LockReq => "msg_lock_req",
                MsgKind::LockForward => "msg_lock_forward",
                MsgKind::LockGrant => "msg_lock_grant",
                MsgKind::DiffReq => "msg_diff_req",
                MsgKind::DiffReply => "msg_diff_reply",
                MsgKind::BarrierArrive => "msg_barrier_arrive",
                MsgKind::BarrierRelease => "msg_barrier_release",
                MsgKind::AurcUpdate => "msg_aurc_update",
                MsgKind::AurcPageReq => "msg_aurc_page_req",
                MsgKind::AurcPageReply => "msg_aurc_page_reply",
            },
            EdgeKind::FaultFill => "fault_fill",
            EdgeKind::PrefetchFill => "prefetch_fill",
            EdgeKind::LockGrant => "lock_grant",
            EdgeKind::BarrierRelease => "barrier_release",
            EdgeKind::Ctrl(c) => match c {
                CtrlCmd::Twin => "ctrl_twin",
                CtrlCmd::DiffCreate => "ctrl_diff_create",
                CtrlCmd::DiffApply => "ctrl_diff_apply",
                CtrlCmd::ListWalk => "ctrl_list_walk",
                CtrlCmd::Send => "ctrl_send",
            },
            EdgeKind::PrefetchUse => "prefetch_use",
        }
    }

    /// Whether the edge binds an arrival event to the wake it schedules on
    /// the same node (the joints the critical-path walk follows).
    pub fn is_binding(self) -> bool {
        matches!(
            self,
            EdgeKind::FaultFill
                | EdgeKind::PrefetchFill
                | EdgeKind::LockGrant
                | EdgeKind::BarrierRelease
        )
    }

    /// The breakdown category exposed edge latency is attributed under when
    /// the edge sits on the critical path.
    pub fn category(self) -> Category {
        match self {
            EdgeKind::Msg(k) => match k {
                MsgKind::LockReq
                | MsgKind::LockForward
                | MsgKind::LockGrant
                | MsgKind::BarrierArrive
                | MsgKind::BarrierRelease => Category::Synch,
                MsgKind::DiffReq
                | MsgKind::DiffReply
                | MsgKind::AurcUpdate
                | MsgKind::AurcPageReq
                | MsgKind::AurcPageReply => Category::Data,
            },
            EdgeKind::LockGrant | EdgeKind::BarrierRelease => Category::Synch,
            EdgeKind::FaultFill | EdgeKind::PrefetchFill | EdgeKind::PrefetchUse => Category::Data,
            EdgeKind::Ctrl(_) => Category::Ipc,
        }
    }
}

/// One typed dependency edge between two timed points of the execution.
///
/// `(src_node, src_time) → (dst_node, dst_time)`, anchored to the last span
/// the source node had emitted when the edge was recorded (`src_span`), so
/// no edge can dangle off activity the span log never saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// What dependency the edge records.
    pub kind: EdgeKind,
    /// Source node.
    pub src_node: usize,
    /// Event time at the source, simulated cycles.
    pub src_time: Cycles,
    /// Destination node.
    pub dst_node: usize,
    /// Event time at the destination, simulated cycles.
    pub dst_time: Cycles,
    /// Processor-side work folded into the edge's latency (e.g. diff-apply
    /// cycles inside a fault-fill wait) — the portion a "hardware diffs"
    /// what-if scenario deletes.
    pub work: Cycles,
    /// The last span emitted on `src_node` at recording time.
    pub src_span: SpanId,
}

/// One controller-engine occupancy interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpan {
    /// The node whose controller ran the command.
    pub node: usize,
    /// Which engine.
    pub engine: Engine,
    /// What it ran.
    pub cmd: CtrlCmd,
    /// Occupancy start, simulated cycles.
    pub start: Cycles,
    /// Occupancy end, simulated cycles.
    pub end: Cycles,
}

/// One protocol message's journey through the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight {
    /// Sender.
    pub src: usize,
    /// Receiver.
    pub dst: usize,
    /// Message class.
    pub kind: MsgKind,
    /// Wire size, bytes.
    pub bytes: u64,
    /// Part of a prefetch transaction (low network priority).
    pub prefetch: bool,
    /// When the sender handed the message to the network.
    pub inject: Cycles,
    /// When the head entered the network (after link contention).
    pub start: Cycles,
    /// When the tail reached the receiver's network interface.
    pub arrival: Cycles,
}

/// Everything recorded during one observed run.
#[derive(Debug, Clone, Default)]
pub struct ObsLog {
    /// Conserved processor spans, in emission order.
    pub spans: Vec<Span>,
    /// Controller-engine occupancy intervals, in emission order.
    pub engine: Vec<EngineSpan>,
    /// Message flights, in injection order.
    pub flights: Vec<Flight>,
    /// Typed dependency edges, in emission order.
    pub edges: Vec<DepEdge>,
    /// `(node, distance)` for every completed prefetch that was later used:
    /// cycles between prefetch completion and the first access that hit it
    /// (0 when a fault joined the prefetch in flight).
    pub prefetch_use: Vec<(usize, Cycles)>,
    /// Final barrier-epoch count per node.
    pub epochs: Vec<u64>,
}

impl ObsLog {
    /// Checks the conservation invariant: per-node, per-category span time
    /// must sum exactly to the node's breakdown totals. Returns one
    /// `(node, detail)` entry per mismatching node/category pair.
    pub fn conservation_errors(&self, nodes: &[NodeStats]) -> Vec<(usize, String)> {
        let ncat = Category::ALL.len();
        let mut sums = vec![0u64; nodes.len() * ncat];
        for s in &self.spans {
            let ci = Category::ALL
                .iter()
                .position(|&c| c == s.cat)
                .unwrap_or(ncat - 1);
            if s.node < nodes.len() {
                sums[s.node * ncat + ci] += s.end - s.start;
            }
        }
        let mut errors = Vec::new();
        for (node, st) in nodes.iter().enumerate() {
            for (ci, &cat) in Category::ALL.iter().enumerate() {
                let spanned = sums[node * ncat + ci];
                let charged = st.breakdown.get(cat);
                if spanned != charged {
                    errors.push((
                        node,
                        format!(
                            "category {}: spans sum to {spanned} cycles but the \
                             breakdown charged {charged}",
                            cat.label()
                        ),
                    ));
                }
            }
        }
        errors
    }
}

/// The live recorder owned by the simulation while span recording is
/// armed. Tracks per-node epochs and outstanding prefetch completions on
/// top of the raw [`ObsLog`].
#[derive(Debug, Default)]
pub struct ObsRecorder {
    log: ObsLog,
    cur_epoch: Vec<u64>,
    /// Completion time of prefetches not yet consumed by an access, keyed by
    /// `(node, page)`.
    prefetch_done: HashMap<(usize, u64), Cycles>,
    /// Issue time + anchoring span of prefetches not yet consumed, keyed by
    /// `(node, page)` — feeds the `PrefetchUse` issue→first-use edge.
    prefetch_issue: HashMap<(usize, u64), (Cycles, SpanId)>,
    /// Index of the most recent span emitted per node.
    last_span: Vec<SpanId>,
}

impl ObsRecorder {
    /// A fresh recorder for `nprocs` nodes.
    pub fn new(nprocs: usize) -> Self {
        ObsRecorder {
            log: ObsLog::default(),
            cur_epoch: vec![0; nprocs],
            prefetch_done: HashMap::new(),
            prefetch_issue: HashMap::new(),
            last_span: vec![SpanId::NONE; nprocs],
        }
    }

    /// Records one conserved processor span; zero-duration charges are
    /// dropped (they contribute nothing to the breakdown either).
    pub fn span(&mut self, node: usize, kind: SpanKind, cat: Category, start: Cycles, dur: Cycles) {
        self.push_span(node, kind, cat, start, dur, false);
    }

    /// Records a span charged off the node's own timeline (see
    /// [`Span::detached`]).
    pub fn span_detached(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
    ) {
        self.push_span(node, kind, cat, start, dur, true);
    }

    fn push_span(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
        detached: bool,
    ) {
        if dur == 0 {
            return;
        }
        let epoch = self.cur_epoch.get(node).copied().unwrap_or(0);
        self.log.spans.push(Span {
            node,
            epoch,
            kind,
            cat,
            start,
            end: start + dur,
            detached,
        });
        if let Some(slot) = self.last_span.get_mut(node) {
            *slot = SpanId((self.log.spans.len() - 1) as u32);
        }
    }

    /// The most recent span emitted on `node`, or [`SpanId::NONE`].
    pub fn last_span(&self, node: usize) -> SpanId {
        self.last_span.get(node).copied().unwrap_or(SpanId::NONE)
    }

    /// Records one typed dependency edge. Edges whose source node has no
    /// recorded span yet, or that would point backwards in time, are
    /// dropped: every kept edge is anchored and satisfies
    /// `src_time <= dst_time`.
    #[allow(clippy::too_many_arguments)]
    pub fn edge(
        &mut self,
        kind: EdgeKind,
        src_node: usize,
        src_time: Cycles,
        dst_node: usize,
        dst_time: Cycles,
        work: Cycles,
        src_span: SpanId,
    ) {
        if src_span.is_none() || src_time > dst_time {
            return;
        }
        self.log.edges.push(DepEdge {
            kind,
            src_node,
            src_time,
            dst_node,
            dst_time,
            work,
            src_span,
        });
    }

    /// Records one controller-engine occupancy interval.
    fn engine(&mut self, node: usize, engine: Engine, cmd: CtrlCmd, start: Cycles, end: Cycles) {
        if end <= start {
            return;
        }
        self.log.engine.push(EngineSpan {
            node,
            engine,
            cmd,
            start,
            end,
        });
    }

    /// Records one message flight.
    #[allow(clippy::too_many_arguments)]
    fn flight(
        &mut self,
        src: usize,
        dst: usize,
        kind: MsgKind,
        bytes: u64,
        prefetch: bool,
        inject: Cycles,
        start: Cycles,
        arrival: Cycles,
    ) {
        self.log.flights.push(Flight {
            src,
            dst,
            kind,
            bytes,
            prefetch,
            inject,
            start,
            arrival,
        });
    }

    /// Notes that `node` issued a prefetch of `page` at time `t`; the
    /// anchoring span is captured now so the eventual issue→first-use edge
    /// references the activity that issued it.
    fn prefetch_issued(&mut self, node: usize, page: u64, t: Cycles) {
        let sid = self.last_span(node);
        self.prefetch_issue.insert((node, page), (t, sid));
    }

    /// Notes that a prefetch of `page` completed at `node` at time `t`.
    fn prefetch_done(&mut self, node: usize, page: u64, t: Cycles) {
        self.prefetch_done.insert((node, page), t);
    }

    /// Notes that an access at `node` consumed a completed prefetch of
    /// `page` at time `t`; records the completion-to-use distance and the
    /// issue→first-use dependency edge.
    fn prefetch_used(&mut self, node: usize, page: u64, t: Cycles) {
        if let Some(done) = self.prefetch_done.remove(&(node, page)) {
            // overflow: use time can precede completion under reordered event
            // delivery; clamp the distance to zero rather than panic.
            self.log.prefetch_use.push((node, t.saturating_sub(done)));
        }
        if let Some((issue, sid)) = self.prefetch_issue.remove(&(node, page)) {
            self.edge(EdgeKind::PrefetchUse, node, issue, node, t, 0, sid);
        }
    }

    /// Records what one reported fact at cycle `t` on `node` contributes:
    /// message flights, controller occupancy, prefetch issue/completion/use
    /// bookkeeping and barrier epochs.
    pub fn note(&mut self, t: Cycles, node: usize, ev: &ProtocolEvent<'_>) {
        use ProtocolEvent as E;
        match *ev {
            E::MsgSent {
                src,
                dst,
                kind,
                demand,
                bytes,
                wire: Some(w),
            }
            | E::FrameSent {
                src,
                dst,
                kind,
                demand,
                bytes,
                wire: w,
                ..
            } => self.flight(src, dst, kind, bytes, !demand, t, w.start, w.arrival),
            E::ControllerCommand {
                engine, cmd, end, ..
            } => self.engine(node, engine, cmd, t, end),
            E::PrefetchIssued { page, .. } => self.prefetch_issued(node, page, t),
            E::PrefetchCompleted { page, joined, .. } => {
                self.prefetch_done(node, page, t);
                if joined {
                    self.prefetch_used(node, page, t);
                }
            }
            E::PrefetchUsed { page, .. } => self.prefetch_used(node, page, t),
            E::BarrierWaitEnded { .. } => self.epoch_advance(node),
            _ => {}
        }
    }

    /// Advances `node`'s barrier epoch.
    fn epoch_advance(&mut self, node: usize) {
        if let Some(e) = self.cur_epoch.get_mut(node) {
            *e += 1;
        }
    }

    /// Finalizes the log. A finished log lives as long as its run result,
    /// and an engine grid holds every job's, so the slack the logs grew
    /// with is returned here.
    pub fn into_log(mut self) -> ObsLog {
        let log = &mut self.log;
        log.epochs = self.cur_epoch;
        log.spans.shrink_to_fit();
        log.engine.shrink_to_fit();
        log.flights.shrink_to_fit();
        log.edges.shrink_to_fit();
        log.prefetch_use.shrink_to_fit();
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SpanKind::ALL.len());
    }

    #[test]
    fn edge_labels_are_distinct() {
        use crate::observe::MsgKind;
        let kinds = [
            EdgeKind::Msg(MsgKind::LockReq),
            EdgeKind::Msg(MsgKind::LockForward),
            EdgeKind::Msg(MsgKind::LockGrant),
            EdgeKind::Msg(MsgKind::DiffReq),
            EdgeKind::Msg(MsgKind::DiffReply),
            EdgeKind::Msg(MsgKind::BarrierArrive),
            EdgeKind::Msg(MsgKind::BarrierRelease),
            EdgeKind::Msg(MsgKind::AurcUpdate),
            EdgeKind::Msg(MsgKind::AurcPageReq),
            EdgeKind::Msg(MsgKind::AurcPageReply),
            EdgeKind::FaultFill,
            EdgeKind::PrefetchFill,
            EdgeKind::LockGrant,
            EdgeKind::BarrierRelease,
            EdgeKind::Ctrl(CtrlCmd::Twin),
            EdgeKind::Ctrl(CtrlCmd::DiffCreate),
            EdgeKind::Ctrl(CtrlCmd::DiffApply),
            EdgeKind::Ctrl(CtrlCmd::ListWalk),
            EdgeKind::Ctrl(CtrlCmd::Send),
            EdgeKind::PrefetchUse,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn edges_require_an_anchor_and_forward_time() {
        use crate::observe::MsgKind;
        let mut r = ObsRecorder::new(2);
        // No span on node 0 yet: the edge is dropped.
        r.edge(
            EdgeKind::Msg(MsgKind::DiffReq),
            0,
            10,
            1,
            20,
            0,
            r.last_span(0),
        );
        r.span(0, SpanKind::Compute, Category::Busy, 0, 10);
        // Backwards in time: dropped.
        r.edge(
            EdgeKind::Msg(MsgKind::DiffReq),
            0,
            30,
            1,
            20,
            0,
            r.last_span(0),
        );
        // Anchored and forward: kept.
        r.edge(
            EdgeKind::Msg(MsgKind::DiffReq),
            0,
            10,
            1,
            20,
            0,
            r.last_span(0),
        );
        let log = r.into_log();
        assert_eq!(log.edges.len(), 1);
        assert_eq!(log.edges[0].src_span, SpanId(0));
        assert_eq!(log.edges[0].dst_time, 20);
    }

    #[test]
    fn detached_spans_are_flagged_but_still_conserved() {
        let mut r = ObsRecorder::new(1);
        r.span(0, SpanKind::Compute, Category::Busy, 0, 10);
        r.span_detached(0, SpanKind::Service, Category::Ipc, 50, 5);
        let log = r.into_log();
        assert!(!log.spans[0].detached);
        assert!(log.spans[1].detached);
        let mut st = NodeStats::default();
        st.breakdown.add(Category::Busy, 10);
        st.breakdown.add(Category::Ipc, 5);
        assert!(log.conservation_errors(&[st]).is_empty());
    }

    #[test]
    fn prefetch_issue_to_use_becomes_an_edge() {
        let mut r = ObsRecorder::new(1);
        r.span(0, SpanKind::Compute, Category::Busy, 0, 10);
        r.prefetch_issued(0, 7, 10);
        r.prefetch_done(0, 7, 100);
        r.prefetch_used(0, 7, 160);
        let log = r.into_log();
        assert_eq!(log.edges.len(), 1);
        assert_eq!(log.edges[0].kind, EdgeKind::PrefetchUse);
        assert_eq!((log.edges[0].src_time, log.edges[0].dst_time), (10, 160));
    }

    #[test]
    fn recorder_drops_zero_spans_and_tags_epochs() {
        let mut r = ObsRecorder::new(2);
        r.span(0, SpanKind::Compute, Category::Busy, 0, 0);
        r.span(0, SpanKind::Compute, Category::Busy, 0, 10);
        r.epoch_advance(0);
        r.span(0, SpanKind::Service, Category::Ipc, 10, 5);
        let log = r.into_log();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].epoch, 0);
        assert_eq!(log.spans[1].epoch, 1);
        assert_eq!(log.epochs, vec![1, 0]);
    }

    #[test]
    fn prefetch_distance_is_completion_to_use() {
        let mut r = ObsRecorder::new(1);
        r.prefetch_done(0, 7, 100);
        r.prefetch_used(0, 7, 160);
        // A use with no completion on record is ignored.
        r.prefetch_used(0, 9, 500);
        let log = r.into_log();
        assert_eq!(log.prefetch_use, vec![(0, 60)]);
    }

    #[test]
    fn conservation_check_catches_mismatches() {
        let mut r = ObsRecorder::new(1);
        r.span(0, SpanKind::Compute, Category::Busy, 0, 10);
        let log = r.into_log();
        let mut good = NodeStats::default();
        good.breakdown.add(Category::Busy, 10);
        assert!(log.conservation_errors(&[good]).is_empty());
        let mut bad = good;
        bad.breakdown.add(Category::Busy, 1);
        let errs = log.conservation_errors(&[bad]);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].1.contains("busy"), "{}", errs[0].1);
    }
}
