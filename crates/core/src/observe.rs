//! The observation bus: one typed fact per protocol action, fanned out to
//! every consumer.
//!
//! Each protocol site reports what happened exactly once, as a
//! [`ProtocolEvent`] passed to `Sinks::note` together with the simulated
//! cycle and the node it belongs to. The sinks are:
//!
//! * the **oracle** — an attached [`Observer`] (the `ncp2-verify` crate
//!   shadow-checks the paper's invariants: diff completeness per §3.2,
//!   write-notice coverage and vector-time monotonicity per the §2 LRC
//!   model, message and frame conservation, happens-before race freedom);
//! * the **trace** — [`ProtocolEvent::trace_rows`] maps a fact to its
//!   protocol-timeline rows when `SysParams::trace` is set;
//! * the **aggregates** — the [`NodeStats`] counters that count facts, and
//!   the [`FaultStats`](crate::FaultStats) counters a time series mirrors,
//!   tallied per node and folded into the run at finish;
//! * the **span recorder** ([`crate::span::ObsRecorder::note`]) — message
//!   flights, controller occupancy, prefetch issue/use bookkeeping, barrier
//!   epochs;
//! * the **time series** ([`crate::timeseries::TsRecorder::note`]) —
//!   windowed counters, occupancy, per-link series and hot-spot tables.
//!
//! Every build contains all of them; each is armed at runtime by
//! `attach_observer`, `enable_obs` and `enable_timeseries`. Whatever is not
//! armed costs one `None` check per fact. Processor spans (paired with
//! breakdown charging in `advance`/`charge_mem`/`interrupt_proc`),
//! dependency edges (`obs_edge(…, obs_last_span(…))`) and single-sink
//! gauges keep their own `Sinks` helpers; they are not facts.

use std::fmt;
use std::sync::Arc;

pub use ncp2_net::Transfer;
use ncp2_sim::ops::{BarrierId, LockId};
use ncp2_sim::{Category, Cycles, SvcClass};

use crate::diff::Diff;
use crate::page::{PageBuf, PageId};
use crate::span::{CtrlCmd, EdgeKind, Engine, SpanId, SpanKind};
use crate::stats::{NodeStats, RunResult};
use crate::timeseries::{TsCounter, TsGauge};
use crate::trace::TraceEvent;
use crate::vtime::{IntervalId, VectorTime};

/// Message classification used for conservation accounting (one entry per
/// [`crate::msg::Msg`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Acquire request to the lock manager.
    LockReq,
    /// Manager-to-last-owner forward.
    LockForward,
    /// Lock grant with write notices.
    LockGrant,
    /// Diff request to a writer.
    DiffReq,
    /// Diffs (or a page) from a writer.
    DiffReply,
    /// Barrier arrival at the manager.
    BarrierArrive,
    /// Barrier release broadcast.
    BarrierRelease,
    /// AURC automatic update (fire-and-forget).
    AurcUpdate,
    /// AURC page fetch request.
    AurcPageReq,
    /// AURC page fetch reply.
    AurcPageReply,
}

impl MsgKind {
    /// Every kind, in declaration order: `ALL[k.index()] == k`.
    pub const ALL: [MsgKind; 10] = [
        MsgKind::LockReq,
        MsgKind::LockForward,
        MsgKind::LockGrant,
        MsgKind::DiffReq,
        MsgKind::DiffReply,
        MsgKind::BarrierArrive,
        MsgKind::BarrierRelease,
        MsgKind::AurcUpdate,
        MsgKind::AurcPageReq,
        MsgKind::AurcPageReply,
    ];
    /// Number of kinds, for per-kind tables.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this kind in `0..COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl crate::msg::Msg {
    /// The conservation-accounting class of this message.
    pub fn kind(&self) -> MsgKind {
        use crate::msg::Msg;
        match self {
            Msg::LockReq { .. } => MsgKind::LockReq,
            Msg::LockForward { .. } => MsgKind::LockForward,
            Msg::LockGrant { .. } => MsgKind::LockGrant,
            Msg::DiffReq { .. } => MsgKind::DiffReq,
            Msg::DiffReply { .. } => MsgKind::DiffReply,
            Msg::BarrierArrive { .. } => MsgKind::BarrierArrive,
            Msg::BarrierRelease { .. } => MsgKind::BarrierRelease,
            Msg::AurcUpdate { .. } => MsgKind::AurcUpdate,
            Msg::AurcPageReq { .. } => MsgKind::AurcPageReq,
            Msg::AurcPageReply { .. } => MsgKind::AurcPageReply,
        }
    }
}

/// One protocol fact, reported once at the site where it happens and fanned
/// out to every sink (see the [module docs](self)). Events for a given
/// processor are emitted in that processor's program order; lock-chain and
/// barrier-episode transfers respect the underlying happens-before order (a
/// release is always emitted before the acquire it grants, and every arrival
/// of a barrier episode is emitted before any completion of that episode).
///
/// Payloads are borrowed from the simulation for the duration of the report,
/// so reporting a diff or a page copy never clones it.
#[derive(Debug, Clone, Copy)]
pub enum ProtocolEvent<'a> {
    /// A shared-memory access performed on a valid page.
    Access {
        /// Accessing processor.
        pid: usize,
        /// Byte address.
        addr: u64,
        /// Access width in bytes (1, 2, 4 or 8).
        bytes: u8,
        /// Write or read.
        write: bool,
    },
    /// A lock acquire completed (write notices already processed); reported
    /// at the cycle the acquirer wakes.
    LockAcquired {
        /// Acquiring processor.
        pid: usize,
        /// The lock.
        lock: LockId,
        /// Cycle the grant reached the acquirer.
        granted: Cycles,
    },
    /// A lock release began (before the grant is passed on).
    LockReleased {
        /// Releasing processor.
        pid: usize,
        /// The lock.
        lock: LockId,
    },
    /// The lock manager forwarded an acquire, moving the grant token to a
    /// different node than its last owner.
    LockMigrated {
        /// The lock.
        lock: LockId,
        /// The token's last owner.
        from: usize,
        /// The acquirer it moves to.
        to: usize,
    },
    /// A processor blocked on a lock woke with the grant.
    LockWaitEnded {
        /// The woken processor.
        pid: usize,
        /// The lock.
        lock: LockId,
        /// Cycles stalled (service work overlapped with the wait excluded).
        stall: Cycles,
    },
    /// A processor arrived at a barrier (after closing its interval).
    BarrierArrived {
        /// Arriving processor.
        pid: usize,
        /// The barrier.
        barrier: BarrierId,
    },
    /// A processor observed the barrier release (notices processed);
    /// reported at the cycle it wakes.
    BarrierCompleted {
        /// Released processor.
        pid: usize,
        /// The barrier.
        barrier: BarrierId,
        /// Cycle the release reached the processor.
        released: Cycles,
    },
    /// A processor blocked at a barrier woke: its next barrier epoch begins.
    BarrierWaitEnded {
        /// The woken processor.
        pid: usize,
    },
    /// A writing interval closed at a release point.
    IntervalClosed {
        /// The interval's owner.
        pid: usize,
        /// The new interval id (`vt[pid]` after the bump).
        id: IntervalId,
        /// The owner's vector time after the bump.
        vt: &'a VectorTime,
        /// Pages dirtied during the interval.
        pages: &'a [PageId],
    },
    /// A write notice was applied at `pid` (its page is invalid there now).
    NoticeRecorded {
        /// The processor applying the notice.
        pid: usize,
        /// The writing interval's owner.
        owner: usize,
        /// The writing interval's id.
        id: IntervalId,
        /// The page named by the notice.
        page: PageId,
        /// The notice invalidated a valid copy.
        invalidated: bool,
        /// The copy was a completed prefetch nobody had used.
        wasted_prefetch: bool,
    },
    /// A batch of interval announcements finished processing at `pid`
    /// (acquire or barrier release).
    AnnsProcessed {
        /// The processor whose vector time advanced.
        pid: usize,
        /// Its vector time after processing.
        vt: &'a VectorTime,
    },
    /// An access found its page invalid and began collecting diffs or
    /// fetching the page.
    Fault {
        /// Faulting processor.
        pid: usize,
        /// Faulting page.
        page: PageId,
    },
    /// A whole page arrived (TreadMarks overflow path or AURC fetch).
    PageFetched {
        /// The receiving processor.
        pid: usize,
        /// The page.
        page: PageId,
    },
    /// A diff was created (twin comparison or dirty-bit DMA gather).
    DiffCreated {
        /// The diff's owner.
        pid: usize,
        /// The page it covers.
        page: PageId,
        /// The owner interval it belongs to.
        interval: IntervalId,
        /// The diff itself.
        diff: &'a Diff,
        /// The owner's page contents at creation time.
        data: &'a PageBuf,
    },
    /// A collected set of diffs (and possibly a whole page) was applied.
    DiffsApplied {
        /// The processor whose copy was updated.
        pid: usize,
        /// The page updated.
        page: PageId,
        /// Every diff actually applied, in application order.
        diffs: &'a [Arc<Diff>],
        /// Modified words the diffs carried in total.
        words: u64,
        /// The page contents after application.
        data: &'a PageBuf,
    },
    /// An acquire-time prefetch was issued.
    PrefetchIssued {
        /// Issuing processor.
        pid: usize,
        /// Target page.
        page: PageId,
    },
    /// A prefetch finished installing its page.
    PrefetchCompleted {
        /// The prefetching processor.
        pid: usize,
        /// The page.
        page: PageId,
        /// A fault was already waiting for it (zero prefetch-to-use
        /// distance).
        joined: bool,
        /// The fill is a page delivery of its own in the hot-spot table
        /// (TreadMarks fills, which may be diffs). AURC fills are whole
        /// pages already reported as [`ProtocolEvent::PageFetched`].
        transfer: bool,
    },
    /// An access consumed a completed prefetch (a fault avoided).
    PrefetchUsed {
        /// Accessing processor.
        pid: usize,
        /// The page.
        page: PageId,
    },
    /// The degradation policy shed a prefetch under congestion.
    PrefetchShed {
        /// Issuing processor.
        pid: usize,
        /// The page whose prefetch was shed.
        page: PageId,
    },
    /// The protocol controller ran a command; the fact's time is its start.
    ControllerCommand {
        /// The controller's node.
        node: usize,
        /// The engine that ran it.
        engine: Engine,
        /// The command class.
        cmd: CtrlCmd,
        /// Cycle the command finished.
        end: Cycles,
    },
    /// A protocol message left a node.
    MsgSent {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Message class.
        kind: MsgKind,
        /// Demand (normal-priority) transaction, as opposed to a prefetch.
        demand: bool,
        /// Wire size in bytes.
        bytes: u64,
        /// Its crossing of the mesh (injection is the fact's own cycle), or
        /// `None` when the hardened transport carries the message: it joins
        /// the link's unacked frames here and every physical copy is
        /// reported as [`ProtocolEvent::FrameSent`].
        wire: Option<Transfer>,
    },
    /// A protocol message reached its receiver's handler.
    MsgDelivered {
        /// Receiver.
        dst: usize,
        /// Message class.
        kind: MsgKind,
        /// Demand (normal-priority) transaction.
        demand: bool,
    },
    /// A transport data frame was injected (one event per physical copy:
    /// retransmissions and fault-injected duplicates re-emit).
    FrameSent {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt (0 = original send).
        attempt: u32,
        /// Class of the message the frame carries.
        kind: MsgKind,
        /// Demand (normal-priority) transaction.
        demand: bool,
        /// Wire size in bytes.
        bytes: u64,
        /// The copy's crossing of the mesh.
        wire: Transfer,
    },
    /// A transport frame arrived in order and its message was delivered.
    FrameAccepted {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt that got through.
        attempt: u32,
    },
    /// A transport frame arrived but was discarded as an already-delivered
    /// duplicate.
    FrameDuplicate {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt discarded.
        attempt: u32,
    },
    /// A transport frame was lost: dropped/corrupted by the fault plan, or
    /// drained in flight at end of run.
    FrameDropped {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt lost.
        attempt: u32,
    },
    /// A cumulative acknowledgement was injected (`src` acknowledges the
    /// frames it received from `dst`).
    AckSent {
        /// The acknowledging receiver.
        src: usize,
        /// The sender it acknowledges.
        dst: usize,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A cumulative ack retired unacknowledged frames of link `src -> dst`.
    FramesAcked {
        /// Sender of the frames.
        src: usize,
        /// Their receiver.
        dst: usize,
        /// Frames retired.
        frames: u64,
    },
    /// A frame's ack timer expired and the transport retransmitted it.
    Retransmit {
        /// Sender.
        src: usize,
        /// Destination.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Attempt number after the bump (1 = first retransmission).
        attempt: u32,
    },
    /// The service workload dequeued a request.
    SvcDequeue {
        /// Serving processor.
        pid: usize,
        /// Backlog (arrived, not yet served) at this node after the dequeue.
        depth: u64,
    },
    /// The service workload completed a request.
    SvcReply {
        /// Serving processor.
        pid: usize,
        /// Request class.
        class: SvcClass,
        /// Open-loop response time in cycles (completion minus arrival).
        response: Cycles,
    },
}

/// A protocol invariant found broken by an observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two conflicting accesses not ordered by happens-before.
    Race {
        /// First (earlier-observed) accessor.
        first_pid: usize,
        /// Whether the first access was a write.
        first_write: bool,
        /// Second accessor.
        second_pid: usize,
        /// Whether the second access was a write.
        second_write: bool,
        /// Byte address of the 4-byte word the accesses conflict on.
        addr: u64,
    },
    /// Applying a freshly created diff to the page's previous contents did
    /// not reconstruct the writer's copy (§3.2 diff semantics; catches
    /// dirty-bit undercounting in the hardware-diff modes).
    DiffIncomplete {
        /// The diff's owner.
        pid: usize,
        /// The page.
        page: PageId,
        /// The owner interval.
        interval: IntervalId,
        /// Number of 4-byte words that differ after application.
        bad_words: usize,
    },
    /// A processor's vector time covers a writing interval for which it
    /// never recorded a write notice on one of the dirtied pages.
    WriteNoticeCoverage {
        /// The processor missing the notice.
        pid: usize,
        /// The writing interval's owner.
        owner: usize,
        /// The writing interval's id.
        interval: IntervalId,
        /// The page that should have been invalidated.
        page: PageId,
    },
    /// A vector time went backwards, or an interval id was skipped.
    VtRegression {
        /// The offending processor.
        pid: usize,
        /// Human-readable description.
        detail: String,
    },
    /// Message counts do not balance (lost reply, unpaired request, ...).
    MessageConservation {
        /// Human-readable description.
        detail: String,
    },
    /// Per-category span time does not sum to the node's breakdown totals
    /// (reported by the `obs` layer's conservation check).
    SpanConservation {
        /// The node whose accounting is off.
        node: usize,
        /// Human-readable description.
        detail: String,
    },
    /// The same foreign diff was applied twice to one node's page copy.
    DuplicateDiffApplication {
        /// The processor applying the diff.
        pid: usize,
        /// The page.
        page: PageId,
        /// The diff's owner.
        owner: usize,
        /// The diff's interval.
        interval: IntervalId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Race {
                first_pid,
                first_write,
                second_pid,
                second_write,
                addr,
            } => {
                let k = |w: bool| if w { "write" } else { "read" };
                write!(
                    f,
                    "race on word {addr:#x}: {} by P{first_pid} unordered with {} by P{second_pid}",
                    k(*first_write),
                    k(*second_write)
                )
            }
            Violation::DiffIncomplete {
                pid,
                page,
                interval,
                bad_words,
            } => write!(
                f,
                "incomplete diff for page {page} interval ({pid},{interval}): \
                 {bad_words} word(s) not reconstructed"
            ),
            Violation::WriteNoticeCoverage {
                pid,
                owner,
                interval,
                page,
            } => write!(
                f,
                "P{pid} covers interval ({owner},{interval}) but never recorded \
                 its write notice for page {page}"
            ),
            Violation::VtRegression { pid, detail } => {
                write!(f, "vector time regression at P{pid}: {detail}")
            }
            Violation::MessageConservation { detail } => {
                write!(f, "message conservation: {detail}")
            }
            Violation::SpanConservation { node, detail } => {
                write!(f, "span conservation at P{node}: {detail}")
            }
            Violation::DuplicateDiffApplication {
                pid,
                page,
                owner,
                interval,
            } => write!(
                f,
                "P{pid} applied diff ({owner},{interval}) to page {page} twice"
            ),
        }
    }
}

/// A shadow checker attached to a [`Simulation`](crate::Simulation) via
/// `attach_observer`.
pub trait Observer {
    /// Called at every protocol step, in observation order.
    fn on_event(&mut self, ev: &ProtocolEvent);

    /// Called once after the run completes; returns everything found broken.
    fn finish(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

/// Per-node tallies of the counted facts: the windowed counters' totals plus
/// the [`NodeStats`] counters no time series mirrors. Folded into the run's
/// aggregates at finish, so an aggregate and its time series are charged by
/// the same fact.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    counters: [u64; TsCounter::COUNT],
    faults: u64,
    prefetch_hits: u64,
    useless_prefetches: u64,
    au_updates: u64,
}

impl Tally {
    fn note(&mut self, ev: &ProtocolEvent<'_>) {
        ev.counts(0, |c, _, n| self.counters[c as usize] += n);
        match *ev {
            ProtocolEvent::Fault { .. } => self.faults += 1,
            ProtocolEvent::PrefetchUsed { .. } => self.prefetch_hits += 1,
            ProtocolEvent::NoticeRecorded {
                wasted_prefetch: true,
                ..
            } => self.useless_prefetches += 1,
            ProtocolEvent::MsgSent {
                kind: MsgKind::AurcUpdate,
                ..
            } => self.au_updates += 1,
            _ => {}
        }
    }

    fn counter(&self, c: TsCounter) -> u64 {
        self.counters[c as usize]
    }

    /// Writes the tallied counters into a node's aggregates.
    fn fold(&self, s: &mut NodeStats) {
        s.page_fetches = self.counter(TsCounter::PageFetches);
        s.diffs_created = self.counter(TsCounter::DiffsCreated);
        s.diffs_applied = self.counter(TsCounter::DiffsApplied);
        s.diff_bytes_created = self.counter(TsCounter::DiffBytesCreated);
        s.diff_bytes_applied = self.counter(TsCounter::DiffBytesApplied);
        s.invalidations = self.counter(TsCounter::Invalidations);
        s.lock_acquires = self.counter(TsCounter::LockAcquires);
        s.barriers = self.counter(TsCounter::Barriers);
        s.prefetches = self.counter(TsCounter::PrefetchIssued);
        s.prefetch_fills = self.counter(TsCounter::PrefetchFills);
        s.faults = self.faults;
        s.prefetch_hits = self.prefetch_hits;
        s.useless_prefetches = self.useless_prefetches;
        s.au_updates = self.au_updates;
    }
}

/// Every consumer of the fact stream, in one place. [`Sinks::note`] fans a
/// fact out to the oracle, the trace, the aggregates, the span recorder and
/// the time series; it and the span/gauge/edge helpers below are the only
/// code that consults the recorders. A recorder that is not attached costs
/// one `None` check per fact.
pub(crate) struct Sinks {
    /// Protocol trace rows; `Some` when `SysParams::trace` is set.
    trace: Option<Vec<TraceEvent>>,
    tally: Vec<Tally>,
    /// Shadow checker.
    observer: Option<Box<dyn Observer>>,
    /// Span/flight/engine recorder.
    obs: Option<crate::span::ObsRecorder>,
    /// Windowed time-series recorder.
    ts: Option<crate::timeseries::TsRecorder>,
}

impl Sinks {
    /// Sinks for `nprocs` nodes: aggregates always, the trace on request,
    /// every recorder disarmed.
    pub(crate) fn new(nprocs: usize, trace: bool) -> Self {
        Sinks {
            trace: trace.then(Vec::new),
            tally: vec![Tally::default(); nprocs],
            observer: None,
            obs: None,
            ts: None,
        }
    }

    /// Attaches the oracle.
    pub(crate) fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// Arms the span recorder.
    pub(crate) fn enable_obs(&mut self, nprocs: usize) {
        self.obs = Some(crate::span::ObsRecorder::new(nprocs));
    }

    /// Arms the time-series recorder.
    pub(crate) fn enable_timeseries(&mut self, nprocs: usize, width: Cycles) {
        self.ts = Some(crate::timeseries::TsRecorder::new(nprocs, width));
    }

    /// Reports one fact that happened at cycle `t` on `node`.
    pub(crate) fn note(&mut self, t: Cycles, node: usize, ev: ProtocolEvent<'_>) {
        if let Some(o) = self.observer.as_mut() {
            o.on_event(&ev);
        }
        if let Some(trace) = self.trace.as_mut() {
            for kind in ev.trace_rows() {
                trace.push(TraceEvent {
                    time: t,
                    node,
                    kind,
                });
            }
        }
        self.tally[node].note(&ev);
        if let Some(r) = self.obs.as_mut() {
            r.note(t, node, &ev);
        }
        if let Some(r) = self.ts.as_mut() {
            r.note(t, node, &ev);
        }
    }

    /// Records one conserved processor span (see [`crate::span::Span`]).
    pub(crate) fn span(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.span(node, kind, cat, start, dur);
        }
    }

    /// Records one span charged off the node's own timeline (see
    /// [`crate::span::Span::detached`]).
    pub(crate) fn span_detached(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.span_detached(node, kind, cat, start, dur);
        }
    }

    /// Samples gauge `g` at value `v`; the window keeps the peak.
    pub(crate) fn gauge(&mut self, g: TsGauge, t: Cycles, v: u64) {
        if let Some(r) = self.ts.as_mut() {
            r.gauge(g, t, v);
        }
    }

    /// The most recent span recorded on `node` — the anchor every dependency
    /// edge must reference (enforced by the `ncp2-lint` `unanchored-edge`
    /// rule and by [`crate::span::ObsRecorder::edge`] dropping unanchored
    /// edges).
    pub(crate) fn obs_last_span(&self, node: usize) -> SpanId {
        self.obs
            .as_ref()
            .map(|r| r.last_span(node))
            .unwrap_or(SpanId::NONE)
    }

    /// Records one typed dependency edge.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_edge(
        &mut self,
        kind: EdgeKind,
        src_node: usize,
        src_time: Cycles,
        dst_node: usize,
        dst_time: Cycles,
        work: Cycles,
        src_span: SpanId,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.edge(kind, src_node, src_time, dst_node, dst_time, work, src_span);
        }
    }

    /// Folds every sink into the finished run: the tallied aggregates, the
    /// trace, the span and time-series logs, and the oracle's findings plus
    /// any span-conservation failure.
    pub(crate) fn finish(self, run: &mut RunResult) {
        for (tally, stats) in self.tally.iter().zip(&mut run.nodes) {
            tally.fold(stats);
        }
        let total = |c: TsCounter| self.tally.iter().map(|t| t.counter(c)).sum();
        run.fault.frames_sent = total(TsCounter::FramesSent);
        run.fault.retransmits = total(TsCounter::Retransmits);
        run.fault.prefetch_shed = total(TsCounter::PrefetchShed);
        run.trace = self.trace.unwrap_or_default();
        if let Some(mut o) = self.observer {
            run.violations = o.finish();
        }
        run.obs = self.obs.map(|r| r.into_log());
        run.ts = self.ts.map(|r| r.into_log(run.total_cycles));
        if let Some(log) = &run.obs {
            for (node, detail) in log.conservation_errors(&run.nodes) {
                run.violations
                    .push(Violation::SpanConservation { node, detail });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::vtime::VectorTime;

    #[test]
    fn every_msg_variant_has_a_kind() {
        let vt = VectorTime::new(2);
        let msgs = vec![
            Msg::LockReq {
                lock: 0,
                acquirer: 0,
                vt: vt.clone(),
            },
            Msg::LockForward {
                lock: 0,
                acquirer: 0,
                vt: vt.clone(),
            },
            Msg::LockGrant {
                lock: 0,
                anns: Default::default(),
                update_horizon: 0,
            },
            Msg::DiffReq {
                page: 0,
                intervals: Default::default(),
                requester: 0,
                requester_vt: Arc::new(vt.clone()),
                prefetch: false,
                want_page: false,
            },
            Msg::DiffReply {
                page: 0,
                diffs: Default::default(),
                full_page: None,
                prefetch: false,
            },
            Msg::BarrierArrive {
                barrier: 0,
                from: 0,
                vt: vt.clone(),
                anns: Default::default(),
                horizons: Vec::new(),
            },
            Msg::BarrierRelease {
                barrier: 0,
                vt,
                anns: Default::default(),
                update_horizon: 0,
            },
            Msg::AurcUpdate { page: 0, from: 0 },
            Msg::AurcPageReq {
                page: 0,
                requester: 0,
                prefetch: false,
            },
            Msg::AurcPageReply {
                page: 0,
                prefetch: false,
            },
        ];
        let kinds: Vec<MsgKind> = msgs.iter().map(|m| m.kind()).collect();
        let mut unique = kinds.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), msgs.len(), "kinds must be distinct");
        assert_eq!(kinds, MsgKind::ALL, "ALL lists every kind in order");
        for (i, k) in MsgKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn violations_render_with_context() {
        let v = Violation::Race {
            first_pid: 0,
            first_write: true,
            second_pid: 3,
            second_write: false,
            addr: 0x1000,
        };
        let s = v.to_string();
        assert!(
            s.contains("race") && s.contains("P0") && s.contains("P3"),
            "{s}"
        );
        let c = Violation::MessageConservation {
            detail: "lost reply".into(),
        };
        assert!(c.to_string().contains("lost reply"));
    }
}
