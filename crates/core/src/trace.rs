//! Optional protocol event tracing: the trace sink of the fact stream.
//!
//! When [`ncp2_sim::SysParams::trace`] is set, every reported
//! [`ProtocolEvent`] that has a row in the protocol timeline becomes a
//! [`TraceEvent`] ([`ProtocolEvent::trace_rows`] is the whole mapping):
//! message injections, faults, page fetches, diff creation/application, lock
//! grants, barrier releases, prefetch issues/completions/sheds, controller
//! commands, transport retransmissions and duplicates, and service
//! dequeues/replies. The trace is returned on [`crate::RunResult::trace`]
//! and renders to CSV for timeline inspection — the moral equivalent of the
//! protocol traces the paper's back end produced for debugging. The same
//! rows feed the `ncp2-obs` Perfetto exporter, so CSV and Perfetto views
//! always agree.

use ncp2_sim::Cycles;

use crate::observe::{MsgKind, ProtocolEvent};
use crate::span::CtrlCmd;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A protocol message was injected into the network.
    MsgSent {
        /// Destination node.
        dst: usize,
        /// Wire size in bytes.
        bytes: u64,
        /// Whether it belongs to a prefetch transaction.
        prefetch: bool,
    },
    /// An access fault began collecting diffs / fetching a page.
    Fault {
        /// Faulting page.
        page: u64,
    },
    /// A whole page was fetched (TreadMarks overflow path or AURC).
    PageFetched {
        /// The page.
        page: u64,
    },
    /// A diff was generated over a dirty page.
    DiffCreated {
        /// The page.
        page: u64,
        /// Modified words captured by the diff.
        words: u64,
    },
    /// Collected diffs were applied to a local page copy.
    DiffApplied {
        /// The page.
        page: u64,
        /// Total modified words applied.
        words: u64,
    },
    /// A lock was acquired (grant processed, processor about to wake).
    LockAcquired {
        /// The lock.
        lock: u32,
    },
    /// A barrier released this node.
    BarrierReleased,
    /// An acquire-time prefetch was issued.
    PrefetchIssued {
        /// Target page.
        page: u64,
    },
    /// A previously issued prefetch finished installing its page.
    PrefetchCompleted {
        /// The page.
        page: u64,
    },
    /// The protocol controller executed a command on the node's behalf.
    ControllerCommand {
        /// The command class.
        cmd: CtrlCmd,
    },
    /// A transport frame's ack timer expired (a retransmission follows).
    RetransmitTimeout {
        /// Destination of the unacknowledged frame.
        dst: usize,
        /// Link-local sequence number of the frame.
        seq: u64,
    },
    /// The transport retransmitted an unacknowledged frame.
    Retransmit {
        /// Destination of the frame.
        dst: usize,
        /// Link-local sequence number of the frame.
        seq: u64,
        /// Attempt number after the bump (1 = first retransmission).
        attempt: u32,
    },
    /// The transport discarded an already-delivered duplicate frame.
    DuplicateDropped {
        /// Sender of the duplicate.
        src: usize,
        /// Link-local sequence number of the duplicate.
        seq: u64,
    },
    /// The degradation policy shed a prefetch command under congestion.
    PrefetchShed {
        /// The page whose prefetch was shed.
        page: u64,
    },
    /// The service workload dequeued a request for service.
    SvcDequeue {
        /// Backlog (arrived, not yet served) at this node after the dequeue.
        depth: u64,
    },
    /// The service workload completed a request.
    SvcReply {
        /// Request class.
        class: ncp2_sim::SvcClass,
        /// Open-loop response time in cycles (completion minus arrival).
        response: Cycles,
    },
}

impl ProtocolEvent<'_> {
    /// The trace rows this fact renders as: none, one, or for a
    /// retransmission the expired ack timer followed by the resend.
    pub fn trace_rows(&self) -> impl Iterator<Item = TraceKind> {
        let timeout = match *self {
            ProtocolEvent::Retransmit { dst, seq, .. } => {
                Some(TraceKind::RetransmitTimeout { dst, seq })
            }
            _ => None,
        };
        timeout.into_iter().chain(self.trace_kind())
    }

    /// The fact's main trace row, if it has one. Automatic updates are not
    /// traced: AURC emits one per write-cache line.
    fn trace_kind(&self) -> Option<TraceKind> {
        use ProtocolEvent as E;
        Some(match *self {
            E::MsgSent {
                kind: MsgKind::AurcUpdate,
                ..
            } => return None,
            E::MsgSent {
                dst, bytes, demand, ..
            } => TraceKind::MsgSent {
                dst,
                bytes,
                prefetch: !demand,
            },
            E::Fault { page, .. } => TraceKind::Fault { page },
            E::PageFetched { page, .. } => TraceKind::PageFetched { page },
            E::DiffCreated { page, diff, .. } => TraceKind::DiffCreated {
                page,
                words: diff.word_count(),
            },
            E::DiffsApplied { diffs: [], .. } => return None,
            E::DiffsApplied { page, words, .. } => TraceKind::DiffApplied { page, words },
            E::LockAcquired { lock, .. } => TraceKind::LockAcquired { lock },
            E::BarrierCompleted { .. } => TraceKind::BarrierReleased,
            E::PrefetchIssued { page, .. } => TraceKind::PrefetchIssued { page },
            E::PrefetchCompleted { page, .. } => TraceKind::PrefetchCompleted { page },
            E::PrefetchShed { page, .. } => TraceKind::PrefetchShed { page },
            E::ControllerCommand { cmd, .. } => TraceKind::ControllerCommand { cmd },
            E::Retransmit {
                dst, seq, attempt, ..
            } => TraceKind::Retransmit { dst, seq, attempt },
            E::FrameDuplicate { src, seq, .. } => TraceKind::DuplicateDropped { src, seq },
            E::SvcDequeue { depth, .. } => TraceKind::SvcDequeue { depth },
            E::SvcReply {
                class, response, ..
            } => TraceKind::SvcReply { class, response },
            E::Access { .. }
            | E::LockReleased { .. }
            | E::LockMigrated { .. }
            | E::LockWaitEnded { .. }
            | E::BarrierArrived { .. }
            | E::BarrierWaitEnded { .. }
            | E::IntervalClosed { .. }
            | E::NoticeRecorded { .. }
            | E::AnnsProcessed { .. }
            | E::PrefetchUsed { .. }
            | E::MsgDelivered { .. }
            | E::FrameSent { .. }
            | E::FrameAccepted { .. }
            | E::FrameDropped { .. }
            | E::AckSent { .. }
            | E::FramesAcked { .. } => return None,
        })
    }
}

/// One timestamped protocol event at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time (cycles).
    pub time: Cycles,
    /// Node the event belongs to.
    pub node: usize,
    /// The event.
    pub kind: TraceKind,
}

/// Renders a trace as CSV (`time,node,kind,arg1,arg2,prefetch`).
///
/// The `prefetch` column is 1 for events belonging to a prefetch
/// transaction (prefetch-tagged messages, prefetch issues/completions) and
/// 0 otherwise; `msg_sent` rows carry the destination in `arg1` and the
/// *unmodified* byte count in `arg2`.
///
/// ```
/// use ncp2_core::trace::{trace_csv, TraceEvent, TraceKind};
/// let t = vec![TraceEvent { time: 5, node: 1, kind: TraceKind::Fault { page: 9 } }];
/// let csv = trace_csv(&t);
/// assert!(csv.starts_with("time,node,kind"));
/// assert!(csv.contains("5,1,fault,9,"));
/// ```
pub fn trace_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("time,node,kind,arg1,arg2,prefetch\n");
    for e in events {
        let (kind, a1, a2, pf) = match e.kind {
            TraceKind::MsgSent {
                dst,
                bytes,
                prefetch,
            } => ("msg_sent".into(), dst as u64, bytes, prefetch),
            TraceKind::Fault { page } => ("fault".into(), page, 0, false),
            TraceKind::PageFetched { page } => ("page_fetched".into(), page, 0, false),
            TraceKind::DiffCreated { page, words } => ("diff_created".into(), page, words, false),
            TraceKind::DiffApplied { page, words } => ("diff_applied".into(), page, words, false),
            TraceKind::LockAcquired { lock } => ("lock_acquired".into(), lock as u64, 0, false),
            TraceKind::BarrierReleased => ("barrier_released".into(), 0, 0, false),
            TraceKind::PrefetchIssued { page } => ("prefetch_issued".into(), page, 0, true),
            TraceKind::PrefetchCompleted { page } => ("prefetch_completed".into(), page, 0, true),
            TraceKind::ControllerCommand { cmd } => (format!("ctrl_{}", cmd.label()), 0, 0, false),
            TraceKind::RetransmitTimeout { dst, seq } => {
                ("retransmit_timeout".into(), dst as u64, seq, false)
            }
            TraceKind::Retransmit { seq, attempt, .. } => {
                ("retransmit".into(), seq, attempt as u64, false)
            }
            TraceKind::DuplicateDropped { src, seq } => {
                ("duplicate_dropped".into(), src as u64, seq, false)
            }
            TraceKind::PrefetchShed { page } => ("prefetch_shed".into(), page, 0, true),
            TraceKind::SvcDequeue { depth } => ("svc_dequeue".into(), depth, 0, false),
            TraceKind::SvcReply { class, response } => {
                (format!("svc_reply_{}", class.label()), response, 0, false)
            }
        };
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            e.time,
            e.node,
            kind,
            a1,
            a2,
            u64::from(pf)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_event() {
        let events = vec![
            TraceEvent {
                time: 1,
                node: 0,
                kind: TraceKind::BarrierReleased,
            },
            TraceEvent {
                time: 2,
                node: 3,
                kind: TraceKind::LockAcquired { lock: 7 },
            },
            TraceEvent {
                time: 3,
                node: 2,
                kind: TraceKind::MsgSent {
                    dst: 1,
                    bytes: 64,
                    prefetch: false,
                },
            },
        ];
        let csv = trace_csv(&events);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("2,3,lock_acquired,7,0,0"));
        assert!(csv.contains("3,2,msg_sent,1,64,0"));
    }

    #[test]
    fn prefetch_flag_is_its_own_column_not_bit_63() {
        let events = vec![
            TraceEvent {
                time: 4,
                node: 0,
                kind: TraceKind::MsgSent {
                    dst: 2,
                    bytes: 4096,
                    prefetch: true,
                },
            },
            TraceEvent {
                time: 9,
                node: 0,
                kind: TraceKind::PrefetchCompleted { page: 3 },
            },
        ];
        let csv = trace_csv(&events);
        assert!(csv.contains("4,0,msg_sent,2,4096,1"), "{csv}");
        assert!(csv.contains("9,0,prefetch_completed,3,0,1"), "{csv}");
        assert!(!csv.contains(&(4096u64 | 1 << 63).to_string()));
    }

    #[test]
    fn new_event_kinds_render() {
        let events = vec![
            TraceEvent {
                time: 1,
                node: 1,
                kind: TraceKind::DiffCreated { page: 5, words: 12 },
            },
            TraceEvent {
                time: 2,
                node: 1,
                kind: TraceKind::DiffApplied { page: 5, words: 12 },
            },
            TraceEvent {
                time: 3,
                node: 1,
                kind: TraceKind::ControllerCommand {
                    cmd: CtrlCmd::DiffCreate,
                },
            },
        ];
        let csv = trace_csv(&events);
        assert!(csv.contains("1,1,diff_created,5,12,0"));
        assert!(csv.contains("2,1,diff_applied,5,12,0"));
        assert!(csv.contains("3,1,ctrl_diff_create,0,0,0"));
    }

    #[test]
    fn empty_trace_is_just_a_header() {
        assert_eq!(trace_csv(&[]).lines().count(), 1);
    }

    #[test]
    fn transport_event_kinds_render() {
        let events = vec![
            TraceEvent {
                time: 10,
                node: 0,
                kind: TraceKind::RetransmitTimeout { dst: 3, seq: 7 },
            },
            TraceEvent {
                time: 11,
                node: 0,
                kind: TraceKind::Retransmit {
                    dst: 3,
                    seq: 7,
                    attempt: 2,
                },
            },
            TraceEvent {
                time: 12,
                node: 3,
                kind: TraceKind::DuplicateDropped { src: 0, seq: 7 },
            },
            TraceEvent {
                time: 13,
                node: 1,
                kind: TraceKind::PrefetchShed { page: 42 },
            },
        ];
        let csv = trace_csv(&events);
        assert!(csv.contains("10,0,retransmit_timeout,3,7,0"), "{csv}");
        assert!(csv.contains("11,0,retransmit,7,2,0"), "{csv}");
        assert!(csv.contains("12,3,duplicate_dropped,0,7,0"), "{csv}");
        assert!(csv.contains("13,1,prefetch_shed,42,0,1"), "{csv}");
    }

    #[test]
    fn service_event_kinds_render() {
        let events = vec![
            TraceEvent {
                time: 20,
                node: 2,
                kind: TraceKind::SvcDequeue { depth: 5 },
            },
            TraceEvent {
                time: 25,
                node: 2,
                kind: TraceKind::SvcReply {
                    class: ncp2_sim::SvcClass::Session,
                    response: 450,
                },
            },
        ];
        let csv = trace_csv(&events);
        assert!(csv.contains("20,2,svc_dequeue,5,0,0"), "{csv}");
        assert!(csv.contains("25,2,svc_reply_session,450,0,0"), "{csv}");
    }
}
