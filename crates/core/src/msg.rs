//! Inter-node protocol messages and their wire sizes.

use std::sync::Arc;

use ncp2_sim::config::PAGE_BYTES;
use ncp2_sim::ops::{BarrierId, LockId};
use ncp2_sim::Cycles;

use crate::diff::DiffList;
use crate::interval::{AnnList, IntervalAnnouncement, IvlList};
use crate::page::{PageBuf, PageId};
use crate::vtime::VectorTime;

/// Fixed per-message header bytes (type, source, destination, sequencing).
pub const MSG_HEADER_BYTES: u64 = 16;

/// One protocol message, delivered by the network as an event.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Acquire request, sent to the lock's manager node.
    LockReq {
        /// Lock being acquired.
        lock: LockId,
        /// Requesting processor.
        acquirer: usize,
        /// Requester's vector time (for write-notice computation).
        vt: VectorTime,
    },
    /// Manager-to-last-owner forward of an acquire request.
    LockForward {
        /// Lock being acquired.
        lock: LockId,
        /// Requesting processor.
        acquirer: usize,
        /// Requester's vector time.
        vt: VectorTime,
    },
    /// Ownership grant carrying the write notices the acquirer is missing.
    LockGrant {
        /// Lock granted.
        lock: LockId,
        /// Intervals (write notices) the acquirer has not seen.
        anns: AnnList,
        /// AURC: time by which all updates the releaser flushed toward the
        /// acquirer will have arrived (0 for TreadMarks).
        update_horizon: Cycles,
    },
    /// Request for the diffs of one page from one writer.
    DiffReq {
        /// Page whose diffs are needed.
        page: PageId,
        /// The writer's interval ids being requested.
        intervals: IvlList,
        /// Requesting processor.
        requester: usize,
        /// Requester's vector time. A writer may substitute a whole page for
        /// the diffs only when its own vector time covers this one —
        /// otherwise the copy could clobber concurrent intervals the
        /// requester has already applied. One snapshot, shared by every
        /// request of a batch (and by later batches while the requester's
        /// time is unchanged); the wire size still counts it per message.
        requester_vt: Arc<VectorTime>,
        /// Whether this is a (low-priority) prefetch.
        prefetch: bool,
        /// Whether the requester wants the whole page instead of diffs
        /// (many accumulated notices).
        want_page: bool,
    },
    /// Diffs (or a whole page) coming back from a writer.
    DiffReply {
        /// Page the reply covers.
        page: PageId,
        /// The requested diffs that were available.
        diffs: DiffList,
        /// Full page contents plus the writer's vector time, when the writer
        /// chose (or was asked) to ship the page.
        full_page: Option<(PageBuf, VectorTime)>,
        /// Echo of the request's prefetch flag.
        prefetch: bool,
    },
    /// Barrier arrival, sent to the barrier manager.
    BarrierArrive {
        /// Barrier id.
        barrier: BarrierId,
        /// Arriving processor.
        from: usize,
        /// Its vector time after closing its interval.
        vt: VectorTime,
        /// Intervals the manager may not have seen.
        anns: AnnList,
        /// AURC: per-destination arrival horizon of this node's flushed
        /// updates (empty for TreadMarks).
        horizons: Vec<Cycles>,
    },
    /// Barrier release broadcast.
    BarrierRelease {
        /// Barrier id.
        barrier: BarrierId,
        /// Merged vector time of all participants.
        vt: VectorTime,
        /// All intervals merged at the manager. The release is an `n`-way
        /// broadcast of the same set; sharing the list keeps the barrier's
        /// host cost O(n) instead of O(n²) handle copies.
        anns: Arc<AnnList>,
        /// AURC: time by which all updates destined to the receiver have
        /// arrived (0 for TreadMarks).
        update_horizon: Cycles,
    },
    /// AURC automatic update for one write-cache line (timing only; data
    /// lives in the master copy).
    AurcUpdate {
        /// Page the update belongs to.
        page: PageId,
        /// Source node.
        from: usize,
    },
    /// AURC page fetch request, sent to the page's home.
    AurcPageReq {
        /// Page to fetch.
        page: PageId,
        /// Requesting processor.
        requester: usize,
        /// Whether this is a (low-priority) prefetch.
        prefetch: bool,
    },
    /// AURC page fetch reply.
    AurcPageReply {
        /// Page fetched.
        page: PageId,
        /// Echo of the request's prefetch flag.
        prefetch: bool,
    },
}

impl Msg {
    /// Wire size in bytes, used for network serialization and congestion.
    pub fn bytes(&self) -> u64 {
        let anns_bytes = |anns: &[Arc<IntervalAnnouncement>]| {
            anns.iter().map(|a| a.encoded_bytes()).sum::<u64>()
        };
        MSG_HEADER_BYTES
            + match self {
                Msg::LockReq { vt, .. } | Msg::LockForward { vt, .. } => 4 + 4 * vt.len() as u64,
                Msg::LockGrant { anns, .. } => 8 + anns_bytes(anns),
                Msg::DiffReq {
                    intervals,
                    requester_vt,
                    ..
                } => 8 + 8 * intervals.len() as u64 + 4 * requester_vt.len() as u64,
                Msg::DiffReply {
                    diffs, full_page, ..
                } => {
                    let d: u64 = diffs.iter().map(|d| d.encoded_bytes()).sum();
                    let p = full_page.as_ref().map_or(0, |_| PAGE_BYTES + 8);
                    d + p
                }
                Msg::BarrierArrive {
                    vt, anns, horizons, ..
                } => 4 + 4 * vt.len() as u64 + anns_bytes(anns) + 8 * horizons.len() as u64,
                Msg::BarrierRelease { vt, anns, .. } => 12 + 4 * vt.len() as u64 + anns_bytes(anns),
                Msg::AurcUpdate { .. } => 32, // one combined write-cache line
                Msg::AurcPageReq { .. } => 8,
                Msg::AurcPageReply { .. } => PAGE_BYTES + 8,
            }
    }

    /// Whether the message belongs to a prefetch transaction (scheduled at
    /// low priority, per the controller's command priorities).
    pub fn is_prefetch(&self) -> bool {
        matches!(
            self,
            Msg::DiffReq { prefetch: true, .. }
                | Msg::DiffReply { prefetch: true, .. }
                | Msg::AurcPageReq { prefetch: true, .. }
                | Msg::AurcPageReply { prefetch: true, .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_content() {
        let vt = VectorTime::new(16);
        let small = Msg::LockReq {
            lock: 0,
            acquirer: 1,
            vt: vt.clone(),
        };
        assert_eq!(small.bytes(), 16 + 4 + 64);

        let ann = IntervalAnnouncement::new(0, 1, vt.clone(), vec![1, 2]);
        let mut anns = AnnList::new();
        anns.push(Arc::new(ann));
        let grant = Msg::LockGrant {
            lock: 0,
            anns,
            update_horizon: 0,
        };
        assert_eq!(grant.bytes(), 16 + 8 + 24 + 16);

        let reply = Msg::DiffReply {
            page: 0,
            diffs: DiffList::new(),
            full_page: Some((PageBuf::new(4096), vt)),
            prefetch: false,
        };
        assert_eq!(reply.bytes(), 16 + 4096 + 8);
    }

    #[test]
    fn prefetch_flag_detected() {
        let vt = Arc::new(VectorTime::new(4));
        let req = Msg::DiffReq {
            page: 0,
            intervals: IvlList::new(),
            requester: 0,
            requester_vt: Arc::clone(&vt),
            prefetch: true,
            want_page: false,
        };
        assert!(req.is_prefetch());
        let req2 = Msg::DiffReq {
            page: 0,
            intervals: IvlList::new(),
            requester: 0,
            requester_vt: vt,
            prefetch: false,
            want_page: false,
        };
        assert!(!req2.is_prefetch());
        assert!(Msg::AurcPageReq {
            page: 0,
            requester: 0,
            prefetch: true
        }
        .is_prefetch());
        assert!(!Msg::AurcUpdate { page: 0, from: 0 }.is_prefetch());
    }

    #[test]
    fn update_message_is_one_line() {
        let u = Msg::AurcUpdate { page: 3, from: 1 };
        assert_eq!(u.bytes(), 48);
    }
}
