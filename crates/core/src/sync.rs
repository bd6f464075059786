//! Lock and barrier machinery shared by TreadMarks and AURC.
//!
//! Locks are distributed: a static manager (`lock mod nprocs`) forwards each
//! acquire to the last owner, which replies directly to the acquirer with
//! the write notices (interval announcements) the acquirer has not seen.
//! Barriers are centralized at `barrier mod nprocs`: arrivals carry the
//! intervals created since the last barrier, the manager merges and
//! rebroadcasts. Interval/write-notice processing is "complicated" protocol
//! work and always runs on the computation processor (§3.2), even with a
//! protocol controller.

use std::sync::Arc;

use ncp2_sim::config::{INTERRUPT, LIST_PROCESSING};
use ncp2_sim::ops::{BarrierId, LockId};
use ncp2_sim::{Category, Cycles, PrefetchStrategy};

use crate::interval::{AnnList, IntervalAnnouncement};
use crate::msg::Msg;
use crate::observe::ProtocolEvent;
use crate::page::PageId;
use crate::protocol::Protocol;
use crate::span::SpanKind;
use crate::system::{BarrierState, Simulation, Wait};
use crate::timeseries::TsGauge;
use crate::vtime::VectorTime;

impl Simulation {
    // ----- processor-issued operations ------------------------------------

    pub(crate) fn op_lock(&mut self, pid: usize, lock: LockId) {
        let manager = lock as usize % self.params.nprocs;
        self.advance(pid, LIST_PROCESSING, Category::Synch, SpanKind::NoticeMgmt);
        let msg = Msg::LockReq {
            lock,
            acquirer: pid,
            vt: self.nodes[pid].vt.clone(),
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, manager, msg, Category::Synch, false);
        self.block(pid, Wait::Lock { lock });
    }

    pub(crate) fn op_unlock(&mut self, pid: usize, lock: LockId) {
        let now = self.nodes[pid].time;
        self.sinks
            .note(now, pid, ProtocolEvent::LockReleased { pid, lock });
        if matches!(self.protocol, Protocol::Aurc { .. }) {
            self.aurc_flush_wcache(pid, Category::Synch);
        }
        self.close_interval(pid);
        self.nodes[pid].held_locks.remove(lock);
        let waiter = self.nodes[pid]
            .lock_queue
            .get_mut(lock)
            .and_then(|q| q.pop_front());
        if let Some((acquirer, vt)) = waiter {
            self.nodes[pid].owned_locks.remove(lock);
            let t = self.nodes[pid].time;
            self.grant_lock(pid, t, lock, acquirer, &vt, false);
        }
    }

    pub(crate) fn op_barrier(&mut self, pid: usize, barrier: BarrierId) {
        let manager = barrier as usize % self.params.nprocs;
        if matches!(self.protocol, Protocol::Aurc { .. }) {
            self.aurc_flush_wcache(pid, Category::Synch);
        }
        self.close_interval(pid);
        let now = self.nodes[pid].time;
        self.sinks
            .note(now, pid, ProtocolEvent::BarrierArrived { pid, barrier });
        let node = &self.nodes[pid];
        let anns = node.store.missing_for(&node.last_barrier_vt);
        self.advance(
            pid,
            LIST_PROCESSING * (anns.len() as Cycles + 1),
            Category::Synch,
            SpanKind::NoticeMgmt,
        );
        let horizons = match self.protocol {
            Protocol::Aurc { .. } => self.nodes[pid].out_horizon.clone(),
            Protocol::TreadMarks(_) => Vec::new(),
        };
        let msg = Msg::BarrierArrive {
            barrier,
            from: pid,
            vt: self.nodes[pid].vt.clone(),
            anns,
            horizons,
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, manager, msg, Category::Synch, false);
        self.block(pid, Wait::Barrier);
    }

    /// Closes the open interval if it dirtied anything: bumps the vector
    /// time, records the announcement, and prepares diffs per protocol
    /// (write-protect + lazy twins in software modes, eager DMA diffs in the
    /// hardware-diff modes, nothing in AURC).
    pub(crate) fn close_interval(&mut self, pid: usize) {
        if self.nodes[pid].cur_dirty.is_empty() {
            return;
        }
        let id = self.nodes[pid].vt.bump(pid);
        let pages = std::mem::take(&mut self.nodes[pid].cur_dirty);
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_close_pages(pid, id, &pages),
            Protocol::Aurc { .. } => {
                for &page in &pages {
                    if let Some(lp) = self.nodes[pid].aurc_pages.get_mut(page) {
                        lp.refs.dirty = false;
                    }
                }
            }
        }
        let now = self.nodes[pid].time;
        self.sinks.note(
            now,
            pid,
            ProtocolEvent::IntervalClosed {
                pid,
                id,
                vt: &self.nodes[pid].vt,
                pages: &pages,
            },
        );
        // The one copy of this announcement: every store and message that
        // learns the interval from here on holds a handle to it.
        let ann = Arc::new(IntervalAnnouncement::new(
            pid,
            id,
            self.nodes[pid].vt.clone(),
            pages,
        ));
        self.nodes[pid].store.record(ann);
    }

    // ----- message handlers -----------------------------------------------

    pub(crate) fn on_lock_req(
        &mut self,
        manager: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        vt: VectorTime,
    ) {
        let c = self.interrupt_proc(
            manager,
            t,
            INTERRUPT + LIST_PROCESSING,
            Category::Ipc,
            SpanKind::Service,
        );
        let last = match self.lock_last.get(lock) {
            Some(&l) => l,
            None => {
                // First touch: the manager holds the grant token.
                self.lock_last.insert(lock, manager);
                self.nodes[manager].owned_locks.insert(lock);
                manager
            }
        };
        if last == acquirer {
            // Re-acquire with no intervening owner: nothing new to learn.
            let msg = Msg::LockGrant {
                lock,
                anns: AnnList::new(),
                update_horizon: 0,
            };
            let mut tc = c;
            self.send_msg(&mut tc, manager, acquirer, msg, Category::Ipc, true);
        } else {
            self.lock_last.insert(lock, acquirer);
            // The grant token leaves `last` for a different node: an owner
            // migration, the expensive case the hot-spot table counts.
            self.sinks.note(
                c,
                manager,
                ProtocolEvent::LockMigrated {
                    lock,
                    from: last,
                    to: acquirer,
                },
            );
            let msg = Msg::LockForward { lock, acquirer, vt };
            let mut tc = c;
            self.send_msg(&mut tc, manager, last, msg, Category::Ipc, true);
        }
    }

    pub(crate) fn on_lock_forward(
        &mut self,
        holder: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        vt: VectorTime,
    ) {
        let can_grant = self.nodes[holder].owned_locks.contains(lock)
            && !self.nodes[holder].held_locks.contains(lock);
        let c = self.interrupt_proc(holder, t, INTERRUPT, Category::Ipc, SpanKind::Service);
        if can_grant {
            self.nodes[holder].owned_locks.remove(lock);
            self.grant_lock(holder, c, lock, acquirer, &vt, true);
        } else {
            // Still inside (or still waiting for) the critical section: the
            // request waits here and is granted at the next unlock.
            let depth = {
                let q = self.nodes[holder].lock_queue.get_or_default(lock);
                q.push_back((acquirer, vt));
                q.len() as u64
            };
            self.sinks.gauge(TsGauge::LockWaiters, c, depth);
        }
    }

    /// Computes and ships a lock grant from `holder` to `acquirer`, starting
    /// at time `t`. `servicing` is true when the holder reacts to a
    /// forwarded request (IPC) rather than granting at its own unlock
    /// (Synch).
    pub(crate) fn grant_lock(
        &mut self,
        holder: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        acquirer_vt: &VectorTime,
        servicing: bool,
    ) {
        let anns = self.nodes[holder].store.missing_for(acquirer_vt);
        let work = LIST_PROCESSING * (anns.len() as Cycles + 1);
        let (mut t, cat) = if servicing {
            (
                self.interrupt_proc(holder, t, work, Category::Ipc, SpanKind::Service),
                Category::Ipc,
            )
        } else {
            self.advance(holder, work, Category::Synch, SpanKind::NoticeMgmt);
            (self.nodes[holder].time, Category::Synch)
        };
        let update_horizon = match self.protocol {
            Protocol::Aurc { .. } => self.nodes[holder].out_horizon[acquirer],
            Protocol::TreadMarks(_) => 0,
        };
        let msg = Msg::LockGrant {
            lock,
            anns,
            update_horizon,
        };
        self.send_msg(&mut t, holder, acquirer, msg, cat, servicing);
    }

    pub(crate) fn on_lock_grant(
        &mut self,
        acquirer: usize,
        t: Cycles,
        lock: LockId,
        anns: AnnList,
        update_horizon: Cycles,
    ) {
        debug_assert!(
            matches!(self.nodes[acquirer].wait, Wait::Lock { lock: l } if l == lock),
            "grant for a lock {lock} processor {acquirer} is not waiting on"
        );
        let mut end = self.process_anns(acquirer, &anns, t);
        end = self.issue_prefetches(acquirer, end);
        self.nodes[acquirer].held_locks.insert(lock);
        self.nodes[acquirer].owned_locks.insert(lock);
        let wake = end.max(update_horizon);
        self.sinks.note(
            wake,
            acquirer,
            ProtocolEvent::LockAcquired {
                pid: acquirer,
                lock,
                granted: t,
            },
        );
        self.sinks.obs_edge(
            crate::span::EdgeKind::LockGrant,
            acquirer,
            t,
            acquirer,
            wake,
            0,
            self.sinks.obs_last_span(acquirer),
        );
        self.schedule_wake(acquirer, wake);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_barrier_arrive(
        &mut self,
        manager: usize,
        t: Cycles,
        barrier: BarrierId,
        from: usize,
        vt: VectorTime,
        mut anns: AnnList,
        horizons: Vec<Cycles>,
    ) {
        let n = self.params.nprocs;
        let mut c = self.interrupt_proc(
            manager,
            t,
            INTERRUPT + LIST_PROCESSING * (anns.len() as Cycles + 1),
            Category::Ipc,
            SpanKind::Service,
        );
        let bs = self.barriers.get_or_insert_with(barrier, || BarrierState {
            arrived: 0,
            merged_vt: None,
            anns: AnnList::new(),
            horizons: vec![Vec::new(); n],
        });
        for ann in anns.drain() {
            bs.anns.push(ann);
        }
        // Arrivals overlap (every node that learned an interval through a
        // lock announces it again): keep one handle per interval as they
        // come in, so the list stays the size of the merged set.
        bs.anns.sort_unique();
        match &mut bs.merged_vt {
            Some(m) => m.merge(&vt),
            slot => *slot = Some(vt),
        }
        bs.horizons[from] = horizons;
        bs.arrived += 1;
        let arrived = bs.arrived;
        self.sinks.gauge(TsGauge::BarrierWaiters, c, arrived as u64);
        if arrived < n {
            return;
        }
        // Last arrival: release everyone.
        let bs = self
            .barriers
            .remove(barrier)
            // invariant: this is the nth arrival, so the state the first
            // arrival created is still present
            .expect("barrier state exists");
        // invariant: every arrival merges its vector time before this point
        let merged = bs.merged_vt.expect("at least one arrival");
        let all_anns = Arc::new(bs.anns);
        for k in 0..n {
            let update_horizon = bs
                .horizons
                .iter()
                .filter(|h| !h.is_empty())
                .map(|h| h[k])
                .max()
                .unwrap_or(0);
            let msg = Msg::BarrierRelease {
                barrier,
                vt: merged.clone(),
                anns: Arc::clone(&all_anns),
                update_horizon,
            };
            self.send_msg(&mut c, manager, k, msg, Category::Ipc, true);
        }
    }

    pub(crate) fn on_barrier_release(
        &mut self,
        pid: usize,
        t: Cycles,
        barrier: BarrierId,
        vt: VectorTime,
        anns: Arc<AnnList>,
        update_horizon: Cycles,
    ) {
        debug_assert!(
            matches!(self.nodes[pid].wait, Wait::Barrier),
            "release for a barrier processor {pid} is not waiting on"
        );
        let mut end = self.process_anns(pid, &anns, t);
        let nd = &mut self.nodes[pid];
        nd.vt.merge(&vt);
        // The merged time is a floor every processor's vector time now
        // covers, so the intervals it covers can never again appear in a
        // `missing_for` result — collect them (TreadMarks GCs interval
        // records at barriers). Host-side only: message contents and
        // list-processing costs are computed from coverage-filtered sets
        // that never included these records.
        nd.store.gc_covered(&vt);
        nd.last_barrier_vt = vt;
        end = self.issue_prefetches(pid, end);
        let wake = end.max(update_horizon);
        self.sinks.note(
            wake,
            pid,
            ProtocolEvent::BarrierCompleted {
                pid,
                barrier,
                released: t,
            },
        );
        self.sinks.obs_edge(
            crate::span::EdgeKind::BarrierRelease,
            pid,
            t,
            pid,
            wake,
            0,
            self.sinks.obs_last_span(pid),
        );
        self.schedule_wake(pid, wake);
    }

    // ----- acquire-time notices and prefetches -----------------------------

    /// Applies a batch of interval announcements at `pid` starting at `t`,
    /// the acquire model both protocols share: skips intervals the vector
    /// time covers, observes and records the rest, and hands every page a
    /// foreign interval wrote to the protocol's invalidation
    /// ([`Simulation::tm_notice`], [`Simulation::aurc_notice`]). Runs on the
    /// (blocked) processor: the returned completion time extends the
    /// acquire.
    pub(crate) fn process_anns(
        &mut self,
        pid: usize,
        anns: &[Arc<IntervalAnnouncement>],
        t: Cycles,
    ) -> Cycles {
        let mut c = t + LIST_PROCESSING * (anns.len() as Cycles + 1);
        for ann in anns {
            let nd = &mut self.nodes[pid];
            if nd.vt.covers_interval(ann.owner, ann.id) {
                continue;
            }
            nd.vt.observe(ann.owner, ann.id);
            nd.store.record(Arc::clone(ann));
            if ann.owner == pid {
                continue;
            }
            for &page in &ann.pages {
                c = match self.protocol {
                    Protocol::TreadMarks(_) => self.tm_notice(pid, ann, page, c),
                    Protocol::Aurc { .. } => self.aurc_notice(pid, ann, page, c),
                };
            }
        }
        let vt = &self.nodes[pid].vt;
        self.sinks
            .note(c, pid, ProtocolEvent::AnnsProcessed { pid, vt });
        c
    }

    /// Reports that `ann`'s write notice for `page` reached `pid` at `t`.
    pub(crate) fn note_notice(
        &mut self,
        t: Cycles,
        pid: usize,
        ann: &IntervalAnnouncement,
        page: PageId,
        invalidated: bool,
        wasted_prefetch: bool,
    ) {
        let notice = ProtocolEvent::NoticeRecorded {
            pid,
            owner: ann.owner,
            id: ann.id,
            page,
            invalidated,
            wasted_prefetch,
        };
        self.sinks.note(t, pid, notice);
    }

    /// Issues acquire-time prefetches under the P modes, the §3.2 heuristic
    /// AURC+P reuses: of the invalid copies the protocol could refill
    /// ([`Simulation::tm_prefetch_candidates`],
    /// [`Simulation::aurc_prefetch_candidates`]), those whose reference
    /// history the strategy wants, lowest page first and up to its cap. The
    /// transport may shed any of them; the issuing cost extends the
    /// acquire. Returns the (possibly extended) completion time.
    pub(crate) fn issue_prefetches(&mut self, pid: usize, t: Cycles) -> Cycles {
        if !self.protocol.prefetch() {
            return t;
        }
        let strategy = self.params.prefetch_strategy;
        let mut pages = match self.protocol {
            Protocol::TreadMarks(_) => self.tm_prefetch_candidates(pid, strategy),
            Protocol::Aurc { .. } => self.aurc_prefetch_candidates(pid, strategy),
        };
        if let PrefetchStrategy::Capped(cap) = strategy {
            pages.truncate(cap);
        }
        let mut c = t;
        for page in pages {
            // Graceful degradation: under congestion (or a deep unacked
            // backlog) the transport sheds low-priority prefetch commands
            // first; demand traffic keeps its full retry budget.
            if self.shed_prefetch(pid, page, c) {
                continue;
            }
            self.sinks
                .note(c, pid, ProtocolEvent::PrefetchIssued { pid, page });
            c = match self.protocol {
                Protocol::TreadMarks(_) => self.tm_prefetch(pid, page, c),
                Protocol::Aurc { .. } => self.aurc_prefetch(pid, page, c),
            };
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Weak};

    use ncp2_sim::SysParams;

    use crate::interval::IntervalAnnouncement;
    use crate::msg::Msg;
    use crate::page::PageState;
    use crate::protocol::{OverlapMode, Protocol};
    use crate::system::{Ev, Simulation};

    #[test]
    fn one_barrier_shares_each_announcement_across_all_stores() {
        const N: usize = 16;
        let mut s = Simulation::new(
            SysParams::default().with_nprocs(N),
            Protocol::TreadMarks(OverlapMode::IPD),
        );
        // Every node dirties its own page, then all arrive at barrier 0.
        for pid in 0..N {
            let page = pid as u64;
            let tp = s.tm_page(pid, page);
            tp.state = PageState::ReadWrite;
            tp.data.write(0, 4, pid as u64 + 1);
            tp.dirty.set(0);
            tp.refs.dirty = true;
            s.nodes[pid].cur_dirty.push(page);
            s.op_barrier(pid, 0);
        }
        // Deliver everything up to the release broadcast. No workload runs
        // here, so wake-ups are dropped.
        let mut releases = Vec::new();
        while let Some(ev) = s.queue.pop() {
            if let Ev::Msg { dst, msg } = ev.payload {
                match msg {
                    Msg::BarrierRelease { .. } => releases.push((dst, ev.time, msg)),
                    msg => s.handle_msg(dst, ev.time, msg),
                }
            }
        }
        assert_eq!(releases.len(), N);
        // Record each release's announcements as its handler does first;
        // the handler then collects every interval the barrier covers, so
        // the stores are inspected in between.
        for (dst, t, msg) in &releases {
            let Msg::BarrierRelease { anns, .. } = msg else {
                unreachable!()
            };
            assert_eq!(anns.len(), N);
            s.process_anns(*dst, anns, *t);
        }
        let mut weak: Vec<Weak<IntervalAnnouncement>> = Vec::new();
        for owner in 0..N {
            let own = s.nodes[owner].store.get(owner, 1).expect("own interval");
            assert_eq!(own.pages, vec![owner as u64]);
            for node in &s.nodes {
                let held = node.store.get(owner, 1).expect("interval learned");
                assert!(
                    Arc::ptr_eq(held, own),
                    "interval ({owner}, 1) is a copy, not a handle"
                );
            }
            weak.push(Arc::downgrade(own));
        }
        // The real release handler collects the covered intervals; once the
        // messages are gone, no announcement is left alive.
        for (dst, t, msg) in releases {
            s.handle_msg(dst, t, msg);
        }
        assert!(s.nodes.iter().all(|nd| nd.store.is_empty()));
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
    }
}
