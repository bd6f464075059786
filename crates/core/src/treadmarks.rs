//! TreadMarks under the six overlap modes (§3.2, §5.1).
//!
//! Lazy release consistency with lazy diff creation: pages are invalidated
//! by write notices at acquires; the first access to an invalid page
//! collects diffs from the writers named in the pending notices. The
//! overlap modes move work between the computation processor, the protocol
//! controller's core, and the bit-vector DMA engine:
//!
//! * **Base/P** — everything on the computation processor.
//! * **I/I+P** — twin creation, diff generation/application and message
//!   handling on the controller; interval/write-notice processing stays on
//!   the processor (it is "complicated", §3.2).
//! * **I+D/I+P+D** — no twins at all; the snoop hardware keeps dirty-word
//!   bit vectors and the DMA engine generates diffs eagerly when an interval
//!   closes and applies incoming diffs by scatter-gather.
//!
//! The access opening, the acquire-time notice loop and the prefetch policy
//! are shared with AURC ([`Simulation::begin_access`],
//! [`Simulation::process_anns`], [`Simulation::issue_prefetches`]); this
//! module supplies their per-page steps: [`Simulation::tm_notice`],
//! [`Simulation::tm_prefetch_candidates`] and [`Simulation::tm_prefetch`].
//! Unlike AURC, TreadMarks clears a copy's sticky reference bit whenever
//! diffs fill it.

use std::rc::Rc;
use std::sync::Arc;

use ncp2_sim::config::{INTERRUPT, LIST_PROCESSING, PAGE_BYTES, PAGE_WORDS};
use ncp2_sim::{Category, Cycles, MemAccess, ProcReply};

use crate::controller::Controller;
use crate::diff::{Diff, DiffList};
use crate::interval::{IntervalAnnouncement, IvlList};
use crate::msg::Msg;
use crate::observe::ProtocolEvent;
use crate::page::{page_of, word_index, PageBuf, PageId, PageState};
use crate::span::{CtrlCmd, Engine, SpanKind};
use crate::system::{FaultWait, Fill, PrefetchState, Simulation, Wait};
use crate::vtime::{IntervalId, VectorTime};

impl Simulation {
    // ----- the access path -------------------------------------------------

    /// Handles one read/write. `None` means the processor blocked (fault).
    pub(crate) fn tm_access(&mut self, pid: usize, a: MemAccess) -> Option<ProcReply> {
        let page = page_of(a.addr);
        let state = self.tm_page(pid, page).state;
        match state {
            PageState::Invalid => {
                if let Some(ps) = self.nodes[pid].prefetches.get_mut(page) {
                    ps.joined = true;
                    self.nodes[pid].stats.prefetch_joins += 1;
                    self.block(pid, Wait::PrefetchJoin);
                } else {
                    self.tm_start_fault(pid, page);
                }
                None
            }
            PageState::ReadOnly if a.is_write() => {
                if self.mode().hw_diffs() {
                    // Snooping hardware tracks dirty words; no trap needed.
                    self.tm_page(pid, page).state = PageState::ReadWrite;
                } else {
                    self.tm_write_fault(pid, page);
                }
                Some(self.tm_do_access(pid, a))
            }
            _ => Some(self.tm_do_access(pid, a)),
        }
    }

    /// The access itself, on a valid copy: the shared opening, the bytes
    /// moved on the node's copy and, with hardware diffs, the snooped dirty
    /// words.
    fn tm_do_access(&mut self, pid: usize, a: MemAccess) -> ProcReply {
        let page = self.begin_access(pid, a, |nd, page| {
            // invariant: `tm_access` materialized the copy before this
            &mut nd.pages.get_mut(page).expect("accessed copy").refs
        });
        let hw = self.mode().hw_diffs();
        let tp = self.tm_page(pid, page);
        let reply = tp.data.perform(a);
        if a.is_write() {
            debug_assert_eq!(tp.state, PageState::ReadWrite, "write to protected page");
            if hw {
                // The snoop sets one bit per 4-byte word touched.
                let widx = word_index(a.addr);
                for w in 0..(a.bytes as usize).div_ceil(4) {
                    tp.dirty.set(widx + w);
                }
            }
        }
        reply
    }

    /// Software write fault: trap, settle any stale twin into its diff,
    /// create the new twin, unprotect.
    fn tm_write_fault(&mut self, pid: usize, page: PageId) {
        self.advance(pid, INTERRUPT, Category::Other, SpanKind::Interrupt);
        self.nodes[pid].stats.write_faults += 1;
        let t0 = self.nodes[pid].time;
        let after_old_diff = self.tm_force_diff(pid, page, t0);
        let end = self.tm_make_twin(pid, page, after_old_diff);
        self.advance(
            pid,
            after_old_diff - t0,
            Category::Data,
            SpanKind::DiffCreate,
        );
        self.advance(pid, end - after_old_diff, Category::Data, SpanKind::Twin);
        let open = self.open_interval_id(pid);
        let tp = self.tm_page(pid, page);
        let snapshot = tp.data.clone();
        tp.twin = Some((open, snapshot));
        tp.state = PageState::ReadWrite;
    }

    /// Id the open interval will get when it closes.
    fn open_interval_id(&self, pid: usize) -> IntervalId {
        self.nodes[pid].vt.get(pid) + 1
    }

    /// Timing of twin creation starting at `t` (page copy: 5 cycles/word on
    /// the executing engine plus a read+write page pass over memory).
    fn tm_make_twin(&mut self, pid: usize, _page: PageId, t: Cycles) -> Cycles {
        let params = Rc::clone(&self.params);
        let cpu = Controller::TWIN_COST;
        let words = 2 * PAGE_WORDS;
        self.nodes[pid].stats.twin_cycles += cpu;
        if self.mode().offload() {
            let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::Twin, s, e);
            let (_, me) = self.nodes[pid].mem.dram.access(s, words, &params);
            let (_, pe) = self.nodes[pid].mem.pci.burst(s, words);
            e.max(me).max(pe)
        } else {
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let (_, me) = self.nodes[pid].mem.dram.access(t + cpu, words, &params);
            me
        }
    }

    /// If `pid` holds unsettled local modifications of `page` (a twin in the
    /// software modes, dirty bits in the hardware modes), turn them into a
    /// stored diff now. Returns the processor-visible completion time; DMA /
    /// controller work proceeds asynchronously under the I-modes.
    pub(crate) fn tm_force_diff(&mut self, pid: usize, page: PageId, t: Cycles) -> Cycles {
        let params = Rc::clone(&self.params);
        let mode = self.mode();
        if mode.hw_diffs() {
            let open = self.open_interval_id(pid);
            let tp = self.tm_page(pid, page);
            if tp.dirty.is_clean() {
                return t;
            }
            let diff = Diff::from_dirty_vec(page, pid, open, &tp.data, &tp.dirty);
            tp.dirty.clear();
            let words = self.tm_store_diff(t, pid, diff);
            let cpu = Controller::dma_cost(&params, words);
            let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
            let gather = params.mem_scattered(words.max(1));
            let (_, _me) = self.nodes[pid].mem.dram.resource.reserve(s, gather);
            let (_, _pe) = self.nodes[pid].mem.pci.burst(s, words.max(1));
            self.nodes[pid].stats.diff_create_cycles += cpu;
            t + Controller::ISSUE_COST
        } else {
            let Some((tivl, twin)) = self.tm_page(pid, page).twin.take() else {
                return t;
            };
            let diff = Diff::from_twin(page, pid, tivl, &self.tm_page(pid, page).data, &twin);
            self.tm_store_diff(t, pid, diff);
            let cpu = Controller::SW_DIFF_SCAN;
            self.nodes[pid].stats.diff_create_cycles += cpu;
            if mode.offload() {
                let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
                self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
                let (_, _me) = self.nodes[pid].mem.dram.access(s, PAGE_WORDS, &params);
                t + Controller::ISSUE_COST
            } else {
                self.nodes[pid].stats.diff_proc_cycles += cpu;
                let (_, me) = self.nodes[pid]
                    .mem
                    .dram
                    .access(t + cpu, PAGE_WORDS, &params);
                me
            }
        }
    }

    /// Reports a diff just created from `pid`'s copy at `t` and inserts it
    /// into the owner's store, merging with an earlier diff for the same
    /// (page, interval) if an invalidation forced one early. Returns the
    /// words it carries.
    fn tm_store_diff(&mut self, t: Cycles, pid: usize, diff: Diff) -> u64 {
        let (page, interval, words) = (diff.page, diff.interval, diff.word_count());
        let (tp, sinks) = self.tm_page_and_sinks(pid, page);
        sinks.note(
            t,
            pid,
            ProtocolEvent::DiffCreated {
                pid,
                page,
                interval,
                diff: &diff,
                data: &tp.data,
            },
        );
        if !tp.own_intervals.contains(&interval) {
            tp.own_intervals.push(interval);
        }
        self.nodes[pid].diffs.merge_or_insert(diff);
        words
    }

    /// Interval-close bookkeeping for the dirtied pages (called by
    /// [`Simulation::close_interval`]): eager DMA diffs in hardware modes,
    /// write protection (for lazy diffs) in software modes.
    pub(crate) fn tm_close_pages(&mut self, pid: usize, id: IntervalId, pages: &[PageId]) {
        let params = Rc::clone(&self.params);
        let hw = self.mode().hw_diffs();
        for &page in pages {
            let tp = self.tm_page(pid, page);
            tp.refs.dirty = false;
            if tp.state == PageState::Invalid {
                // Invalidated mid-interval: its diff was forced already.
                continue;
            }
            if hw {
                if tp.dirty.is_clean() {
                    continue;
                }
                let diff = Diff::from_dirty_vec(page, pid, id, &tp.data, &tp.dirty);
                tp.dirty.clear();
                self.advance(
                    pid,
                    Controller::ISSUE_COST,
                    Category::Synch,
                    SpanKind::MsgSetup,
                );
                let now = self.nodes[pid].time;
                let words = self.tm_store_diff(now, pid, diff);
                let cpu = Controller::dma_cost(&params, words);
                let (s, e) = self.nodes[pid].ctrl.run(now, cpu);
                self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
                let gather = params.mem_scattered(words.max(1));
                let (_, _me) = self.nodes[pid].mem.dram.resource.reserve(s, gather);
                let (_, _pe) = self.nodes[pid].mem.pci.burst(s, words.max(1));
                self.nodes[pid].stats.diff_create_cycles += cpu;
            } else {
                // Write-protect so the next interval's writes re-fault and
                // settle this twin lazily.
                tp.state = PageState::ReadOnly;
                self.advance(pid, LIST_PROCESSING, Category::Synch, SpanKind::NoticeMgmt);
            }
        }
    }

    // ----- faults -----------------------------------------------------------

    /// Begins diff collection for an invalid page; blocks the processor.
    fn tm_start_fault(&mut self, pid: usize, page: PageId) {
        let now = self.nodes[pid].time;
        self.sinks
            .note(now, pid, ProtocolEvent::Fault { pid, page });
        self.advance(pid, INTERRUPT, Category::Other, SpanKind::Interrupt);
        let mut pending = crate::pool::take_pairs();
        pending.extend_from_slice(&self.tm_page(pid, page).pending);
        pending.sort_unstable();
        assert!(
            !pending.is_empty(),
            "fault on page {page} with no pending notices"
        );
        self.advance(
            pid,
            LIST_PROCESSING * pending.len() as Cycles,
            Category::Data,
            SpanKind::NoticeMgmt,
        );
        let mut t = self.nodes[pid].time;
        let outstanding = self.tm_send_requests(pid, page, &pending, false, |s, owner, msg| {
            s.send_msg(&mut t, pid, owner, msg, Category::Data, false)
        });
        crate::pool::put_pairs(pending);
        self.nodes[pid].time = t;
        self.block(
            pid,
            Wait::Fault(FaultWait {
                page,
                fill: Fill::new(outstanding, t),
            }),
        );
    }

    /// Groups pending notices, sorted, into per-writer requests and hands
    /// each to `send` with its writer, in ascending writer order; flips to a
    /// whole page fetch from the most recent writer when the chain is long.
    /// Returns how many requests were sent.
    fn tm_send_requests(
        &mut self,
        pid: usize,
        page: PageId,
        pending: &[(usize, IntervalId)],
        prefetch: bool,
        mut send: impl FnMut(&mut Self, usize, Msg),
    ) -> usize {
        debug_assert!(pending.is_sorted(), "pending notices must be sorted");
        let want_page_from = if pending.len() > self.params.page_req_threshold {
            pending
                .iter()
                .max_by_key(|&&(o, i)| (self.vt_sum(pid, o, i), o, i))
                .map(|&(o, _)| o)
        } else {
            None
        };
        let requester_vt = self.vt_snapshot(pid);
        let mut sent = 0;
        // Sorted `(owner, interval)` pairs run by ascending owner, with
        // ascending intervals inside each run.
        for run in pending.chunk_by(|a, b| a.0 == b.0) {
            let owner = run[0].0;
            let mut intervals = IvlList::new();
            for &(_, ivl) in run {
                intervals.push(ivl);
            }
            let msg = Msg::DiffReq {
                page,
                intervals,
                requester: pid,
                requester_vt: Arc::clone(&requester_vt),
                prefetch,
                want_page: want_page_from == Some(owner),
            };
            send(self, owner, msg);
            sent += 1;
        }
        sent
    }

    /// A shared snapshot of `pid`'s vector time for its diff requests. The
    /// node keeps the last one and hands it out again while its time is
    /// unchanged; once the time has moved on, a snapshot no request holds
    /// any more is overwritten in place rather than reallocated.
    fn vt_snapshot(&mut self, pid: usize) -> Arc<VectorTime> {
        let nd = &mut self.nodes[pid];
        if let Some(snap) = &mut nd.vt_snapshot {
            if **snap == nd.vt {
                return Arc::clone(snap);
            }
            if let Some(stale) = Arc::get_mut(snap) {
                stale.clone_from(&nd.vt);
                return Arc::clone(snap);
            }
        }
        let snap = Arc::new(nd.vt.clone());
        nd.vt_snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// Linear extension key for causal apply order: the component sum of an
    /// interval's vector time (strictly monotone along causal chains).
    fn vt_sum(&self, pid: usize, owner: usize, ivl: IntervalId) -> u64 {
        self.nodes[pid].store.vt_sum(owner, ivl)
    }

    // ----- servicing diff requests ------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_diff_req(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        intervals: IvlList,
        requester: usize,
        requester_vt: Arc<VectorTime>,
        prefetch: bool,
        want_page: bool,
    ) {
        let params = Rc::clone(&self.params);
        let mode = self.mode();
        let k = intervals.len() as Cycles;
        // Interval processing: on the controller for prefetches under the
        // I-modes (simple table lookups), on the processor otherwise.
        let mut c = if prefetch && mode.offload() {
            let (s, e) = self.nodes[dst].ctrl.run(t, LIST_PROCESSING * k);
            self.note_ctrl(dst, Engine::CtrlCore, CtrlCmd::ListWalk, s, e);
            e
        } else {
            self.interrupt_proc(
                dst,
                t,
                INTERRUPT + LIST_PROCESSING * k,
                Category::Ipc,
                SpanKind::Service,
            )
        };
        self.tm_page(dst, page);
        let mut diffs_out = DiffList::new();
        let mut full: Option<(PageBuf, VectorTime)> = None;
        // A full page is only a sound substitute for diffs when this copy is
        // completely up to date: the reply tags the page with this node's
        // vector time, and the requester skips any diff that time covers.
        // A copy with pending (received-but-unapplied) notices is *missing*
        // intervals the vector time claims, so fall back to plain diffs.
        // Additionally the copy must dominate the requester's history: a
        // page tagged with a vector time that does not cover the requester's
        // would clobber concurrent intervals the requester already applied.
        let clean = self.nodes[dst]
            .pages
            .get(page)
            .is_some_and(|p| p.pending.is_empty())
            && self.nodes[dst].vt.covers(&requester_vt);
        let need_full = (want_page && clean) || {
            intervals.iter().any(|&ivl| {
                !self.nodes[dst].diffs.contains(page, ivl)
                    && !matches!(
                        self.nodes[dst].pages.get(page).and_then(|p| p.twin.as_ref()),
                        Some((tivl, _)) if *tivl == ivl
                    )
            })
        };
        if need_full {
            let (_, e) = self.nodes[dst].mem.dram.access(c, PAGE_WORDS, &params);
            c = e;
            let data = self.nodes[dst]
                .pages
                .get(page)
                // invariant: a whole-page request only reaches a node that
                // has served or written the page (entry created on access)
                .expect("page exists")
                .data
                .clone();
            full = Some((data, self.nodes[dst].vt.clone()));
        } else {
            for &ivl in intervals.iter() {
                // Settle a live twin for this interval even when a partial
                // diff already exists (an invalidation may have forced an
                // early diff and the page was re-dirtied afterwards within
                // the same interval); creation merges into the stored diff.
                let live_twin = matches!(
                    self.nodes[dst].pages.get(page).and_then(|p| p.twin.as_ref()),
                    Some((tivl, _)) if *tivl == ivl
                );
                if live_twin || !self.nodes[dst].diffs.contains(page, ivl) {
                    c = self.tm_create_diff_for_service(dst, page, ivl, c, prefetch);
                }
                diffs_out.push(Arc::clone(
                    self.nodes[dst]
                        .diffs
                        .get(page, ivl)
                        // invariant: stored by the service path just above
                        .expect("diff stored"),
                ));
            }
        }
        let msg = Msg::DiffReply {
            page,
            diffs: diffs_out,
            full_page: full,
            prefetch,
        };
        if mode.offload() {
            self.ctrl_send(c, dst, requester, msg);
        } else {
            let tc = self.interrupt_proc(
                dst,
                c,
                params.messaging_overhead,
                Category::Ipc,
                SpanKind::MsgSetup,
            );
            self.dispatch(tc, dst, requester, msg);
        }
    }

    /// Lazy diff creation while servicing a request (twin comparison).
    fn tm_create_diff_for_service(
        &mut self,
        dst: usize,
        page: PageId,
        ivl: IntervalId,
        t: Cycles,
        _prefetch: bool,
    ) -> Cycles {
        let params = Rc::clone(&self.params);
        let (tivl, twin) = self
            .tm_page(dst, page)
            .twin
            .take()
            // invariant: lazy diff creation is only requested for pages the
            // fault handler twinned earlier in the same interval
            .expect("twin for lazy diff");
        debug_assert_eq!(tivl, ivl, "twin interval mismatch");
        let diff = Diff::from_twin(page, dst, tivl, &self.tm_page(dst, page).data, &twin);
        self.tm_store_diff(t, dst, diff);
        let cpu = Controller::SW_DIFF_SCAN;
        self.nodes[dst].stats.diff_create_cycles += cpu;
        if self.mode().offload() {
            let (s, e) = self.nodes[dst].ctrl.run(t, cpu);
            self.note_ctrl(dst, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
            let (_, me) = self.nodes[dst].mem.dram.access(s, PAGE_WORDS, &params);
            let (_, pe) = self.nodes[dst].mem.pci.burst(s, PAGE_WORDS);
            e.max(me).max(pe)
        } else {
            self.nodes[dst].stats.diff_proc_cycles += cpu;
            let c = self.interrupt_proc(dst, t, cpu, Category::Ipc, SpanKind::DiffCreate);
            let (_, me) = self.nodes[dst].mem.dram.access(c, PAGE_WORDS, &params);
            me
        }
    }

    // ----- receiving diffs ----------------------------------------------------

    pub(crate) fn on_diff_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        diffs: DiffList,
        full_page: Option<(PageBuf, VectorTime)>,
        prefetch: bool,
    ) {
        if prefetch {
            self.tm_prefetch_reply(dst, t, page, diffs, full_page);
            return;
        }
        let fill = {
            let Wait::Fault(f) = &mut self.nodes[dst].wait else {
                // invariant: demand diff replies are only addressed to the
                // blocked requester (message conservation)
                panic!("diff reply for page {page} but processor {dst} is not faulting");
            };
            debug_assert_eq!(f.page, page, "diff reply for the wrong page");
            if !f.fill.absorb(t, diffs, full_page) {
                return;
            }
            std::mem::take(&mut f.fill)
        };
        // A demand fill satisfies every notice the page has queued: it asked
        // for all of them, and the blocked processor queues no new ones.
        self.tm_page(dst, page).pending.clear();
        let (end, cpu) = self.tm_apply_collected(dst, page, fill, &[], false);
        self.sinks.obs_edge(
            crate::span::EdgeKind::FaultFill,
            dst,
            t,
            dst,
            end,
            cpu,
            self.sinks.obs_last_span(dst),
        );
        self.schedule_wake(dst, end);
    }

    fn tm_prefetch_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        diffs: DiffList,
        full_page: Option<(PageBuf, VectorTime)>,
    ) {
        let complete = {
            let Some(ps) = self.nodes[dst].prefetches.get_mut(page) else {
                return; // stale reply for an abandoned prefetch
            };
            ps.fill.absorb(t, diffs, full_page)
        };
        if !complete {
            return;
        }
        let ps = self.nodes[dst]
            .prefetches
            .remove(page)
            // invariant: a prefetch reply matches the outstanding prefetch
            // record that produced the request
            .expect("prefetch state");
        let (end, cpu) = self.tm_apply_collected(dst, page, ps.fill, &ps.requested, true);
        crate::pool::put_pairs(ps.requested);
        self.sinks.note(
            end,
            dst,
            ProtocolEvent::PrefetchCompleted {
                pid: dst,
                page,
                joined: ps.joined,
                transfer: true,
            },
        );
        if ps.joined {
            // Zero prefetch-to-use distance: a fault was already waiting.
            self.sinks.obs_edge(
                crate::span::EdgeKind::PrefetchFill,
                dst,
                t,
                dst,
                end,
                cpu,
                self.sinks.obs_last_span(dst),
            );
            self.schedule_wake(dst, end);
        } else {
            self.tm_page(dst, page).refs.prefetched_unused = true;
        }
    }

    /// Applies a completed fill's diffs (and optionally a whole page) to
    /// `pid`'s copy in causal order, starting at the fill's `ready_at` and
    /// charging the right engine, and drops the notices in `satisfied`
    /// (sorted) from the page's queue. Returns the completion time and the
    /// diff-apply work (cycles) folded into it — the portion a "hardware
    /// diffs" what-if scenario deletes from the fill.
    fn tm_apply_collected(
        &mut self,
        pid: usize,
        page: PageId,
        fill: Fill,
        satisfied: &[(usize, IntervalId)],
        prefetch_ctx: bool,
    ) -> (Cycles, Cycles) {
        let Fill {
            mut diffs,
            full_page: full,
            ready_at: start,
            ..
        } = fill;
        let params = Rc::clone(&self.params);
        let mode = self.mode();
        let mut mem_words: u64 = 0;
        if let Some((data, pvt)) = &full {
            // Words this node wrote concurrently with the page's view must
            // survive the copy: re-apply own uncovered diffs on top.
            let mut own = crate::pool::take_ivls();
            own.extend(
                self.tm_page(pid, page)
                    .own_intervals
                    .iter()
                    .copied()
                    .filter(|&ivl| !pvt.covers_interval(pid, ivl)),
            );
            for &ivl in &own {
                if let Some(d) = self.nodes[pid].diffs.get(page, ivl) {
                    diffs.push(Arc::clone(d));
                }
            }
            crate::pool::put_ivls(own);
            diffs.retain(|d| d.owner == pid || !pvt.covers_interval(d.owner, d.interval));
            self.tm_page(pid, page).data.copy_from(data);
            mem_words += PAGE_WORDS;
            self.sinks
                .note(start, pid, ProtocolEvent::PageFetched { pid, page });
        }
        if diffs.len() > 1 {
            // Causal order. Each diff's key is looked up once, not once per
            // comparison. A fill holds at most one diff per (owner,
            // interval), so keys are unique and an unstable sort is exact.
            let mut keyed = crate::pool::take_keyed();
            let store = &self.nodes[pid].store;
            keyed.extend(
                diffs
                    .drain()
                    .map(|d| (store.vt_sum(d.owner, d.interval), d)),
            );
            keyed.sort_unstable_by_key(|(sum, d)| (*sum, d.owner, d.interval));
            for (_, d) in keyed.drain(..) {
                diffs.push(d);
            }
            crate::pool::put_keyed(keyed);
        }
        let mut cpu: Cycles = 0;
        let mut apply_words: u64 = 0;
        for d in diffs.iter() {
            let words = d.word_count();
            mem_words += words;
            apply_words += words;
            cpu += if mode.hw_diffs() {
                Controller::dma_cost(&params, words)
            } else {
                Controller::sw_diff_apply(words)
            };
        }
        {
            let tp = self.tm_page(pid, page);
            for d in diffs.iter() {
                d.apply(&mut tp.data);
            }
            debug_assert!(satisfied.is_sorted(), "satisfied notices must be sorted");
            tp.pending.retain(|n| satisfied.binary_search(n).is_err());
            // Notices that arrived while the diffs were in flight keep the
            // page invalid: validating it here would let stale data be read
            // without a fault.
            tp.state = if !tp.pending.is_empty() {
                PageState::Invalid
            } else if mode.hw_diffs() {
                PageState::ReadWrite
            } else {
                PageState::ReadOnly
            };
            tp.refs.sticky = false;
        }
        let (tp, sinks) = self.tm_page_and_sinks(pid, page);
        sinks.note(
            start,
            pid,
            ProtocolEvent::DiffsApplied {
                pid,
                page,
                diffs: &diffs,
                words: apply_words,
                data: &tp.data,
            },
        );
        self.nodes[pid].stats.diff_apply_cycles += cpu;
        // The controller (or NI) wrote main memory: the processor snoop
        // invalidates its stale cache lines.
        let base = page * PAGE_BYTES;
        self.nodes[pid].mem.cache.invalidate_page(base, PAGE_BYTES);
        // Timing.
        let scattered = params.mem_scattered(mem_words.max(1));
        let end = if mode.offload() {
            let (s, e) = self.nodes[pid].ctrl.run(start, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffApply, s, e);
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(s, scattered);
            let (_, pe) = self.nodes[pid].mem.pci.burst(s, mem_words.max(1));
            e.max(me).max(pe)
        } else if prefetch_ctx {
            // P mode: the processor is interrupted to apply the prefetch.
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let c = self.interrupt_proc(
                pid,
                start,
                INTERRUPT + cpu,
                Category::Other,
                SpanKind::DiffApply,
            );
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(c, scattered);
            me
        } else {
            // Demand fault in Base/P: the blocked processor applies.
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let c = start + cpu;
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(c, scattered);
            me
        };
        (end, cpu)
    }

    // ----- write notices and prefetches --------------------------------------

    /// The TreadMarks half of the acquire-time notice loop
    /// ([`Simulation::process_anns`]): a foreign interval wrote `page`, seen
    /// at `c`. Settles local modifications, invalidates a valid copy and
    /// queues the notice for the next fault. Returns when the processor is
    /// done with it.
    pub(crate) fn tm_notice(
        &mut self,
        pid: usize,
        ann: &IntervalAnnouncement,
        page: PageId,
        c: Cycles,
    ) -> Cycles {
        // Oracle self-test mutation: drop this write notice on the floor
        // (the page keeps its stale mapping).
        if std::mem::take(&mut self.drop_notice_armed) {
            return c;
        }
        let c = self.tm_force_diff(pid, page, c);
        let tp = self.tm_page(pid, page);
        let invalidated = tp.state != PageState::Invalid;
        let mut wasted = false;
        if invalidated {
            tp.state = PageState::Invalid;
            tp.twin = None;
            wasted = tp.refs.invalidate();
        }
        // Never already queued: the notice loop skips intervals this node
        // has covered and observes the rest, and an announcement names each
        // page once, so one (owner, interval) reaches a page only once.
        let key = (ann.owner, ann.id);
        debug_assert!(!tp.pending.contains(&key), "notice {key:?} queued twice");
        tp.pending.push(key);
        self.note_notice(c, pid, ann, page, invalidated, wasted);
        c + LIST_PROCESSING
    }

    /// TreadMarks prefetch candidates ([`Simulation::issue_prefetches`]):
    /// invalid copies with notices to fetch diffs for, no prefetch in
    /// flight, and a reference history `strategy` wants, in page order.
    pub(crate) fn tm_prefetch_candidates(
        &self,
        pid: usize,
        strategy: ncp2_sim::PrefetchStrategy,
    ) -> Vec<PageId> {
        let nd = &self.nodes[pid];
        nd.pages
            .iter()
            .filter(|(page, tp)| {
                tp.state == PageState::Invalid
                    && tp.refs.wanted(strategy)
                    && !tp.pending.is_empty()
                    && !nd.prefetches.contains(*page)
            })
            .map(|(page, _)| page)
            .collect()
    }

    /// Issues the diff prefetch for `page` at `c`, one request per writer
    /// (on the controller under the I-modes). Returns the issue time.
    pub(crate) fn tm_prefetch(&mut self, pid: usize, page: PageId, mut c: Cycles) -> Cycles {
        let offload = self.mode().offload();
        let setup = if offload {
            Controller::ISSUE_COST
        } else {
            self.params.messaging_overhead
        };
        let mut pending = crate::pool::take_pairs();
        pending.extend_from_slice(&self.tm_page(pid, page).pending);
        pending.sort_unstable();
        let outstanding = self.tm_send_requests(pid, page, &pending, true, |s, owner, msg| {
            c += setup;
            if offload {
                s.ctrl_send(c, pid, owner, msg);
            } else {
                s.dispatch(c, pid, owner, msg);
            }
        });
        self.nodes[pid].prefetches.insert(
            page,
            PrefetchState {
                fill: Fill::new(outstanding, c),
                requested: pending,
                joined: false,
            },
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ncp2_sim::SysParams;

    use crate::interval::IvlList;
    use crate::msg::Msg;
    use crate::page::PageState;
    use crate::protocol::{OverlapMode, Protocol};
    use crate::system::{Ev, Simulation};
    use crate::vtime::VectorTime;

    fn sim(n: usize) -> Simulation {
        Simulation::new(
            SysParams::default().with_nprocs(n),
            Protocol::TreadMarks(OverlapMode::IPD),
        )
    }

    fn requester_vt(msg: &Msg) -> &Arc<VectorTime> {
        match msg {
            Msg::DiffReq { requester_vt, .. } => requester_vt,
            other => panic!("not a diff request: {other:?}"),
        }
    }

    /// The requests node 0 would send for page 7, captured unsent.
    fn requests(s: &mut Simulation, pending: &[(usize, u32)], prefetch: bool) -> Vec<Msg> {
        let mut out = Vec::new();
        s.tm_send_requests(0, 7, pending, prefetch, |_, _, msg| out.push(msg));
        out
    }

    #[test]
    fn diff_requests_of_one_batch_share_one_vector_time() {
        let mut s = sim(16);
        let pending = [(1, 1), (2, 1), (2, 2), (3, 1)];
        let batch = requests(&mut s, &pending, false);
        assert_eq!(batch.len(), 3, "one request per writer");
        let first = requester_vt(&batch[0]);
        assert_eq!(**first, s.nodes[0].vt);
        for msg in &batch {
            assert!(Arc::ptr_eq(requester_vt(msg), first));
        }
        // While the vector time is unchanged, later batches reuse it.
        let again = requests(&mut s, &pending, true);
        assert!(Arc::ptr_eq(requester_vt(&again[0]), first));
        // Once it moves on, requests carry the new time and the snapshot
        // the earlier batches hold stays as it was.
        let old = Arc::clone(first);
        s.nodes[0].vt.bump(0);
        let moved = requests(&mut s, &pending, false);
        assert_eq!(**requester_vt(&moved[0]), s.nodes[0].vt);
        assert_eq!(*old, VectorTime::new(16));
    }

    #[test]
    fn merge_leaves_a_queued_replys_diff_unchanged() {
        let mut s = sim(2);
        let write = |s: &mut Simulation, word: usize, value: u64| {
            let tp = s.tm_page(1, 5);
            tp.state = PageState::ReadWrite;
            tp.data.write(4 * word, 4, value);
            tp.dirty.set(word);
        };
        // Node 1 writes page 5 and settles the write into a stored diff for
        // its open interval 1.
        write(&mut s, 3, 0xAA);
        s.tm_force_diff(1, 5, 0);
        // Node 0 asks for it: the queued reply holds the stored diff.
        let mut intervals = IvlList::new();
        intervals.push(1);
        let vt = Arc::new(VectorTime::new(2));
        s.on_diff_req(1, 0, 5, intervals, 0, vt, false, false);
        // Node 1 writes again in the same interval and settles again, which
        // merges into the stored diff.
        write(&mut s, 4, 0xBB);
        s.tm_force_diff(1, 5, 0);
        let stored = s.nodes[1].diffs.get(5, 1).expect("stored diff");
        assert_eq!(stored.entries(), &[(3, 0xAA), (4, 0xBB)]);
        let reply = std::iter::from_fn(|| s.queue.pop())
            .find_map(|ev| match ev.payload {
                Ev::Msg {
                    msg: Msg::DiffReply { diffs, .. },
                    ..
                } => Some(diffs),
                _ => None,
            })
            .expect("queued reply");
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].entries(), &[(3, 0xAA)], "the reply saw the merge");
    }
}
