//! AURC — automatic-update release consistency (§3.3).
//!
//! Shrimp-style network interfaces snoop write-throughs and forward them to
//! a remote mapping, combining consecutive updates in a small write cache.
//! Two sharers of a page map it bi-directionally (*pairwise sharing*: no
//! faults, no fetches); a page with more sharers gets a home node that
//! merges all updates, and every other sharer invalidates on acquire and
//! re-fetches the page from home on its next access.
//!
//! Modelling notes (see DESIGN.md): the data plane is a single master copy —
//! automatic updates are timing-only events, which is exact for
//! data-race-free programs. Timestamps are modelled operationally: every
//! node tracks, per destination, the arrival horizon of the updates it has
//! emitted; acquires wait for the releaser's horizon and home-page fetches
//! wait for the home's per-page horizon (the paper's flush/lock timestamp
//! comparison).
//!
//! The access opening, the acquire-time notice loop and the prefetch policy
//! are shared with TreadMarks ([`Simulation::begin_access`],
//! [`Simulation::process_anns`], [`Simulation::issue_prefetches`]); this
//! module supplies their per-page steps: [`Simulation::aurc_notice`],
//! [`Simulation::aurc_prefetch_candidates`] and [`Simulation::aurc_prefetch`].
//! Automatic updates share the untransported wire send
//! ([`Simulation::send_on_wire`]) and never enter the hardened transport.

use ncp2_sim::{Category, Cycles, MemAccess, ProcReply};

use crate::interval::IntervalAnnouncement;
use crate::msg::Msg;
use crate::observe::ProtocolEvent;
use crate::page::{page_of, PageId};
use crate::span::SpanKind;
use crate::system::{AurcMode, InsertOutcome, Simulation, Wait};

impl Simulation {
    // ----- the access path --------------------------------------------------

    /// Handles one read/write under AURC. `None` means the processor blocked
    /// on a page fetch.
    pub(crate) fn aurc_access(&mut self, pid: usize, acc: MemAccess) -> Option<ProcReply> {
        let page = page_of(acc.addr, self.params.page_bytes);
        // Sharing-mode transition on first access by a new processor.
        let mode = self.aurc_modes.get(page).copied();
        let (new_mode, fetch_from) = match mode {
            None => (AurcMode::Single(pid), None),
            Some(AurcMode::Single(a)) if a == pid => (AurcMode::Single(a), None),
            Some(AurcMode::Single(a)) if self.params.aurc_pairwise => {
                (AurcMode::Pairwise(a, pid, false), Some(a))
            }
            Some(AurcMode::Single(a)) => {
                // Ablation: pairwise disabled — a second sharer goes straight
                // to home mode.
                (AurcMode::Home(self.aurc_hash_home(page)), Some(a))
            }
            Some(AurcMode::Pairwise(a, b, r)) if a == pid || b == pid => {
                (AurcMode::Pairwise(a, b, r), None)
            }
            Some(AurcMode::Pairwise(a, b, false)) => {
                // Third sharer replaces the first (§3.3); the replaced node
                // re-joins through the home path if it comes back.
                self.nodes[a]
                    .aurc_pages
                    .get_or_default(page)
                    .set_valid(false);
                (AurcMode::Pairwise(b, pid, true), Some(b))
            }
            Some(AurcMode::Pairwise(a, _, true)) => {
                // A fourth sharer: revert to write-through to the page's
                // hashed home node. The last pair members keep valid
                // copies.
                let home = self.aurc_hash_home(page);
                (
                    AurcMode::Home(home),
                    Some(if home == pid { a } else { home }),
                )
            }
            Some(AurcMode::Home(h)) => (AurcMode::Home(h), None),
        };
        self.aurc_modes.insert(page, new_mode);
        let local_valid = {
            let lp = self.nodes[pid].aurc_pages.get_or_default(page);
            match new_mode {
                AurcMode::Single(a) if a == pid => {
                    lp.set_valid(true);
                    true
                }
                AurcMode::Pairwise(a, b, _) if (a == pid || b == pid) && fetch_from.is_none() => {
                    lp.valid()
                }
                AurcMode::Home(h) if h == pid => {
                    lp.set_valid(true);
                    true
                }
                _ => lp.valid() && fetch_from.is_none(),
            }
        };
        if !local_valid {
            let target = match (fetch_from, new_mode) {
                (Some(src), _) => src,
                (None, AurcMode::Home(h)) => h,
                (None, AurcMode::Pairwise(a, b, _)) => {
                    // A pair member with an invalid copy (it was displaced
                    // earlier): escalate to home mode at the other member.
                    let home = if a == pid { b } else { a };
                    self.aurc_modes.insert(page, AurcMode::Home(home));
                    home
                }
                (None, AurcMode::Single(_)) => unreachable!("single owner is always valid"),
            };
            if self.nodes[pid]
                .aurc_pages
                .get(page)
                .is_some_and(|lp| lp.prefetching())
            {
                self.nodes[pid]
                    .aurc_pages
                    .get_mut(page)
                    // invariant: the joining access created the entry above
                    .expect("entry")
                    .set_joined(true);
                self.nodes[pid].stats.prefetch_joins += 1;
                self.block(pid, Wait::AurcFault { page });
            } else {
                self.aurc_start_fetch(pid, page, target, false);
                self.block(pid, Wait::AurcFault { page });
            }
            return None;
        }
        Some(self.aurc_do_access(pid, acc))
    }

    /// The statically assigned home of `page` in home mode. AURC homes data
    /// and directory by a page-id hash, so block-partitioned arrays do not
    /// land on their own writers.
    fn aurc_hash_home(&self, page: PageId) -> usize {
        // overflow: Fibonacci-hash multiply — wraparound is the mixing step.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.params.nprocs
    }

    /// The home of `page` when it is in home mode and `pid` is not it: the
    /// pages whose copy at `pid` a write notice invalidates and a prefetch
    /// can refill.
    fn aurc_remote_home(&self, pid: usize, page: PageId) -> Option<usize> {
        match self.aurc_modes.get(page) {
            Some(&AurcMode::Home(h)) if h != pid => Some(h),
            _ => None,
        }
    }

    /// The access itself, on a valid copy: the shared opening, the bytes
    /// moved on the master copy and, for a write to a shared page, an
    /// automatic update through the write cache.
    fn aurc_do_access(&mut self, pid: usize, acc: MemAccess) -> ProcReply {
        let page = self.begin_access(pid, acc, |nd, page| {
            &mut nd.aurc_pages.get_or_default(page).refs
        });
        let reply = self.master_page(page).perform(acc);
        if acc.is_write() {
            // invariant: the faulting access classified the page before blocking
            let mode = *self.aurc_modes.get(page).expect("mode set by access path");
            let update_dst = match mode {
                AurcMode::Single(_) => None,
                AurcMode::Pairwise(a, b, _) => Some(if pid == a { b } else { a }),
                AurcMode::Home(h) if h != pid => Some(h),
                AurcMode::Home(_) => None,
            };
            if let Some(dst) = update_dst {
                let line = acc.addr / self.params.line_bytes;
                match self.nodes[pid].wcache.insert(line, dst) {
                    InsertOutcome::Combined => self.nodes[pid].stats.au_combined += 1,
                    InsertOutcome::Inserted {
                        evicted: Some((eline, edst)),
                    } => {
                        self.aurc_emit_update(pid, eline, edst, Category::Other);
                    }
                    InsertOutcome::Inserted { evicted: None } => {}
                }
            }
        }
        reply
    }

    /// Ships one combined write-cache line as an automatic update. Charges
    /// the per-update overhead to the processor (1 cycle by default — the
    /// paper's optimistic assumption; the §5.3 sweep raises it). Updates go
    /// straight on the wire, never through the hardened transport: a fault
    /// plan neither drops nor retransmits them, and their arrival feeds the
    /// per-destination horizon acquires wait for.
    fn aurc_emit_update(&mut self, pid: usize, line: u64, dst: usize, cat: Category) {
        let oh = self.params.au_messaging_overhead;
        self.advance(pid, oh, cat, SpanKind::UpdateFlush);
        // The outgoing line crosses the sender's PCI bus to the NI.
        let now = self.nodes[pid].time;
        let words = self.params.line_words();
        let (_, t) = self.nodes[pid].mem.pci.burst(now, words, &self.params);
        let page = line * self.params.line_bytes / self.params.page_bytes;
        let arrival = self.send_on_wire(t, pid, dst, Msg::AurcUpdate { page, from: pid });
        let horizon = &mut self.nodes[pid].out_horizon[dst];
        *horizon = (*horizon).max(arrival);
    }

    /// Release-time write-cache flush (the paper's flush timestamps): every
    /// buffered line goes on the wire before the release can be observed.
    pub(crate) fn aurc_flush_wcache(&mut self, pid: usize, cat: Category) {
        let entries = self.nodes[pid].wcache.flush();
        for (line, dst) in entries {
            self.aurc_emit_update(pid, line, dst, cat);
        }
    }

    // ----- page fetches -------------------------------------------------------

    fn aurc_start_fetch(&mut self, pid: usize, page: PageId, target: usize, prefetch: bool) {
        if !prefetch {
            let now = self.nodes[pid].time;
            self.sinks
                .note(now, pid, ProtocolEvent::Fault { pid, page });
            self.advance(
                pid,
                self.params.interrupt,
                Category::Other,
                SpanKind::Interrupt,
            );
        }
        let msg = Msg::AurcPageReq {
            page,
            requester: pid,
            prefetch,
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, target, msg, Category::Data, false);
        self.nodes[pid].time = t;
    }

    pub(crate) fn on_aurc_page_req(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        requester: usize,
        prefetch: bool,
    ) {
        let params = self.params.clone();
        // AURC has no protocol controller: the home processor services every
        // fetch — including useless prefetches, the paper's AURC+P poison.
        let c0 = self.interrupt_proc(dst, t, params.interrupt, Category::Ipc, SpanKind::Service);
        let horizon = self.nodes[dst].home_horizon.get(page).copied().unwrap_or(0);
        let start = c0.max(horizon);
        let (_, mem_read) = self.nodes[dst]
            .mem
            .dram
            .access(start, params.page_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .pci
            .burst(mem_read, params.page_words(), &params);
        let c1 = self.interrupt_proc(
            dst,
            mem_end,
            params.messaging_overhead,
            Category::Ipc,
            SpanKind::MsgSetup,
        );
        self.dispatch(c1, dst, requester, Msg::AurcPageReply { page, prefetch });
    }

    pub(crate) fn on_aurc_page_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        prefetch: bool,
    ) {
        let params = self.params.clone();
        let (_, pci_end) = self.nodes[dst]
            .mem
            .pci
            .burst(t, params.page_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .dram
            .access(pci_end, params.page_words(), &params);
        let base = page * params.page_bytes;
        self.nodes[dst]
            .mem
            .cache
            .invalidate_page(base, params.page_bytes);
        self.sinks
            .note(t, dst, ProtocolEvent::PageFetched { pid: dst, page });
        let joined = {
            let lp = self.nodes[dst].aurc_pages.get_or_default(page);
            if prefetch {
                lp.set_prefetching(false);
                let stale = lp.take_prefetch_stale();
                if !stale {
                    lp.set_valid(true);
                }
                let joined = lp.take_joined();
                lp.refs.prefetched_unused = !stale && !joined;
                joined
            } else {
                lp.set_valid(true);
                true
            }
        };
        if prefetch {
            // The transfer itself was already attributed by the page fetch
            // reported above.
            self.sinks.note(
                mem_end,
                dst,
                ProtocolEvent::PrefetchCompleted {
                    pid: dst,
                    page,
                    joined,
                    transfer: false,
                },
            );
        }
        if joined {
            debug_assert!(
                matches!(self.nodes[dst].wait, Wait::AurcFault { page: p } if p == page)
                    || !prefetch,
                "prefetch join without a matching fault"
            );
            let ekind = if prefetch {
                crate::span::EdgeKind::PrefetchFill
            } else {
                crate::span::EdgeKind::FaultFill
            };
            self.sinks.obs_edge(
                ekind,
                dst,
                t,
                dst,
                mem_end,
                0,
                self.sinks.obs_last_span(dst),
            );
            self.schedule_wake(dst, mem_end);
        }
    }

    pub(crate) fn on_aurc_update(&mut self, dst: usize, t: Cycles, page: PageId) {
        // The NI moves the line across the PCI bus into local memory
        // (both contended) and the per-page horizon advances.
        let params = self.params.clone();
        let (_, pci_end) = self.nodes[dst]
            .mem
            .pci
            .burst(t, params.line_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .dram
            .access(pci_end, params.line_words(), &params);
        let h = self.nodes[dst].home_horizon.get_or_default(page);
        *h = (*h).max(mem_end);
    }

    // ----- write notices and prefetches ----------------------------------------

    /// The AURC half of the acquire-time notice loop
    /// ([`Simulation::process_anns`]): a foreign interval wrote `page`, seen
    /// at `c`. Only a non-home copy of a home-mode page is invalidated;
    /// pairwise copies are kept up to date by the automatic updates.
    /// Returns when the processor is done with it.
    pub(crate) fn aurc_notice(
        &mut self,
        pid: usize,
        ann: &IntervalAnnouncement,
        page: PageId,
        c: Cycles,
    ) -> Cycles {
        let c = c + self.params.list_processing;
        if self.aurc_remote_home(pid, page).is_none() {
            return c;
        }
        let lp = self.nodes[pid].aurc_pages.get_or_default(page);
        let had_copy = lp.valid();
        lp.set_valid(false);
        if lp.prefetching() {
            lp.set_prefetch_stale(true);
        }
        let wasted = lp.refs.invalidate();
        self.note_notice(c, pid, ann, page, had_copy, wasted);
        c
    }

    /// AURC+P prefetch candidates ([`Simulation::issue_prefetches`]):
    /// invalid non-home copies of home-mode pages with no prefetch in
    /// flight and a reference history `strategy` wants, in page order.
    pub(crate) fn aurc_prefetch_candidates(
        &self,
        pid: usize,
        strategy: ncp2_sim::PrefetchStrategy,
    ) -> Vec<PageId> {
        self.nodes[pid]
            .aurc_pages
            .iter()
            .filter(|&(page, lp)| {
                !lp.valid()
                    && lp.refs.wanted(strategy)
                    && !lp.prefetching()
                    && self.aurc_remote_home(pid, page).is_some()
            })
            .map(|(page, _)| page)
            .collect()
    }

    /// Requests `page` from its home at `c`, on the processor (AURC has no
    /// controller to hide behind). Returns the issue time.
    pub(crate) fn aurc_prefetch(&mut self, pid: usize, page: PageId, c: Cycles) -> Cycles {
        // invariant: the candidate scan just found the page homed elsewhere
        let home = self.aurc_remote_home(pid, page).expect("remote home");
        let c = c + self.params.messaging_overhead;
        let msg = Msg::AurcPageReq {
            page,
            requester: pid,
            prefetch: true,
        };
        self.dispatch(c, pid, home, msg);
        // invariant: the candidate scan read this entry just above
        let lp = self.nodes[pid].aurc_pages.get_mut(page).expect("entry");
        lp.set_prefetching(true);
        lp.set_prefetch_stale(false);
        lp.set_joined(false);
        c
    }
}
