//! Windowed time-series telemetry over **simulated cycles**.
//!
//! The aggregate counters in [`NodeStats`](crate::NodeStats) and
//! [`FaultStats`](crate::FaultStats) answer *how much* — this module answers
//! *when*. A [`TsRecorder`] slices the run into fixed-width windows of
//! simulated time and accumulates, per window:
//!
//! * **counters** ([`TsCounter`]) — deltas charged into the window where the
//!   triggering event happened (page fetches, diffs created/applied and their
//!   byte volume, invalidations, lock acquires, barrier releases, prefetch
//!   issue/fill/shed, retransmits, frames, messages and message bytes);
//! * **gauges** ([`TsGauge`]) — the maximum instantaneous value observed at
//!   any sample point inside the window (event-queue depth, in-flight
//!   transport frames, lock wait-queue length, barrier wait population);
//! * **controller occupancy** — busy cycles of each node's protocol
//!   controller, clipped across window boundaries so a span contributes to
//!   every window it overlaps;
//! * **per-link series** — retransmits and peak in-flight frames per
//!   directed `(src, dst)` link;
//! * **hot-spot attribution** — per-page transfer/diff-byte/invalidation
//!   totals and per-lock wait-cycle/acquire/owner-migration totals.
//!
//! Sampling is **charge-driven, not clock-driven**: the recorder never
//! schedules events of its own; it is one sink of the reported protocol
//! facts ([`ProtocolEvent`]). That makes it inert by construction (no
//! simulated timing changes) and gives the conservation law the test suite
//! holds it to: [`ProtocolEvent::counts`] is the one table saying which
//! counters a fact charges, and both this recorder and the end-of-run
//! aggregates are fed from it, so for every counter the sum of window deltas
//! equals the final aggregate exactly, at any window width.
//!
//! **Window model.** The width is either fixed ([`SysParams::ts_window`]
//! &gt; 0) or auto-picked: the recorder starts at [`TS_BASE_WIDTH`] and, when
//! an event lands past window [`TS_MAX_WINDOWS`], merges adjacent window
//! pairs and doubles the width. Window `i` at width `w` covers exactly the
//! half-open cycle range `[i*w, (i+1)*w)`, so a pairwise merge at `2w` is
//! exact: counters/occupancy/link-retransmits add, gauges/link-inflight take
//! the max. Totals are therefore invariant to the width the run ends at.
//!
//! [`SysParams::ts_window`]: ncp2_sim::SysParams

use std::collections::BTreeMap;

use ncp2_sim::Cycles;

use crate::observe::ProtocolEvent;
use crate::page::PageId;

/// Default window width (cycles) the auto mode starts from.
pub const TS_BASE_WIDTH: Cycles = 1024;

/// Auto mode keeps at most this many windows, doubling the width whenever a
/// run outgrows them. Fixed-width mode (`SysParams::ts_window > 0`) is
/// unbounded.
pub const TS_MAX_WINDOWS: usize = 256;

/// Windowed event counters. Each has exactly one end-of-run aggregate it
/// conserves against (see `timeseries_conservation.rs` in ncp2-bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsCounter {
    /// Whole-page fetches (TreadMarks overflow path or AURC page reply).
    PageFetches,
    /// Diffs created (processor, controller or DMA).
    DiffsCreated,
    /// Diffs applied to a local page copy.
    DiffsApplied,
    /// Bytes of diff data created.
    DiffBytesCreated,
    /// Bytes of diff data applied.
    DiffBytesApplied,
    /// Pages invalidated by write notices.
    Invalidations,
    /// Lock acquires completed.
    LockAcquires,
    /// Barrier episodes completed (releases, counted per node).
    Barriers,
    /// Prefetches issued.
    PrefetchIssued,
    /// Prefetch replies that filled a page (completed prefetches).
    PrefetchFills,
    /// Prefetch commands shed by the degradation policy.
    PrefetchShed,
    /// Transport retransmissions (ack timeout).
    Retransmits,
    /// Data-frame transmissions, including retransmissions.
    FramesSent,
    /// Logical protocol messages injected into the network.
    Messages,
    /// Payload bytes of those messages.
    MessageBytes,
}

impl TsCounter {
    /// Number of counters (array dimension of [`WindowRow::counters`]).
    pub const COUNT: usize = 15;

    /// Every counter, in rendering order (= discriminant order).
    pub const ALL: [TsCounter; Self::COUNT] = [
        TsCounter::PageFetches,
        TsCounter::DiffsCreated,
        TsCounter::DiffsApplied,
        TsCounter::DiffBytesCreated,
        TsCounter::DiffBytesApplied,
        TsCounter::Invalidations,
        TsCounter::LockAcquires,
        TsCounter::Barriers,
        TsCounter::PrefetchIssued,
        TsCounter::PrefetchFills,
        TsCounter::PrefetchShed,
        TsCounter::Retransmits,
        TsCounter::FramesSent,
        TsCounter::Messages,
        TsCounter::MessageBytes,
    ];

    /// Stable snake_case label used by the exporters and assertion grammar.
    pub fn label(self) -> &'static str {
        match self {
            TsCounter::PageFetches => "page_fetches",
            TsCounter::DiffsCreated => "diffs_created",
            TsCounter::DiffsApplied => "diffs_applied",
            TsCounter::DiffBytesCreated => "diff_bytes_created",
            TsCounter::DiffBytesApplied => "diff_bytes_applied",
            TsCounter::Invalidations => "invalidations",
            TsCounter::LockAcquires => "lock_acquires",
            TsCounter::Barriers => "barriers",
            TsCounter::PrefetchIssued => "prefetch_issued",
            TsCounter::PrefetchFills => "prefetch_fills",
            TsCounter::PrefetchShed => "prefetch_shed",
            TsCounter::Retransmits => "retransmits",
            TsCounter::FramesSent => "frames_sent",
            TsCounter::Messages => "messages",
            TsCounter::MessageBytes => "message_bytes",
        }
    }
}

impl ProtocolEvent<'_> {
    /// The windowed counters this fact charges, as `(counter, cycle,
    /// amount)`: the one table behind both the time series and the
    /// end-of-run aggregates. Most facts charge at their own cycle `t`;
    /// lock and barrier completions charge where the grant or release
    /// arrived.
    pub(crate) fn counts(&self, t: Cycles, mut charge: impl FnMut(TsCounter, Cycles, u64)) {
        use ProtocolEvent as E;
        match *self {
            E::PageFetched { .. } => charge(TsCounter::PageFetches, t, 1),
            E::DiffCreated { diff, .. } => {
                charge(TsCounter::DiffsCreated, t, 1);
                charge(TsCounter::DiffBytesCreated, t, 4 * diff.word_count());
            }
            E::DiffsApplied { diffs, words, .. } => {
                charge(TsCounter::DiffsApplied, t, diffs.len() as u64);
                charge(TsCounter::DiffBytesApplied, t, 4 * words);
            }
            E::NoticeRecorded {
                invalidated: true, ..
            } => charge(TsCounter::Invalidations, t, 1),
            E::LockAcquired { granted, .. } => charge(TsCounter::LockAcquires, granted, 1),
            E::BarrierCompleted { released, .. } => charge(TsCounter::Barriers, released, 1),
            E::PrefetchIssued { .. } => charge(TsCounter::PrefetchIssued, t, 1),
            E::PrefetchCompleted { .. } => charge(TsCounter::PrefetchFills, t, 1),
            E::PrefetchShed { .. } => charge(TsCounter::PrefetchShed, t, 1),
            E::Retransmit { .. } => charge(TsCounter::Retransmits, t, 1),
            E::FrameSent { bytes, .. } => {
                charge(TsCounter::FramesSent, t, 1);
                charge(TsCounter::Messages, t, 1);
                charge(TsCounter::MessageBytes, t, bytes);
            }
            E::MsgSent {
                bytes,
                wire: Some(_),
                ..
            }
            | E::AckSent { bytes, .. } => {
                charge(TsCounter::Messages, t, 1);
                charge(TsCounter::MessageBytes, t, bytes);
            }
            _ => {}
        }
    }
}

/// Windowed gauges: each window stores the **maximum** value observed at any
/// sample point inside it (merging windows takes the max again, so peaks
/// survive width doubling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsGauge {
    /// Event-queue depth, sampled at every event dispatch.
    QueueDepth,
    /// Total unacknowledged transport frames in flight.
    InflightFrames,
    /// Length of the longest lock wait queue at a sample point.
    LockWaiters,
    /// Nodes parked at a barrier at a sample point.
    BarrierWaiters,
    /// Open-loop service backlog (arrived but not yet served requests),
    /// sampled at every service dequeue.
    SvcQueueDepth,
}

impl TsGauge {
    /// Number of gauges (array dimension of [`WindowRow::gauges`]).
    pub const COUNT: usize = 5;

    /// Every gauge, in rendering order (= discriminant order).
    pub const ALL: [TsGauge; Self::COUNT] = [
        TsGauge::QueueDepth,
        TsGauge::InflightFrames,
        TsGauge::LockWaiters,
        TsGauge::BarrierWaiters,
        TsGauge::SvcQueueDepth,
    ];

    /// Stable snake_case label used by the exporters and assertion grammar.
    pub fn label(self) -> &'static str {
        match self {
            TsGauge::QueueDepth => "queue_depth",
            TsGauge::InflightFrames => "inflight_frames",
            TsGauge::LockWaiters => "lock_waiters",
            TsGauge::BarrierWaiters => "barrier_waiters",
            TsGauge::SvcQueueDepth => "svc_queue_depth",
        }
    }
}

/// One window of the run: counter deltas plus gauge maxima.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRow {
    /// Event-count deltas, indexed by `TsCounter as usize`.
    pub counters: [u64; TsCounter::COUNT],
    /// Peak values, indexed by `TsGauge as usize`.
    pub gauges: [u64; TsGauge::COUNT],
}

impl WindowRow {
    fn merge(a: WindowRow, b: WindowRow) -> WindowRow {
        let mut out = a;
        for (o, v) in out.counters.iter_mut().zip(b.counters) {
            *o += v;
        }
        for (o, v) in out.gauges.iter_mut().zip(b.gauges) {
            *o = (*o).max(v);
        }
        out
    }
}

/// Whole-run attribution for one page (hot-spot table rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageHot {
    /// Page-delivery events for this page: whole-page fetches plus completed
    /// TreadMarks prefetches (whose fill may be diffs rather than a page).
    pub transfers: u64,
    /// Diff bytes moved for this page (created + applied).
    pub diff_bytes: u64,
    /// Times this page was invalidated by a write notice.
    pub invalidations: u64,
}

/// Whole-run attribution for one lock (hot-spot table rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockHot {
    /// Cycles nodes spent blocked waiting for this lock.
    pub wait_cycles: Cycles,
    /// Acquires of this lock.
    pub acquires: u64,
    /// Grants where the lock moved to a different node than the previous
    /// holder (owner migrations — the expensive case).
    pub owner_migrations: u64,
}

/// The finished time series of one run, attached to
/// [`RunResult::ts`](crate::RunResult) when recording was enabled.
///
/// All per-window vectors have the same length `windows.len()`:
/// `occupancy[node]` and every link series are padded with zeros out to the
/// run's final window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TsLog {
    /// Final window width, cycles. Window `i` covers `[i*width, (i+1)*width)`.
    pub width: Cycles,
    /// One row per window.
    pub windows: Vec<WindowRow>,
    /// Controller busy cycles: `occupancy[node][window]`.
    pub occupancy: Vec<Vec<Cycles>>,
    /// Retransmits per directed link per window.
    pub link_retransmits: BTreeMap<(usize, usize), Vec<u64>>,
    /// Peak in-flight frames per directed link per window.
    pub link_inflight: BTreeMap<(usize, usize), Vec<u64>>,
    /// Per-page hot-spot attribution.
    pub pages: BTreeMap<PageId, PageHot>,
    /// Per-lock hot-spot attribution.
    pub locks: BTreeMap<u64, LockHot>,
}

impl TsLog {
    /// The per-window deltas of one counter.
    pub fn counter_series(&self, c: TsCounter) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.counters[c as usize])
            .collect()
    }

    /// Sum of one counter's window deltas — by the conservation law, equal
    /// to the end-of-run aggregate.
    pub fn counter_total(&self, c: TsCounter) -> u64 {
        self.windows.iter().map(|w| w.counters[c as usize]).sum()
    }

    /// The per-window maxima of one gauge.
    pub fn gauge_series(&self, g: TsGauge) -> Vec<u64> {
        self.windows.iter().map(|w| w.gauges[g as usize]).collect()
    }
}

/// Accumulates the time series during a run; [`TsRecorder::into_log`]
/// finalizes it. Poked only from aggregate-bump call sites — it never
/// schedules simulated events and never touches simulated time.
#[derive(Debug)]
pub struct TsRecorder {
    width: Cycles,
    auto: bool,
    nprocs: usize,
    rows: Vec<WindowRow>,
    /// `occ[window][node]` during recording; transposed on finalize.
    occ: Vec<Vec<Cycles>>,
    link_retx: BTreeMap<(usize, usize), Vec<u64>>,
    link_inflight: BTreeMap<(usize, usize), Vec<u64>>,
    inflight_now: BTreeMap<(usize, usize), u64>,
    inflight_total: u64,
    pages: BTreeMap<PageId, PageHot>,
    locks: BTreeMap<u64, LockHot>,
}

impl TsRecorder {
    /// `fixed_width == 0` selects auto mode (start at [`TS_BASE_WIDTH`],
    /// double on overflow past [`TS_MAX_WINDOWS`]).
    pub fn new(nprocs: usize, fixed_width: Cycles) -> Self {
        TsRecorder {
            width: if fixed_width == 0 {
                TS_BASE_WIDTH
            } else {
                fixed_width
            },
            auto: fixed_width == 0,
            nprocs,
            rows: Vec::new(),
            occ: Vec::new(),
            link_retx: BTreeMap::new(),
            link_inflight: BTreeMap::new(),
            inflight_now: BTreeMap::new(),
            inflight_total: 0,
            pages: BTreeMap::new(),
            locks: BTreeMap::new(),
        }
    }

    /// Window index holding cycle `t`, growing (and in auto mode merging)
    /// the series as needed.
    fn window(&mut self, t: Cycles) -> usize {
        if self.auto {
            while t / self.width >= TS_MAX_WINDOWS as Cycles {
                self.merge_down();
            }
        }
        let idx = (t / self.width) as usize;
        if self.rows.len() <= idx {
            self.rows.resize_with(idx + 1, WindowRow::default);
            self.occ.resize_with(idx + 1, || vec![0; self.nprocs]);
        }
        idx
    }

    /// Halve the resolution: merge adjacent window pairs and double the
    /// width. Exact because window `i` at width `w` covers `[i*w, (i+1)*w)`,
    /// so pair `(2j, 2j+1)` is precisely window `j` at width `2w`.
    fn merge_down(&mut self) {
        self.rows = merge_pairs(std::mem::take(&mut self.rows), WindowRow::merge);
        self.occ = merge_pairs(std::mem::take(&mut self.occ), |mut a, b| {
            for (o, v) in a.iter_mut().zip(b) {
                *o += v;
            }
            a
        });
        for v in self.link_retx.values_mut() {
            *v = merge_pairs(std::mem::take(v), |a, b| a + b);
        }
        for v in self.link_inflight.values_mut() {
            *v = merge_pairs(std::mem::take(v), u64::max);
        }
        self.width *= 2;
    }

    /// Charge `n` events of counter `c` into the window holding cycle `t`.
    pub fn count(&mut self, c: TsCounter, t: Cycles, n: u64) {
        let w = self.window(t);
        self.rows[w].counters[c as usize] += n;
    }

    /// Sample gauge `g` at value `v`; the window keeps the maximum.
    pub fn gauge(&mut self, g: TsGauge, t: Cycles, v: u64) {
        let w = self.window(t);
        let slot = &mut self.rows[w].gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// Charges one reported fact at cycle `t` on `node`.
    pub fn note(&mut self, t: Cycles, node: usize, ev: &ProtocolEvent<'_>) {
        use ProtocolEvent as E;
        ev.counts(t, |c, at, n| self.count(c, at, n));
        match *ev {
            E::PageFetched { page, .. }
            | E::PrefetchCompleted {
                page,
                transfer: true,
                ..
            } => self.page(page, 1, 0, 0),
            E::DiffCreated { page, diff, .. } => self.page(page, 0, 4 * diff.word_count(), 0),
            E::DiffsApplied { page, words, .. } => self.page(page, 0, 4 * words, 0),
            E::NoticeRecorded {
                page,
                invalidated: true,
                ..
            } => self.page(page, 0, 0, 1),
            E::LockAcquired { lock, .. } => self.lock(lock.into(), 0, 1, 0),
            E::LockMigrated { lock, .. } => self.lock(lock.into(), 0, 0, 1),
            E::LockWaitEnded { lock, stall, .. } => self.lock(lock.into(), stall, 0, 0),
            E::ControllerCommand { end, .. } => self.span(node, t, end),
            E::SvcDequeue { depth, .. } => self.gauge(TsGauge::SvcQueueDepth, t, depth),
            E::Retransmit { src, dst, .. } => self.link_retransmit(src, dst, t),
            E::MsgSent {
                src,
                dst,
                wire: None,
                ..
            } => self.flight(src, dst, t, true),
            E::FramesAcked { src, dst, frames } => {
                for _ in 0..frames {
                    self.flight(src, dst, t, false);
                }
            }
            _ => {}
        }
    }

    /// A retransmission fired on link `src -> dst` at cycle `t` (the
    /// per-link series; the `Retransmits` counter is charged separately).
    fn link_retransmit(&mut self, src: usize, dst: usize, t: Cycles) {
        let w = self.window(t);
        let series = self.link_retx.entry((src, dst)).or_default();
        if series.len() <= w {
            series.resize(w + 1, 0);
        }
        series[w] += 1;
    }

    /// A transport frame entered (`up`) or left (`!up`) flight on link
    /// `src -> dst` at cycle `t`. Maintains the per-link and total in-flight
    /// population and samples both as gauges.
    pub fn flight(&mut self, src: usize, dst: usize, t: Cycles, up: bool) {
        let now = self.inflight_now.entry((src, dst)).or_default();
        if up {
            *now += 1;
            self.inflight_total += 1;
        } else {
            // overflow: ups and downs are paired by the transport, but a
            // frame retired during end-of-run drain may have no recorded up;
            // clamping at zero keeps the gauge population well-defined.
            *now = now.saturating_sub(1);
            // overflow: clamped at zero for the same unpaired-down reason.
            self.inflight_total = self.inflight_total.saturating_sub(1);
        }
        let link_now = *now;
        let w = self.window(t);
        let series = self.link_inflight.entry((src, dst)).or_default();
        if series.len() <= w {
            series.resize(w + 1, 0);
        }
        series[w] = series[w].max(link_now);
        let total = self.inflight_total;
        self.gauge(TsGauge::InflightFrames, t, total);
    }

    /// Charge controller busy cycles `[start, end)` of `node`, clipped
    /// across every window the span overlaps.
    pub fn span(&mut self, node: usize, start: Cycles, end: Cycles) {
        if end <= start || node >= self.nprocs {
            return;
        }
        // Ensure capacity (and any auto-mode merge) up to the span's last
        // occupied cycle before computing window coordinates.
        self.window(end - 1);
        let first = (start / self.width) as usize;
        let last = ((end - 1) / self.width) as usize;
        for w in first..=last {
            let lo = start.max(w as Cycles * self.width);
            let hi = end.min((w as Cycles + 1) * self.width);
            self.occ[w][node] += hi - lo;
        }
    }

    /// Accumulate page hot-spot attribution.
    pub fn page(&mut self, page: PageId, transfers: u64, diff_bytes: u64, invalidations: u64) {
        let h = self.pages.entry(page).or_default();
        h.transfers += transfers;
        h.diff_bytes += diff_bytes;
        h.invalidations += invalidations;
    }

    /// Accumulate lock hot-spot attribution.
    pub fn lock(&mut self, lock: u64, wait_cycles: Cycles, acquires: u64, owner_migrations: u64) {
        let h = self.locks.entry(lock).or_default();
        h.wait_cycles += wait_cycles;
        h.acquires += acquires;
        h.owner_migrations += owner_migrations;
    }

    /// Finalize: merge down until the whole run fits (auto mode), pad every
    /// series out to the run's final window, transpose occupancy to
    /// `[node][window]`.
    pub fn into_log(mut self, total_cycles: Cycles) -> TsLog {
        if self.auto {
            while total_cycles > 0 && (total_cycles - 1) / self.width >= TS_MAX_WINDOWS as Cycles {
                self.merge_down();
            }
        }
        let span_windows = if total_cycles == 0 {
            0
        } else {
            ((total_cycles - 1) / self.width) as usize + 1
        };
        let n = span_windows.max(self.rows.len()).max(1);
        self.rows.resize_with(n, WindowRow::default);
        self.occ.resize_with(n, || vec![0; self.nprocs]);
        for v in self.link_retx.values_mut() {
            v.resize(n, 0);
        }
        for v in self.link_inflight.values_mut() {
            v.resize(n, 0);
        }
        let mut occupancy = vec![vec![0; n]; self.nprocs];
        for (w, row) in self.occ.iter().enumerate() {
            for (node, &c) in row.iter().enumerate() {
                occupancy[node][w] = c;
            }
        }
        TsLog {
            width: self.width,
            windows: self.rows,
            occupancy,
            link_retransmits: self.link_retx,
            link_inflight: self.link_inflight,
            pages: self.pages,
            locks: self.locks,
        }
    }
}

/// Merge adjacent pairs of `v` with `f`; an odd trailing element survives
/// unchanged (its pair partner is an all-zero window that never existed).
fn merge_pairs<T>(v: Vec<T>, f: impl Fn(T, T) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len().div_ceil(2));
    let mut it = v.into_iter();
    while let Some(a) = it.next() {
        out.push(match it.next() {
            Some(b) => f(a, b),
            None => a,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_their_window_and_totals_conserve() {
        let mut r = TsRecorder::new(2, 100);
        r.count(TsCounter::PageFetches, 0, 1);
        r.count(TsCounter::PageFetches, 99, 2);
        r.count(TsCounter::PageFetches, 100, 4);
        r.count(TsCounter::PageFetches, 950, 8);
        let log = r.into_log(1000);
        assert_eq!(log.width, 100);
        assert_eq!(log.windows.len(), 10);
        let s = log.counter_series(TsCounter::PageFetches);
        assert_eq!(s[0], 3);
        assert_eq!(s[1], 4);
        assert_eq!(s[9], 8);
        assert_eq!(log.counter_total(TsCounter::PageFetches), 15);
    }

    #[test]
    fn auto_mode_merges_exactly_and_respects_the_cap() {
        let mut r = TsRecorder::new(1, 0);
        // One event per base window over a run 8x longer than the initial
        // capacity: forces three doublings.
        let run = TS_BASE_WIDTH * TS_MAX_WINDOWS as Cycles * 8;
        let mut fed = 0u64;
        let mut t = 0;
        while t < run {
            r.count(TsCounter::Messages, t, 1);
            fed += 1;
            t += TS_BASE_WIDTH;
        }
        let log = r.into_log(run);
        assert_eq!(log.width, TS_BASE_WIDTH * 8);
        assert_eq!(log.windows.len(), TS_MAX_WINDOWS);
        assert_eq!(log.counter_total(TsCounter::Messages), fed);
        // Events were uniform, so every merged window holds exactly 8.
        assert!(log
            .counter_series(TsCounter::Messages)
            .iter()
            .all(|&v| v == 8));
    }

    #[test]
    fn totals_are_invariant_to_window_width() {
        let events: Vec<(Cycles, u64)> = (0..500).map(|i| (i * 37, 1 + i % 5)).collect();
        let mut a = TsRecorder::new(1, 1024);
        let mut b = TsRecorder::new(1, 16384);
        for &(t, n) in &events {
            a.count(TsCounter::DiffBytesCreated, t, n);
            b.count(TsCounter::DiffBytesCreated, t, n);
        }
        let (la, lb) = (a.into_log(20_000), b.into_log(20_000));
        assert_eq!(
            la.counter_total(TsCounter::DiffBytesCreated),
            lb.counter_total(TsCounter::DiffBytesCreated)
        );
        assert_eq!(la.windows.len(), 20, "ceil(20000/1024)");
        assert_eq!(lb.windows.len(), 2);
    }

    #[test]
    fn gauges_keep_the_window_peak_through_merges() {
        let mut r = TsRecorder::new(1, 0);
        r.gauge(TsGauge::QueueDepth, 10, 3);
        r.gauge(TsGauge::QueueDepth, 20, 7);
        r.gauge(TsGauge::QueueDepth, 30, 5);
        // Force a merge by landing an event far out.
        r.count(
            TsCounter::Messages,
            TS_BASE_WIDTH * TS_MAX_WINDOWS as Cycles,
            1,
        );
        let log = r.into_log(TS_BASE_WIDTH * TS_MAX_WINDOWS as Cycles + 1);
        assert_eq!(log.width, TS_BASE_WIDTH * 2);
        assert_eq!(log.gauge_series(TsGauge::QueueDepth)[0], 7);
    }

    #[test]
    fn spans_clip_across_window_boundaries() {
        let mut r = TsRecorder::new(2, 100);
        r.span(1, 50, 250);
        r.span(0, 0, 100);
        r.span(1, 990, 1000);
        let log = r.into_log(1000);
        assert_eq!(log.occupancy[1][0], 50);
        assert_eq!(log.occupancy[1][1], 100);
        assert_eq!(log.occupancy[1][2], 50);
        assert_eq!(log.occupancy[0][0], 100);
        assert_eq!(log.occupancy[1][9], 10);
        let spent: Cycles = log.occupancy.iter().flatten().sum();
        assert_eq!(spent, 310);
    }

    #[test]
    fn link_series_pad_to_the_final_window() {
        let mut r = TsRecorder::new(2, 100);
        r.flight(0, 1, 5, true);
        r.flight(0, 1, 40, true);
        r.note(
            120,
            0,
            &ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 0,
                attempt: 1,
            },
        );
        r.flight(0, 1, 130, false);
        let log = r.into_log(1000);
        let infl = &log.link_inflight[&(0, 1)];
        assert_eq!(infl.len(), 10);
        assert_eq!(infl[0], 2);
        assert_eq!(infl[1], 1);
        assert_eq!(log.link_retransmits[&(0, 1)], {
            let mut v = vec![0u64; 10];
            v[1] = 1;
            v
        });
        assert_eq!(log.counter_total(TsCounter::Retransmits), 1);
        assert_eq!(log.gauge_series(TsGauge::InflightFrames)[0], 2);
    }

    #[test]
    fn hotspots_accumulate() {
        let mut r = TsRecorder::new(1, 100);
        r.page(7, 1, 64, 0);
        r.page(7, 0, 32, 2);
        r.lock(3, 500, 1, 1);
        r.lock(3, 250, 1, 0);
        let log = r.into_log(100);
        assert_eq!(log.pages[&7].transfers, 1);
        assert_eq!(log.pages[&7].diff_bytes, 96);
        assert_eq!(log.pages[&7].invalidations, 2);
        assert_eq!(log.locks[&3].wait_cycles, 750);
        assert_eq!(log.locks[&3].acquires, 2);
        assert_eq!(log.locks[&3].owner_migrations, 1);
    }

    #[test]
    fn empty_recorder_still_produces_a_padded_log() {
        let log = TsRecorder::new(2, 0).into_log(5000);
        assert_eq!(log.width, TS_BASE_WIDTH);
        assert_eq!(log.windows.len(), 5);
        assert_eq!(log.occupancy.len(), 2);
        assert_eq!(log.occupancy[0].len(), 5);
    }
}
