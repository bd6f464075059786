//! # ncp2-verify — shadow oracle for the NCP2 DSM simulation
//!
//! A [`VerifyOracle`] attaches to a `ncp2_core::Simulation` (via
//! `attach_observer`) and re-checks, event by event, what the protocol is
//! only supposed to guarantee:
//!
//! * **Happens-before race detection** — a vector-clock detector over the
//!   observed shared-memory accesses, using the lock and barrier events to
//!   build the §2 LRC partial order. Word granularity (4 bytes), matching
//!   the protocols' diff granularity: concurrent writes to *different*
//!   words of one page are legal in TreadMarks and must not be flagged.
//! * **Diff completeness (§3.2)** — every created diff, applied to the
//!   page's previous contents, must reconstruct the writer's current copy
//!   exactly. Because the oracle's baseline is maintained independently of
//!   the twins, this cross-checks the bit-vector-directed diffs of the
//!   hardware modes (I+D, I+P+D) against a twin-equivalent reference.
//! * **Write-notice coverage** — whenever a processor's vector time comes to
//!   cover a foreign writing interval, a write notice for every page that
//!   interval dirtied must have been recorded (and its page invalidated)
//!   at that processor. Skipped under AURC, where only home-mode copies
//!   invalidate and pairwise copies are kept fresh by automatic updates.
//! * **Vector-time monotonicity** — per-processor vector times never
//!   regress, and interval ids advance by exactly one per closure.
//! * **Message conservation** — demand traffic drains completely (every
//!   request exactly one reply), prefetch and fire-and-forget traffic never
//!   delivers more than was sent, and no foreign diff is applied twice.
//! * **Frame conservation (retransmit-aware)** — under the hardened
//!   transport (engaged by an attached active fault plan) every physical
//!   frame copy a link sends reaches exactly one terminal fate, so per link
//!   `sent = accepted + duplicate-dropped + dropped`; a frame that vanishes
//!   without a terminal event (silent loss) breaks the ledger.
//!
//! Violations land in `RunResult::violations`; a correct run reports none.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ncp2_core::observe::{MsgKind, Observer, ProtocolEvent, Violation};
use ncp2_core::page::{PageBuf, PageId};
use ncp2_core::vtime::{IntervalId, VectorTime};
use ncp2_core::Protocol;
use ncp2_sim::config::PAGE_BYTES;
use ncp2_sim::ops::{BarrierId, LockId};
use ncp2_sim::SysParams;

/// Reported-violation cap: a single protocol bug can fire on every access,
/// so the oracle keeps the first `MAX_VIOLATIONS` and counts the rest.
const MAX_VIOLATIONS: usize = 256;

// ---------------------------------------------------------------------------
// Race detector
// ---------------------------------------------------------------------------

/// Conflict history of one 4-byte word: the last write epoch plus the read
/// epochs since that write (one per processor).
#[derive(Debug, Default)]
struct WordState {
    write: Option<(usize, IntervalId)>,
    reads: Vec<(usize, IntervalId)>,
}

/// One barrier episode being accumulated at the detector. Barrier ids are
/// reused, and a fast processor can arrive at the *next* episode before a
/// slow one has completed the previous episode of the same id — hence a
/// queue of episodes per id rather than a single slot.
#[derive(Debug)]
struct Episode {
    acc: VectorTime,
    arrivals: usize,
    completions: usize,
}

/// Vector-clock happens-before detector over the observed access stream.
#[derive(Debug)]
pub struct RaceDetector {
    nprocs: usize,
    vc: Vec<VectorTime>,
    locks: HashMap<LockId, VectorTime>,
    barriers: HashMap<BarrierId, VecDeque<Episode>>,
    words: HashMap<u64, WordState>,
    /// Byte ranges with annotated benign races (e.g. TSP's bound word);
    /// accesses touching them are not tracked.
    exempt: Vec<std::ops::Range<u64>>,
    /// Words already reported (one race per word keeps the output readable).
    reported: HashSet<u64>,
    found: Vec<Violation>,
}

impl RaceDetector {
    /// A detector for `nprocs` processors with no history.
    pub fn new(nprocs: usize) -> Self {
        let mut vc = vec![VectorTime::new(nprocs); nprocs];
        // Every processor starts in its own epoch 1 so that two initial
        // accesses by different processors are *not* vacuously ordered.
        for (p, c) in vc.iter_mut().enumerate() {
            c.bump(p);
        }
        RaceDetector {
            nprocs,
            vc,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            words: HashMap::new(),
            exempt: Vec::new(),
            reported: HashSet::new(),
            found: Vec::new(),
        }
    }

    /// Exempts a byte range from race detection (an annotated benign race).
    pub fn exempt_range(&mut self, range: std::ops::Range<u64>) {
        self.exempt.push(range);
    }

    /// Feeds one event; only accesses and synchronization are examined.
    pub fn observe(&mut self, ev: &ProtocolEvent) {
        match *ev {
            ProtocolEvent::Access {
                pid,
                addr,
                bytes,
                write,
            } => {
                let first = addr / 4;
                let last = (addr + u64::from(bytes.max(1)) - 1) / 4;
                for word in first..=last {
                    self.access_word(pid, word, write);
                }
            }
            ProtocolEvent::LockAcquired { pid, lock, .. } => {
                if let Some(lc) = self.locks.get(&lock) {
                    self.vc[pid].merge(lc);
                }
            }
            ProtocolEvent::LockReleased { pid, lock } => {
                let snapshot = self.vc[pid].clone();
                self.locks
                    .entry(lock)
                    .and_modify(|lc| lc.merge(&snapshot))
                    .or_insert(snapshot);
                self.vc[pid].bump(pid);
            }
            ProtocolEvent::BarrierArrived { pid, barrier } => {
                let n = self.nprocs;
                let q = self.barriers.entry(barrier).or_default();
                let needs_new = q.back().is_none_or(|e| e.arrivals == n);
                if needs_new {
                    q.push_back(Episode {
                        acc: VectorTime::new(n),
                        arrivals: 0,
                        completions: 0,
                    });
                }
                let ep = q.back_mut().expect("episode just ensured");
                ep.acc.merge(&self.vc[pid]);
                ep.arrivals += 1;
            }
            ProtocolEvent::BarrierCompleted { pid, barrier, .. } => {
                let Some(q) = self.barriers.get_mut(&barrier) else {
                    return;
                };
                let Some(ep) = q.front_mut() else { return };
                let acc = ep.acc.clone();
                ep.completions += 1;
                let done = ep.completions == self.nprocs;
                if done {
                    q.pop_front();
                }
                self.vc[pid].merge(&acc);
                self.vc[pid].bump(pid);
            }
            _ => {}
        }
    }

    fn access_word(&mut self, pid: usize, word: u64, write: bool) {
        let lo = word * 4;
        if self.exempt.iter().any(|r| r.start < lo + 4 && lo < r.end) {
            return;
        }
        let epoch = self.vc[pid].get(pid);
        let st = self.words.entry(word).or_default();
        let mut race: Option<(usize, bool)> = None;
        if let Some((wp, we)) = st.write {
            if wp != pid && !self.vc[pid].covers_interval(wp, we) {
                race = Some((wp, true));
            }
        }
        if write {
            if race.is_none() {
                for &(rp, re) in &st.reads {
                    if rp != pid && !self.vc[pid].covers_interval(rp, re) {
                        race = Some((rp, false));
                        break;
                    }
                }
            }
            st.write = Some((pid, epoch));
            st.reads.clear();
        } else {
            match st.reads.iter_mut().find(|(rp, _)| *rp == pid) {
                Some(slot) => slot.1 = epoch,
                None => st.reads.push((pid, epoch)),
            }
        }
        if let Some((first_pid, first_write)) = race {
            if self.reported.insert(word) {
                self.found.push(Violation::Race {
                    first_pid,
                    first_write,
                    second_pid: pid,
                    second_write: write,
                    addr: word * 4,
                });
            }
        }
    }

    /// Races found so far.
    pub fn races(&self) -> &[Violation] {
        &self.found
    }

    fn take(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.found)
    }
}

// ---------------------------------------------------------------------------
// Invariant oracle
// ---------------------------------------------------------------------------

/// Message counts indexed `[kind.index()][usize::from(demand)]`.
type Tally = [[u64; 2]; MsgKind::COUNT];

/// The full shadow oracle: race detector plus LRC protocol invariants.
pub struct VerifyOracle {
    /// Write-notice coverage applies (TreadMarks modes only).
    check_notices: bool,
    race: RaceDetector,
    violations: Vec<Violation>,
    suppressed: usize,
    /// Per (node, page): the node's page contents after the last diff
    /// creation or application — the twin-equivalent reference copy.
    baselines: HashMap<(usize, PageId), PageBuf>,
    /// Per (node, page): foreign diffs already applied there.
    applied: HashMap<(usize, PageId), HashSet<(usize, IntervalId)>>,
    /// Every closed interval and the pages it dirtied.
    registry: HashMap<(usize, IntervalId), Vec<PageId>>,
    /// Write notices recorded and not yet checked: (node, owner, interval,
    /// page). Each is consumed by the coverage check that first covers its
    /// interval, so the set holds only notices still in flight. Empty when
    /// notices are not checked (AURC).
    seen_notices: HashSet<(usize, usize, IntervalId, PageId)>,
    /// Latest vector time observed per processor (monotonicity).
    last_vt: Vec<VectorTime>,
    /// High-water mark of coverage checking per processor.
    checked_vt: Vec<VectorTime>,
    /// Messages sent and delivered, per kind and demand/prefetch class.
    sent: Tally,
    delivered: Tally,
    /// Per-(link, seq, attempt) transport-frame ledger: +1 at `FrameSent`,
    /// −1 at the terminal event (accepted / duplicate / dropped). Nonzero
    /// at finish means a frame copy vanished (or a fate was invented).
    frames: HashMap<(usize, usize, u64, u32), i64>,
}

impl VerifyOracle {
    /// An oracle for a machine with the given parameters and protocol.
    pub fn new(params: &SysParams, protocol: &Protocol) -> Self {
        let n = params.nprocs;
        VerifyOracle {
            check_notices: matches!(protocol, Protocol::TreadMarks(_)),
            race: RaceDetector::new(n),
            violations: Vec::new(),
            suppressed: 0,
            baselines: HashMap::new(),
            applied: HashMap::new(),
            registry: HashMap::new(),
            seen_notices: HashSet::new(),
            last_vt: vec![VectorTime::new(n); n],
            checked_vt: vec![VectorTime::new(n); n],
            sent: [[0; 2]; MsgKind::COUNT],
            delivered: [[0; 2]; MsgKind::COUNT],
            frames: HashMap::new(),
        }
    }

    /// Builds an oracle and attaches it to `sim` in one step.
    pub fn attach(sim: &mut ncp2_core::Simulation, params: &SysParams, protocol: &Protocol) {
        sim.attach_observer(Box::new(VerifyOracle::new(params, protocol)));
    }

    /// Number of violations dropped beyond the reporting cap.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Exempts a byte range from race detection. Protocol invariants (diff
    /// completeness, notices, conservation) still apply to the range — only
    /// the happens-before check is waived, for annotated benign races.
    pub fn exempt_range(&mut self, range: std::ops::Range<u64>) {
        self.race.exempt_range(range);
    }

    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    fn on_interval_closed(
        &mut self,
        pid: usize,
        id: IntervalId,
        vt: &VectorTime,
        pages: &[PageId],
    ) {
        let prev_own = self.last_vt[pid].get(pid);
        if id != prev_own + 1 {
            self.push(Violation::VtRegression {
                pid,
                detail: format!("interval id jumped from {prev_own} to {id}"),
            });
        }
        if vt.get(pid) != id {
            self.push(Violation::VtRegression {
                pid,
                detail: format!("closed interval {id} but own component is {}", vt.get(pid)),
            });
        }
        self.check_monotone(pid, vt, "interval close");
        self.registry.insert((pid, id), pages.to_vec());
    }

    fn on_anns_processed(&mut self, pid: usize, vt: &VectorTime) {
        self.check_monotone(pid, vt, "announcement processing");
        if self.check_notices {
            let mut missing: Vec<(usize, IntervalId, PageId)> = Vec::new();
            for (owner, latest) in vt.iter() {
                if owner == pid {
                    continue;
                }
                let from = self.checked_vt[pid].get(owner);
                for ivl in (from + 1)..=latest {
                    let Some(pages) = self.registry.get(&(owner, ivl)) else {
                        continue;
                    };
                    for &page in pages {
                        // `checked_vt` moves past this key below, so no
                        // later check asks for it again: consume it.
                        if !self.seen_notices.remove(&(pid, owner, ivl, page)) {
                            missing.push((owner, ivl, page));
                        }
                    }
                }
            }
            for (owner, interval, page) in missing {
                self.push(Violation::WriteNoticeCoverage {
                    pid,
                    owner,
                    interval,
                    page,
                });
            }
        }
        self.checked_vt[pid].merge(vt);
    }

    fn check_monotone(&mut self, pid: usize, vt: &VectorTime, what: &str) {
        if !vt.covers(&self.last_vt[pid]) {
            self.push(Violation::VtRegression {
                pid,
                detail: format!("vector time went backwards at {what}"),
            });
        }
        self.last_vt[pid] = vt.clone();
    }

    fn on_diff_created(
        &mut self,
        pid: usize,
        page: PageId,
        interval: IntervalId,
        diff: &ncp2_core::Diff,
        data: &PageBuf,
    ) {
        let baseline = self
            .baselines
            .entry((pid, page))
            .or_insert_with(|| PageBuf::new(PAGE_BYTES));
        let mut expect = baseline.clone();
        diff.apply(&mut expect);
        let bad_words = if expect == *data {
            0
        } else {
            expect.words_differing(data).count()
        };
        *baseline = data.clone();
        if bad_words > 0 {
            self.push(Violation::DiffIncomplete {
                pid,
                page,
                interval,
                bad_words,
            });
        }
    }

    fn on_diffs_applied(
        &mut self,
        pid: usize,
        page: PageId,
        diffs: &[Arc<ncp2_core::Diff>],
        data: &PageBuf,
    ) {
        let mut dups: Vec<(usize, IntervalId)> = Vec::new();
        {
            let seen = self.applied.entry((pid, page)).or_default();
            for (owner, interval) in diffs.iter().map(|d| (d.owner, d.interval)) {
                // A whole-page fetch legitimately re-applies the node's own
                // concurrent diffs on top of the shipped copy.
                if owner == pid {
                    continue;
                }
                if !seen.insert((owner, interval)) {
                    dups.push((owner, interval));
                }
            }
        }
        for (owner, interval) in dups {
            self.push(Violation::DuplicateDiffApplication {
                pid,
                page,
                owner,
                interval,
            });
        }
        self.baselines.insert((pid, page), data.clone());
    }

    fn check_conservation(&mut self) {
        let mut findings: Vec<String> = Vec::new();
        let kinds = |m: &Tally, k: MsgKind, d: bool| m[k.index()][usize::from(d)];
        for kind in MsgKind::ALL {
            for demand in [false, true] {
                let s = kinds(&self.sent, kind, demand);
                let d = kinds(&self.delivered, kind, demand);
                if d > s {
                    findings.push(format!(
                        "{kind} ({}): delivered {d} exceeds sent {s}",
                        class(demand)
                    ));
                }
                // Demand traffic must drain: a demand message still in
                // flight means some processor is still blocked,
                // contradicting run completion. AurcUpdates are
                // fire-and-forget and may legally die in the queue. A class
                // with nothing sent is reported once, by the check above.
                if demand && kind != MsgKind::AurcUpdate && s > 0 && d != s {
                    findings.push(format!("demand {kind}: sent {s}, delivered only {d}"));
                }
            }
        }
        // Every delivered request produces exactly one reply.
        let pairs = [
            (MsgKind::DiffReq, MsgKind::DiffReply),
            (MsgKind::AurcPageReq, MsgKind::AurcPageReply),
            (MsgKind::LockReq, MsgKind::LockGrant),
            (MsgKind::BarrierArrive, MsgKind::BarrierRelease),
        ];
        for (req, reply) in pairs {
            for demand in [true, false] {
                let d_req = kinds(&self.delivered, req, demand);
                let s_reply = kinds(&self.sent, reply, demand);
                if d_req != s_reply {
                    findings.push(format!(
                        "{req}/{reply} ({}): {d_req} requests delivered but {s_reply} \
                         replies sent",
                        class(demand)
                    ));
                }
            }
        }
        // Retransmit-aware frame conservation: every physical copy the
        // transport sent must have reached exactly one terminal fate, so
        // per link `sent = accepted + duplicate-dropped + dropped`.
        // lint: allow(nondeterministic-iteration) -- balances only feed `findings`, which is sorted before reporting
        for (&(src, dst, seq, attempt), &bal) in &self.frames {
            match bal.cmp(&0) {
                std::cmp::Ordering::Greater => findings.push(format!(
                    "link {src}->{dst}: frame seq {seq} attempt {attempt} sent but never \
                     accepted/duplicated/dropped ({bal} copies unaccounted — \
                     sent != accepted + duplicated + dropped)"
                )),
                std::cmp::Ordering::Less => findings.push(format!(
                    "link {src}->{dst}: frame seq {seq} attempt {attempt} reached {} more \
                     terminal fates than sends",
                    -bal
                )),
                std::cmp::Ordering::Equal => {}
            }
        }
        findings.sort();
        for detail in findings {
            self.push(Violation::MessageConservation { detail });
        }
    }
}

fn class(demand: bool) -> &'static str {
    if demand {
        "demand"
    } else {
        "prefetch"
    }
}

impl Observer for VerifyOracle {
    fn on_event(&mut self, ev: &ProtocolEvent) {
        self.race.observe(ev);
        match ev {
            ProtocolEvent::IntervalClosed { pid, id, vt, pages } => {
                self.on_interval_closed(*pid, *id, vt, pages)
            }
            ProtocolEvent::NoticeRecorded {
                pid,
                owner,
                id,
                page,
                ..
            } if self.check_notices => {
                self.seen_notices.insert((*pid, *owner, *id, *page));
            }
            ProtocolEvent::AnnsProcessed { pid, vt } => self.on_anns_processed(*pid, vt),
            ProtocolEvent::DiffCreated {
                pid,
                page,
                interval,
                diff,
                data,
            } => self.on_diff_created(*pid, *page, *interval, diff, data),
            ProtocolEvent::DiffsApplied {
                pid,
                page,
                diffs,
                data,
                ..
            } => self.on_diffs_applied(*pid, *page, diffs, data),
            ProtocolEvent::MsgSent { kind, demand, .. } => {
                self.sent[kind.index()][usize::from(*demand)] += 1;
            }
            ProtocolEvent::MsgDelivered { kind, demand, .. } => {
                self.delivered[kind.index()][usize::from(*demand)] += 1;
            }
            ProtocolEvent::FrameSent {
                src,
                dst,
                seq,
                attempt,
                ..
            } => {
                *self.frames.entry((*src, *dst, *seq, *attempt)).or_insert(0) += 1;
            }
            ProtocolEvent::FrameAccepted {
                src,
                dst,
                seq,
                attempt,
            }
            | ProtocolEvent::FrameDuplicate {
                src,
                dst,
                seq,
                attempt,
            }
            | ProtocolEvent::FrameDropped {
                src,
                dst,
                seq,
                attempt,
            } => {
                *self.frames.entry((*src, *dst, *seq, *attempt)).or_insert(0) -= 1;
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        self.check_conservation();
        for race in self.race.take() {
            self.push(race);
        }
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_core::diff::Diff;
    use ncp2_core::protocol::OverlapMode;

    fn oracle() -> VerifyOracle {
        VerifyOracle::new(
            &SysParams::default().with_nprocs(4),
            &Protocol::TreadMarks(OverlapMode::Base),
        )
    }

    fn access(pid: usize, addr: u64, write: bool) -> ProtocolEvent<'static> {
        ProtocolEvent::Access {
            pid,
            addr,
            bytes: 4,
            write,
        }
    }

    fn frame_sent(src: usize, dst: usize, seq: u64, attempt: u32) -> ProtocolEvent<'static> {
        let wire = ncp2_core::observe::Transfer {
            start: 0,
            arrival: 0,
        };
        ProtocolEvent::FrameSent {
            src,
            dst,
            seq,
            attempt,
            kind: MsgKind::DiffReq,
            demand: true,
            bytes: 64,
            wire,
        }
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let mut o = oracle();
        o.on_event(&access(0, 64, true));
        o.on_event(&access(1, 64, true));
        let v = o.finish();
        assert!(
            v.iter().any(|x| matches!(x, Violation::Race { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn lock_ordered_accesses_are_clean() {
        let mut o = oracle();
        o.on_event(&ProtocolEvent::LockAcquired {
            pid: 0,
            lock: 1,
            granted: 0,
        });
        o.on_event(&access(0, 64, true));
        o.on_event(&ProtocolEvent::LockReleased { pid: 0, lock: 1 });
        o.on_event(&ProtocolEvent::LockAcquired {
            pid: 1,
            lock: 1,
            granted: 0,
        });
        o.on_event(&access(1, 64, true));
        o.on_event(&ProtocolEvent::LockReleased { pid: 1, lock: 1 });
        assert!(o.finish().is_empty());
    }

    #[test]
    fn barrier_orders_producer_and_consumers() {
        let mut o = oracle();
        o.on_event(&access(0, 128, true));
        for pid in 0..4 {
            o.on_event(&ProtocolEvent::BarrierArrived { pid, barrier: 0 });
        }
        for pid in 0..4 {
            o.on_event(&ProtocolEvent::BarrierCompleted {
                pid,
                barrier: 0,
                released: 0,
            });
        }
        for pid in 0..4 {
            o.on_event(&access(pid, 128, false));
        }
        assert!(o.finish().is_empty());
    }

    #[test]
    fn barrier_id_reuse_keeps_episodes_apart() {
        let mut o = oracle();
        // Episode 1 arrivals...
        for pid in 0..4 {
            o.on_event(&ProtocolEvent::BarrierArrived { pid, barrier: 0 });
        }
        // ...processor 0 completes and races ahead to the next episode of
        // the same barrier id before the others complete episode 1.
        o.on_event(&ProtocolEvent::BarrierCompleted {
            pid: 0,
            barrier: 0,
            released: 0,
        });
        o.on_event(&access(0, 256, true));
        o.on_event(&ProtocolEvent::BarrierArrived { pid: 0, barrier: 0 });
        for pid in 1..4 {
            o.on_event(&ProtocolEvent::BarrierCompleted {
                pid,
                barrier: 0,
                released: 0,
            });
        }
        for pid in 1..4 {
            o.on_event(&ProtocolEvent::BarrierArrived { pid, barrier: 0 });
        }
        for pid in 0..4 {
            o.on_event(&ProtocolEvent::BarrierCompleted {
                pid,
                barrier: 0,
                released: 0,
            });
        }
        // The pre-episode-2 write by P0 is ordered before everyone's
        // post-episode-2 reads.
        for pid in 0..4 {
            o.on_event(&access(pid, 256, false));
        }
        assert!(o.finish().is_empty());
    }

    #[test]
    fn exempted_range_suppresses_race_reports_only_there() {
        let mut o = oracle();
        o.exempt_range(64..68);
        o.on_event(&access(0, 64, true));
        o.on_event(&access(1, 64, true)); // annotated benign race
        o.on_event(&access(0, 72, true));
        o.on_event(&access(1, 72, true)); // real race
        let v = o.finish();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0], Violation::Race { addr: 72, .. }));
    }

    #[test]
    fn concurrent_writes_to_different_words_are_legal() {
        let mut o = oracle();
        o.on_event(&access(0, 64, true));
        o.on_event(&access(1, 68, true));
        assert!(o.finish().is_empty());
    }

    #[test]
    fn incomplete_diff_is_flagged() {
        let mut o = oracle();
        let mut data = PageBuf::new(4096);
        data.set_word(3, 7);
        data.set_word(9, 1);
        // The diff only records word 3; word 9 changed from the (zero)
        // baseline as well, so reconstruction must fail.
        let twin = {
            let mut t = PageBuf::new(4096);
            t.set_word(9, 1); // hides word 9 from the twin comparison
            t
        };
        let diff = Diff::from_twin(5, 0, 1, &data, &twin);
        o.on_event(&ProtocolEvent::DiffCreated {
            pid: 0,
            page: 5,
            interval: 1,
            diff: &diff,
            data: &data,
        });
        let v = o.finish();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DiffIncomplete { bad_words: 1, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn complete_diff_chain_is_clean() {
        let mut o = oracle();
        let mut data = PageBuf::new(4096);
        data.set_word(3, 7);
        let twin = PageBuf::new(4096);
        let d1 = Diff::from_twin(5, 0, 1, &data, &twin);
        o.on_event(&ProtocolEvent::DiffCreated {
            pid: 0,
            page: 5,
            interval: 1,
            diff: &d1,
            data: &data,
        });
        // Second interval continues from the first's contents.
        let twin2 = data.clone();
        data.set_word(100, 9);
        let d2 = Diff::from_twin(5, 0, 2, &data, &twin2);
        o.on_event(&ProtocolEvent::DiffCreated {
            pid: 0,
            page: 5,
            interval: 2,
            diff: &d2,
            data: &data,
        });
        assert!(o.finish().is_empty());
    }

    #[test]
    fn missing_write_notice_is_flagged() {
        let mut o = oracle();
        let mut vt0 = VectorTime::new(4);
        vt0.bump(0);
        o.on_event(&ProtocolEvent::IntervalClosed {
            pid: 0,
            id: 1,
            vt: &vt0,
            pages: &[3, 4],
        });
        // P1 comes to cover (0,1) but only records the notice for page 3.
        o.on_event(&ProtocolEvent::NoticeRecorded {
            pid: 1,
            owner: 0,
            id: 1,
            page: 3,
            invalidated: true,
            wasted_prefetch: false,
        });
        let mut vt1 = VectorTime::new(4);
        vt1.observe(0, 1);
        o.on_event(&ProtocolEvent::AnnsProcessed { pid: 1, vt: &vt1 });
        let v = o.finish();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::WriteNoticeCoverage {
                    pid: 1,
                    owner: 0,
                    interval: 1,
                    page: 4
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn covered_write_notices_are_clean_and_not_rechecked() {
        let mut o = oracle();
        let mut vt0 = VectorTime::new(4);
        vt0.bump(0);
        o.on_event(&ProtocolEvent::IntervalClosed {
            pid: 0,
            id: 1,
            vt: &vt0,
            pages: &[3],
        });
        o.on_event(&ProtocolEvent::NoticeRecorded {
            pid: 1,
            owner: 0,
            id: 1,
            page: 3,
            invalidated: true,
            wasted_prefetch: false,
        });
        let mut vt1 = VectorTime::new(4);
        vt1.observe(0, 1);
        o.on_event(&ProtocolEvent::AnnsProcessed { pid: 1, vt: &vt1 });
        // Processing further (empty) batches must not re-flag anything.
        o.on_event(&ProtocolEvent::AnnsProcessed { pid: 1, vt: &vt1 });
        assert!(o.finish().is_empty());
    }

    #[test]
    fn checked_notices_are_consumed_and_misses_still_reported() {
        let mut o = oracle();
        let mut vt0 = VectorTime::new(4);
        vt0.bump(0);
        o.on_event(&ProtocolEvent::IntervalClosed {
            pid: 0,
            id: 1,
            vt: &vt0,
            pages: &[3, 4],
        });
        for (pid, page) in [(1, 3), (1, 4), (2, 3), (2, 4)] {
            o.on_event(&ProtocolEvent::NoticeRecorded {
                pid,
                owner: 0,
                id: 1,
                page,
                invalidated: true,
                wasted_prefetch: false,
            });
        }
        let mut covers = VectorTime::new(4);
        covers.observe(0, 1);
        o.on_event(&ProtocolEvent::AnnsProcessed {
            pid: 1,
            vt: &covers,
        });
        o.on_event(&ProtocolEvent::AnnsProcessed {
            pid: 2,
            vt: &covers,
        });
        assert!(
            o.seen_notices.is_empty(),
            "every recorded notice was checked: {:?}",
            o.seen_notices
        );
        // A later interval whose notice P1 never records is still missed.
        vt0.bump(0);
        o.on_event(&ProtocolEvent::IntervalClosed {
            pid: 0,
            id: 2,
            vt: &vt0,
            pages: &[5],
        });
        covers.observe(0, 2);
        o.on_event(&ProtocolEvent::AnnsProcessed {
            pid: 1,
            vt: &covers,
        });
        let v = o.finish();
        assert_eq!(
            v,
            vec![Violation::WriteNoticeCoverage {
                pid: 1,
                owner: 0,
                interval: 2,
                page: 5
            }]
        );
    }

    #[test]
    fn aurc_records_no_notices() {
        let mut o = VerifyOracle::new(
            &SysParams::default().with_nprocs(4),
            &Protocol::Aurc { prefetch: false },
        );
        o.on_event(&ProtocolEvent::NoticeRecorded {
            pid: 1,
            owner: 0,
            id: 1,
            page: 3,
            invalidated: true,
            wasted_prefetch: false,
        });
        assert!(o.seen_notices.is_empty());
    }

    #[test]
    fn vector_time_regression_is_flagged() {
        let mut o = oracle();
        let mut vt = VectorTime::new(4);
        vt.observe(2, 5);
        o.on_event(&ProtocolEvent::AnnsProcessed { pid: 1, vt: &vt });
        let lower = VectorTime::new(4);
        o.on_event(&ProtocolEvent::AnnsProcessed { pid: 1, vt: &lower });
        let v = o.finish();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::VtRegression { pid: 1, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn interval_id_skip_is_flagged() {
        let mut o = oracle();
        let mut vt = VectorTime::new(4);
        vt.observe(0, 2); // first closure claims id 2: id 1 was skipped
        o.on_event(&ProtocolEvent::IntervalClosed {
            pid: 0,
            id: 2,
            vt: &vt,
            pages: &[1],
        });
        let v = o.finish();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::VtRegression { pid: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn lost_demand_reply_breaks_conservation() {
        let mut o = oracle();
        o.on_event(&ProtocolEvent::MsgSent {
            src: 0,
            dst: 1,
            kind: MsgKind::DiffReq,
            demand: true,
            bytes: 64,
            wire: None,
        });
        // Delivered, but the reply never goes out.
        o.on_event(&ProtocolEvent::MsgDelivered {
            dst: 1,
            kind: MsgKind::DiffReq,
            demand: true,
        });
        let v = o.finish();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::MessageConservation { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn balanced_request_reply_traffic_is_clean() {
        let mut o = oracle();
        let send = |o: &mut VerifyOracle, kind, demand| {
            o.on_event(&ProtocolEvent::MsgSent {
                src: 0,
                dst: 1,
                kind,
                demand,
                bytes: 64,
                wire: None,
            });
            o.on_event(&ProtocolEvent::MsgDelivered {
                dst: 1,
                kind,
                demand,
            });
        };
        send(&mut o, MsgKind::DiffReq, true);
        send(&mut o, MsgKind::DiffReply, true);
        send(&mut o, MsgKind::LockReq, true);
        send(&mut o, MsgKind::LockGrant, true);
        assert!(o.finish().is_empty());
    }

    #[test]
    fn in_flight_prefetch_at_exit_is_legal() {
        let mut o = oracle();
        o.on_event(&ProtocolEvent::MsgSent {
            src: 0,
            dst: 1,
            kind: MsgKind::DiffReq,
            demand: false,
            bytes: 64,
            wire: None,
        });
        // Never delivered: the run ended first. Prefetches may die in the
        // queue without breaking conservation.
        assert!(o.finish().is_empty());
    }

    #[test]
    fn duplicate_foreign_diff_application_is_flagged() {
        let mut o = oracle();
        let data = PageBuf::new(4096);
        let foreign = [Arc::new(Diff::from_twin(7, 0, 3, &data, &data))];
        for _ in 0..2 {
            o.on_event(&ProtocolEvent::DiffsApplied {
                pid: 1,
                page: 7,
                diffs: &foreign,
                words: 0,
                data: &data,
            });
        }
        let v = o.finish();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::DuplicateDiffApplication {
                    pid: 1,
                    page: 7,
                    owner: 0,
                    interval: 3
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn own_diff_reapplication_is_legal() {
        let mut o = oracle();
        let data = PageBuf::new(4096);
        let own = [Arc::new(Diff::from_twin(7, 1, 3, &data, &data))];
        for _ in 0..2 {
            o.on_event(&ProtocolEvent::DiffsApplied {
                pid: 1,
                page: 7,
                diffs: &own,
                words: 0,
                data: &data,
            });
        }
        assert!(o.finish().is_empty());
    }

    #[test]
    fn silently_lost_frame_breaks_frame_conservation() {
        let mut o = oracle();
        o.on_event(&frame_sent(0, 1, 4, 0));
        // No terminal fate: the frame vanished between the wire and the
        // receive window. The ledger must flag it.
        let v = o.finish();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::MessageConservation { detail }
                    if detail.contains("seq 4") && detail.contains("never")
            )),
            "{v:?}"
        );
    }

    #[test]
    fn retransmitted_and_duplicated_frames_balance() {
        let mut o = oracle();
        // Attempt 0 dropped by the plan; attempt 1 accepted; a fault-injected
        // duplicate copy of attempt 1 discarded at the receive window; one
        // straggler drained at end of run. All fates accounted — clean.
        let frame = |seq, attempt| (0usize, 1usize, seq as u64, attempt as u32);
        let send = |o: &mut VerifyOracle, (src, dst, seq, attempt)| {
            o.on_event(&frame_sent(src, dst, seq, attempt));
        };
        send(&mut o, frame(0, 0));
        o.on_event(&ProtocolEvent::FrameDropped {
            src: 0,
            dst: 1,
            seq: 0,
            attempt: 0,
        });
        send(&mut o, frame(0, 1));
        send(&mut o, frame(0, 1)); // duplicate physical copy
        o.on_event(&ProtocolEvent::FrameAccepted {
            src: 0,
            dst: 1,
            seq: 0,
            attempt: 1,
        });
        o.on_event(&ProtocolEvent::FrameDuplicate {
            src: 0,
            dst: 1,
            seq: 0,
            attempt: 1,
        });
        send(&mut o, frame(1, 0));
        o.on_event(&ProtocolEvent::FrameDropped {
            src: 0,
            dst: 1,
            seq: 1,
            attempt: 0,
        });
        assert!(o.finish().is_empty());
    }

    #[test]
    fn invented_terminal_fate_is_flagged() {
        let mut o = oracle();
        o.on_event(&ProtocolEvent::FrameAccepted {
            src: 2,
            dst: 3,
            seq: 9,
            attempt: 0,
        });
        let v = o.finish();
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::MessageConservation { detail }
                    if detail.contains("more") && detail.contains("terminal")
            )),
            "{v:?}"
        );
    }

    #[test]
    fn violation_flood_is_capped() {
        let mut o = oracle();
        for w in 0..(MAX_VIOLATIONS as u64 + 50) {
            o.on_event(&access(0, w * 4, true));
            o.on_event(&access(1, w * 4, true));
        }
        let v = o.finish();
        assert_eq!(v.len(), MAX_VIOLATIONS);
        assert_eq!(o.suppressed(), 50);
    }
}
