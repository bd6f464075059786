//! # ncp2-fault — seeded, deterministic fault plans for the DSM transport
//!
//! The paper's evaluation assumes a perfectly reliable interconnect. This
//! crate describes how to break that assumption *reproducibly*: a
//! [`FaultPlan`] is a pure value (all-integer, no floats, no RNG state) whose
//! verdicts — drop this frame? duplicate it? corrupt it? how much extra
//! latency on this link right now? — are total functions of the plan plus the
//! frame's identity `(src, dst, seq, attempt)` and the current simulated
//! time. Two runs with the same plan therefore make byte-identical fault
//! decisions regardless of host, thread count or wall clock, which keeps the
//! whole chaos pipeline inside the repo's determinism guarantees.
//!
//! The plan is consulted by the hardened transport in `ncp2-core` (drop /
//! duplicate / corrupt verdicts, congestion for prefetch shedding) and by the
//! router in `ncp2-net` (transient latency spikes, which reorder frames
//! relative to per-link FIFO order and exercise the receiver's resequencing
//! buffer).

use ncp2_sim::{Cycles, StableHasher};

/// Highest permitted per-frame fault probability, in permille. Above ~50%
/// loss the capped-retry transport could plausibly exhaust
/// `MAX_RETX_ATTEMPTS`; validation rejects such plans up front.
pub const MAX_PERMILLE: u16 = 500;

/// Deterministically drops the `nth` first-attempt frame on one directed
/// link (sequence numbers start at 0). Retransmissions of the same frame are
/// never targeted, so the message still gets through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedDrop {
    /// Source node of the directed link.
    pub src: usize,
    /// Destination node of the directed link.
    pub dst: usize,
    /// The link-local sequence number to drop (attempt 0 only).
    pub nth: u64,
}

/// A transient latency spike on one directed link: frames *departing* inside
/// `[start, end)` arrive `extra` cycles late, without occupying the mesh
/// links for the extra time — so a later frame can overtake an earlier one
/// and the receiver sees genuine reordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkWindow {
    /// Source node of the directed link.
    pub src: usize,
    /// Destination node of the directed link.
    pub dst: usize,
    /// First cycle of the window (inclusive).
    pub start: Cycles,
    /// First cycle after the window (exclusive).
    pub end: Cycles,
    /// Extra delivery latency for frames departing inside the window.
    pub extra: Cycles,
}

/// A machine-wide congestion window: every frame departing inside
/// `[start, end)` is delayed by `extra` cycles, and the degradation policy
/// sheds low-priority prefetch traffic for the duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// First cycle of the window (inclusive).
    pub start: Cycles,
    /// First cycle after the window (exclusive).
    pub end: Cycles,
    /// Extra delivery latency while congested.
    pub extra: Cycles,
}

/// A complete, seeded description of how the network misbehaves during one
/// run. `FaultPlan::none()` is the identity plan: the transport treats it as
/// "no fault hooks attached" and every run is byte-identical to a run
/// without a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every probabilistic verdict. Two plans differing only
    /// in seed make independent (but individually deterministic) decisions.
    pub seed: u64,
    /// Plan-wide frame-drop probability, permille (0..=[`MAX_PERMILLE`]).
    pub drop_permille: u16,
    /// Plan-wide frame-duplication probability, permille.
    pub dup_permille: u16,
    /// Plan-wide frame-corruption probability, permille. Corruption is
    /// detected by the receiver's frame check and handled as a drop, so
    /// payloads are never actually damaged.
    pub corrupt_permille: u16,
    /// Whether acknowledgement frames are subject to the drop rates too
    /// (lost acks force retransmission of already-delivered frames, the
    /// classic duplicate-delivery stress).
    pub ack_faults: bool,
    /// Targeted "drop the nth frame on link i→j" entries.
    pub targeted_drops: Vec<TargetedDrop>,
    /// Transient per-link latency spikes (reordering).
    pub spikes: Vec<LinkWindow>,
    /// Machine-wide congestion windows (latency + prefetch shedding).
    pub congestion: Vec<Window>,
}

/// Verdict-domain tags, so the drop/dup/corrupt decisions for one frame are
/// independent draws rather than one shared coin.
const TAG_DROP: u64 = 1;
const TAG_DUP: u64 = 2;
const TAG_CORRUPT: u64 = 3;
const TAG_ACK: u64 = 4;

impl FaultPlan {
    /// The identity plan: nothing dropped, duplicated, corrupted or
    /// delayed. [`FaultPlan::is_active`] returns `false` for it.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            corrupt_permille: 0,
            ack_faults: false,
            targeted_drops: Vec::new(),
            spikes: Vec::new(),
            congestion: Vec::new(),
        }
    }

    /// Whether this plan can ever affect a run. The transport skips frame
    /// bookkeeping entirely for inactive plans, so `FaultPlan::none()` runs
    /// are byte-identical to fault-free builds. The seed alone does not make
    /// a plan active: with all rates zero it can never change a verdict.
    pub fn is_active(&self) -> bool {
        // Exhaustive destructuring: adding a FaultPlan field without
        // classifying it here is a compile error.
        let FaultPlan {
            seed: _,
            drop_permille,
            dup_permille,
            corrupt_permille,
            ack_faults: _,
            targeted_drops,
            spikes,
            congestion,
        } = self;
        *drop_permille != 0
            || *dup_permille != 0
            || *corrupt_permille != 0
            || !targeted_drops.is_empty()
            || !spikes.is_empty()
            || !congestion.is_empty()
    }

    /// Checks the plan against the transport's survivability envelope.
    ///
    /// # Errors
    ///
    /// Rejects probabilities above [`MAX_PERMILLE`] and empty or inverted
    /// windows.
    pub fn validate(&self) -> Result<(), String> {
        let check_rate = |what: &str, v: u16| {
            if v > MAX_PERMILLE {
                Err(format!(
                    "{what} = {v}\u{2030} exceeds {MAX_PERMILLE}\u{2030}"
                ))
            } else {
                Ok(())
            }
        };
        check_rate("drop_permille", self.drop_permille)?;
        check_rate("dup_permille", self.dup_permille)?;
        check_rate("corrupt_permille", self.corrupt_permille)?;
        for s in &self.spikes {
            if s.start >= s.end {
                return Err(format!("spike window {}..{} is empty", s.start, s.end));
            }
        }
        for c in &self.congestion {
            if c.start >= c.end {
                return Err(format!("congestion window {}..{} is empty", c.start, c.end));
            }
        }
        Ok(())
    }

    /// Feeds every field into `h` for cache keying. Exhaustively destructured
    /// like `SysParams::stable_hash`: adding a field without hashing it is a
    /// compile error.
    pub fn stable_hash(&self, h: &mut StableHasher) {
        let FaultPlan {
            seed,
            drop_permille,
            dup_permille,
            corrupt_permille,
            ack_faults,
            targeted_drops,
            spikes,
            congestion,
        } = self;
        h.write_u64(*seed);
        h.write_u64(*drop_permille as u64);
        h.write_u64(*dup_permille as u64);
        h.write_u64(*corrupt_permille as u64);
        h.write_bool(*ack_faults);
        h.write_usize(targeted_drops.len());
        for t in targeted_drops {
            let TargetedDrop { src, dst, nth } = t;
            h.write_usize(*src);
            h.write_usize(*dst);
            h.write_u64(*nth);
        }
        h.write_usize(spikes.len());
        for s in spikes {
            let LinkWindow {
                src,
                dst,
                start,
                end,
                extra,
            } = s;
            h.write_usize(*src);
            h.write_usize(*dst);
            h.write_u64(*start);
            h.write_u64(*end);
            h.write_u64(*extra);
        }
        h.write_usize(congestion.len());
        for c in congestion {
            let Window { start, end, extra } = c;
            h.write_u64(*start);
            h.write_u64(*end);
            h.write_u64(*extra);
        }
    }

    /// One deterministic draw in [0, 1000) for a (tag, frame-identity) pair.
    fn roll(&self, tag: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> u16 {
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_u64(tag);
        h.write_usize(src);
        h.write_usize(dst);
        h.write_u64(seq);
        h.write_u64(attempt as u64);
        (h.finish() % 1000) as u16
    }

    /// Should this data frame be dropped in flight?
    pub fn drop_frame(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        if attempt == 0
            && self
                .targeted_drops
                .iter()
                .any(|t| t.src == src && t.dst == dst && t.nth == seq)
        {
            return true;
        }
        let drop = self.drop_permille;
        drop != 0 && self.roll(TAG_DROP, src, dst, seq, attempt) < drop
    }

    /// Should this data frame be duplicated in flight (one extra copy)?
    pub fn dup_frame(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        let dup = self.dup_permille;
        dup != 0 && self.roll(TAG_DUP, src, dst, seq, attempt) < dup
    }

    /// Should this data frame arrive corrupted (detected and discarded by
    /// the receiver's frame check)?
    pub fn corrupt_frame(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        let corrupt = self.corrupt_permille;
        corrupt != 0 && self.roll(TAG_CORRUPT, src, dst, seq, attempt) < corrupt
    }

    /// Should this acknowledgement frame (travelling `src → dst`) be lost?
    /// Only when [`FaultPlan::ack_faults`] is set; uses the plan-wide drop
    /// rate with an independent verdict domain.
    pub fn drop_ack(&self, src: usize, dst: usize, cum: u64) -> bool {
        if !self.ack_faults {
            return false;
        }
        let drop = self.drop_permille;
        drop != 0 && self.roll(TAG_ACK, src, dst, cum, 0) < drop
    }

    /// Extra delivery latency for a frame departing `src → dst` at `now`:
    /// the sum of all matching spike windows plus all congestion windows.
    pub fn extra_latency(&self, src: usize, dst: usize, now: Cycles) -> Cycles {
        let mut extra: Cycles = 0;
        for s in &self.spikes {
            if s.src == src && s.dst == dst && s.start <= now && now < s.end {
                extra = extra.saturating_add(s.extra);
            }
        }
        for c in &self.congestion {
            if c.start <= now && now < c.end {
                extra = extra.saturating_add(c.extra);
            }
        }
        extra
    }

    /// Whether the machine is inside a congestion window at `now` (the
    /// degradation policy sheds prefetch traffic while this holds).
    pub fn congested_at(&self, now: Cycles) -> bool {
        self.congestion
            .iter()
            .any(|c| c.start <= now && now < c.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_permille: 100,
            dup_permille: 50,
            corrupt_permille: 20,
            ack_faults: true,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let a = lossy(7);
        let b = lossy(7);
        for seq in 0..200 {
            assert_eq!(a.drop_frame(0, 1, seq, 0), b.drop_frame(0, 1, seq, 0));
            assert_eq!(a.dup_frame(0, 1, seq, 0), b.dup_frame(0, 1, seq, 0));
            assert_eq!(a.corrupt_frame(0, 1, seq, 0), b.corrupt_frame(0, 1, seq, 0));
            assert_eq!(a.drop_ack(1, 0, seq), b.drop_ack(1, 0, seq));
        }
    }

    #[test]
    fn seeds_decorrelate_verdicts() {
        let a = lossy(1);
        let b = lossy(2);
        let differs = (0..1000).any(|seq| a.drop_frame(0, 1, seq, 0) != b.drop_frame(0, 1, seq, 0));
        assert!(differs, "two seeds never disagreed over 1000 frames");
    }

    #[test]
    fn drop_rate_tracks_permille() {
        let p = lossy(42);
        let n = 20_000u64;
        let hits = (0..n).filter(|&seq| p.drop_frame(0, 1, seq, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.05..0.15).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn retransmissions_redraw_the_verdict() {
        let p = lossy(3);
        // Some frame dropped at attempt 0 must survive at a later attempt,
        // else the capped-retry argument would not hold.
        let recovered = (0..1000)
            .any(|seq| p.drop_frame(0, 1, seq, 0) && (1..8).any(|a| !p.drop_frame(0, 1, seq, a)));
        assert!(recovered);
    }

    #[test]
    fn targeted_drop_fires_only_on_nth_first_attempt() {
        let mut p = FaultPlan::none();
        p.targeted_drops.push(TargetedDrop {
            src: 2,
            dst: 3,
            nth: 5,
        });
        assert!(p.drop_frame(2, 3, 5, 0));
        assert!(!p.drop_frame(2, 3, 5, 1), "retransmission must get through");
        assert!(!p.drop_frame(2, 3, 4, 0));
        assert!(!p.drop_frame(3, 2, 5, 0), "other direction untouched");
    }

    #[test]
    fn windows_apply_in_range_only() {
        let mut p = FaultPlan::none();
        p.spikes.push(LinkWindow {
            src: 0,
            dst: 1,
            start: 100,
            end: 200,
            extra: 50,
        });
        p.congestion.push(Window {
            start: 150,
            end: 300,
            extra: 10,
        });
        assert_eq!(p.extra_latency(0, 1, 99), 0);
        assert_eq!(p.extra_latency(0, 1, 100), 50);
        assert_eq!(p.extra_latency(0, 1, 150), 60);
        assert_eq!(p.extra_latency(0, 1, 200), 10);
        assert_eq!(p.extra_latency(2, 3, 160), 10, "congestion is global");
        assert!(!p.congested_at(149));
        assert!(p.congested_at(150));
        assert!(!p.congested_at(300));
    }

    #[test]
    fn validation_envelope() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(lossy(0).validate().is_ok());
        for rate in [
            |p: &mut FaultPlan| p.drop_permille = MAX_PERMILLE + 1,
            |p: &mut FaultPlan| p.dup_permille = MAX_PERMILLE + 1,
            |p: &mut FaultPlan| p.corrupt_permille = MAX_PERMILLE + 1,
        ] {
            let mut p = FaultPlan::none();
            rate(&mut p);
            assert!(p.validate().is_err());
        }
        let mut p = FaultPlan::none();
        p.congestion.push(Window {
            start: 5,
            end: 5,
            extra: 1,
        });
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.spikes.push(LinkWindow {
            src: 0,
            dst: 1,
            start: 10,
            end: 10,
            extra: 1,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn none_is_inactive_and_any_knob_activates() {
        assert!(!FaultPlan::none().is_active());
        let mut p = FaultPlan::none();
        p.seed = 99;
        assert!(!p.is_active(), "a bare seed changes no verdict");
        assert!(lossy(0).is_active());
        let mut p = FaultPlan::none();
        p.congestion.push(Window {
            start: 0,
            end: 1,
            extra: 0,
        });
        assert!(p.is_active());
    }

    fn key(p: &FaultPlan) -> u64 {
        let mut h = StableHasher::new();
        p.stable_hash(&mut h);
        h.finish()
    }

    #[test]
    fn stable_hash_sees_every_scalar() {
        let base = key(&FaultPlan::none());
        let mut p = FaultPlan::none();
        p.seed = 1;
        assert_ne!(key(&p), base);
        let mut p = FaultPlan::none();
        p.ack_faults = true;
        assert_ne!(key(&p), base);
        let mut p = FaultPlan::none();
        p.targeted_drops.push(TargetedDrop {
            src: 0,
            dst: 1,
            nth: 0,
        });
        assert_ne!(key(&p), base);
    }
}
