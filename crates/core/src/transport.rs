//! Hardened transport: per-link sequence numbers, cumulative acks, capped
//! exponential-backoff retransmission, duplicate suppression, receive-side
//! resequencing and congestion-driven prefetch shedding.
//!
//! Engaged only when an *active* [`ncp2_fault::FaultPlan`] is attached via
//! [`Simulation::attach_fault_plan`] — otherwise every message takes the
//! legacy exactly-once path in [`Simulation::dispatch`], at the cost of one
//! `None` check per send. AURC automatic updates never enter it, plan or
//! no plan: they ride the wire directly (`Simulation::send_on_wire`), so a
//! fault plan never drops, duplicates, corrupts or retransmits them.
//!
//! ## State machine (per directed link `src → dst`)
//!
//! Sender: each [`Msg`] gets the link's next sequence number and is kept in
//! an `unacked` map until a cumulative ack covers it. Every transmission
//! schedules a retransmit check at `retransmit_timeout << min(attempt,
//! MAX_BACKOFF_EXP)`; a check that finds its frame still unacked at the same
//! attempt bumps the attempt, charges the messaging overhead (controller
//! under the I-modes, processor interrupt otherwise) and re-sends.
//!
//! Receiver: a frame the plan dropped or corrupted in flight is discarded on
//! arrival; the sender's retransmit timer recovers it. Frames below
//! `next_expected` (or already buffered) are duplicates — discarded for the
//! ack-processing cost and re-acked so a lost ack cannot retransmit forever.
//! Frames above `next_expected` wait, whole, in a resequencing buffer
//! (latency spikes and retransmitted gaps reorder the wire). In-order frames
//! deliver their message, drain any now-consecutive buffered frames, and
//! trigger one cumulative ack.
//!
//! Every physical frame copy emits a `FrameSent` event and exactly one
//! terminal event (`FrameAccepted` / `FrameDuplicate` / `FrameDropped`, the
//! last also covering end-of-run drains) — the retransmit-aware conservation
//! law `ncp2-verify` checks.

use std::collections::BTreeMap;

use ncp2_fault::FaultPlan;
use ncp2_sim::{Category, Cycles, Priority};

use crate::controller::Controller;
use crate::msg::{Msg, MSG_HEADER_BYTES};
use crate::observe::ProtocolEvent;
use crate::page::PageId;
use crate::protocol::Protocol;
use crate::span::{CtrlCmd, EdgeKind, Engine, SpanId, SpanKind};
use crate::system::{Ev, Simulation};

/// Hard cap on transmission attempts per frame. At the fault planner's
/// maximum admissible loss rate (50% per attempt, enforced by
/// `FaultPlan::validate`) the chance of exhausting 64 attempts is 2^-64 per
/// frame — the transport treats exhaustion as an unreachable configuration
/// error rather than silently giving up on a message.
pub const MAX_RETX_ATTEMPTS: u32 = 64;

/// Exponential backoff saturates at `retransmit_timeout << MAX_BACKOFF_EXP`.
pub const MAX_BACKOFF_EXP: u32 = 6;

/// Degradation threshold: a node with at least this many unacked frames in
/// flight sheds new prefetch commands (demand traffic keeps its retry
/// budget; prefetches are re-issuable hints per the paper's low-priority
/// prefetch semantics).
pub const SHED_UNACKED_MAX: usize = 4;

/// Wire size of an acknowledgement frame (header only).
const ACK_BYTES: u64 = MSG_HEADER_BYTES;

/// One unacknowledged frame at the sender.
#[derive(Debug)]
struct TxEntry {
    msg: Msg,
    attempt: u32,
    anchor: SpanId,
}

/// Sender state for one directed link.
#[derive(Debug, Default)]
struct LinkTx {
    next_seq: u64,
    unacked: BTreeMap<u64, TxEntry>,
}

/// One physical copy of a transport frame, in flight from `src` to `dst`.
#[derive(Debug)]
pub(crate) struct Frame {
    pub src: usize,
    pub dst: usize,
    /// Link-local sequence number.
    pub seq: u64,
    /// Transmission attempt this copy belongs to.
    pub attempt: u32,
    pub msg: Msg,
    /// Fault verdict rolled at send time: the copy arrives damaged
    /// (dropped or detectably corrupted) and is discarded on arrival.
    pub lost: bool,
    /// Injection time at the sender (for the delivery dependency edge).
    pub sent_at: Cycles,
    /// Sender span anchoring the delivery edge.
    pub anchor: SpanId,
}

/// Receiver state for one directed link.
#[derive(Debug, Default)]
struct LinkRx {
    next_expected: u64,
    /// Reordered frames waiting for their gap to fill, by sequence number.
    buffer: BTreeMap<u64, Box<Frame>>,
}

/// The whole transport: plan, per-link endpoints and run-global counters.
#[derive(Debug)]
pub(crate) struct FaultCtx {
    pub(crate) plan: FaultPlan,
    tx: BTreeMap<(usize, usize), LinkTx>,
    rx: BTreeMap<(usize, usize), LinkRx>,
    pub(crate) stats: crate::stats::FaultStats,
}

impl FaultCtx {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultCtx {
            plan,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            stats: crate::stats::FaultStats::default(),
        }
    }
}

impl Simulation {
    /// Attaches a fault plan: the router applies its latency spikes and the
    /// hardened transport carries every inter-node message. Inactive plans
    /// ([`FaultPlan::is_active`] == false, e.g. [`FaultPlan::none`]) attach
    /// nothing at all, so such runs stay byte-identical to fault-free ones.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        // invariant: construction-time precondition — a plan outside the
        // transport's survivability envelope must fail before the run starts
        plan.validate().expect("invalid fault plan");
        if !plan.is_active() {
            return;
        }
        self.net.set_fault_plan(plan.clone());
        self.fault = Some(Box::new(FaultCtx::new(plan)));
    }

    /// Arms the oracle-test mutation: the next intact inter-node data frame
    /// is consumed on arrival without delivery and without a terminal frame
    /// event — the retransmit-aware conservation law must flag it. (The
    /// logical message still arrives eventually via retransmission, so the
    /// run completes.)
    pub fn inject_silent_frame_loss(&mut self) {
        self.silent_frame_loss_armed = true;
    }

    /// Hands `msg` to the transport: assigns the link's next sequence
    /// number, remembers it for retransmission and sends the first attempt.
    pub(crate) fn transport_send(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) {
        let anchor = self.sinks.obs_last_span(src);
        // invariant: dispatch() only routes here with the transport attached
        let ctx = self.fault.as_mut().expect("transport without fault ctx");
        let tx = ctx.tx.entry((src, dst)).or_default();
        let seq = tx.next_seq;
        tx.next_seq += 1;
        tx.unacked.insert(
            seq,
            TxEntry {
                msg: msg.clone(),
                attempt: 0,
                anchor,
            },
        );
        self.send_frame(t, src, dst, seq, 0, msg, anchor);
    }

    /// Injects one transmission attempt of a frame: consults the plan for
    /// drop/corrupt/duplicate verdicts, books the network for each physical
    /// copy, and schedules the retransmit check.
    // The argument list is the frame header; bundling it into a struct would
    // just rename the fields.
    #[allow(clippy::too_many_arguments)]
    fn send_frame(
        &mut self,
        t: Cycles,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        msg: Msg,
        anchor: SpanId,
    ) {
        let params = self.params.clone();
        let bytes = msg.bytes(params.page_bytes, params.page_words());
        let (kind, demand) = (msg.kind(), !msg.is_prefetch());
        let prio = if demand {
            Priority::Normal
        } else {
            Priority::Low
        };
        let (lost, copies) = {
            // invariant: only reachable with the transport attached
            let ctx = self.fault.as_mut().expect("send_frame without fault ctx");
            let drop = ctx.plan.drop_frame(src, dst, seq, attempt);
            let corrupt = !drop && ctx.plan.corrupt_frame(src, dst, seq, attempt);
            if drop {
                ctx.stats.drops_injected += 1;
            }
            if corrupt {
                // Corruption is detected at the receiver (checksum) and the
                // frame discarded — the payload itself is never mutated, so
                // application results stay fault-free-identical.
                ctx.stats.corrupts_injected += 1;
            }
            let lost = drop || corrupt;
            let dup = ctx.plan.dup_frame(src, dst, seq, attempt);
            if dup {
                ctx.stats.dups_injected += 1;
            }
            (lost, if dup { 2 } else { 1 })
        };
        for copy in 0..copies {
            // The duplicate copy always arrives intact: its purpose is to
            // stress receive-side suppression, not to double the loss rate.
            let copy_lost = lost && copy == 0;
            let tr = self.net.transfer_timed(t, src, dst, bytes, &params);
            self.sinks.note(
                t,
                src,
                ProtocolEvent::FrameSent {
                    src,
                    dst,
                    seq,
                    attempt,
                    kind,
                    demand,
                    bytes,
                    wire: tr,
                },
            );
            self.queue.push(
                tr.arrival,
                prio,
                Ev::Frame(Box::new(Frame {
                    src,
                    dst,
                    seq,
                    attempt,
                    msg: msg.clone(),
                    lost: copy_lost,
                    sent_at: t,
                    anchor,
                })),
            );
        }
        let rto = params.retransmit_timeout << attempt.min(MAX_BACKOFF_EXP);
        self.queue.push(
            t + rto,
            Priority::Normal,
            Ev::RetxCheck {
                src,
                dst,
                seq,
                attempt,
            },
        );
    }

    /// A frame reached its destination's network interface at `t`.
    pub(crate) fn on_frame(&mut self, t: Cycles, frame: Box<Frame>) {
        let ack_oh = self.params.ack_overhead;
        let (src, dst, seq, attempt) = (frame.src, frame.dst, frame.seq, frame.attempt);
        if frame.lost {
            self.sinks.note(
                t,
                dst,
                ProtocolEvent::FrameDropped {
                    src,
                    dst,
                    seq,
                    attempt,
                },
            );
            return;
        }
        if self.silent_frame_loss_armed && !frame.msg.is_prefetch() {
            // Mutation hook: consume the frame with no terminal event and no
            // delivery. The conservation oracle must notice the imbalance.
            self.silent_frame_loss_armed = false;
            return;
        }
        let verdict = {
            // invariant: frame events only exist with the transport attached
            let ctx = self.fault.as_mut().expect("frame without fault ctx");
            let rx = ctx.rx.entry((src, dst)).or_default();
            if seq < rx.next_expected || rx.buffer.contains_key(&seq) {
                ctx.stats.dup_frames_dropped += 1;
                FrameVerdict::Duplicate
            } else if seq > rx.next_expected {
                rx.buffer.insert(seq, frame);
                FrameVerdict::Buffered
            } else {
                FrameVerdict::Deliver(frame)
            }
        };
        match verdict {
            FrameVerdict::Duplicate => {
                self.sinks.note(
                    t,
                    dst,
                    ProtocolEvent::FrameDuplicate {
                        src,
                        dst,
                        seq,
                        attempt,
                    },
                );
                let done =
                    self.interrupt_proc(dst, t, ack_oh, Category::Ipc, SpanKind::DuplicateDropped);
                // Re-ack so a lost ack cannot make the sender retry forever.
                self.send_ack(done, src, dst);
            }
            FrameVerdict::Buffered => {
                // Out of order: wait for the gap; the ack stays cumulative.
            }
            FrameVerdict::Deliver(frame) => {
                self.deliver_frame(t, *frame);
                // Drain frames the gap-fill made consecutive.
                loop {
                    let next = {
                        // invariant: deliver_frame keeps the ctx attached
                        let ctx = self.fault.as_mut().expect("frame without fault ctx");
                        let rx = ctx.rx.entry((src, dst)).or_default();
                        let seq = rx.next_expected;
                        rx.buffer.remove(&seq)
                    };
                    let Some(frame) = next else { break };
                    self.deliver_frame(t, *frame);
                }
                let done = self.interrupt_proc(dst, t, ack_oh, Category::Ipc, SpanKind::MsgSetup);
                self.send_ack(done, src, dst);
            }
        }
    }

    /// Delivers one in-order frame: terminal frame event, dependency edge,
    /// the message handler, and the receive-window advance.
    fn deliver_frame(&mut self, t: Cycles, frame: Frame) {
        let Frame {
            src,
            dst,
            seq,
            attempt,
            msg,
            lost: _,
            sent_at,
            anchor,
        } = frame;
        {
            // invariant: only called from on_frame with the transport attached
            let ctx = self.fault.as_mut().expect("deliver without fault ctx");
            let rx = ctx.rx.entry((src, dst)).or_default();
            debug_assert_eq!(rx.next_expected, seq, "out-of-order delivery");
            rx.next_expected = seq + 1;
        }
        self.sinks.note(
            t,
            dst,
            ProtocolEvent::FrameAccepted {
                src,
                dst,
                seq,
                attempt,
            },
        );
        self.sinks
            .obs_edge(EdgeKind::Msg(msg.kind()), src, sent_at, dst, t, 0, anchor);
        self.handle_msg(dst, t, msg);
    }

    /// Emits a cumulative ack for link `src → dst` (travelling `dst → src`).
    fn send_ack(&mut self, t: Cycles, src: usize, dst: usize) {
        let params = self.params.clone();
        let (cum, lost) = {
            // invariant: only called from on_frame with the transport attached
            let ctx = self.fault.as_mut().expect("ack without fault ctx");
            let cum = ctx.rx.entry((src, dst)).or_default().next_expected;
            ctx.stats.acks_sent += 1;
            (cum, ctx.plan.drop_ack(dst, src, cum))
        };
        // The ack occupies the wire either way; a lost ack just never fires.
        let tr = self.net.transfer_timed(t, dst, src, ACK_BYTES, &params);
        self.sinks.note(
            t,
            dst,
            ProtocolEvent::AckSent {
                src: dst,
                dst: src,
                bytes: ACK_BYTES,
            },
        );
        if !lost {
            self.queue
                .push(tr.arrival, Priority::Normal, Ev::Ack { src, dst, cum });
        }
    }

    /// A cumulative ack arrived back at the sender: retire covered frames
    /// and charge the absorption cost.
    pub(crate) fn on_ack(&mut self, t: Cycles, src: usize, dst: usize, cum: u64) {
        let retired = {
            // invariant: ack events only exist with the transport attached
            let ctx = self.fault.as_mut().expect("ack without fault ctx");
            let tx = ctx.tx.entry((src, dst)).or_default();
            let mut retired: u64 = 0;
            while let Some((&seq, _)) = tx.unacked.first_key_value() {
                if seq >= cum {
                    break;
                }
                tx.unacked.remove(&seq);
                retired += 1;
            }
            retired
        };
        self.sinks.note(
            t,
            src,
            ProtocolEvent::FramesAcked {
                src,
                dst,
                frames: retired,
            },
        );
        let ack_oh = self.params.ack_overhead;
        self.interrupt_proc(src, t, ack_oh, Category::Ipc, SpanKind::MsgSetup);
    }

    /// A retransmit timer fired: if its frame is still unacked at the same
    /// attempt, bump the attempt, charge the resend and go again.
    pub(crate) fn on_retx_check(
        &mut self,
        t: Cycles,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) {
        let ack_oh = self.params.ack_overhead;
        let resend = {
            // invariant: retx events only exist with the transport attached
            let ctx = self.fault.as_mut().expect("retx without fault ctx");
            let tx = ctx.tx.entry((src, dst)).or_default();
            match tx.unacked.get_mut(&seq) {
                // Acked, or a newer attempt owns the timer: stale check.
                None => None,
                Some(e) if e.attempt != attempt => None,
                Some(e) => {
                    e.attempt += 1;
                    // invariant: the validated fault envelope (≤ 50% loss per
                    // attempt) makes 64 consecutive losses a 2^-64 event —
                    // reaching the cap means the plan or transport is broken
                    assert!(
                        e.attempt <= MAX_RETX_ATTEMPTS,
                        "frame {src}->{dst} seq {seq} exhausted {MAX_RETX_ATTEMPTS} attempts"
                    );
                    let bucket = ((e.attempt - 1) as usize).min(crate::stats::RETX_BUCKETS - 1);
                    ctx.stats.retx_by_attempt[bucket] += 1;
                    Some((e.attempt, e.msg.clone(), e.anchor))
                }
            }
        };
        let Some((next_attempt, msg, anchor)) = resend else {
            return;
        };
        self.sinks.note(
            t,
            src,
            ProtocolEvent::Retransmit {
                src,
                dst,
                seq,
                attempt: next_attempt,
            },
        );
        // The timeout decision is receive-path-sized work; the resend itself
        // pays the full messaging overhead on the controller (I-modes) or
        // the processor.
        let decided =
            self.interrupt_proc(src, t, ack_oh, Category::Ipc, SpanKind::RetransmitTimeout);
        let offload = matches!(self.protocol, Protocol::TreadMarks(m) if m.offload());
        let injected = if offload {
            let oh = Controller::issue_cost(&self.params);
            let (s, end) = self.nodes[src].ctrl.run_io(decided, oh);
            self.note_ctrl(src, Engine::CtrlIo, CtrlCmd::Send, s, end);
            end
        } else {
            let oh = self.params.messaging_overhead;
            self.interrupt_proc(src, decided, oh, Category::Ipc, SpanKind::Retransmit)
        };
        self.send_frame(injected, src, dst, seq, next_attempt, msg, anchor);
    }

    /// Degradation policy: should this prefetch command be shed? True under
    /// a congestion window or when the issuing node's unacked backlog is at
    /// least [`SHED_UNACKED_MAX`] frames. Records the shed when it happens.
    pub(crate) fn shed_prefetch(&mut self, pid: usize, page: PageId, now: Cycles) -> bool {
        let shed = match self.fault.as_ref() {
            None => false,
            Some(ctx) => {
                ctx.plan.congested_at(now)
                    || ctx
                        .tx
                        .iter()
                        .filter(|((s, _), _)| *s == pid)
                        .map(|(_, tx)| tx.unacked.len())
                        .sum::<usize>()
                        >= SHED_UNACKED_MAX
            }
        };
        if shed {
            self.sinks
                .note(now, pid, ProtocolEvent::PrefetchShed { pid, page });
        }
        shed
    }

    /// End-of-run drain: frames legally in flight (their message already
    /// delivered by another attempt) or stranded in a resequencing buffer
    /// get their terminal `FrameDropped` so the conservation law balances.
    pub(crate) fn drain_inflight_frames(&mut self) {
        let mut leftovers: Vec<(usize, usize, u64, u32)> = Vec::new();
        while let Some(ev) = self.queue.pop() {
            if let Ev::Frame(f) = ev.payload {
                leftovers.push((f.src, f.dst, f.seq, f.attempt));
            }
        }
        if let Some(ctx) = self.fault.as_mut() {
            for ((src, dst), rx) in ctx.rx.iter_mut() {
                for (&seq, f) in rx.buffer.iter() {
                    leftovers.push((*src, *dst, seq, f.attempt));
                }
                rx.buffer.clear();
            }
            ctx.stats.frames_drained += leftovers.len() as u64;
        }
        leftovers.sort_unstable();
        let end = self.nodes.iter().map(|nd| nd.time).max().unwrap_or(0);
        for (src, dst, seq, attempt) in leftovers {
            self.sinks.note(
                end,
                dst,
                ProtocolEvent::FrameDropped {
                    src,
                    dst,
                    seq,
                    attempt,
                },
            );
        }
    }
}

/// What the receive window decided about an arriving frame.
enum FrameVerdict {
    Duplicate,
    Buffered,
    Deliver(Box<Frame>),
}
