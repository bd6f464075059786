//! Run-ahead front end: real Rust workload threads driving simulated
//! processors.
//!
//! Each simulated computation processor is an OS thread executing actual
//! workload code. Its [`ProcPort`] turns the workload's operations into one
//! ordered op stream for the back end:
//!
//! * an op that returns no value (see [`ProcOp::returns_value`]) joins a
//!   thread-local batch and is acknowledged at once;
//! * a read of a page the port holds a copy of is answered on the workload
//!   thread and joins the batch as [`ProcOp::ServedRead`], carrying the
//!   value served (see *Served reads* below);
//! * the batch goes to the back end in one channel send when the workload
//!   issues any other value-returning op (which ends the batch; the port
//!   then waits for that single reply), issues [`ProcOp::Finish`], or has
//!   queued [`ProcPort::BATCH_CAP`] ops.
//!
//! The back end drains each processor's stream in issue order and resumes
//! exactly one processor at a time (the one with the smallest local clock).
//! A workload's next op can depend only on values it waited for or was
//! served, so the back end sees the same per-processor op sequence however
//! far a thread runs ahead, and the simulation is fully deterministic
//! despite using threads. A thread runs ahead at most to its next
//! round-trip op, and at most a few batches beyond what the back end has
//! taken.
//!
//! # Served reads
//!
//! A harness built with [`ProcHarness::spawn_with_pages`] gives each port a
//! private page cache. It relies on the back end's consistency model: a
//! page the node holds changes only through the node's own writes and its
//! own acquires ([`ProcOp::Lock`], [`ProcOp::Barrier`]), as under lazy
//! release consistency. The port
//!
//! * asks for a copy of a page on its second round-trip read of that page
//!   within one sync epoch (copies are lazy: one shipped on every round
//!   trip would mostly go unused), and keeps the copy the reply carries;
//! * applies the node's own [`ProcOp::Write`]s to its copy as they are
//!   posted (the back end still applies them in order to its own image);
//! * drops every copy when it posts an acquire. [`ProcOp::Unlock`] and
//!   clock reads keep them.
//!
//! The back end replays each served read in issue order as the read it
//! stands for, so simulated time and statistics do not depend on which
//! reads were served; it checks that the replay returns the served value.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::ops::{ProcId, ProcOp, ProcReply};

/// Scheduling state of a simulated processor, tracked by back ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcStatus {
    /// Has (or will have) a pending operation to execute.
    #[default]
    Runnable,
    /// Waiting on the protocol (fault service, lock grant, barrier...).
    Blocked,
    /// Issued [`ProcOp::Finish`].
    Done,
}

/// Batches a workload thread may have sent that the back end has not yet
/// taken. A thread with a full stream waits, so one processor's run-ahead
/// holds at most `(STREAM_BATCHES + 2) * BATCH_CAP` ops: the stream, the
/// batch being drained and the batch being filled.
const STREAM_BATCHES: usize = 4;

/// One send from a workload thread: ops in issue order, ending in the
/// round-trip op when there is one.
#[derive(Debug)]
struct Batch {
    ops: Vec<ProcOp>,
    /// The closing read asks for a copy of its page.
    want_page: bool,
}

/// A value reply, carrying the drained batch buffer back for reuse and,
/// when the read asked for one, a copy of the page read.
#[derive(Debug)]
struct ValueReply {
    value: u64,
    ops: Vec<ProcOp>,
    page: Option<Box<[u8]>>,
}

/// A port's page cache for the current sync epoch (see the module doc).
#[derive(Debug, Default)]
struct PageCache {
    /// Page size in bytes; 0 when the back end ships no copies.
    page_bytes: u64,
    /// Pages read by round trip this epoch.
    read: HashSet<u64>,
    /// Copies held this epoch, by page id.
    copies: HashMap<u64, Box<[u8]>>,
}

impl PageCache {
    /// The copy of `addr`'s page, if held, and the offset of `addr` in it.
    fn copy(&mut self, addr: u64) -> Option<(&mut [u8], usize)> {
        if self.copies.is_empty() {
            return None;
        }
        let copy = self.copies.get_mut(&(addr / self.page_bytes))?;
        Some((copy, (addr % self.page_bytes) as usize))
    }

    /// The value at `addr`, when its page is held.
    fn read(&mut self, addr: u64, bytes: u8) -> Option<u64> {
        let (copy, off) = self.copy(addr)?;
        let mut le = [0u8; 8];
        le[..bytes as usize].copy_from_slice(&copy[off..off + bytes as usize]);
        Some(u64::from_le_bytes(le))
    }

    /// Applies the node's own write to the copy of its page, if held.
    fn write(&mut self, addr: u64, bytes: u8, value: u64) {
        if let Some((copy, off)) = self.copy(addr) {
            copy[off..off + bytes as usize].copy_from_slice(&value.to_le_bytes()[..bytes as usize]);
        }
    }

    /// Records a round-trip read of `addr`'s page; returns whether the read
    /// should ask for a copy (the page was read by round trip before in
    /// this epoch).
    fn note_round_trip(&mut self, addr: u64) -> bool {
        self.page_bytes != 0 && !self.read.insert(addr / self.page_bytes)
    }

    /// Keeps the copy of `addr`'s page a reply carried.
    fn fill(&mut self, addr: u64, copy: Box<[u8]>) {
        assert_eq!(
            copy.len() as u64,
            self.page_bytes,
            "page copy of the wrong size"
        );
        self.copies.insert(addr / self.page_bytes, copy);
    }

    /// Starts the next epoch: drops every copy.
    fn clear(&mut self) {
        self.read.clear();
        self.copies.clear();
    }
}

/// Workload-side handle: issues operations and receives replies.
///
/// Handed to the workload closure by [`ProcHarness::spawn`]; workloads
/// normally use the ergonomic wrappers in `ncp2-apps` rather than calling
/// [`ProcPort::call`] directly.
#[derive(Debug)]
pub struct ProcPort {
    /// Ops issued but not yet sent, in issue order.
    batch: RefCell<Vec<ProcOp>>,
    cache: RefCell<PageCache>,
    op_tx: SyncSender<Batch>,
    reply_rx: Receiver<ValueReply>,
}

impl ProcPort {
    /// Most ops one batch holds; a full batch is sent without waiting for a
    /// value-returning op.
    pub const BATCH_CAP: usize = 1024;

    /// Issues one operation.
    ///
    /// An op that returns no value is queued and answered with
    /// [`ProcReply::Ack`] at once. So is a read of a page the port holds a
    /// copy of: it is answered from the copy and queued as
    /// [`ProcOp::ServedRead`]. Any other value-returning op is sent with the
    /// queue ahead of it, and the call blocks until the back end completes
    /// it. Writes update the port's copy of their page; acquires drop every
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if the back end has gone away (simulation aborted).
    pub fn call(&self, op: ProcOp) -> ProcReply {
        let mut cache = self.cache.borrow_mut();
        match op {
            ProcOp::Read { addr, bytes } => {
                if let Some(value) = cache.read(addr, bytes) {
                    self.post(ProcOp::ServedRead { addr, bytes, value });
                    return ProcReply::Value(value);
                }
                let want_page = cache.note_round_trip(addr);
                let reply = self.round_trip(op, want_page);
                if let Some(copy) = reply.page {
                    cache.fill(addr, copy);
                }
                return ProcReply::Value(reply.value);
            }
            ProcOp::Write { addr, bytes, value } => cache.write(addr, bytes, value),
            ProcOp::Lock(_) | ProcOp::Barrier(_) => cache.clear(),
            _ => {}
        }
        if op.returns_value() {
            return ProcReply::Value(self.round_trip(op, false).value);
        }
        self.post(op);
        ProcReply::Ack
    }

    /// Queues an Ack-only op, sending the batch when it ends the stream or
    /// fills the batch.
    fn post(&self, op: ProcOp) {
        let mut batch = self.batch.borrow_mut();
        batch.push(op);
        if op == ProcOp::Finish || batch.len() >= Self::BATCH_CAP {
            self.send(&mut batch, false);
        }
    }

    /// Sends `op` with the batch ahead of it and waits for its reply.
    fn round_trip(&self, op: ProcOp, want_page: bool) -> ValueReply {
        let mut batch = self.batch.borrow_mut();
        batch.push(op);
        self.send(&mut batch, want_page);
        let mut reply = self
            .reply_rx
            .recv()
            .expect("simulation back end terminated");
        *batch = std::mem::take(&mut reply.ops);
        reply
    }

    fn send(&self, batch: &mut Vec<ProcOp>, want_page: bool) {
        let ops = std::mem::take(batch);
        self.op_tx
            .send(Batch { ops, want_page })
            .expect("simulation back end terminated");
    }
}

/// Back-end side of one processor's op stream.
#[derive(Debug)]
struct Lane {
    op_rx: Receiver<Batch>,
    reply_tx: SyncSender<ValueReply>,
    /// The batch being drained.
    batch: RefCell<Vec<ProcOp>>,
    /// Index in `batch` of the next op to hand out.
    next: Cell<usize>,
    /// The batch's closing read asks for a copy of its page.
    want_page: Cell<bool>,
}

/// Owns the workload threads and the per-processor op streams.
///
/// ```
/// use ncp2_sim::{ProcHarness, ProcOp, ProcReply};
///
/// let harness = ProcHarness::spawn(2, |pid, port| {
///     port.call(ProcOp::Compute(10 * (pid as u64 + 1)));
///     let v = port.call(ProcOp::Read { addr: 0, bytes: 4 }).value();
///     port.call(ProcOp::Compute(v));
///     port.call(ProcOp::Finish);
/// });
/// for pid in 0..2 {
///     assert!(matches!(harness.next_op(pid), ProcOp::Compute(_)));
///     assert!(matches!(harness.next_op(pid), ProcOp::Read { .. }));
///     harness.reply(pid, ProcReply::Value(7));
///     assert_eq!(harness.next_op(pid), ProcOp::Compute(7));
///     assert_eq!(harness.next_op(pid), ProcOp::Finish);
/// }
/// harness.join();
/// ```
#[derive(Debug)]
pub struct ProcHarness {
    lanes: Vec<Lane>,
    threads: Vec<JoinHandle<()>>,
}

impl ProcHarness {
    /// Spawns `n` workload threads, each running `body(pid, port)`. The
    /// ports cache no pages: every read is a round trip.
    ///
    /// The body **must** end by issuing [`ProcOp::Finish`] (and may not issue
    /// anything afterwards); that sends its last batch.
    pub fn spawn<F>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, ProcPort) + Send + Sync + 'static,
    {
        Self::spawn_with_pages(n, 0, body)
    }

    /// [`Self::spawn`] with a page cache of `page_bytes`-byte pages in each
    /// port (none when `page_bytes` is 0), for a back end whose pages change
    /// only through a node's own writes and acquires (see the module doc).
    /// A read may then ask for a copy of its page ([`Self::wants_page`]);
    /// the back end answers it with [`Self::reply_page`].
    pub fn spawn_with_pages<F>(n: usize, page_bytes: u64, body: F) -> Self
    where
        F: Fn(ProcId, ProcPort) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut lanes = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for pid in 0..n {
            let (op_tx, op_rx) = sync_channel(STREAM_BATCHES);
            let (reply_tx, reply_rx) = sync_channel(1);
            lanes.push(Lane {
                op_rx,
                reply_tx,
                batch: RefCell::new(Vec::new()),
                next: Cell::new(0),
                want_page: Cell::new(false),
            });
            let body = Arc::clone(&body);
            let port = ProcPort {
                batch: RefCell::new(Vec::new()),
                cache: RefCell::new(PageCache {
                    page_bytes,
                    ..Default::default()
                }),
                op_tx,
                reply_rx,
            };
            let handle = std::thread::Builder::new()
                .name(format!("ncp2-proc-{pid}"))
                .spawn(move || body(pid, port))
                .expect("failed to spawn workload thread");
            threads.push(handle);
        }
        ProcHarness { lanes, threads }
    }

    /// Number of simulated processors.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the harness drives zero processors.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Returns the next operation of processor `pid`, in issue order,
    /// blocking until the workload thread sends its next batch when the
    /// current one is drained.
    ///
    /// # Panics
    ///
    /// Panics if the workload thread has panicked or exited without
    /// issuing [`ProcOp::Finish`].
    pub fn next_op(&self, pid: ProcId) -> ProcOp {
        let lane = &self.lanes[pid];
        let mut batch = lane.batch.borrow_mut();
        let mut next = lane.next.get();
        if next == batch.len() {
            let sent = lane
                .op_rx
                .recv()
                .unwrap_or_else(|_| panic!("workload thread {pid} died before Finish"));
            *batch = sent.ops;
            lane.want_page.set(sent.want_page);
            next = 0;
        }
        lane.next.set(next + 1);
        batch[next]
    }

    /// Completes processor `pid`'s pending value-returning operation.
    ///
    /// [`ProcReply::Ack`] is ignored: the port acknowledged the op when it
    /// was issued.
    pub fn reply(&self, pid: ProcId, reply: ProcReply) {
        if let ProcReply::Value(value) = reply {
            self.send_reply(pid, value, None);
        }
    }

    /// Whether processor `pid`'s pending read asks for a copy of its page;
    /// answer it with [`Self::reply_page`] (or with [`Self::reply`] to
    /// decline).
    pub fn wants_page(&self, pid: ProcId) -> bool {
        let lane = &self.lanes[pid];
        // The flag belongs to the batch's closing op: the last one handed out.
        lane.want_page.get() && lane.next.get() == lane.batch.borrow().len()
    }

    /// Completes processor `pid`'s pending read with `value` and a copy of
    /// the page it read, as the node holds it after the read. The port
    /// serves the page's later reads from the copy until its next acquire.
    pub fn reply_page(&self, pid: ProcId, value: u64, page: &[u8]) {
        debug_assert!(self.wants_page(pid), "unrequested page copy for {pid}");
        self.send_reply(pid, value, Some(page.into()));
    }

    fn send_reply(&self, pid: ProcId, value: u64, page: Option<Box<[u8]>>) {
        let lane = &self.lanes[pid];
        let mut batch = lane.batch.borrow_mut();
        // A value-returning op ends its batch, so the batch is drained.
        debug_assert!(
            lane.next.get() == batch.len() && batch.last().is_some_and(ProcOp::returns_value),
            "value reply to processor {pid} without a pending value op"
        );
        let mut ops = std::mem::take(&mut *batch);
        ops.clear();
        lane.next.set(0);
        lane.want_page.set(false);
        // A send can only fail after the workload exited; that would be a
        // back-end protocol bug.
        lane.reply_tx
            .send(ValueReply { value, ops, page })
            .unwrap_or_else(|_| panic!("workload thread {pid} no longer listening"));
    }

    /// Joins all workload threads, propagating any workload panic.
    ///
    /// # Panics
    ///
    /// Panics if any workload thread panicked.
    pub fn join(self) {
        drop(self.lanes);
        for (pid, t) in self.threads.into_iter().enumerate() {
            if let Err(e) = t.join() {
                std::panic::panic_any(format!("workload thread {pid} panicked: {e:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn round_trip_many_ops() {
        let harness = ProcHarness::spawn(4, |pid, port| {
            for i in 0..100u64 {
                let r = port.call(ProcOp::Read {
                    addr: i * 4,
                    bytes: 4,
                });
                assert_eq!(r.value(), i + pid as u64);
            }
            port.call(ProcOp::Finish);
        });
        // Interleave processors round-robin.
        let mut counts = [0u64; 4];
        let mut done = 0;
        while done < 4 {
            for (pid, count) in counts.iter_mut().enumerate() {
                if *count > 100 {
                    continue;
                }
                match harness.next_op(pid) {
                    ProcOp::Read { addr, bytes: 4 } => {
                        assert_eq!(addr, *count * 4);
                        harness.reply(pid, ProcReply::Value(*count + pid as u64));
                        *count += 1;
                    }
                    ProcOp::Finish => {
                        // Dropped: only value replies are sent.
                        harness.reply(pid, ProcReply::Ack);
                        *count = 101;
                        done += 1;
                    }
                    other => panic!("unexpected op {other:?}"),
                }
            }
        }
        harness.join();
    }

    #[test]
    fn ack_only_ops_do_not_rendezvous() {
        // The workload fills the stream (three full batches and its Finish),
        // then signals, all before the back end takes a single op.
        let (posted_tx, posted_rx) = sync_channel(1);
        let n = ((STREAM_BATCHES - 1) * ProcPort::BATCH_CAP) as u64;
        let harness = ProcHarness::spawn(1, move |_, port| {
            for i in 0..n {
                assert_eq!(port.call(ProcOp::Compute(i)), ProcReply::Ack);
            }
            port.call(ProcOp::Finish);
            posted_tx.send(()).expect("test waits for the signal");
        });
        posted_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("workload waited on an Ack-only op");
        for i in 0..n {
            assert_eq!(harness.next_op(0), ProcOp::Compute(i));
        }
        assert_eq!(harness.next_op(0), ProcOp::Finish);
        harness.join();
    }
}
