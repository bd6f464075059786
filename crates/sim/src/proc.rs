//! Threaded op-stream adapter, kept for the host benchmark's front-end
//! probe: a workload closure per OS thread, its ops streamed to a driver
//! on the calling thread. The simulator does not use it: `Simulation::run`
//! drives workloads as coroutines ([`crate::Coroutines`]). Delete this
//! module once that probe measures the front end through the public run
//! entry.
//!
//! Each workload thread's [`ProcPort`] turns the workload's operations into
//! one ordered op stream:
//!
//! * an op that returns no value (see [`ProcOp::returns_value`]) joins a
//!   thread-local batch and is acknowledged at once;
//! * the batch goes to the driver in one channel send when the workload
//!   issues a value-returning op (which ends the batch; the port then waits
//!   for that single reply), issues [`ProcOp::Finish`], or has queued
//!   [`ProcPort::BATCH_CAP`] ops.
//!
//! The driver drains each processor's stream in issue order with
//! [`ProcHarness::next_op`]. A thread runs ahead at most to its next
//! round-trip op, and at most a few batches beyond what the driver has
//! taken.

use std::cell::{Cell, RefCell};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::ops::{ProcId, ProcOp, ProcReply};

/// Batches a workload thread may have sent that the driver has not yet
/// taken. A thread with a full stream waits, so one processor's run-ahead
/// holds at most `(STREAM_BATCHES + 2) * BATCH_CAP` ops: the stream, the
/// batch being drained and the batch being filled.
const STREAM_BATCHES: usize = 4;

/// A value reply, carrying the drained batch buffer back for reuse.
#[derive(Debug)]
struct ValueReply {
    value: u64,
    ops: Vec<ProcOp>,
}

/// Workload-side handle: issues operations and receives replies.
#[derive(Debug)]
pub struct ProcPort {
    /// Ops issued but not yet sent, in issue order.
    batch: RefCell<Vec<ProcOp>>,
    op_tx: SyncSender<Vec<ProcOp>>,
    reply_rx: Receiver<ValueReply>,
}

impl ProcPort {
    /// Most ops one batch holds; a full batch is sent without waiting for a
    /// value-returning op.
    pub const BATCH_CAP: usize = 1024;

    /// Issues one operation.
    ///
    /// An op that returns no value is queued and answered with
    /// [`ProcReply::Ack`] at once. A value-returning op is sent with the
    /// queue ahead of it, and the call blocks until the driver replies.
    ///
    /// # Panics
    ///
    /// Panics if the driver has gone away.
    pub fn call(&self, op: ProcOp) -> ProcReply {
        let mut batch = self.batch.borrow_mut();
        batch.push(op);
        if op.returns_value() {
            self.send(&mut batch);
            let mut reply = self.reply_rx.recv().expect("op-stream driver terminated");
            *batch = std::mem::take(&mut reply.ops);
            return ProcReply::Value(reply.value);
        }
        if op == ProcOp::Finish || batch.len() >= Self::BATCH_CAP {
            self.send(&mut batch);
        }
        ProcReply::Ack
    }

    fn send(&self, batch: &mut Vec<ProcOp>) {
        self.op_tx
            .send(std::mem::take(batch))
            .expect("op-stream driver terminated");
    }
}

/// Driver side of one processor's op stream.
#[derive(Debug)]
struct Lane {
    op_rx: Receiver<Vec<ProcOp>>,
    reply_tx: SyncSender<ValueReply>,
    /// The batch being drained.
    batch: RefCell<Vec<ProcOp>>,
    /// Index in `batch` of the next op to hand out.
    next: Cell<usize>,
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
    /// Spawns `n` workload threads, each running `body(pid, port)`.
    ///
    /// The body **must** end by issuing [`ProcOp::Finish`] (and may not issue
    /// anything afterwards); that sends its last batch.
    pub fn spawn<F>(n: usize, body: F) -> Self
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
            });
            let body = Arc::clone(&body);
            let port = ProcPort {
                batch: RefCell::new(Vec::new()),
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
            *batch = lane
                .op_rx
                .recv()
                .unwrap_or_else(|_| panic!("workload thread {pid} died before Finish"));
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
        let ProcReply::Value(value) = reply else {
            return;
        };
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
        lane.reply_tx
            .send(ValueReply { value, ops })
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
