//! Coroutine front end: workloads run as futures on the simulator thread,
//! driving the simulated processors one op at a time.
//!
//! Each simulated computation processor runs its workload as a future
//! holding a [`Port`]. [`Port::call`] puts the op in the port's slot and
//! suspends the workload. The back end resumes one processor at a time (the
//! one with the smallest local clock, as the paper's Mint front end was
//! resumed): [`Coroutines::next_op`] polls that processor's future once,
//! the workload runs up to its next op, and the back end takes the op from
//! the slot. An op that returns no value completes when the workload is
//! next resumed. A value op (see [`ProcOp::returns_value`]) stays pending
//! until the back end stores its reply with [`Coroutines::reply`]; the back
//! end resumes the processor only after that. A workload whose future
//! completes issues [`ProcOp::Finish`].
//!
//! Everything runs on one thread, with no channel, batch or copy between
//! the workload and the back end. A workload's next op depends only on the
//! replies it got, so each processor's op sequence, and with it the whole
//! run, is a deterministic function of the configuration.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

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

/// What a port's slot holds between the workload and the back end.
#[derive(Debug, Clone, Copy, Default)]
enum Slot {
    /// Nothing: the back end took the last op and owes it no value.
    #[default]
    Empty,
    /// An op the workload issued, not yet taken by the back end.
    Op(ProcOp),
    /// The value completing the workload's pending value op.
    Reply(u64),
}

/// A processor's handle on its op slot, shared by its workload future and
/// the back end. Workloads normally use the typed wrappers of `ncp2-apps`'
/// `Ctx` rather than calling [`Port::call`] directly.
#[derive(Debug, Clone, Default)]
pub struct Port(Rc<Cell<Slot>>);

impl Port {
    /// Issues `op` when awaited: completes with [`ProcReply::Ack`] once the
    /// back end took it, or with the back end's [`ProcReply::Value`] for a
    /// value op.
    pub fn call(&self, op: ProcOp) -> Call<'_> {
        Call {
            port: self,
            op: Some(op),
        }
    }

    /// The op the workload issued and the back end has not taken yet. A
    /// wrapper future sees here the op its workload suspended on.
    pub fn pending_op(&self) -> Option<ProcOp> {
        match self.0.get() {
            Slot::Op(op) => Some(op),
            _ => None,
        }
    }
}

/// The future of one [`Port::call`].
#[must_use = "an op is issued only when its call is awaited"]
#[derive(Debug)]
pub struct Call<'a> {
    port: &'a Port,
    /// The op, until the first poll puts it in the slot.
    op: Option<ProcOp>,
}

impl Future for Call<'_> {
    type Output = ProcReply;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<ProcReply> {
        if let Some(op) = self.op.take() {
            self.port.0.set(Slot::Op(op));
            return Poll::Pending;
        }
        match self.port.0.take() {
            Slot::Empty => Poll::Ready(ProcReply::Ack),
            Slot::Reply(value) => Poll::Ready(ProcReply::Value(value)),
            Slot::Op(op) => panic!("workload resumed before the back end took {op:?}"),
        }
    }
}

/// One processor: its port and, until it finishes, its workload future.
struct Proc<'a> {
    port: Port,
    body: Option<Pin<Box<dyn Future<Output = ()> + 'a>>>,
}

/// The workload futures of every simulated processor and their ports.
///
/// ```
/// use ncp2_sim::{Coroutines, ProcOp, ProcReply};
///
/// let mut procs = Coroutines::new(2, |pid, port| async move {
///     port.call(ProcOp::Compute(10 * (pid as u64 + 1))).await;
///     let v = port.call(ProcOp::Read { addr: 0, bytes: 4 }).await.value();
///     port.call(ProcOp::Compute(v)).await;
/// });
/// for pid in 0..2 {
///     assert!(matches!(procs.next_op(pid), ProcOp::Compute(_)));
///     assert!(matches!(procs.next_op(pid), ProcOp::Read { .. }));
///     procs.reply(pid, ProcReply::Value(7));
///     assert_eq!(procs.next_op(pid), ProcOp::Compute(7));
///     assert_eq!(procs.next_op(pid), ProcOp::Finish);
/// }
/// ```
pub struct Coroutines<'a> {
    procs: Vec<Proc<'a>>,
}

impl<'a> Coroutines<'a> {
    /// Builds `n` processors, processor `pid` running `body(pid, port)`.
    /// Nothing runs until the first [`Self::next_op`].
    pub fn new<F, Fut>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, Port) -> Fut,
        Fut: Future<Output = ()> + 'a,
    {
        let procs = (0..n)
            .map(|pid| {
                let port = Port::default();
                let body: Pin<Box<dyn Future<Output = ()> + 'a>> =
                    Box::pin(body(pid, port.clone()));
                Proc {
                    port,
                    body: Some(body),
                }
            })
            .collect();
        Coroutines { procs }
    }

    /// Resumes processor `pid`'s workload up to its next op and returns
    /// it: [`ProcOp::Finish`] when the workload returns.
    ///
    /// # Panics
    ///
    /// Panics with the workload's own message if the workload panics, if
    /// `pid` already finished, and if the workload suspends on anything
    /// but a [`Port::call`].
    pub fn next_op(&mut self, pid: ProcId) -> ProcOp {
        let Proc { port, body } = &mut self.procs[pid];
        let future = body
            .as_mut()
            .unwrap_or_else(|| panic!("processor {pid} resumed after Finish"));
        match future
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
        {
            Poll::Ready(()) => {
                *body = None;
                ProcOp::Finish
            }
            Poll::Pending => match port.0.take() {
                Slot::Op(op) => op,
                _ => panic!("processor {pid}'s workload suspended without issuing an op"),
            },
        }
    }

    /// Completes processor `pid`'s pending value op with `reply`.
    /// [`ProcReply::Ack`] is ignored: an op without a value completes when
    /// the back end takes it.
    pub fn reply(&self, pid: ProcId, reply: ProcReply) {
        if let ProcReply::Value(value) = reply {
            self.procs[pid].port.0.set(Slot::Reply(value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_without_a_value_complete_when_taken() {
        let mut procs = Coroutines::new(1, |_, port| async move {
            for i in 0..3 {
                assert_eq!(port.call(ProcOp::Compute(i)).await, ProcReply::Ack);
            }
        });
        for i in 0..3 {
            assert_eq!(procs.next_op(0), ProcOp::Compute(i));
        }
        assert_eq!(procs.next_op(0), ProcOp::Finish);
    }

    #[test]
    #[should_panic(expected = "workload bug")]
    fn a_workload_panic_keeps_its_message() {
        let mut procs = Coroutines::new(1, |_, _| async { panic!("workload bug") });
        procs.next_op(0);
    }

    #[test]
    #[should_panic(expected = "resumed after Finish")]
    fn a_finished_processor_is_not_resumed() {
        let mut procs = Coroutines::new(1, |_, _| async {});
        assert_eq!(procs.next_op(0), ProcOp::Finish);
        procs.next_op(0);
    }
}
