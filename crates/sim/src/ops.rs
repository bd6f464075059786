//! The operation vocabulary between simulated processors (the coroutine
//! front end) and the protocol back end.
//!
//! Every interaction a workload has with the simulated machine is one of
//! these operations, awaited through its [`crate::Port`]; the back end
//! takes them in global simulated-time order, exactly like the paper's
//! Mint front end calling the back end on every data reference.

use crate::time::Cycles;

/// Identifier of a simulated processor / node (0-based).
pub type ProcId = usize;

/// Identifier of a DSM lock.
pub type LockId = u32;

/// Identifier of a DSM barrier.
pub type BarrierId = u32;

/// One operation issued by a simulated computation processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcOp {
    /// Local computation of the given number of cycles (private data
    /// references and ALU work folded into a calibrated cost).
    Compute(Cycles),
    /// Shared-memory read of `bytes` (1, 2, 4 or 8) at byte address `addr`.
    Read { addr: u64, bytes: u8 },
    /// Shared-memory write; `value` holds the raw little-endian bits.
    Write { addr: u64, bytes: u8, value: u64 },
    /// Acquire a DSM lock.
    Lock(LockId),
    /// Release a DSM lock.
    Unlock(LockId),
    /// Enter a DSM barrier (all processors must arrive).
    Barrier(BarrierId),
    /// The workload on this processor is finished.
    Finish,
    /// A service-plane operation (clock read, request lifecycle marker).
    /// Never blocks and consumes zero simulated time; it exists so the
    /// open-loop service workload can observe the node clock and report
    /// per-request response times to the back end.
    Svc(SvcOp),
}

/// Request class served by the open-loop service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcClass {
    /// Read-mostly catalog lookup.
    Get,
    /// Key-value update.
    Put,
    /// Migratory session mutation pinned by a DSM lock.
    Session,
}

impl SvcClass {
    /// Stable lowercase label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            SvcClass::Get => "get",
            SvcClass::Put => "put",
            SvcClass::Session => "session",
        }
    }
}

/// Service-plane operations issued by the open-loop service workload.
///
/// All of them complete instantly in simulated time (the back end replies
/// without advancing the node clock); their purpose is observation, not
/// simulation work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcOp {
    /// Read the issuing node's current simulated clock.
    Now,
    /// A request was dequeued for service; `depth` is the number of
    /// already-arrived, not-yet-served requests at this node *after* the
    /// dequeue (the instantaneous backlog).
    Dequeue { depth: u64 },
    /// A request finished service; `response` is its full open-loop
    /// response time (completion minus *arrival*, queueing included).
    Reply { class: SvcClass, response: Cycles },
}

/// A shared-memory reference: a [`ProcOp::Read`] or [`ProcOp::Write`]
/// decoded once, for every protocol's access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address referenced.
    pub addr: u64,
    /// Access width in bytes (1, 2, 4 or 8).
    pub bytes: u8,
    /// The raw little-endian bits a write stores; `None` for a read.
    pub store: Option<u64>,
}

impl MemAccess {
    /// Whether this reference is a write.
    pub fn is_write(self) -> bool {
        self.store.is_some()
    }
}

impl ProcOp {
    /// The shared-memory reference this op makes, if it is a read or write.
    pub fn mem_access(self) -> Option<MemAccess> {
        match self {
            ProcOp::Read { addr, bytes } => Some(MemAccess {
                addr,
                bytes,
                store: None,
            }),
            ProcOp::Write { addr, bytes, value } => Some(MemAccess {
                addr,
                bytes,
                store: Some(value),
            }),
            _ => None,
        }
    }

    /// Whether this operation returns a value the workload can use: a
    /// shared read or a clock read. The back end answers these with
    /// [`ProcReply::Value`], and the workload stays suspended until it
    /// does; every other op completes as soon as the back end takes it.
    pub fn returns_value(&self) -> bool {
        matches!(self, ProcOp::Read { .. } | ProcOp::Svc(SvcOp::Now))
    }
}

/// Back-end response completing a [`ProcOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcReply {
    /// Operation completed; no data.
    Ack,
    /// Read completed with the raw value bits.
    Value(u64),
}

impl ProcReply {
    /// Extracts the value of a read reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not [`ProcReply::Value`]; that indicates a
    /// front-/back-end protocol bug, not a user error.
    pub fn value(self) -> u64 {
        match self {
            ProcReply::Value(v) => v,
            ProcReply::Ack => panic!("expected a value reply"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_classification() {
        let ops = [
            (ProcOp::Compute(5), false),
            (ProcOp::Read { addr: 0, bytes: 4 }, true),
            (
                ProcOp::Write {
                    addr: 0,
                    bytes: 4,
                    value: 1,
                },
                false,
            ),
            (ProcOp::Lock(0), false),
            (ProcOp::Unlock(0), false),
            (ProcOp::Barrier(0), false),
            (ProcOp::Finish, false),
            (ProcOp::Svc(SvcOp::Now), true),
            (ProcOp::Svc(SvcOp::Dequeue { depth: 3 }), false),
            (
                ProcOp::Svc(SvcOp::Reply {
                    class: SvcClass::Get,
                    response: 100,
                }),
                false,
            ),
        ];
        for (op, value) in ops {
            assert_eq!(op.returns_value(), value, "{op:?}");
        }
    }

    #[test]
    fn only_reads_and_writes_decode_to_memory_accesses() {
        let read = ProcOp::Read { addr: 8, bytes: 4 }.mem_access().unwrap();
        assert_eq!((read.addr, read.bytes, read.is_write()), (8, 4, false));
        let write = ProcOp::Write {
            addr: 16,
            bytes: 2,
            value: 7,
        };
        let write = write.mem_access().unwrap();
        assert_eq!((write.store, write.is_write()), (Some(7), true));
        for op in [ProcOp::Compute(1), ProcOp::Lock(0), ProcOp::Finish] {
            assert_eq!(op.mem_access(), None, "{op:?}");
        }
    }

    #[test]
    fn svc_class_labels_are_stable() {
        assert_eq!(SvcClass::Get.label(), "get");
        assert_eq!(SvcClass::Put.label(), "put");
        assert_eq!(SvcClass::Session.label(), "session");
    }

    #[test]
    fn value_extraction() {
        assert_eq!(ProcReply::Value(42).value(), 42);
    }

    #[test]
    #[should_panic(expected = "expected a value")]
    fn ack_has_no_value() {
        let _ = ProcReply::Ack.value();
    }
}
