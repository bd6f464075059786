//! # ncp2-sim — deterministic discrete-event engine
//!
//! Building blocks for the NCP2 software-DSM simulation study (Bianchini et
//! al., ASPLOS 1996): a deterministic event queue, FIFO resource reservation,
//! the Table-1 system parameters, a seeded RNG, execution-time breakdown
//! accounting, and the *coroutine front end* that runs real Rust workloads
//! as futures on the simulator thread, each suspending on every op it
//! issues until the back end resumes it (the role Mint played in the
//! paper).
//!
//! The back end (protocol simulation) lives in `ncp2-core`; it consumes these
//! primitives. A minimal use of the engine:
//!
//! ```
//! use ncp2_sim::{EventQueue, Priority};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(30, Priority::Normal, "c");
//! q.push(10, Priority::Normal, "a");
//! q.push(10, Priority::Urgent, "b"); // same time, higher priority first
//! assert_eq!(q.pop().map(|e| e.payload), Some("b"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("a"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("c"));
//! ```

pub mod breakdown;
pub mod config;
pub mod coro;
pub mod hash;
pub mod ops;
pub mod proc;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod time;

pub use breakdown::{Breakdown, Category};
pub use config::{PrefetchStrategy, SysParams};
pub use coro::{Coroutines, Port, ProcStatus};
pub use hash::StableHasher;
pub use ops::{MemAccess, ProcOp, ProcReply, SvcClass, SvcOp};
pub use proc::{ProcHarness, ProcPort};
pub use queue::{Event, EventQueue, Priority};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use time::{Cycles, CYCLE_NS};
