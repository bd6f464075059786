//! # ncp2-core — software DSM protocols with protocol-controller overlap
//!
//! The primary contribution of *"Hiding Communication Latency and Coherence
//! Overhead in Software DSMs"* (Bianchini et al., ASPLOS 1996), reproduced
//! in full:
//!
//! * **TreadMarks** (lazy release consistency, lazy diffs) under the six
//!   overlap modes of §5.1 — `Base`, `I`, `I+D`, `P`, `I+P`, `I+P+D` — where
//!   the NCP2 **protocol controller** offloads basic protocol actions (`I`),
//!   its bit-vector **DMA engine** generates and applies diffs without twins
//!   (`D`), and invalidated-but-referenced pages are **prefetched** at
//!   acquire points (`P`);
//! * **AURC** and **AURC+P** — Shrimp-style automatic updates with pairwise
//!   sharing and home nodes (§3.3), the paper's comparison protocols.
//!
//! The protocols run over the substrates in `ncp2-sim`, `ncp2-mem` and
//! `ncp2-net`, and move *real data*: pages, twins and diffs carry bytes, so
//! application results computed under the simulated DSM validate the
//! coherence protocol end to end.
//!
//! Entry point: [`Simulation`].
//!
//! ```no_run
//! use ncp2_core::{OverlapMode, Protocol, Simulation};
//! use ncp2_sim::{ProcOp, SysParams};
//!
//! let sim = Simulation::new(SysParams::default(), Protocol::TreadMarks(OverlapMode::ID));
//! let result = sim.run(|pid, port| async move {
//!     let value = pid as u64;
//!     port.call(ProcOp::Write { addr: 64 * value, bytes: 4, value }).await;
//!     port.call(ProcOp::Barrier(0)).await;
//! });
//! println!("{} took {} cycles", result.protocol, result.total_cycles);
//! ```

pub mod aurc;
pub mod bitvec;
pub mod controller;
pub mod diff;
pub mod hist;
pub mod interval;
pub mod msg;
pub mod observe;
pub mod page;
pub mod pool;
pub mod protocol;
pub mod span;
pub mod stats;
pub mod sync;
pub mod system;
mod table;
pub mod timeseries;
pub mod trace;
pub mod transport;
pub mod treadmarks;
pub mod vtime;

pub use controller::Controller;
pub use diff::Diff;
pub use hist::LogHistogram;
pub use interval::{IntervalAnnouncement, IntervalStore, Notice};
pub use ncp2_fault::{self, FaultPlan};
pub use observe::{MsgKind, Observer, ProtocolEvent, Violation};
pub use page::{PageBuf, PageId, PageState};
pub use protocol::{OverlapMode, Protocol};
pub use span::{
    CtrlCmd, DepEdge, EdgeKind, Engine, EngineSpan, Flight, ObsLog, Span, SpanId, SpanKind,
};
pub use stats::{FaultStats, NodeStats, RunResult, SvcStats, RETX_BUCKETS};
pub use system::Simulation;
pub use timeseries::{
    LockHot, PageHot, TsCounter, TsGauge, TsLog, TsRecorder, WindowRow, TS_BASE_WIDTH,
    TS_MAX_WINDOWS,
};
pub use trace::{trace_csv, TraceEvent, TraceKind};
pub use transport::{MAX_BACKOFF_EXP, MAX_RETX_ATTEMPTS, SHED_UNACKED_MAX};
pub use vtime::{IntervalId, VectorTime};
