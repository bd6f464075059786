//! # ncp2-net — wormhole-routed mesh network model
//!
//! The paper simulates "a mesh network router (using wormhole routing)" with
//! an 8-bit bidirectional path, 4-cycle switch latency, 2-cycle wire latency
//! and full contention modeling. This crate provides:
//!
//! * [`Mesh`] — near-square 2-D topology with dimension-order (XY) routing,
//!   each route two straight [`Leg`]s of the link table;
//! * [`Network`] — per-directed-link reservation implementing a wormhole
//!   approximation: a message claims every link of its path from the moment
//!   its head can advance until its tail drains, so messages on overlapping
//!   paths serialize (head-of-line blocking included);
//! * traffic statistics used by the experiment harness to diagnose the
//!   prefetch- and automatic-update-induced congestion the paper discusses.
//!
//! Per-message software overheads (the 200-cycle "messaging overhead") are
//! charged by the protocol layer, not here, because who pays them (processor
//! vs. protocol controller vs. nothing for AURC's single-cycle updates) is a
//! protocol property.
//!
//! ```
//! use ncp2_sim::SysParams;
//! use ncp2_net::Network;
//!
//! let p = SysParams::default();
//! let mut net = Network::new(p.nprocs);
//! let arrival = net.transfer(0, 0, 15, 64, &p); // corner to corner, 64 B
//! // 6 hops * (4+2) cycles head latency + 64 B * 2 cycles serialization.
//! assert_eq!(arrival, 36 + 128);
//! ```

pub mod router;
pub mod topology;

pub use router::{Network, TrafficStats, Transfer};
pub use topology::{Leg, Mesh};
