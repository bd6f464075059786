//! Wormhole transfer timing with per-link contention.

use ncp2_sim::config::HOP_LATENCY;
use ncp2_sim::{Cycles, SysParams};

use crate::topology::Mesh;

/// Aggregate traffic counters for congestion diagnosis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages injected.
    pub messages: u64,
    /// Payload bytes injected.
    pub bytes: u64,
    /// Sum over messages of (arrival − injection), cycles.
    pub total_latency: Cycles,
    /// Sum over messages of time spent blocked on busy links, cycles.
    pub total_blocking: Cycles,
}

impl TrafficStats {
    /// Mean end-to-end latency per message, cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Mean cycles a message waited for contended links.
    pub fn mean_blocking(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_blocking as f64 / self.messages as f64
        }
    }
}

/// Timing of one message transfer: when its head entered the network (after
/// any link contention) and when its tail reached the destination interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Head entered the network (`== inject time` when uncontended).
    pub start: Cycles,
    /// Tail drained at the destination's network interface.
    pub arrival: Cycles,
}

/// The interconnect: a [`Mesh`] plus per-directed-link reservations.
///
/// The wormhole approximation: a message's head may enter the network once
/// **all** links on its dimension-order path are free (a wormhole blocked
/// mid-route holds its earlier links, so path-wide acquisition is the
/// right coarse model); it then pipelines at one flit per
/// `net_cycles_per_byte`, arriving `hops × (switch + wire) + serialization`
/// later, and all path links are held until the tail drains.
///
/// ```
/// use ncp2_sim::SysParams;
/// use ncp2_net::Network;
/// let p = SysParams::default();
/// let mut net = Network::new(16);
/// let a1 = net.transfer(0, 0, 3, 32, &p);
/// // A second message over the same links must wait for the first's tail.
/// let a2 = net.transfer(0, 0, 3, 32, &p);
/// assert!(a2 > a1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    link_free: Vec<Cycles>,
    stats: TrafficStats,
    plan: Option<ncp2_fault::FaultPlan>,
}

impl Network {
    /// Builds the interconnect for `n` nodes.
    pub fn new(n: usize) -> Self {
        let mesh = Mesh::new(n);
        let links = mesh.link_count().max(1);
        Network {
            mesh,
            link_free: vec![0; links],
            stats: TrafficStats::default(),
            plan: None,
        }
    }

    /// The underlying topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Attaches a fault plan whose latency spikes and congestion windows
    /// delay subsequent transfers (see [`ncp2_fault::FaultPlan`]).
    pub fn set_fault_plan(&mut self, plan: ncp2_fault::FaultPlan) {
        self.plan = Some(plan);
    }

    /// Injects a `bytes`-byte message from `src` to `dst` at time `now`;
    /// returns its arrival time at `dst`'s network interface.
    ///
    /// `src == dst` models a loopback NI transfer: serialization only.
    pub fn transfer(
        &mut self,
        now: Cycles,
        src: usize,
        dst: usize,
        bytes: u64,
        params: &SysParams,
    ) -> Cycles {
        self.transfer_timed(now, src, dst, bytes, params).arrival
    }

    /// Like [`transfer`](Network::transfer) but also reports when the head
    /// entered the network, so observers can separate link-contention
    /// blocking from flight time.
    ///
    /// The route is read and booked as the two legs of [`Mesh::legs`],
    /// which name the same links as the hop-by-hop [`Mesh::route_iter`].
    pub fn transfer_timed(
        &mut self,
        now: Cycles,
        src: usize,
        dst: usize,
        bytes: u64,
        params: &SysParams,
    ) -> Transfer {
        let serialization = params.net_serialize(bytes);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if src == dst {
            let arrival = now + serialization;
            self.stats.total_latency += arrival - now;
            return Transfer {
                start: now,
                arrival,
            };
        }
        // Transfers are the single hottest operation at 256 nodes, so the
        // route is booked as its two straight legs, each a strided slice of
        // the reservation table (`Mesh::legs`), instead of hop by hop.
        let legs = self.mesh.legs(src, dst);
        let ready = legs
            .iter()
            .flat_map(|leg| self.link_free[leg.span()].iter().step_by(leg.stride))
            .copied()
            .max()
            .unwrap_or(0);
        let start = now.max(ready);
        let head = (legs[0].len + legs[1].len) as u64 * HOP_LATENCY;
        let arrival = start + head + serialization;
        for leg in &legs {
            for free in self.link_free[leg.span()].iter_mut().step_by(leg.stride) {
                *free = arrival;
            }
        }
        // A fault-plan latency spike delays *this* message's delivery but
        // does not extend its link occupancy: the links were booked to the
        // undelayed arrival above, so a later frame on the same link can
        // overtake a spiked one — genuine reordering, which the transport's
        // receive-side resequencing buffer must absorb.
        let arrival = match &self.plan {
            Some(plan) => arrival + plan.extra_latency(src, dst, now),
            None => arrival,
        };
        self.stats.total_blocking += start - now;
        self.stats.total_latency += arrival - now;
        Transfer { start, arrival }
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> SysParams {
        SysParams::default()
    }

    #[test]
    fn uncontended_latency_formula() {
        let mut net = Network::new(16);
        // 0 -> 5 is 2 hops in a 4x4 mesh.
        let arrival = net.transfer(100, 0, 5, 16, &p());
        assert_eq!(arrival, 100 + 2 * 6 + 32);
        assert_eq!(net.stats().total_blocking, 0);
    }

    #[test]
    fn overlapping_paths_serialize() {
        let mut net = Network::new(16);
        let a1 = net.transfer(0, 0, 3, 4096, &p());
        // 1 -> 2 uses a link inside 0 -> 3's path.
        let a2 = net.transfer(0, 1, 2, 8, &p());
        assert!(
            a2 > a1,
            "second message should block behind the page transfer"
        );
        assert!(net.stats().total_blocking > 0);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut net = Network::new(16);
        let a1 = net.transfer(0, 0, 1, 64, &p());
        let a2 = net.transfer(0, 14, 15, 64, &p());
        assert_eq!(a1, a2);
        assert_eq!(net.stats().total_blocking, 0);
    }

    #[test]
    fn bandwidth_sweep_scales_serialization() {
        let params = p().with_net_bandwidth_mbps(200.0); // 0.5 cycles/byte
        let mut net = Network::new(16);
        let arrival = net.transfer(0, 0, 1, 1000, &params);
        assert_eq!(arrival, 6 + 500);
    }

    #[test]
    fn loopback_only_serializes() {
        let mut net = Network::new(16);
        assert_eq!(net.transfer(50, 7, 7, 10, &p()), 50 + 20);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Network::new(4);
        net.transfer(0, 0, 1, 100, &p());
        net.transfer(0, 1, 0, 50, &p());
        let s = net.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 150);
        assert!(s.mean_latency() > 0.0);
    }

    #[test]
    fn transfer_timed_reports_contention_start() {
        let mut net = Network::new(16);
        let first = net.transfer_timed(0, 0, 3, 4096, &p());
        assert_eq!(first.start, 0);
        let second = net.transfer_timed(0, 1, 2, 8, &p());
        assert_eq!(second.start, first.arrival);
        assert!(second.arrival > second.start);
    }

    #[test]
    fn single_node_network_is_usable() {
        let mut net = Network::new(1);
        assert_eq!(net.transfer(0, 0, 0, 4, &p()), 8);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use ncp2_fault::{FaultPlan, LinkWindow};

    #[test]
    fn spike_delays_delivery_without_extending_link_occupancy() {
        let mut plain = Network::new(16);
        let base = plain.transfer(0, 0, 1, 16, &SysParams::default());

        let mut net = Network::new(16);
        let mut plan = FaultPlan::none();
        plan.spikes.push(LinkWindow {
            src: 0,
            dst: 1,
            start: 0,
            end: 10,
            extra: 500,
        });
        net.set_fault_plan(plan);
        let spiked = net.transfer(0, 0, 1, 16, &SysParams::default());
        assert_eq!(spiked, base + 500);
        // The second frame departs after the window; it reuses the link as
        // soon as the *undelayed* tail drained, so it overtakes the first.
        let second = net.transfer(20, 0, 1, 16, &SysParams::default());
        assert!(
            second < spiked,
            "later frame should overtake the spiked one"
        );
    }
}
