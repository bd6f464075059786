//! Property-based tests for the mesh network model.

use ncp2_fault::{FaultPlan, LinkWindow};
use ncp2_net::{Mesh, Network, TrafficStats, Transfer};
use ncp2_sim::config::HOP_LATENCY;
use ncp2_sim::{Cycles, SimRng, SysParams};
use proptest::prelude::*;

/// Every `(src, dst)` pair: `Mesh::legs` names exactly the links of the
/// hop-by-hop reference walk, as a multiset. Covers every mesh of 1..=64
/// nodes (among them 1×1, prime n×1, 4×2 and 4×3) and the 16×16 mesh.
#[test]
fn legs_name_exactly_the_route_links() {
    let shapes: Vec<Mesh> = (1..=64).chain([256]).map(Mesh::new).collect();
    for (w, h) in [(1, 1), (7, 1), (61, 1), (4, 2), (4, 3), (16, 16)] {
        assert!(
            shapes.iter().any(|m| (m.width(), m.height()) == (w, h)),
            "shape {w}x{h} not covered"
        );
    }
    for m in &shapes {
        for src in 0..m.nodes() {
            for dst in 0..m.nodes() {
                let [x, y] = m.legs(src, dst);
                assert_eq!((x.stride, y.stride), (1, m.width()));
                assert!(x.span().end <= m.link_count() && y.span().end <= m.link_count());
                let mut legs: Vec<usize> = x.links().chain(y.links()).collect();
                let mut walk = m.route(src, dst);
                legs.sort_unstable();
                walk.sort_unstable();
                assert_eq!(
                    legs,
                    walk,
                    "{}x{} mesh, {src} -> {dst}",
                    m.width(),
                    m.height()
                );
            }
        }
    }
}

/// The router's booking as it was before routes were split into legs: the
/// reservation table read and written hop by hop along `route_iter`. Kept
/// here as the reference `Network::transfer_timed` must match exactly.
struct WalkNetwork {
    mesh: Mesh,
    link_free: Vec<Cycles>,
    stats: TrafficStats,
    plan: FaultPlan,
}

impl WalkNetwork {
    fn new(n: usize, plan: FaultPlan) -> Self {
        let mesh = Mesh::new(n);
        let link_free = vec![0; mesh.link_count().max(1)];
        WalkNetwork {
            mesh,
            link_free,
            stats: TrafficStats::default(),
            plan,
        }
    }

    fn transfer_timed(
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
            self.stats.total_latency += serialization;
            return Transfer {
                start: now,
                arrival: now + serialization,
            };
        }
        let ready = self
            .mesh
            .route_iter(src, dst)
            .map(|l| self.link_free[l])
            .max()
            .unwrap_or(0);
        let start = now.max(ready);
        let arrival = start + self.mesh.hops(src, dst) * HOP_LATENCY + serialization;
        for l in self.mesh.route_iter(src, dst) {
            self.link_free[l] = arrival;
        }
        let arrival = arrival + self.plan.extra_latency(src, dst, now);
        self.stats.total_blocking += start - now;
        self.stats.total_latency += arrival - now;
        Transfer { start, arrival }
    }
}

/// A random 256-node message sequence, with loopback sends and latency
/// spikes, books identically through `Network::transfer_timed` and the
/// hop-by-hop reference: every `Transfer` and the final `stats()` agree.
#[test]
fn leg_booking_matches_the_hop_walk_at_256_nodes() {
    const N: u64 = 256;
    let params = SysParams::default();
    for seed in 0..4 {
        let mut rng = SimRng::new(seed);
        let mut now = 0;
        let msgs: Vec<(Cycles, usize, usize, u64)> = (0..5_000)
            .map(|_| {
                now += rng.next_below(64);
                let src = rng.next_below(N) as usize;
                // One send in sixteen is a loopback.
                let dst = if rng.next_below(16) == 0 {
                    src
                } else {
                    rng.next_below(N) as usize
                };
                (now, src, dst, 1 + rng.next_below(4096))
            })
            .collect();
        // Spikes on the links of some of the messages, over windows that
        // hold their departures.
        let mut plan = FaultPlan::none();
        for _ in 0..64 {
            let (at, src, dst, _) = msgs[rng.next_below(msgs.len() as u64) as usize];
            plan.spikes.push(LinkWindow {
                src,
                dst,
                start: at.saturating_sub(rng.next_below(2_000)),
                end: at + 1 + rng.next_below(2_000),
                extra: 1 + rng.next_below(5_000),
            });
        }
        let mut net = Network::new(N as usize);
        net.set_fault_plan(plan.clone());
        let mut walk = WalkNetwork::new(N as usize, plan);
        let (mut spiked, mut loopbacks) = (0, 0);
        for &(at, src, dst, bytes) in &msgs {
            let got = net.transfer_timed(at, src, dst, bytes, &params);
            let want = walk.transfer_timed(at, src, dst, bytes, &params);
            assert_eq!(got, want, "seed {seed}: {src} -> {dst} at {at}");
            spiked += u32::from(src != dst && walk.plan.extra_latency(src, dst, at) > 0);
            loopbacks += u32::from(src == dst);
        }
        assert_eq!(net.stats(), walk.stats, "seed {seed}");
        assert!(
            spiked > 0 && loopbacks > 0,
            "seed {seed}: {spiked} spiked, {loopbacks} loopbacks"
        );
        assert!(walk.stats.total_blocking > 0, "seed {seed}: no contention");
    }
}

proptest! {
    /// Routes are minimal (Manhattan length), start/end correctly, and the
    /// link ids they use are within bounds.
    #[test]
    fn routes_are_minimal_and_in_bounds(n in 1usize..33, src in 0usize..33, dst in 0usize..33) {
        let m = Mesh::new(n);
        let (src, dst) = (src % n, dst % n);
        let route = m.route(src, dst);
        prop_assert_eq!(route.len() as u64, m.hops(src, dst));
        for &l in &route {
            prop_assert!(l < m.link_count().max(1));
        }
    }

    /// Hop counts are a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn hops_form_a_metric(n in 2usize..33, a in 0usize..33, b in 0usize..33, c in 0usize..33) {
        let m = Mesh::new(n);
        let (a, b, c) = (a % n, b % n, c % n);
        prop_assert_eq!(m.hops(a, b), m.hops(b, a));
        prop_assert_eq!(m.hops(a, a), 0);
        if a != b {
            prop_assert!(m.hops(a, b) > 0);
        }
        prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
    }

    /// Arrival times never precede injection + uncontended latency, and the
    /// traffic counters account for every message.
    #[test]
    fn transfers_respect_physics(
        msgs in prop::collection::vec((0usize..16, 0usize..16, 1u64..5000, 0u64..10_000), 1..100)
    ) {
        let params = SysParams::default();
        let mut net = Network::new(16);
        let mut total_bytes = 0u64;
        let mut now = 0u64;
        for &(src, dst, bytes, gap) in &msgs {
            now += gap;
            let arrival = net.transfer(now, src, dst, bytes, &params);
            let min = now
                + net.mesh().hops(src, dst) * HOP_LATENCY
                + params.net_serialize(bytes);
            prop_assert!(arrival >= min, "arrival {arrival} beats physics {min}");
            total_bytes += bytes;
        }
        let stats = net.stats();
        prop_assert_eq!(stats.messages, msgs.len() as u64);
        prop_assert_eq!(stats.bytes, total_bytes);
    }

    /// Back-to-back messages on the same path strictly serialize.
    #[test]
    fn same_path_messages_serialize(bytes in 1u64..4096, count in 2usize..10) {
        let params = SysParams::default();
        let mut net = Network::new(16);
        let mut last = 0;
        for i in 0..count {
            let arrival = net.transfer(0, 0, 15, bytes, &params);
            if i > 0 {
                prop_assert!(arrival >= last + params.net_serialize(bytes));
            }
            last = arrival;
        }
    }
}
