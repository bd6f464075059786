//! Property-based tests for the mesh network model.

use ncp2_net::{Mesh, Network};
use ncp2_sim::config::HOP_LATENCY;
use ncp2_sim::SysParams;
use proptest::prelude::*;

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
