//! Em3d — electromagnetic wave propagation through 3-D objects (Split-C
//! benchmark, §4.2). A bipartite graph of E and H nodes: each iteration
//! updates every E node from its H neighbours, then every H node from its E
//! neighbours, with barriers between phases. Neighbours are random; with
//! probability `remote_pct` a neighbour lives on a different processor, so
//! each phase pulls freshly written remote pages — Em3d has the paper's
//! highest diff overhead (26.7%) and its biggest wins from overlap.

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Cycles of local work per neighbour accumulation.
const EDGE_COMPUTE: u64 = 110;

/// Em3d configuration.
#[derive(Debug, Clone)]
pub struct Em3d {
    /// E nodes (H nodes count the same); the paper simulates 40064 total.
    pub nodes: usize,
    /// Neighbours per node.
    pub degree: usize,
    /// Probability (percent) that a neighbour is owned by another processor.
    pub remote_pct: u32,
    /// Iterations; the paper runs 6.
    pub iters: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for Em3d {
    /// Scaled-down default: 2×8192 objects, degree 3, 10% remote, 6 iters.
    fn default() -> Self {
        Em3d {
            nodes: 8192,
            degree: 3,
            remote_pct: 10,
            iters: 6,
            seed: 0xE43D,
        }
    }
}

impl Em3d {
    /// The paper's problem size: 40064 objects in total.
    pub fn paper() -> Self {
        Em3d {
            nodes: 20032,
            ..Self::default()
        }
    }

    /// Locality zones used to generate the graph. Fixed (16, the paper's
    /// node count) so the graph — and therefore the checksum — is identical
    /// on every simulated processor count.
    pub const ZONES: usize = 16;

    /// Deterministic neighbour table for one side of the bipartite graph:
    /// every node has exactly `degree` neighbours, so node `i`'s are the
    /// `degree` entries from `i * degree` on (see [`Self::adjacent`]).
    /// Ownership zones shape where the `remote_pct` remote edges land.
    fn neighbours(&self, salt: u64) -> Vec<u32> {
        let nprocs = Self::ZONES;
        let mut rng = crate::rng::salted(self.seed, salt);
        let n = self.nodes as u64;
        let per = n.div_ceil(nprocs as u64);
        let mut table = Vec::with_capacity(self.nodes * self.degree);
        for i in 0..n {
            let owner = i / per;
            table.extend((0..self.degree).map(|_| {
                let remote = rng.next_below(100) < self.remote_pct as u64;
                if remote {
                    // Any node owned by a different processor.
                    loop {
                        let cand = rng.next_below(n);
                        if cand / per != owner {
                            break cand as u32;
                        }
                    }
                } else {
                    // A node on the same processor.
                    let lo = owner * per;
                    let hi = ((owner + 1) * per).min(n);
                    (lo + rng.next_below(hi - lo)) as u32
                }
            }));
        }
        table
    }

    /// Node `i`'s neighbours in a table built by [`Self::neighbours`].
    fn adjacent<'g>(&self, table: &'g [u32], i: u64) -> &'g [u32] {
        &table[i as usize * self.degree..][..self.degree]
    }
}

struct Layout {
    e_vals: u64,
    h_vals: u64,
}

impl Layout {
    fn new(nodes: usize) -> Self {
        let mut a = Alloc::new();
        let e_vals = a.page_aligned_array_f64(nodes as u64);
        let h_vals = a.page_aligned_array_f64(nodes as u64);
        Layout { e_vals, h_vals }
    }
}

impl Workload for Em3d {
    fn name(&self) -> &'static str {
        "Em3d"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Em3d {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        let lay = Layout::new(self.nodes);
        // The graph structure is identical on every processor (read-only in
        // the original program; kept private here — see DESIGN.md).
        let e_from_h = self.neighbours(0xE);
        let h_from_e = self.neighbours(0xA);
        if ctx.pid == 0 {
            for i in 0..self.nodes as u64 {
                ctx.write_f64(lay.e_vals + 8 * i, (i % 97) as f64 / 97.0)
                    .await;
                ctx.write_f64(lay.h_vals + 8 * i, (i % 89) as f64 / 89.0)
                    .await;
            }
        }
        ctx.barrier().await;
        let (lo, hi) = ctx.block_range(self.nodes as u64);
        // Locality-ordered iteration: nodes whose neighbours are all local
        // first, nodes with remote (possibly invalidated) neighbours last —
        // this gives acquire-time prefetches their lead time. The update
        // order within a phase does not change the result (each phase only
        // reads the other side's values).
        let per = (self.nodes as u64).div_ceil(Self::ZONES as u64);
        let order_for = |g: &[u32]| -> Vec<u64> {
            let zone = |i: u64| i / per;
            let mut local: Vec<u64> = Vec::new();
            let mut remote: Vec<u64> = Vec::new();
            for i in lo..hi {
                if self
                    .adjacent(g, i)
                    .iter()
                    .all(|&nb| zone(nb as u64) == zone(i))
                {
                    local.push(i);
                } else {
                    remote.push(i);
                }
            }
            local.extend(remote);
            local
        };
        let e_order = order_for(&e_from_h);
        let h_order = order_for(&h_from_e);
        for _ in 0..self.iters {
            // E phase: e[i] -= weighted sum of its H neighbours.
            for &i in &e_order {
                let mut acc = ctx.read_f64(lay.e_vals + 8 * i).await;
                for &nb in self.adjacent(&e_from_h, i) {
                    acc -= 0.4 * ctx.read_f64(lay.h_vals + 8 * nb as u64).await;
                }
                ctx.write_f64(lay.e_vals + 8 * i, acc).await;
                ctx.compute(self.degree as u64 * EDGE_COMPUTE).await;
            }
            ctx.barrier().await;
            // H phase: h[i] -= weighted sum of its E neighbours.
            for &i in &h_order {
                let mut acc = ctx.read_f64(lay.h_vals + 8 * i).await;
                for &nb in self.adjacent(&h_from_e, i) {
                    acc -= 0.4 * ctx.read_f64(lay.e_vals + 8 * nb as u64).await;
                }
                ctx.write_f64(lay.h_vals + 8 * i, acc).await;
                ctx.compute(self.degree as u64 * EDGE_COMPUTE).await;
            }
            ctx.barrier().await;
        }
        if ctx.pid == 0 {
            let mut ck = 0u64;
            for i in 0..self.nodes as u64 {
                ck = ck.rotate_left(5) ^ ctx.read_f64(lay.e_vals + 8 * i).await.to_bits();
                ck = ck.rotate_left(5) ^ ctx.read_f64(lay.h_vals + 8 * i).await.to_bits();
            }
            ck
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_deterministic() {
        let e = Em3d::default();
        assert_eq!(e.neighbours(1), e.neighbours(1));
        assert_ne!(e.neighbours(1), e.neighbours(2));
    }

    #[test]
    fn remote_fraction_is_roughly_honoured() {
        let e = Em3d {
            nodes: 4096,
            degree: 4,
            remote_pct: 10,
            iters: 1,
            seed: 9,
        };
        let per = (e.nodes as u64).div_ceil(Em3d::ZONES as u64);
        let g = e.neighbours(0);
        let mut remote = 0usize;
        let mut total = 0usize;
        for (i, nbs) in g.chunks_exact(e.degree).enumerate() {
            let owner = i as u64 / per;
            for &nb in nbs {
                total += 1;
                if nb as u64 / per != owner {
                    remote += 1;
                }
            }
        }
        let pct = remote as f64 / total as f64 * 100.0;
        assert!(
            (5.0..15.0).contains(&pct),
            "remote fraction {pct}% not near 10%"
        );
    }

    #[test]
    fn graph_has_requested_shape() {
        let e = Em3d::default();
        let g = e.neighbours(0);
        assert_eq!(g.len(), e.nodes * e.degree);
        assert!(g.iter().all(|&nb| (nb as usize) < e.nodes));
    }
}
