//! Barnes — Barnes-Hut hierarchical N-body (SPLASH-2).
//!
//! Per timestep: (a) a parallel bounding-box reduction; (b) a sequential
//! quadtree build by processor 0 (the serialization other processors wait
//! out at a barrier — Barnes is synchronization-heavy in the paper);
//! (c) a **parallel** centre-of-mass contribution phase where every
//! processor pushes its bodies' mass up the ancestor chain under per-cell
//! locks (short critical sections); (d) parallel force computation by tree
//! traversal — wide read sharing of the freshly built tree pages; and
//! (e) a parallel position update.
//!
//! Positions are fixed point (`i64`, scale 2^16) so the lock-order-free mass
//! accumulation is exactly commutative and checksums are independent of the
//! processor count. The tree is a quadtree over two coordinates — the
//! paper's simulation is 3-D, but tree sharing behaviour is dimension-blind
//! (see DESIGN.md).

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Fixed-point scale (2^16).
const FX: i64 = 1 << 16;
/// First lock id for per-cell mass accumulation.
const CELL_LOCK_BASE: u32 = 40;
/// Number of cell locks.
const CELL_LOCKS: u32 = 32;
/// Cycles of local work per tree node visited during force computation.
const VISIT_COMPUTE: u64 = 3000;
/// Cycles of local work per body insertion step during the build.
const INSERT_COMPUTE: u64 = 450;
/// Sentinel child pointer.
const NIL: u32 = u32::MAX;

/// Barnes-Hut configuration.
#[derive(Debug, Clone)]
pub struct Barnes {
    /// Number of bodies; the paper simulates 4096.
    pub bodies: usize,
    /// Timesteps; the paper runs 4.
    pub steps: usize,
    /// Opening-criterion threshold numerator (theta ≈ thresh/16).
    pub theta_16: i64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for Barnes {
    /// Scaled-down default: 256 bodies, 3 steps.
    fn default() -> Self {
        Barnes {
            bodies: 256,
            steps: 3,
            theta_16: 12,
            seed: 0xBA12,
        }
    }
}

impl Barnes {
    /// The paper's problem size: 4 K bodies, 4 timesteps.
    pub fn paper() -> Self {
        Barnes {
            bodies: 4096,
            steps: 4,
            ..Self::default()
        }
    }

    fn max_nodes(&self) -> u64 {
        8 * self.bodies as u64 + 64
    }
}

/// Shared layout: body arrays + SoA tree node arrays.
struct Layout {
    pos: u64,      // 2 i64 per body
    vel: u64,      // 2 i64 per body
    acc: u64,      // 2 i64 per body
    leaf: u64,     // u32 leaf node id per body
    bbox: u64,     // 4 i64 per processor: minx, miny, maxx, maxy
    root_box: u64, // 4 i64
    node_count: u64,
    n_cx: u64,
    n_cy: u64,
    n_half: u64,
    n_mass: u64,
    n_mx: u64, // mass-weighted x moment
    n_my: u64,
    n_parent: u64,
    n_body: u64,  // body id for leaves, NIL for internal
    n_child: u64, // 4 u32 per node
}

impl Layout {
    fn new(bodies: usize, nprocs: usize, max_nodes: u64) -> Self {
        let mut a = Alloc::new();
        let b = bodies as u64;
        Layout {
            pos: a.page_aligned_array_f64(2 * b),
            vel: a.page_aligned_array_f64(2 * b),
            acc: a.page_aligned_array_f64(2 * b),
            leaf: a.page_aligned_array_u32(b),
            bbox: a.page_aligned_array_f64(4 * nprocs as u64),
            root_box: a.array_u64(4),
            node_count: a.array_u32(2),
            n_cx: a.page_aligned_array_f64(max_nodes),
            n_cy: a.page_aligned_array_f64(max_nodes),
            n_half: a.page_aligned_array_f64(max_nodes),
            n_mass: a.page_aligned_array_f64(max_nodes),
            n_mx: a.page_aligned_array_f64(max_nodes),
            n_my: a.page_aligned_array_f64(max_nodes),
            n_parent: a.page_aligned_array_u32(max_nodes),
            n_body: a.page_aligned_array_u32(max_nodes),
            n_child: a.page_aligned_array_u32(4 * max_nodes),
        }
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Barnes {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        let b = self.bodies as u64;
        let lay = Layout::new(self.bodies, ctx.nprocs, self.max_nodes());
        if ctx.pid == 0 {
            let mut rng = crate::rng::seeded(self.seed);
            for i in 0..b {
                ctx.write_i64(
                    lay.pos + 16 * i,
                    crate::rng::centered_fx(&mut rng, 1024, FX),
                )
                .await;
                ctx.write_i64(
                    lay.pos + 16 * i + 8,
                    crate::rng::centered_fx(&mut rng, 1024, FX),
                )
                .await;
                ctx.write_i64(lay.vel + 16 * i, 0).await;
                ctx.write_i64(lay.vel + 16 * i + 8, 0).await;
            }
        }
        ctx.barrier().await;
        let (lo, hi) = ctx.block_range(b);
        for _step in 0..self.steps {
            self.bounding_box(ctx, &lay, lo, hi).await;
            if ctx.pid == 0 {
                self.build_tree(ctx, &lay, b).await;
            }
            ctx.barrier().await;
            self.mass_contribution(ctx, &lay, lo, hi).await;
            ctx.barrier().await;
            if ctx.pid == 0 {
                self.upward_pass(ctx, &lay).await;
            }
            ctx.barrier().await;
            self.forces(ctx, &lay, lo, hi).await;
            ctx.barrier().await;
            self.integrate(ctx, &lay, lo, hi).await;
            ctx.barrier().await;
        }
        if ctx.pid == 0 {
            let mut ck = 0u64;
            for i in 0..b {
                ck = ck.rotate_left(11) ^ ctx.read_i64(lay.pos + 16 * i).await as u64;
                ck = ck.rotate_left(11) ^ ctx.read_i64(lay.pos + 16 * i + 8).await as u64;
            }
            ck
        } else {
            0
        }
    }

    /// Parallel bounding-box reduction: per-processor partials, then a
    /// sequential merge by processor 0.
    async fn bounding_box(&self, ctx: &Ctx, lay: &Layout, lo: u64, hi: u64) {
        let (mut minx, mut miny, mut maxx, mut maxy) = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for i in lo..hi {
            let x = ctx.read_i64(lay.pos + 16 * i).await;
            let y = ctx.read_i64(lay.pos + 16 * i + 8).await;
            minx = minx.min(x);
            miny = miny.min(y);
            maxx = maxx.max(x);
            maxy = maxy.max(y);
        }
        ctx.compute((hi - lo) * 30).await;
        let base = lay.bbox + 32 * ctx.pid as u64;
        ctx.write_i64(base, minx).await;
        ctx.write_i64(base + 8, miny).await;
        ctx.write_i64(base + 16, maxx).await;
        ctx.write_i64(base + 24, maxy).await;
        ctx.barrier().await;
        if ctx.pid == 0 {
            let (mut gx0, mut gy0, mut gx1, mut gy1) = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
            for p in 0..ctx.nprocs as u64 {
                let base = lay.bbox + 32 * p;
                let x0 = ctx.read_i64(base).await;
                if x0 == i64::MAX {
                    continue; // processor owned no bodies
                }
                gx0 = gx0.min(x0);
                gy0 = gy0.min(ctx.read_i64(base + 8).await);
                gx1 = gx1.max(ctx.read_i64(base + 16).await);
                gy1 = gy1.max(ctx.read_i64(base + 24).await);
            }
            let cx = (gx0 + gx1) / 2;
            let cy = (gy0 + gy1) / 2;
            let half = (((gx1 - gx0).max(gy1 - gy0)) / 2 + FX).max(FX);
            ctx.write_i64(lay.root_box, cx).await;
            ctx.write_i64(lay.root_box + 8, cy).await;
            ctx.write_i64(lay.root_box + 16, half).await;
        }
        ctx.barrier().await;
    }

    /// Sequential quadtree build by processor 0 (in shared memory).
    async fn build_tree(&self, ctx: &Ctx, lay: &Layout, bodies: u64) {
        let cx = ctx.read_i64(lay.root_box).await;
        let cy = ctx.read_i64(lay.root_box + 8).await;
        let half = ctx.read_i64(lay.root_box + 16).await;
        // Node 0 is the root.
        self.write_node(ctx, lay, 0, cx, cy, half, NIL).await;
        let mut count: u32 = 1;
        for body in 0..bodies {
            let bx = ctx.read_i64(lay.pos + 16 * body).await;
            let by = ctx.read_i64(lay.pos + 16 * body + 8).await;
            let mut node: u32 = 0;
            loop {
                ctx.compute(INSERT_COMPUTE).await;
                let ncx = ctx.read_i64(lay.n_cx + 8 * node as u64).await;
                let ncy = ctx.read_i64(lay.n_cy + 8 * node as u64).await;
                let nhalf = ctx.read_i64(lay.n_half + 8 * node as u64).await;
                let resident = ctx.read_u32(lay.n_body + 4 * node as u64).await;
                let q = Self::quadrant(ncx, ncy, bx, by);
                let child = ctx.read_u32(lay.n_child + 4 * (4 * node as u64 + q)).await;
                if node != 0 && resident != NIL {
                    // Leaf holding another body: split it.
                    let other = resident;
                    ctx.write_u32(lay.n_body + 4 * node as u64, NIL).await;
                    let ox = ctx.read_i64(lay.pos + 16 * other as u64).await;
                    let oy = ctx.read_i64(lay.pos + 16 * other as u64 + 8).await;
                    let oq = Self::quadrant(ncx, ncy, ox, oy);
                    let new = count;
                    count += 1;
                    let (ccx, ccy) = Self::child_center(ncx, ncy, nhalf, oq);
                    self.write_node(ctx, lay, new, ccx, ccy, nhalf / 2, node)
                        .await;
                    ctx.write_u32(lay.n_body + 4 * new as u64, other).await;
                    ctx.write_u32(lay.leaf + 4 * other as u64, new).await;
                    ctx.write_u32(lay.n_child + 4 * (4 * node as u64 + oq), new)
                        .await;
                    continue; // retry this body at the same node
                }
                if child == NIL {
                    // Empty slot: new leaf for this body.
                    let new = count;
                    count += 1;
                    let (ccx, ccy) = Self::child_center(ncx, ncy, nhalf, q);
                    self.write_node(ctx, lay, new, ccx, ccy, nhalf / 2, node)
                        .await;
                    ctx.write_u32(lay.n_body + 4 * new as u64, body as u32)
                        .await;
                    ctx.write_u32(lay.leaf + 4 * body, new).await;
                    ctx.write_u32(lay.n_child + 4 * (4 * node as u64 + q), new)
                        .await;
                    break;
                }
                node = child;
            }
            assert!(
                (count as u64) < self.max_nodes(),
                "tree overflow: {count} nodes for {bodies} bodies"
            );
        }
        ctx.write_u32(lay.node_count, count).await;
    }

    #[allow(clippy::too_many_arguments)]
    async fn write_node(
        &self,
        ctx: &Ctx,
        lay: &Layout,
        id: u32,
        cx: i64,
        cy: i64,
        half: i64,
        parent: u32,
    ) {
        let i = id as u64;
        ctx.write_i64(lay.n_cx + 8 * i, cx).await;
        ctx.write_i64(lay.n_cy + 8 * i, cy).await;
        ctx.write_i64(lay.n_half + 8 * i, half.max(1)).await;
        ctx.write_i64(lay.n_mass + 8 * i, 0).await;
        ctx.write_i64(lay.n_mx + 8 * i, 0).await;
        ctx.write_i64(lay.n_my + 8 * i, 0).await;
        ctx.write_u32(lay.n_parent + 4 * i, parent).await;
        ctx.write_u32(lay.n_body + 4 * i, NIL).await;
        for q in 0..4 {
            ctx.write_u32(lay.n_child + 4 * (4 * i + q), NIL).await;
        }
    }

    fn quadrant(cx: i64, cy: i64, x: i64, y: i64) -> u64 {
        (u64::from(x >= cx)) | (u64::from(y >= cy) << 1)
    }

    fn child_center(cx: i64, cy: i64, half: i64, q: u64) -> (i64, i64) {
        let h2 = (half / 2).max(1);
        let nx = if q & 1 != 0 { cx + h2 } else { cx - h2 };
        let ny = if q & 2 != 0 { cy + h2 } else { cy - h2 };
        (nx, ny)
    }

    /// Parallel mass/moment contribution into each body's leaf cell, under
    /// per-cell locks (commutative fixed-point adds — the short critical
    /// sections the paper blames for Barnes's prefetching losses).
    async fn mass_contribution(&self, ctx: &Ctx, lay: &Layout, lo: u64, hi: u64) {
        for body in lo..hi {
            let x = ctx.read_i64(lay.pos + 16 * body).await;
            let y = ctx.read_i64(lay.pos + 16 * body + 8).await;
            let mass = FX; // unit masses
            let node = ctx.read_u32(lay.leaf + 4 * body).await;
            let lock = CELL_LOCK_BASE + node % CELL_LOCKS;
            ctx.lock(lock).await;
            let m = ctx.read_i64(lay.n_mass + 8 * node as u64).await;
            let mx = ctx.read_i64(lay.n_mx + 8 * node as u64).await;
            let my = ctx.read_i64(lay.n_my + 8 * node as u64).await;
            ctx.write_i64(lay.n_mass + 8 * node as u64, m + mass).await;
            ctx.write_i64(lay.n_mx + 8 * node as u64, mx + x / 1024)
                .await;
            ctx.write_i64(lay.n_my + 8 * node as u64, my + y / 1024)
                .await;
            ctx.unlock(lock).await;
            ctx.compute(160).await;
        }
    }

    /// Sequential upward pass by processor 0: fold every node's mass and
    /// moments into its parent. Children have larger ids than their parents,
    /// so one reverse sweep suffices.
    async fn upward_pass(&self, ctx: &Ctx, lay: &Layout) {
        let count = ctx.read_u32(lay.node_count).await;
        for node in (1..count as u64).rev() {
            let m = ctx.read_i64(lay.n_mass + 8 * node).await;
            if m == 0 {
                continue;
            }
            let parent = ctx.read_u32(lay.n_parent + 4 * node).await as u64;
            let mx = ctx.read_i64(lay.n_mx + 8 * node).await;
            let my = ctx.read_i64(lay.n_my + 8 * node).await;
            let pm = ctx.read_i64(lay.n_mass + 8 * parent).await;
            let pmx = ctx.read_i64(lay.n_mx + 8 * parent).await;
            let pmy = ctx.read_i64(lay.n_my + 8 * parent).await;
            ctx.write_i64(lay.n_mass + 8 * parent, pm + m).await;
            ctx.write_i64(lay.n_mx + 8 * parent, pmx + mx).await;
            ctx.write_i64(lay.n_my + 8 * parent, pmy + my).await;
            ctx.compute(24).await;
        }
    }

    /// Barnes-Hut force computation for the owned bodies.
    async fn forces(&self, ctx: &Ctx, lay: &Layout, lo: u64, hi: u64) {
        for body in lo..hi {
            let x = ctx.read_i64(lay.pos + 16 * body).await;
            let y = ctx.read_i64(lay.pos + 16 * body + 8).await;
            let (mut ax, mut ay) = (0i64, 0i64);
            let mut stack = vec![0u32];
            while let Some(node) = stack.pop() {
                ctx.compute(VISIT_COMPUTE).await;
                let m = ctx.read_i64(lay.n_mass + 8 * node as u64).await;
                if m == 0 {
                    continue;
                }
                let mx = ctx.read_i64(lay.n_mx + 8 * node as u64).await;
                let my = ctx.read_i64(lay.n_my + 8 * node as u64).await;
                let half = ctx.read_i64(lay.n_half + 8 * node as u64).await;
                // Centre of mass (moments were scaled by 1/1024).
                let comx = mx / (m / FX).max(1) * 1024;
                let comy = my / (m / FX).max(1) * 1024;
                let dx = comx - x;
                let dy = comy - y;
                let dist = dx.abs().max(dy.abs()).max(FX);
                let resident = ctx.read_u32(lay.n_body + 4 * node as u64).await;
                let open = resident == NIL && half * 16 > self.theta_16 * dist;
                if open {
                    for q in 0..4u64 {
                        let c = ctx.read_u32(lay.n_child + 4 * (4 * node as u64 + q)).await;
                        if c != NIL {
                            stack.push(c);
                        }
                    }
                } else if resident != body as u32 {
                    // Skip self-interaction for own leaf; accumulate others.
                    let scale = (m / FX).max(1);
                    ax += dx / dist.max(1) * scale / 64;
                    ay += dy / dist.max(1) * scale / 64;
                }
            }
            ctx.write_i64(lay.acc + 16 * body, ax).await;
            ctx.write_i64(lay.acc + 16 * body + 8, ay).await;
        }
    }

    /// Leapfrog-ish integration of the owned bodies.
    async fn integrate(&self, ctx: &Ctx, lay: &Layout, lo: u64, hi: u64) {
        for i in lo..hi {
            for ax in 0..2u64 {
                let a = ctx.read_i64(lay.acc + 16 * i + 8 * ax).await;
                let v = ctx.read_i64(lay.vel + 16 * i + 8 * ax).await + a * 16;
                let p = ctx.read_i64(lay.pos + 16 * i + 8 * ax).await + v / 8;
                ctx.write_i64(lay.vel + 16 * i + 8 * ax, v).await;
                ctx.write_i64(lay.pos + 16 * i + 8 * ax, p).await;
            }
            ctx.compute(110).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrants_partition_the_plane() {
        assert_eq!(Barnes::quadrant(0, 0, 5, 5), 3);
        assert_eq!(Barnes::quadrant(0, 0, -5, 5), 2);
        assert_eq!(Barnes::quadrant(0, 0, 5, -5), 1);
        assert_eq!(Barnes::quadrant(0, 0, -5, -5), 0);
        // Boundary goes to the upper quadrant.
        assert_eq!(Barnes::quadrant(0, 0, 0, 0), 3);
    }

    #[test]
    fn child_centers_nest() {
        let (cx, cy) = Barnes::child_center(0, 0, 4 * FX, 3);
        assert_eq!((cx, cy), (2 * FX, 2 * FX));
        let (cx, cy) = Barnes::child_center(0, 0, 4 * FX, 0);
        assert_eq!((cx, cy), (-2 * FX, -2 * FX));
    }

    #[test]
    fn max_nodes_bounds_tree_size() {
        let b = Barnes::default();
        assert!(b.max_nodes() > 2 * b.bodies as u64);
    }
}
