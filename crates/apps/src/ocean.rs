//! Ocean — large-scale ocean movement via an iterative grid solver
//! (SPLASH-2). Modeled as Jacobi relaxation on two ping-pong grids with a
//! barrier per sweep: row-block partitioning makes each processor read its
//! neighbours' boundary rows, and with ~8 rows per 4-KB page the boundary
//! pages are heavily write-shared — Ocean is the paper's worst performer
//! (dominated by data-fetch and synchronization time).

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Cycles of local floating-point work per stencil cell.
const CELL_COMPUTE: u64 = 40;

/// Ocean configuration.
#[derive(Debug, Clone)]
pub struct Ocean {
    /// Grid side (including boundary); the paper simulates 258×258.
    pub grid: usize,
    /// Jacobi sweeps.
    pub iters: usize,
}

impl Default for Ocean {
    /// Scaled-down default: a 130×130 grid, 10 sweeps.
    fn default() -> Self {
        Ocean {
            grid: 130,
            iters: 10,
        }
    }
}

impl Ocean {
    /// The paper's problem size: a 258×258 ocean grid.
    pub fn paper() -> Self {
        Ocean {
            grid: 258,
            iters: 12,
        }
    }

    /// Deterministic initial condition.
    fn init_cell(i: u64, j: u64) -> f64 {
        ((i * 37 + j * 101) % 1000) as f64 / 1000.0
    }
}

struct Layout {
    grids: [u64; 2],
    n: u64,
}

impl Layout {
    fn new(grid: usize) -> Self {
        let mut a = Alloc::new();
        let n = grid as u64;
        let g0 = a.page_aligned_array_f64(n * n);
        let g1 = a.page_aligned_array_f64(n * n);
        Layout { grids: [g0, g1], n }
    }

    fn cell(&self, which: usize, i: u64, j: u64) -> u64 {
        self.grids[which] + 8 * (i * self.n + j)
    }
}

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "Ocean"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Ocean {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        let n = self.grid as u64;
        let lay = Layout::new(self.grid);
        if ctx.pid == 0 {
            for i in 0..n {
                for j in 0..n {
                    let v = Self::init_cell(i, j);
                    ctx.write_f64(lay.cell(0, i, j), v).await;
                    ctx.write_f64(lay.cell(1, i, j), v).await;
                }
            }
        }
        ctx.barrier().await;
        // Interior rows 1..n-1 are block-partitioned.
        let rows = n - 2;
        let (rlo, rhi) = ctx.block_range(rows);
        let (lo, hi) = (rlo + 1, rhi + 1);
        for sweep in 0..self.iters {
            let src = sweep % 2;
            let dst = (sweep + 1) % 2;
            // Rows touching another processor's block are processed
            // last: their neighbour rows are the remote (invalidated)
            // pages, so deferring them gives acquire-time prefetches the
            // lead time the paper measures (§5.1).
            let mut order: Vec<u64> = ((lo + 1)..hi.saturating_sub(1)).collect();
            if hi > lo {
                order.push(hi - 1);
            }
            if hi > lo + 1 {
                order.push(lo);
            }
            for i in order {
                // Stream the row: read the full 5-point stencil.
                for j in 1..n - 1 {
                    let c = ctx.read_f64(lay.cell(src, i, j)).await;
                    let up = ctx.read_f64(lay.cell(src, i - 1, j)).await;
                    let down = ctx.read_f64(lay.cell(src, i + 1, j)).await;
                    let left = ctx.read_f64(lay.cell(src, i, j - 1)).await;
                    let right = ctx.read_f64(lay.cell(src, i, j + 1)).await;
                    let v = 0.2 * (c + up + down + left + right);
                    ctx.write_f64(lay.cell(dst, i, j), v).await;
                }
                ctx.compute((n - 2) * CELL_COMPUTE).await;
            }
            ctx.barrier().await;
        }
        if ctx.pid == 0 {
            let fin = self.iters % 2;
            let mut ck = 0u64;
            for i in 0..n {
                for j in 0..n {
                    ck = ck.rotate_left(3) ^ ctx.read_f64(lay.cell(fin, i, j)).await.to_bits();
                }
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
    fn layout_is_page_aligned_and_disjoint() {
        let lay = Layout::new(66);
        assert_eq!(lay.grids[0] % 4096, 0);
        assert_eq!(lay.grids[1] % 4096, 0);
        assert!(lay.grids[1] >= lay.grids[0] + 8 * 66 * 66);
        assert_eq!(lay.cell(0, 1, 0) - lay.cell(0, 0, 0), 8 * 66);
    }

    #[test]
    fn init_is_deterministic() {
        assert_eq!(Ocean::init_cell(3, 4), Ocean::init_cell(3, 4));
        assert!(Ocean::init_cell(0, 0) >= 0.0 && Ocean::init_cell(5, 9) < 1.0);
    }

    #[test]
    fn paper_size_matches() {
        assert_eq!(Ocean::paper().grid, 258);
    }
}
