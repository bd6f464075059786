//! Water — n² molecular dynamics (SPLASH-2 water-nsquared).
//!
//! Each timestep computes all pairwise intermolecular forces. Processors
//! accumulate force contributions privately, then merge them into the shared
//! force array under **per-molecule locks** — the short critical sections
//! that make prefetching counter-productive for Water in the paper (§5.1:
//! "prefetching makes short critical sections extremely expensive").
//!
//! All physics is fixed-point (`i64` scaled by 2^20): shared-memory
//! accumulation is commutative and associative, so the final checksum is
//! bit-identical on any processor count.

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Fixed-point scale (2^20).
const FX: i64 = 1 << 20;
/// First lock id used for per-molecule accumulation locks.
const MOL_LOCK_BASE: u32 = 8;
/// Number of accumulation locks (molecules hash onto them).
const MOL_LOCKS: u32 = 16;
/// Cycles of local work per pair interaction.
const PAIR_COMPUTE: u64 = 9000;
/// Cycles of local work per molecule position update.
const UPDATE_COMPUTE: u64 = 180;

/// Water configuration.
#[derive(Debug, Clone)]
pub struct Water {
    /// Number of molecules; the paper simulates 512.
    pub molecules: usize,
    /// Timesteps.
    pub steps: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for Water {
    /// Scaled-down default: 128 molecules, 3 steps.
    fn default() -> Self {
        Water {
            molecules: 128,
            steps: 3,
            seed: 0x3a7e5,
        }
    }
}

impl Water {
    /// The paper's problem size: 512 molecules.
    pub fn paper() -> Self {
        Water {
            molecules: 512,
            ..Self::default()
        }
    }

    /// Simplified bounded pair force on one axis (fixed point): a soft
    /// spring toward separation zero with saturation.
    fn pair_force(d: i64) -> i64 {
        let clamped = d.clamp(-8 * FX, 8 * FX);
        -(clamped / 16)
    }
}

struct Layout {
    pos: u64,
    vel: u64,
    force: u64,
}

impl Layout {
    fn new(m: usize) -> Self {
        let mut a = Alloc::new();
        let m3 = 3 * m as u64;
        let pos = a.page_aligned_array_f64(m3);
        let vel = a.page_aligned_array_f64(m3);
        let force = a.page_aligned_array_f64(m3);
        Layout { pos, vel, force }
    }

    fn pos3(&self, m: u64) -> u64 {
        self.pos + 24 * m
    }

    fn vel3(&self, m: u64) -> u64 {
        self.vel + 24 * m
    }

    fn force3(&self, m: u64) -> u64 {
        self.force + 24 * m
    }
}

impl Workload for Water {
    fn name(&self) -> &'static str {
        "Water"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Water {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        let m = self.molecules as u64;
        let lay = Layout::new(self.molecules);
        if ctx.pid == 0 {
            let mut rng = crate::rng::seeded(self.seed);
            for i in 0..m {
                for ax in 0..3u64 {
                    let p = crate::rng::centered_fx(&mut rng, 32, FX);
                    ctx.write_i64(lay.pos3(i) + 8 * ax, p).await;
                    ctx.write_i64(lay.vel3(i) + 8 * ax, 0).await;
                    ctx.write_i64(lay.force3(i) + 8 * ax, 0).await;
                }
            }
        }
        ctx.barrier().await;
        let (lo, hi) = ctx.block_range(m);
        let half = m / 2;
        for _step in 0..self.steps {
            // Zero this block's forces.
            for i in lo..hi {
                for ax in 0..3u64 {
                    ctx.write_i64(lay.force3(i) + 8 * ax, 0).await;
                }
            }
            ctx.barrier().await;
            // Pairwise forces: molecule i interacts with the next m/2
            // molecules (cyclic), the SPLASH pairing that touches each pair
            // exactly once. Contributions accumulate privately.
            let mut acc = vec![0i64; 3 * self.molecules];
            for i in lo..hi {
                let mut pi = [0i64; 3];
                for (ax, p) in (0..).zip(&mut pi) {
                    *p = ctx.read_i64(lay.pos3(i) + 8 * ax).await;
                }
                for k in 1..=half {
                    if m.is_multiple_of(2) && k == half && i >= m / 2 {
                        continue; // the mirrored half already covered it
                    }
                    let j = (i + k) % m;
                    let mut f = [0i64; 3];
                    for ax in 0..3usize {
                        let pj = ctx.read_i64(lay.pos3(j) + 8 * ax as u64).await;
                        f[ax] = Self::pair_force(pi[ax] - pj);
                    }
                    ctx.compute(PAIR_COMPUTE).await;
                    for ax in 0..3usize {
                        acc[3 * i as usize + ax] += f[ax];
                        acc[3 * j as usize + ax] -= f[ax];
                    }
                }
            }
            // Merge private accumulations under per-molecule locks —
            // the short critical sections.
            for mol in 0..m {
                let base = 3 * mol as usize;
                if acc[base] == 0 && acc[base + 1] == 0 && acc[base + 2] == 0 {
                    continue;
                }
                ctx.lock(MOL_LOCK_BASE + (mol as u32) % MOL_LOCKS).await;
                for ax in 0..3usize {
                    let addr = lay.force3(mol) + 8 * ax as u64;
                    let cur = ctx.read_i64(addr).await;
                    ctx.write_i64(addr, cur + acc[base + ax]).await;
                }
                ctx.unlock(MOL_LOCK_BASE + (mol as u32) % MOL_LOCKS).await;
            }
            ctx.barrier().await;
            // Integrate owned molecules.
            for i in lo..hi {
                for ax in 0..3u64 {
                    let f = ctx.read_i64(lay.force3(i) + 8 * ax).await;
                    let v = ctx.read_i64(lay.vel3(i) + 8 * ax).await + f / 4;
                    let p = ctx.read_i64(lay.pos3(i) + 8 * ax).await + v / 4;
                    ctx.write_i64(lay.vel3(i) + 8 * ax, v).await;
                    ctx.write_i64(lay.pos3(i) + 8 * ax, p).await;
                }
                ctx.compute(UPDATE_COMPUTE).await;
            }
            ctx.barrier().await;
        }
        if ctx.pid == 0 {
            let mut ck = 0u64;
            for i in 0..m {
                for ax in 0..3u64 {
                    ck = ck.rotate_left(9) ^ ctx.read_i64(lay.pos3(i) + 8 * ax).await as u64;
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
    fn pair_force_is_antisymmetric_and_bounded() {
        for d in [-100 * FX, -FX, 0, FX, 100 * FX] {
            assert_eq!(Water::pair_force(d), -Water::pair_force(-d));
            assert!(Water::pair_force(d).abs() <= FX / 2);
        }
        assert_eq!(Water::pair_force(0), 0);
    }

    #[test]
    fn cyclic_pairing_covers_each_pair_once() {
        // Replicate the loop structure and check pair coverage.
        let m = 8u64;
        let half = m / 2;
        let mut pairs = std::collections::HashSet::new();
        for i in 0..m {
            for k in 1..=half {
                if m.is_multiple_of(2) && k == half && i >= m / 2 {
                    continue;
                }
                let j = (i + k) % m;
                let key = (i.min(j), i.max(j));
                assert!(pairs.insert(key), "pair {key:?} visited twice");
            }
        }
        assert_eq!(pairs.len() as u64, m * (m - 1) / 2);
    }

    #[test]
    fn layout_regions_disjoint() {
        let lay = Layout::new(96);
        assert!(lay.vel >= lay.pos + 24 * 96);
        assert!(lay.force >= lay.vel + 24 * 96);
    }
}
