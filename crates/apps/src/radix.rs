//! Radix — iterative integer radix sort (SPLASH-2 kernel).
//!
//! One iteration per digit: local histogramming of the owned key block,
//! a barrier, a read of all processors' histogram rows to compute write
//! offsets, then the permutation phase that scatters keys across the whole
//! destination array — the page-grain false-sharing firehose that gives
//! Radix its >20% diff overhead in the paper.

use crate::framework::{Alloc, Ctx, Program, Workload};

/// Cycles of local work per key in the histogram/permutation loops.
const KEY_COMPUTE: u64 = 200;

/// Radix sort configuration.
#[derive(Debug, Clone)]
pub struct Radix {
    /// Number of keys.
    pub keys: usize,
    /// Radix (buckets per digit); must be a power of two.
    pub radix: usize,
    /// Number of digit passes (`radix ^ passes` must cover the key range).
    pub passes: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for Radix {
    /// Scaled-down default: 16 K keys of 24 bits (the paper sorts 1 M).
    fn default() -> Self {
        Radix {
            keys: 16 * 1024,
            radix: 256,
            passes: 3,
            seed: 0x5ad1,
        }
    }
}

impl Radix {
    /// The paper's problem size: 1 M keys.
    pub fn paper() -> Self {
        Radix {
            keys: 1 << 20,
            radix: 1024,
            passes: 3,
            ..Self::default()
        }
    }

    fn key_bits(&self) -> u32 {
        (self.radix.trailing_zeros()) * self.passes as u32
    }

    /// The deterministic input keys.
    fn input(&self) -> Vec<u32> {
        let mask = ((1u64 << self.key_bits()) - 1) as u32;
        crate::rng::masked_keys(&mut crate::rng::seeded(self.seed), self.keys, mask)
    }
}

struct Layout {
    arrays: [u64; 2],
    hist: u64,
    radix: u64,
}

impl Layout {
    fn new(keys: usize, radix: usize, nprocs: usize) -> Self {
        let mut a = Alloc::new();
        let a0 = a.page_aligned_array_u32(keys as u64);
        let a1 = a.page_aligned_array_u32(keys as u64);
        let hist = a.page_aligned_array_u32((radix * nprocs) as u64);
        Layout {
            arrays: [a0, a1],
            hist,
            radix: radix as u64,
        }
    }

    fn hist_cell(&self, proc_: usize, digit: u64) -> u64 {
        self.hist + 4 * (proc_ as u64 * self.radix + digit)
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "Radix"
    }

    fn run<'a>(&'a self, ctx: &'a mut Ctx) -> Program<'a> {
        Box::pin(self.program(ctx))
    }
}

impl Radix {
    /// The per-processor program behind [`Workload::run`].
    async fn program(&self, ctx: &Ctx) -> u64 {
        assert!(self.radix.is_power_of_two(), "radix must be a power of two");
        let lay = Layout::new(self.keys, self.radix, ctx.nprocs);
        let input = self.input();
        if ctx.pid == 0 {
            for (i, &k) in input.iter().enumerate() {
                ctx.write_u32(lay.arrays[0] + 4 * i as u64, k).await;
            }
        }
        ctx.barrier().await;
        let (lo, hi) = ctx.block_range(self.keys as u64);
        let digit_bits = self.radix.trailing_zeros();
        for pass in 0..self.passes {
            let src = lay.arrays[pass % 2];
            let dst = lay.arrays[(pass + 1) % 2];
            let shift = pass as u32 * digit_bits;
            // Phase 1: local histogram of the owned block.
            let mut counts = vec![0u32; self.radix];
            let mut local_keys = Vec::with_capacity((hi - lo) as usize);
            for i in lo..hi {
                let k = ctx.read_u32(src + 4 * i).await;
                counts[((k >> shift) as usize) & (self.radix - 1)] += 1;
                local_keys.push(k);
            }
            ctx.compute((hi - lo) * KEY_COMPUTE).await;
            for (d, &c) in counts.iter().enumerate() {
                ctx.write_u32(lay.hist_cell(ctx.pid, d as u64), c).await;
            }
            ctx.barrier().await;
            // Phase 2: global offsets — digit-major scan over all rows.
            let mut offsets = vec![0u64; self.radix];
            let mut running = 0u64;
            for d in 0..self.radix as u64 {
                for p in 0..ctx.nprocs {
                    let c = ctx.read_u32(lay.hist_cell(p, d)).await as u64;
                    if p == ctx.pid {
                        offsets[d as usize] = running;
                    }
                    running += c;
                }
            }
            ctx.compute(self.radix as u64 * ctx.nprocs as u64 * 2).await;
            // Phase 3: permutation — scattered writes over the whole array.
            for &k in &local_keys {
                let d = ((k >> shift) as usize) & (self.radix - 1);
                ctx.write_u32(dst + 4 * offsets[d], k).await;
                offsets[d] += 1;
            }
            ctx.compute((hi - lo) * KEY_COMPUTE).await;
            ctx.barrier().await;
        }
        if ctx.pid == 0 {
            let final_arr = lay.arrays[self.passes % 2];
            let mut ck = 0u64;
            let mut prev = 0u32;
            for i in 0..self.keys as u64 {
                let k = ctx.read_u32(final_arr + 4 * i).await;
                assert!(k >= prev, "radix output not sorted at {i}");
                prev = k;
                ck = ck.rotate_left(7) ^ k as u64;
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
    fn input_is_deterministic_and_bounded() {
        let r = Radix::default();
        let a = r.input();
        let b = r.input();
        assert_eq!(a, b);
        let mask = (1u32 << r.key_bits()) - 1;
        assert!(a.iter().all(|&k| k <= mask));
        assert_eq!(a.len(), r.keys);
    }

    #[test]
    fn layout_keeps_arrays_page_disjoint() {
        let lay = Layout::new(1024, 256, 16);
        assert_eq!(lay.arrays[0] % 4096, 0);
        assert_eq!(lay.arrays[1] % 4096, 0);
        assert!(lay.arrays[1] >= lay.arrays[0] + 4 * 1024);
        assert_eq!(lay.hist_cell(1, 0) - lay.hist_cell(0, 0), 4 * 256);
    }

    #[test]
    fn key_bits_cover_passes() {
        assert_eq!(Radix::default().key_bits(), 24);
        assert_eq!(Radix::paper().key_bits(), 30);
    }
}
