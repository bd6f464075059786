//! HDR-style log-bucketed histograms for simulated-cycle latencies.
//!
//! Values are `u64` cycles spanning many orders of magnitude (a 1-cycle
//! cache hit to a million-cycle barrier wait), so linear buckets are
//! hopeless and exact recording is wasteful. Instead we use the
//! HdrHistogram bucketing scheme with 4 precision bits: each power-of-two
//! octave is split into 16 linear sub-buckets, bounding the relative
//! quantile error at ~6% while covering all of `u64` in 976 buckets.
//!
//! Everything is integer arithmetic over simulated cycles — quantiles are
//! deterministic and merge is exact, which the byte-exact golden bench file
//! (`BENCH_tier1.json`) relies on.
//!
//! Lives in `ncp2-core` (rather than `ncp2-obs`, which re-exports it) so
//! the simulation itself can accumulate the open-loop service response-time
//! histogram on [`crate::stats::RunResult`]; `ncp2-obs` layers reporting on
//! top.

/// Linear sub-buckets per octave (2^PRECISION_BITS).
const SUB: u64 = 16;
/// Total bucket count covering the full `u64` range: 16 exact buckets for
/// values `0..16`, then 16 sub-buckets for each of the 60 octaves
/// `[2^4, 2^64)`.
const NBUCKETS: usize = 976;

/// A log-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket an observation lands in. Values below [`SUB`] get exact
/// buckets; larger values index by (octave, top 4 bits below the msb).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 4
        let octave = msb - 4; // 0 for [16,32)
        let sub = (v >> (msb - 4)) - SUB; // top 4 bits below the msb
        (SUB + octave * SUB + sub) as usize
    }
}

/// Lowest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_lo(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let octave = idx / SUB - 1;
        let sub = idx % SUB;
        (SUB + sub) << octave
    }
}

/// Highest value mapping to bucket `idx`.
fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 >= NBUCKETS {
        u64::MAX
    } else {
        bucket_lo(idx + 1) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest observation recorded (exact, not bucketed). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (`p` in `[0, 1]`), reported as the upper bound of
    /// the bucket containing the rank-`ceil(p * count)` observation, clamped
    /// to the exact maximum. Returns 0 for an empty histogram. With 4
    /// precision bits the result is within ~6% of the true order statistic.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_hi(idx).min(self.max);
            }
        }
        self.max
    }

    /// Adds every observation of `other` into `self` (exact: bucket counts
    /// and maxima merge losslessly).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_u64() {
        // Every bucket's hi is the next bucket's lo minus one.
        for idx in 0..NBUCKETS - 1 {
            assert_eq!(bucket_hi(idx) + 1, bucket_lo(idx + 1), "idx {idx}");
        }
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(NBUCKETS - 1), u64::MAX);
        // Boundary values land where expected.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 16 + 15);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn index_and_lo_are_inverse() {
        for idx in 0..NBUCKETS {
            assert_eq!(bucket_index(bucket_lo(idx)), idx, "idx {idx}");
            assert_eq!(bucket_index(bucket_hi(idx)), idx, "idx {idx}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let p99 = h.quantile(0.99);
        assert!((9_900..=10_000 + 10_000 / 16).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 900, 40_000] {
            a.observe(v);
            both.observe(v);
        }
        for v in [17u64, 17, 1 << 40] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
