//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the API subset the workspace's wall-clock suite uses — [`Criterion`] and
//! [`Bencher::iter`]/[`Bencher::iter_batched`]/
//! [`Bencher::iter_with_large_drop`] — backed by a median-of-K wall-clock
//! timing loop.
//!
//! Beyond the real crate's API it also supports the workspace's host-side
//! profiling pipeline (see `ncp2-prof` and DESIGN.md §14):
//!
//! * per-bench results are collected in a process-global registry and, when
//!   the binary is invoked with `--save-baseline <path>`, written as a
//!   machine-readable wall report (sorted keys, integers only — the format
//!   `cargo xtask wall-diff` consumes);
//! * `--fast` clamps sample counts and time budgets for CI smoke runs;
//! * a host binary may inject allocation counters via [`set_alloc_hooks`]
//!   (function pointers, so this crate needs no dependency on the profiling
//!   crate); each timed region then also reports exact allocations and
//!   bytes per iteration, and each bench its peak live-heap growth.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Allocation-counter entry points injected by the hosting binary
/// (typically from `ncp2-prof`). All zeros when never set.
#[derive(Debug, Clone, Copy)]
pub struct AllocHooks {
    /// Whether the counters are real (a counting allocator is installed)
    /// — recorded in the wall report so the comparator can refuse a
    /// baseline comparison against count-less data.
    pub counting: bool,
    /// `(allocations, bytes)` by the calling thread since it started.
    pub thread_counts: fn() -> (u64, u64),
    /// Reset the peak-live-bytes mark to current live bytes; returns it.
    pub reset_peak: fn() -> u64,
    /// The peak-live-bytes mark.
    pub peak: fn() -> u64,
}

static HOOKS: OnceLock<AllocHooks> = OnceLock::new();

/// Installs the allocation hooks; first call wins, later calls are ignored.
pub fn set_alloc_hooks(hooks: AllocHooks) {
    let _ = HOOKS.set(hooks);
}

fn thread_counts() -> (u64, u64) {
    HOOKS.get().map_or((0, 0), |h| (h.thread_counts)())
}

/// One finished benchmark's numbers, as registered by the timing loop.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench id (`family/name` by convention).
    pub id: String,
    /// Median across samples of mean wall nanoseconds per iteration.
    pub median_ns: u64,
    /// Timed samples taken.
    pub samples: u64,
    /// Median allocations per iteration (zero without hooks).
    pub allocs: u64,
    /// Median allocated bytes per iteration (zero without hooks).
    pub alloc_bytes: u64,
    /// Peak live-heap growth across the whole bench, bytes.
    pub peak_bytes: u64,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Drains the per-bench results registered so far, in execution order.
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut RESULTS.lock().expect("bench results poisoned"))
}

struct Cli {
    save_baseline: Option<String>,
    fast: bool,
}

fn cli() -> &'static Cli {
    static CLI: OnceLock<Cli> = OnceLock::new();
    CLI.get_or_init(|| {
        let mut c = Cli {
            save_baseline: None,
            fast: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--save-baseline" => c.save_baseline = args.next(),
                "--fast" => c.fast = true,
                // `cargo bench` appends its own flags (`--bench`, filter
                // strings); the real criterion tolerates them and so do we.
                _ => {}
            }
        }
        c
    })
}

/// Serializes bench results as a wall report: the `BENCH_WALL.json` format
/// `ncp2_prof::walldiff::parse_wall` reads. Sorted ids (BTreeMap), fixed
/// field order, integers only — byte-deterministic for fixed inputs.
pub fn wall_json(results: &[BenchResult]) -> String {
    let sorted: BTreeMap<&str, &BenchResult> = results.iter().map(|r| (r.id.as_str(), r)).collect();
    let counting = HOOKS.get().is_some_and(|h| h.counting);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"format\": 1,\n");
    out.push_str(&format!("  \"alloc_counting\": {counting},\n"));
    out.push_str("  \"benches\": {\n");
    for (i, (id, r)) in sorted.iter().enumerate() {
        let comma = if i + 1 == sorted.len() { "" } else { "," };
        let id = id.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "    \"{id}\": {{\"median_ns\": {}, \"samples\": {}, \"allocs\": {}, \
             \"alloc_bytes\": {}, \"peak_bytes\": {}}}{comma}\n",
            r.median_ns, r.samples, r.allocs, r.alloc_bytes, r.peak_bytes
        ));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Writes the collected results to the `--save-baseline` path (if given)
/// and prints the report footer; a bench `main` calls it last.
pub fn finalize() {
    let results = take_results();
    if let Some(path) = &cli().save_baseline {
        let json = wall_json(&results);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("bench(shim): cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("bench(shim): wrote {} bench(es) to {path}", results.len());
    }
    println!("bench(shim): done");
}

/// Top-level harness handle, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Untimed warm-up budget before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(self, &id.into(), f);
        self
    }
}

/// How `iter_batched` amortizes setup; all variants behave identically here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Timing loop handle passed to the benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    d_allocs: u64,
    d_bytes: u64,
}

impl Bencher {
    fn new(iters: u64) -> Bencher {
        Bencher {
            iters,
            elapsed: Duration::ZERO,
            d_allocs: 0,
            d_bytes: 0,
        }
    }

    /// Times `routine` back to back for the configured iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let (a0, b0) = thread_counts();
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
        let (a1, b1) = thread_counts();
        self.d_allocs = a1 - a0;
        self.d_bytes = b1 - b0;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time (and its
    /// allocations) is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        let (mut allocs, mut bytes) = (0u64, 0u64);
        for _ in 0..self.iters {
            let input = setup();
            let (a0, b0) = thread_counts();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
            let (a1, b1) = thread_counts();
            allocs += a1 - a0;
            bytes += b1 - b0;
        }
        self.elapsed = total;
        self.d_allocs = allocs;
        self.d_bytes = bytes;
    }

    /// Like [`iter`](Bencher::iter), but the routine's outputs are kept
    /// alive until after the timed region, so their drop cost (a large
    /// deallocation, say) never pollutes the measurement.
    pub fn iter_with_large_drop<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut kept: Vec<O> = Vec::with_capacity(usize::try_from(self.iters).unwrap_or(0));
        let (a0, b0) = thread_counts();
        let start = Instant::now();
        for _ in 0..self.iters {
            kept.push(std::hint::black_box(routine()));
        }
        self.elapsed = start.elapsed();
        let (a1, b1) = thread_counts();
        self.d_allocs = a1 - a0;
        self.d_bytes = b1 - b0;
        drop(kept);
    }
}

/// Median of a sorted-in-place sample vector (mean of the middle two for
/// even counts); zero for an empty one.
fn median(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(config: &Criterion, id: &str, mut f: F) {
    // CI smoke runs clamp every budget (`--fast`).
    let (sample_size, measurement_time, warm_up_time) = if cli().fast {
        (
            config.sample_size.min(5),
            config.measurement_time.min(Duration::from_millis(100)),
            config.warm_up_time.min(Duration::from_millis(30)),
        )
    } else {
        (
            config.sample_size,
            config.measurement_time,
            config.warm_up_time,
        )
    };

    // Warm-up: run single iterations until the warm-up budget is spent,
    // measuring the per-iteration cost as we go.
    let warm_start = Instant::now();
    let mut per_iter = Duration::from_nanos(1);
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warm_up_time || warm_iters == 0 {
        let mut b = Bencher::new(1);
        f(&mut b);
        per_iter = b.elapsed.max(Duration::from_nanos(1));
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }

    // Size each sample so all samples together fit the measurement budget.
    let budget_per_sample = measurement_time / sample_size as u32;
    let iters =
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

    let peak_base = HOOKS.get().map_or(0, |h| (h.reset_peak)());
    let mut ns_samples = Vec::with_capacity(sample_size);
    let mut alloc_samples = Vec::with_capacity(sample_size);
    let mut byte_samples = Vec::with_capacity(sample_size);
    let mut total_iters = 0u64;
    for _ in 0..sample_size {
        let mut b = Bencher::new(iters);
        f(&mut b);
        total_iters += iters;
        let ns = u64::try_from(b.elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Per-iteration numbers (rounded), so results are independent of
        // how many iterations the host's speed packed into one sample.
        ns_samples.push((ns + iters / 2) / iters);
        alloc_samples.push((b.d_allocs + iters / 2) / iters);
        byte_samples.push((b.d_bytes + iters / 2) / iters);
    }
    let peak_bytes = HOOKS
        .get()
        .map_or(0, |h| (h.peak)().saturating_sub(peak_base));

    let result = BenchResult {
        id: id.to_string(),
        median_ns: median(&mut ns_samples),
        samples: sample_size as u64,
        allocs: median(&mut alloc_samples),
        alloc_bytes: median(&mut byte_samples),
        peak_bytes,
    };
    println!(
        "bench(shim): {id:<48} {:>10} ns/iter (median of {}; {} allocs/iter, {} B/iter; \
         {total_iters} iters)",
        result.median_ns, result.samples, result.allocs, result.alloc_bytes
    );
    RESULTS.lock().expect("bench results poisoned").push(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loop_runs_and_registers_results() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut hits = 0u64;
        c.bench_function("smoke/iter", |b| b.iter(|| std::hint::black_box(1 + 1)));
        c.bench_function("smoke/large_drop", |b| {
            b.iter_with_large_drop(|| vec![0u8; 32])
        });
        c.bench_function("grp/batched", |b| {
            b.iter_batched(|| 3u64, |x| x * 2, BatchSize::SmallInput);
            hits += 1;
        });
        assert!(hits > 0);
        let results = take_results();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert!(ids.contains(&"smoke/iter"));
        assert!(ids.contains(&"smoke/large_drop"));
        assert!(ids.contains(&"grp/batched"));
        for r in &results {
            // Sub-nanosecond routines (like `1 + 1`) can legitimately round
            // to a 0 ns/iter median; the heap-allocating bench cannot.
            assert!(r.samples >= 1);
            if r.id == "smoke/large_drop" {
                assert!(r.median_ns >= 1);
            }
        }
    }

    #[test]
    fn wall_json_sorts_ids_and_is_deterministic() {
        let results = vec![
            BenchResult {
                id: "zeta/last".into(),
                median_ns: 10,
                samples: 2,
                allocs: 0,
                alloc_bytes: 0,
                peak_bytes: 0,
            },
            BenchResult {
                id: "alpha/first".into(),
                median_ns: 20,
                samples: 2,
                allocs: 1,
                alloc_bytes: 64,
                peak_bytes: 128,
            },
        ];
        let a = wall_json(&results);
        let b = wall_json(&results);
        assert_eq!(a, b);
        let alpha = a.find("alpha/first").expect("alpha present");
        let zeta = a.find("zeta/last").expect("zeta present");
        assert!(alpha < zeta, "ids must serialize sorted");
        assert!(a.contains("\"format\": 1"));
        assert!(a.contains("\"alloc_counting\": "));
    }

    #[test]
    fn median_of_k() {
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [7]), 7);
        assert_eq!(median(&mut [1, 100, 3]), 3);
        assert_eq!(median(&mut [4, 1, 100, 2]), 3);
    }
}
