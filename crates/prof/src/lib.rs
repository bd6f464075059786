//! # ncp2-prof — host-side profiling for the simulator itself
//!
//! Everything else in this workspace measures **simulated** cycles; this
//! crate measures the **host**: wall-clock time and heap allocations spent
//! running the simulator. It mirrors, for host time, what `ncp2-obs` does
//! for simulated time — attribute first, optimize second (the paper's own
//! method, applied to the tool reproducing it).
//!
//! Three pieces:
//!
//! * a counting [`std::alloc::GlobalAlloc`] installed behind the `prof`
//!   feature — every allocation bumps a handful of relaxed atomics (global
//!   count / bytes / live bytes / peak live bytes) and two `const`-init
//!   thread-local counters, so per-thread deltas attribute allocations to
//!   the bench sample or engine job running on that thread;
//! * [`PhaseClock`] — a phase-boundary stopwatch the experiment engine laps
//!   around its setup / simulation / report-derivation / cache-IO phases,
//!   pairing wall nanoseconds with the same-thread allocation deltas;
//! * [`walldiff`] — the `BENCH_WALL.json` regression comparator behind
//!   `cargo xtask wall-diff`: generous on time (CI hosts are noisy), tight
//!   on allocation counts (they are exact and host-independent).
//!
//! The counters and the `prof_*` accessors are compiled into every build;
//! only the allocator that writes the counters sits behind the feature.
//! Without it nothing writes them, so every accessor reads zero and
//! callers never gate themselves.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub mod walldiff;

/// Snapshot of the global allocation counters (process-wide, since start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations performed (calls to `alloc`, plus the alloc half of
    /// every `realloc`).
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub current: u64,
    /// High-water mark of `current` since start (or the last
    /// [`prof_reset_peak`]).
    pub peak: u64,
}

static G_ALLOCS: AtomicU64 = AtomicU64::new(0);
static G_BYTES: AtomicU64 = AtomicU64::new(0);
static G_CURRENT: AtomicU64 = AtomicU64::new(0);
static G_PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init + no Drop: safe to touch from inside the allocator
    // (no lazy initialization, no registered destructor).
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator: the only writer of the counters above.
#[cfg(feature = "prof")]
mod counting {
    use super::{G_ALLOCS, G_BYTES, G_CURRENT, G_PEAK, T_ALLOCS, T_BYTES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::Ordering;

    /// System allocator wrapped in relaxed-atomic counting.
    pub struct CountingAlloc;

    fn note_alloc(size: u64) {
        G_ALLOCS.fetch_add(1, Ordering::Relaxed);
        G_BYTES.fetch_add(size, Ordering::Relaxed);
        let live = G_CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        G_PEAK.fetch_max(live, Ordering::Relaxed);
        T_ALLOCS.with(|c| c.set(c.get() + 1));
        T_BYTES.with(|c| c.set(c.get() + size));
    }

    fn note_free(size: u64) {
        // Saturating: a counter reset can never make this underflow wrap.
        let _ = G_CURRENT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(size))
        });
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                note_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            note_free(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                note_free(layout.size() as u64);
                note_alloc(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

/// Whether the counting allocator is compiled in (`prof` feature).
pub fn prof_enabled() -> bool {
    cfg!(feature = "prof")
}

/// `(allocations, bytes)` performed by the **calling thread** since it
/// started — monotonic, so two snapshots bracket a region's allocations.
pub fn prof_thread_counts() -> (u64, u64) {
    (T_ALLOCS.with(Cell::get), T_BYTES.with(Cell::get))
}

/// Process-wide allocation counters.
pub fn prof_global_stats() -> AllocStats {
    AllocStats {
        allocs: G_ALLOCS.load(Ordering::Relaxed),
        bytes: G_BYTES.load(Ordering::Relaxed),
        current: G_CURRENT.load(Ordering::Relaxed),
        peak: G_PEAK.load(Ordering::Relaxed),
    }
}

/// Resets the peak-live-bytes high-water mark to the current live bytes and
/// returns that value; a later [`prof_peak`] minus it bounds a region's
/// peak heap growth.
pub fn prof_reset_peak() -> u64 {
    let live = G_CURRENT.load(Ordering::Relaxed);
    G_PEAK.store(live, Ordering::Relaxed);
    live
}

/// The peak-live-bytes high-water mark since start (or the last reset).
pub fn prof_peak() -> u64 {
    G_PEAK.load(Ordering::Relaxed)
}

/// Host cost of one named phase: wall time plus same-thread allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Allocations performed on the measuring thread.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// A phase-boundary stopwatch: construct at the start of a job, call
/// [`lap`](PhaseClock::lap) at each phase boundary, and [`finish`] yields
/// the per-phase costs in first-lap order (repeated names accumulate, so a
/// job that touches the cache before *and* after simulation reports one
/// `cache_io` phase).
///
/// A disabled clock (`PhaseClock::new(false)`) does nothing at all — it
/// never reads the clock or the counters — so un-profiled runs stay on
/// exactly the code path they had before profiling existed.
///
/// [`finish`]: PhaseClock::finish
#[derive(Debug)]
pub struct PhaseClock {
    mark: Option<(Instant, u64, u64)>,
    phases: Vec<(&'static str, PhaseCost)>,
}

impl PhaseClock {
    /// A clock that attributes from "now", or an inert one.
    pub fn new(enabled: bool) -> PhaseClock {
        PhaseClock {
            mark: enabled.then(|| {
                let (a, b) = prof_thread_counts();
                (Instant::now(), a, b)
            }),
            phases: Vec::new(),
        }
    }

    /// Whether this clock is recording.
    pub fn enabled(&self) -> bool {
        self.mark.is_some()
    }

    /// Charges everything since the previous boundary to `name`.
    pub fn lap(&mut self, name: &'static str) {
        let Some((at, allocs0, bytes0)) = self.mark else {
            return;
        };
        let (allocs1, bytes1) = prof_thread_counts();
        let cost = PhaseCost {
            wall_ns: u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX),
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
        };
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => {
                acc.wall_ns += cost.wall_ns;
                acc.allocs += cost.allocs;
                acc.alloc_bytes += cost.alloc_bytes;
            }
            None => self.phases.push((name, cost)),
        }
        self.mark = Some((Instant::now(), allocs1, bytes1));
    }

    /// The accumulated phases, in first-lap order. Empty for a disabled
    /// clock.
    pub fn finish(self) -> Vec<(&'static str, PhaseCost)> {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_records_nothing() {
        let mut clock = PhaseClock::new(false);
        clock.lap("setup");
        clock.lap("sim");
        assert!(!clock.enabled());
        assert!(clock.finish().is_empty());
    }

    #[test]
    fn enabled_clock_accumulates_repeated_phases_in_lap_order() {
        let mut clock = PhaseClock::new(true);
        std::hint::black_box(vec![0u8; 1024]);
        clock.lap("cache_io");
        clock.lap("sim");
        clock.lap("cache_io");
        let phases = clock.finish();
        let names: Vec<&str> = phases.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["cache_io", "sim"]);
    }

    #[test]
    fn thread_counts_are_monotonic() {
        let (a0, b0) = prof_thread_counts();
        std::hint::black_box(vec![0u8; 4096].into_boxed_slice());
        let (a1, b1) = prof_thread_counts();
        assert!(a1 >= a0 && b1 >= b0);
        if prof_enabled() {
            assert!(a1 > a0, "an allocation must bump the thread counter");
            assert!(b1 - b0 >= 4096);
        } else {
            assert_eq!((a0, b0, a1, b1), (0, 0, 0, 0));
        }
    }

    #[test]
    fn global_stats_track_peak_when_enabled() {
        let before = prof_global_stats();
        let big = std::hint::black_box(vec![0u8; 1 << 16]);
        let during = prof_global_stats();
        drop(big);
        if prof_enabled() {
            assert!(during.allocs > before.allocs);
            assert!(during.peak >= during.current);
            assert!(during.bytes - before.bytes >= 1 << 16);
        } else {
            assert_eq!(during, AllocStats::default());
        }
    }

    #[test]
    fn reset_peak_rebases_the_high_water_mark() {
        let base = prof_reset_peak();
        let big = std::hint::black_box(vec![0u8; 1 << 20]);
        let high = prof_peak();
        drop(big);
        let after = prof_reset_peak();
        if prof_enabled() {
            // Other test threads allocate and free concurrently, so the
            // bounds leave them half of the 1 MiB block.
            assert!(high >= base + (1 << 19), "peak {high} vs reset {base}");
            assert!(after + (1 << 19) <= high, "reset {after} vs peak {high}");
            assert!(prof_peak() >= after);
        } else {
            assert_eq!((base, high, after, prof_peak()), (0, 0, 0, 0));
        }
    }
}
