//! Process-level host counters: CPU time and context switches from
//! `getrusage(RUSAGE_SELF)`, which sums every thread of the process
//! (including workload threads that have already exited), and peak
//! resident memory from `/proc/self/status`.

use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's CPU time and context switches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Voluntary context switches (a thread blocked, e.g. on a channel).
    pub vol_switches: u64,
    /// Involuntary context switches (a thread was preempted).
    pub invol_switches: u64,
}

impl Usage {
    /// The process's counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a properly sized and aligned `struct rusage`, and
        // RUSAGE_SELF only writes into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
        Usage {
            cpu: tv(ru.utime) + tv(ru.stime),
            vol_switches: ru.nvcsw as u64,
            invol_switches: ru.nivcsw as u64,
        }
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            vol_switches: self.vol_switches - earlier.vol_switches,
            invol_switches: self.invol_switches - earlier.invol_switches,
        }
    }
}

/// Starts a fresh peak-resident-memory count, so that the next
/// [`peak_rss_mb`] covers one execution: hands the allocator's free memory
/// back to the kernel, then restarts `VmHWM` from the resident size left.
///
/// Without the trim, memory freed by earlier executions stays resident in
/// per-thread allocator arenas, and the baseline drifts upward by a
/// different amount in every run.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free heap pages; it touches no
    // memory the program still owns.
    unsafe {
        malloc_trim(0);
    }
    // Writing "5" to clear_refs resets VmHWM (Linux 4.0 and later).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("hostbench: cannot reset the peak RSS count: {e}");
    }
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
