//! Workspace scoping: which files each rule polices.
//!
//! Paths are workspace-relative with forward slashes. Scopes are data, not
//! code, so adding a file to a rule's beat is a one-line change here.

/// Protocol hot paths: message handlers and synchronization machinery.
/// Panic rules (`forbidden-panic`, `undocumented-panic`) police these.
pub const HANDLER_FILES: &[&str] = &[
    "crates/core/src/system.rs",
    "crates/core/src/treadmarks.rs",
    "crates/core/src/aurc.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/transport.rs",
    "crates/net/src/lib.rs",
    "crates/net/src/router.rs",
    "crates/net/src/topology.rs",
];

/// Data-plane files where unchecked indexing is additionally policed.
pub const INDEX_FILES: &[&str] = &[
    "crates/core/src/diff.rs",
    "crates/core/src/bitvec.rs",
    "crates/core/src/page.rs",
];

/// Crates whose sources are scanned for truncating cycle casts.
pub const CYCLE_CAST_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/net/src",
    "crates/mem/src",
    "crates/ncp2/src/stats",
    "crates/obs/src",
    "crates/svc/src",
];

/// Crates that must never read wall-clock time: the simulation and
/// everything that post-processes its (deterministic) output.
pub const SIMULATED_TIME_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/obs/src",
    "crates/fault/src",
    "crates/verify/src",
    "crates/svc/src",
];

/// The workloads: they run as coroutines on the simulator thread, so they
/// join the simulated-time crates under `os-thread-in-sim`.
pub const WORKLOAD_DIRS: &[&str] = &["crates/apps/src"];

/// Files exempt from `os-thread-in-sim`: the threaded op-stream adapter
/// kept for the host benchmark's front-end probe, which the simulator does
/// not use.
pub const THREAD_ADAPTER_FILES: &[&str] = &["crates/sim/src/proc.rs"];

/// Directory whose binaries must route every simulation through the
/// experiment engine.
pub const ENGINE_ONLY_DIR: &str = "crates/bench/src/bin";

/// Files whose `obs_edge(` emission sites must anchor to a recorded span.
pub const EDGE_EMISSION_FILES: &[&str] = &[
    "crates/core/src/system.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/treadmarks.rs",
    "crates/core/src/aurc.rs",
];

/// Directories scanned for uncapped retry/backoff sites.
pub const RETRY_DIRS: &[&str] = &["crates/core/src", "crates/net/src"];

/// How far (in lines, both directions) a retry/backoff site may be from the
/// `MAX_`-prefixed cap constant that bounds it.
pub const RETRY_CAP_WINDOW: u32 = 12;

/// Crates whose output feeds checksums, metrics JSON, bench cache keys or
/// committed golden files — iterating a hash-order collection there is a
/// reproducibility hazard (`nondeterministic-iteration`).
pub const DETERMINISTIC_OUTPUT_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/net/src",
    "crates/mem/src",
    "crates/ncp2/src/stats",
    "crates/obs/src",
    "crates/apps/src",
    "crates/verify/src",
    "crates/fault/src",
    "crates/bench/src",
    "crates/lint/src",
    "crates/prof/src",
    "crates/svc/src",
];

/// Crates doing window-boundary math over the time-series log: dividing by
/// the window width there needs a `// window:` boundary justification
/// (`window-boundary-div`).
pub const WINDOW_MATH_DIRS: &[&str] = &["crates/obs/src"];

/// Crates whose per-event cost multiplies by the cluster size: linear
/// container scans (`Vec::remove`, `retain`) there need a `// linear:`
/// bound (`linear-scan-in-hot-path`).
pub const HOT_SCAN_DIRS: &[&str] = &["crates/sim/src", "crates/net/src"];

/// Crates where saturating/wrapping arithmetic is overwhelmingly
/// cycle-counter math and must justify overflow behavior.
pub const CYCLE_ARITH_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/net/src",
    "crates/mem/src",
    "crates/obs/src",
    "crates/svc/src",
];

/// The open-loop service crate: arrival-time arithmetic there must cite
/// simulated-`Cycles` types or a `// clock:` justification
/// (`open-loop-clock`) — response times are cycle deltas, never host time.
pub const OPEN_LOOP_DIRS: &[&str] = &["crates/svc/src"];

/// True when `rel` lives under any of `dirs`.
pub fn in_dirs(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter()
        .any(|d| rel.strip_prefix(d).is_some_and(|r| r.starts_with('/')))
}
