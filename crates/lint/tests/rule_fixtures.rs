//! Per-rule fixtures: every registered rule has a firing fixture (the
//! hazard, caught) and a clean twin (the idiomatic fix, silent). The pair
//! pins both directions — a rule that stops firing and a rule that starts
//! overreaching both break here.

use ncp2_lint::lint_source;

/// Asserts the fixture trips exactly `rule` (possibly several times).
fn fires(rel: &str, src: &str, rule: &str) {
    let report = lint_source(rel, src);
    assert!(
        !report.findings.is_empty(),
        "{rule}: firing fixture produced no findings"
    );
    for d in &report.findings {
        assert_eq!(
            d.rule, rule,
            "{rule}: firing fixture tripped unrelated rule {} at {}:{}",
            d.rule, d.file, d.line
        );
    }
}

/// Asserts the fixture is entirely silent (no findings, no suppressions).
fn clean(rel: &str, src: &str, rule: &str) {
    let report = lint_source(rel, src);
    assert!(
        report.findings.is_empty(),
        "{rule}: clean twin tripped {:?}",
        report
            .findings
            .iter()
            .map(|d| format!("{} at {}:{}", d.rule, d.file, d.line))
            .collect::<Vec<_>>()
    );
}

#[test]
fn engine_bypass() {
    let rel = "crates/bench/src/bin/sweep.rs";
    fires(
        rel,
        r#"
fn main() {
    let sim = Simulation::new(config());
    run_app(sim);
}
"#,
        "engine-bypass",
    );
    clean(
        rel,
        r#"
fn main() {
    let grid = Grid::new(config());
    let results = Engine::default().execute(grid);
    report(results);
}
"#,
        "engine-bypass",
    );
}

#[test]
fn forbidden_panic() {
    let rel = "crates/core/src/sync.rs";
    fires(
        rel,
        r#"
fn holder(&self, lock: u32) -> usize {
    self.owner.get(&lock).copied().unwrap()
}
"#,
        "forbidden-panic",
    );
    clean(
        rel,
        r#"
fn holder(&self, lock: u32) -> Option<usize> {
    self.owner.get(&lock).copied()
}
"#,
        "forbidden-panic",
    );
}

#[test]
fn linear_scan_in_hot_path() {
    let rel = "crates/sim/src/queue.rs";
    fires(
        rel,
        r#"
fn cancel(&mut self, seq: u64) {
    self.pending.retain(|e| e.seq != seq);
}
"#,
        "linear-scan-in-hot-path",
    );
    fires(
        rel,
        r#"
fn take_first(&mut self) -> Event {
    self.pending.remove(0)
}
"#,
        "linear-scan-in-hot-path",
    );
    // A `// linear:` comment bounding the scan silences the rule, and
    // `swap_remove` is O(1) so it never fires.
    clean(
        rel,
        r#"
fn cancel(&mut self, bucket: usize, slot: usize) -> Event {
    // linear: bucket scan is bounded by the calendar width, not the queue.
    self.buckets[bucket].retain(|e| e.live);
    self.buckets[bucket].swap_remove(slot)
}
"#,
        "linear-scan-in-hot-path",
    );
    // Out of scope: the same scan in a protocol crate belongs to other rules.
    clean(
        "crates/core/src/interval.rs",
        r#"
fn drop_covered(&mut self) {
    self.anns.remove(0);
}
"#,
        "linear-scan-in-hot-path",
    );
}

#[test]
fn malformed_suppression() {
    let rel = "crates/core/src/sync.rs";
    // No ` -- reason`: the directive itself becomes the finding.
    fires(
        rel,
        r#"
fn f(x: Option<u32>) -> Option<u32> {
    x // lint: allow(forbidden-panic)
}
"#,
        "malformed-suppression",
    );
    // Unknown rule IDs are malformed too, not silently inert.
    fires(
        rel,
        r#"
fn f(x: Option<u32>) -> Option<u32> {
    x // lint: allow(no-such-rule) -- typo'd rule names must not pass
}
"#,
        "malformed-suppression",
    );
    // Well-formed suppression with a reason: finding moves to the ledger.
    let report = lint_source(
        rel,
        r#"
fn f(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(forbidden-panic) -- fixture twin exercising the ledger
}
"#,
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "forbidden-panic");
    assert!(!report.suppressed[0].reason.is_empty());
}

#[test]
fn nondeterministic_iteration() {
    let rel = "crates/ncp2/src/stats/tally.rs";
    fires(
        rel,
        r#"
use std::collections::HashMap;

struct Tally {
    counts: HashMap<u32, u64>,
}

impl Tally {
    fn dump(&self) -> Vec<u32> {
        self.counts.keys().copied().collect()
    }
}
"#,
        "nondeterministic-iteration",
    );
    clean(
        rel,
        r#"
use std::collections::BTreeMap;

struct Tally {
    counts: BTreeMap<u32, u64>,
}

impl Tally {
    fn dump(&self) -> Vec<u32> {
        self.counts.keys().copied().collect()
    }
}
"#,
        "nondeterministic-iteration",
    );
}

#[test]
fn nondeterministic_iteration_for_loop_and_point_lookups() {
    let rel = "crates/ncp2/src/stats/tally.rs";
    fires(
        rel,
        r#"
use std::collections::HashSet;

fn sum(pages: HashSet<u64>) -> u64 {
    let mut acc = 0;
    for p in &pages {
        acc ^= p << 1;
    }
    acc
}
"#,
        "nondeterministic-iteration",
    );
    // Point lookups are order-free and stay silent.
    clean(
        rel,
        r#"
use std::collections::HashMap;

struct Cache {
    map: HashMap<u64, u64>,
}

impl Cache {
    fn lookup(&mut self, k: u64) -> u64 {
        *self.map.entry(k).or_insert(0)
    }
    fn probe(&self, k: u64) -> bool {
        self.map.contains_key(&k)
    }
}
"#,
        "nondeterministic-iteration",
    );
}

#[test]
fn truncating_cycle_cast() {
    let rel = "crates/sim/src/clock.rs";
    fires(
        rel,
        r#"
fn compress(cycles: u64) -> u32 {
    cycles as u32
}
"#,
        "truncating-cycle-cast",
    );
    // A sub-64-bit cast away from cycle quantities is fine.
    clean(
        rel,
        r#"
fn tag(node: usize) -> u16 {
    node as u16
}

fn keep(cycles: u64) -> u64 {
    cycles
}
"#,
        "truncating-cycle-cast",
    );
}

#[test]
fn unanchored_edge() {
    let rel = "crates/core/src/sync.rs";
    fires(
        rel,
        r#"
fn grant(&mut self, src: usize, dst: usize, t: u64) {
    self.obs_edge(EdgeKind::LockGrant, src, dst, t, 0);
}
"#,
        "unanchored-edge",
    );
    clean(
        rel,
        r#"
fn grant(&mut self, src: usize, dst: usize, t: u64) {
    self.obs_edge(EdgeKind::LockGrant, src, dst, t, self.obs_last_span(src));
}
"#,
        "unanchored-edge",
    );
}

#[test]
fn unbounded_retry() {
    let rel = "crates/net/src/router.rs";
    fires(
        rel,
        r#"
fn backoff(&mut self, frame: &Frame) -> u64 {
    RETRANSMIT_TIMEOUT << frame.attempt
}
"#,
        "unbounded-retry",
    );
    clean(
        rel,
        r#"
fn backoff(&mut self, frame: &Frame) -> u64 {
    let shift = frame.attempt.min(MAX_BACKOFF_SHIFT);
    RETRANSMIT_TIMEOUT << shift
}
"#,
        "unbounded-retry",
    );
}

#[test]
fn unchecked_index() {
    let rel = "crates/core/src/diff.rs";
    fires(
        rel,
        r#"
fn word(&self, i: usize) -> u8 {
    self.data[i]
}
"#,
        "unchecked-index",
    );
    clean(
        rel,
        r#"
fn word(&self, i: usize) -> u8 {
    // invariant: i comes from a same-sized dirty vector, checked by new().
    self.data[i]
}
"#,
        "unchecked-index",
    );
}

#[test]
fn undocumented_panic() {
    let rel = "crates/core/src/treadmarks.rs";
    fires(
        rel,
        r#"
fn twin(&mut self, page: u64) -> &[u8] {
    self.twins.get(&page).expect("twin present")
}
"#,
        "undocumented-panic",
    );
    clean(
        rel,
        r#"
fn twin(&mut self, page: u64) -> &[u8] {
    // invariant: a twin is created on the first write fault, before any
    // diff request can name the page.
    self.twins.get(&page).expect("twin present")
}
"#,
        "undocumented-panic",
    );
}

#[test]
fn unused_suppression() {
    let rel = "crates/core/src/sync.rs";
    fires(
        rel,
        r#"
fn holder(&self, lock: u32) -> Option<usize> {
    // lint: allow(forbidden-panic) -- stale: the unwrap below was removed
    self.owner.get(&lock).copied()
}
"#,
        "unused-suppression",
    );
    // The twin for "suppression actually used" lives in
    // `malformed_suppression` above; a file with no directives is trivially
    // clean for this rule.
    clean(
        rel,
        r#"
fn holder(&self, lock: u32) -> Option<usize> {
    self.owner.get(&lock).copied()
}
"#,
        "unused-suppression",
    );
}

#[test]
fn wall_clock_in_sim() {
    let rel = "crates/sim/src/clock.rs";
    fires(
        rel,
        r#"
use std::time::Instant;

fn stamp() -> Instant {
    Instant::now()
}
"#,
        "wall-clock-in-sim",
    );
    clean(
        rel,
        r#"
fn stamp(now: u64) -> u64 {
    now
}
"#,
        "wall-clock-in-sim",
    );
}

#[test]
fn os_thread_in_sim() {
    for rel in ["crates/core/src/system.rs", "crates/apps/src/tsp.rs"] {
        fires(
            rel,
            r#"
use std::thread::{self, Builder};

fn run(n: usize) {
    let workers: Vec<_> = (0..n).map(|_| std::thread::spawn(work)).collect();
    thread::scope(|s| s.spawn(work));
}
"#,
            "os-thread-in-sim",
        );
        clean(
            rel,
            r#"
fn run(procs: &mut Coroutines<'_>, n: usize) {
    for pid in 0..n {
        let op = procs.next_op(pid);
        step(pid, op);
    }
}
"#,
            "os-thread-in-sim",
        );
    }
    // The threaded adapter kept for the host benchmark is exempt.
    clean(
        "crates/sim/src/proc.rs",
        r#"
fn spawn(pid: usize) -> JoinHandle<()> {
    std::thread::Builder::new().spawn(move || body(pid)).expect("spawn")
}
"#,
        "os-thread-in-sim",
    );
}

#[test]
fn unjustified_saturating_cycle_arith() {
    let rel = "crates/mem/src/fifo.rs";
    fires(
        rel,
        r#"
fn stall(free_at: u64, now: u64) -> u64 {
    free_at.saturating_sub(now)
}
"#,
        "unjustified-saturating-cycle-arith",
    );
    clean(
        rel,
        r#"
fn stall(free_at: u64, now: u64) -> u64 {
    // overflow: a drain finished in the past stalls for zero cycles.
    free_at.saturating_sub(now)
}
"#,
        "unjustified-saturating-cycle-arith",
    );
}

#[test]
fn test_region_is_exempt() {
    // Findings inside the trailing `#[cfg(test)]` module never surface —
    // unwraps in tests are idiomatic.
    let rel = "crates/core/src/sync.rs";
    clean(
        rel,
        r#"
fn holder(&self, lock: u32) -> Option<usize> {
    self.owner.get(&lock).copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn grabs() {
        holder(7).unwrap();
        panic!("even this is fine in tests");
    }
}
"#,
        "forbidden-panic",
    );
}

#[test]
fn window_boundary_div() {
    let rel = "crates/obs/src/timeseries.rs";
    fires(
        rel,
        r#"
fn rate(count: u64, window_width: u64) -> u64 {
    count / window_width
}
"#,
        "window-boundary-div",
    );
    // A `// window:` comment explaining the boundary handling is the fix.
    clean(
        rel,
        r#"
fn rate(count: u64, window_width: u64) -> u64 {
    // window: charges on a boundary belong to the later window by the
    // half-open [start, end) convention; flooring implements exactly that.
    count / window_width
}
"#,
        "window-boundary-div",
    );
    // Outside the window-math dirs the rule does not apply.
    clean(
        "crates/core/src/system.rs",
        r#"
fn rate(count: u64, window_width: u64) -> u64 {
    count / window_width
}
"#,
        "window-boundary-div",
    );
}

#[test]
fn open_loop_clock() {
    let rel = "crates/svc/src/arrival.rs";
    fires(
        rel,
        r#"
fn advance(clock: u64, gap: u64) -> u64 {
    clock + gap
}
"#,
        "open-loop-clock",
    );
    // Citing the simulated-cycle type on the line is the fix...
    clean(
        rel,
        r#"
fn advance(clock: Cycles, gap: Cycles) -> Cycles {
    let next: Cycles = clock + gap;
    next
}
"#,
        "open-loop-clock",
    );
    // ...or a `// clock:` comment saying why the units are right.
    clean(
        rel,
        r#"
fn advance(&mut self) {
    // clock: cumulative sum of simulated-cycle gaps (both fields Cycles).
    self.clock += self.gap;
}
"#,
        "open-loop-clock",
    );
    // Comparisons are unit-safe; only arithmetic is policed.
    clean(
        rel,
        r#"
fn behind(clock: u64, deadline: u64) -> bool {
    clock >= deadline
}
"#,
        "open-loop-clock",
    );
    // Outside the service crate the rule does not apply.
    clean(
        "crates/core/src/system.rs",
        r#"
fn advance(clock: u64, gap: u64) -> u64 {
    clock + gap
}
"#,
        "open-loop-clock",
    );
}

#[test]
fn every_registered_rule_has_a_fixture_here() {
    // Keep this file honest: a new rule must add its fixture pair.
    let covered = [
        "engine-bypass",
        "forbidden-panic",
        "linear-scan-in-hot-path",
        "malformed-suppression",
        "nondeterministic-iteration",
        "open-loop-clock",
        "os-thread-in-sim",
        "truncating-cycle-cast",
        "unanchored-edge",
        "unbounded-retry",
        "unchecked-index",
        "undocumented-panic",
        "unjustified-saturating-cycle-arith",
        "unused-suppression",
        "wall-clock-in-sim",
        "window-boundary-div",
    ];
    let ids = ncp2_lint::rules::rule_ids();
    assert_eq!(ids.len(), covered.len(), "rule registry changed: {ids:?}");
    for id in ids {
        assert!(covered.contains(&id), "rule {id} has no fixture pair");
    }
}
