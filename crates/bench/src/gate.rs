//! The verdict plumbing of the CI gate binaries (`--check`, `--selfcheck`).
//!
//! A [`Gate`] reports each failure on stderr as it is found, prints one pass
//! line on stdout when there was none, and turns any failure into exit
//! code 1. Two checks recur across the gates and live here too:
//! [`twins`], a faulted run against its fault-free twin, and [`parity`], a
//! rerun's export against the first run's.

use std::fmt::Display;
use std::process::ExitCode;

use ncp2::prelude::*;
use ncp2_fault::FaultPlan;

use crate::engine::{Grid, Job};

/// A gate's running verdict: passed until a failure is recorded.
#[derive(Debug, Default)]
pub struct Gate {
    failed: bool,
}

impl Gate {
    /// Records a failure and reports it on stderr.
    pub fn fail(&mut self, msg: impl Display) {
        eprintln!("{msg}");
        self.failed = true;
    }

    /// Records the failure `msg()` unless `ok` holds.
    pub fn ensure(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Whether no failure has been recorded.
    pub fn passed(&self) -> bool {
        !self.failed
    }

    /// Exit code 0 if the gate passed, 1 otherwise.
    pub fn exit_code(&self) -> ExitCode {
        if self.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Prints `pass_line()` on stdout if the gate passed; returns the exit
    /// code.
    pub fn verdict(&self, pass_line: impl FnOnce() -> String) -> ExitCode {
        if self.passed() {
            println!("{}", pass_line());
        }
        self.exit_code()
    }
}

/// Adds a faulted/clean twin pair built from `job`: the run under `plan`,
/// labelled `{label}/{faulted}`, then its fault-free twin, labelled
/// `{label}/{clean}`. Returns the faulted run's index; the twin follows it.
pub fn add_twins(
    grid: &mut Grid,
    job: Job,
    plan: &FaultPlan,
    [faulted, clean]: [&str; 2],
) -> usize {
    let at = grid.add(Job {
        label: format!("{}/{faulted}", job.label),
        fault: plan.clone(),
        ..job.clone()
    });
    grid.add(Job {
        label: format!("{}/{clean}", job.label),
        fault: FaultPlan::none(),
        ..job
    });
    at
}

/// The twin check: the faulted run computed the same checksum as its
/// fault-free twin, and the oracle stayed silent on both.
pub fn twins(gate: &mut Gate, name: &str, faulted: &RunResult, clean: &RunResult) {
    gate.ensure(faulted.checksum == clean.checksum, || {
        format!(
            "{name}: checksum diverged under faults ({:#x} != {:#x})",
            faulted.checksum, clean.checksum
        )
    });
    for (kind, r) in [("faulted", faulted), ("clean", clean)] {
        gate.ensure(r.violations.is_empty(), || {
            format!(
                "{name} ({kind}): {} oracle violation(s)",
                r.violations.len()
            )
        });
    }
}

/// The parity check: a rerun's export `rerun` equals the first run's
/// `first` byte for byte; on failure, names the first differing line.
pub fn parity(gate: &mut Gate, what: &str, first: &str, rerun: &str) {
    gate.ensure(first == rerun, || {
        let line = first
            .lines()
            .zip(rerun.lines())
            .take_while(|(a, b)| a == b)
            .count();
        format!("{what} differs between runs (first at line {})", line + 1)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, WorkloadSpec};
    use ncp2::core::observe::Violation;

    fn tiny_run() -> RunResult {
        let mut grid = Grid::new();
        grid.add(Job::new(
            "Ocean/Base",
            SysParams::default().with_nprocs(2),
            Protocol::TreadMarks(OverlapMode::Base),
            WorkloadSpec::Ocean(Ocean { grid: 8, iters: 1 }),
        ));
        let mut records = Engine::new().no_cache().silent().run(&grid);
        records.remove(0).result
    }

    fn race() -> Violation {
        Violation::Race {
            first_pid: 0,
            first_write: true,
            second_pid: 1,
            second_write: false,
            addr: 0,
        }
    }

    #[test]
    fn a_recorded_failure_fails_the_verdict() {
        let mut gate = Gate::default();
        assert!(gate.passed());
        assert_eq!(gate.exit_code(), ExitCode::SUCCESS);
        gate.ensure(true, || unreachable!("a holding check builds no message"));
        assert!(gate.passed());
        gate.fail("broken");
        assert!(!gate.passed());
        assert_eq!(
            gate.verdict(|| unreachable!("no pass line")),
            ExitCode::FAILURE
        );
    }

    #[test]
    fn twins_pass_only_equal_silent_pairs() {
        let clean = tiny_run();
        let mut gate = Gate::default();
        twins(&mut gate, "same", &clean, &clean.clone());
        assert!(gate.passed());

        let mut diverged = clean.clone();
        diverged.checksum ^= 1;
        let mut gate = Gate::default();
        twins(&mut gate, "diverged", &diverged, &clean);
        assert!(!gate.passed());

        let mut noisy = clean.clone();
        noisy.violations.push(race());
        for (faulted, twin) in [(&noisy, &clean), (&clean, &noisy)] {
            let mut gate = Gate::default();
            twins(&mut gate, "noisy", faulted, twin);
            assert!(!gate.passed());
        }
    }

    #[test]
    fn parity_flags_only_differing_documents() {
        let mut gate = Gate::default();
        parity(&mut gate, "doc", "{\n  \"a\": 1\n}\n", "{\n  \"a\": 1\n}\n");
        assert!(gate.passed());
        parity(&mut gate, "doc", "{\n  \"a\": 1\n}\n", "{\n  \"a\": 2\n}\n");
        assert!(!gate.passed());
    }

    #[test]
    fn add_twins_appends_the_faulted_run_then_its_clean_twin() {
        let mut grid = Grid::new();
        let job = Job::new(
            "TSP/I+P+D",
            SysParams::default(),
            Protocol::TreadMarks(OverlapMode::IPD),
            WorkloadSpec::named("TSP", false),
        );
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 10,
            ..FaultPlan::none()
        };
        assert_eq!(add_twins(&mut grid, job, &plan, ["chaos", "clean"]), 0);
        let labels: Vec<_> = grid.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["TSP/I+P+D/chaos", "TSP/I+P+D/clean"]);
        assert_eq!(grid.jobs[0].fault.drop_permille, 10);
        assert_eq!(grid.jobs[1].fault.drop_permille, 0);
    }
}
