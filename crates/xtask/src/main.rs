//! Workspace automation — a thin driver over the in-tree tooling crates.
//!
//! # `cargo xtask lint`
//!
//! Runs the `ncp2-lint` static analyzer (see `crates/lint` and DESIGN.md
//! §13) over the whole workspace: a token-level lexer feeding a
//! rule-registry engine that enforces the determinism, panic,
//! cycle-arithmetic and protocol-hazard rules, with justified inline
//! suppressions (`// lint: allow(rule-id) -- reason`) and the
//! `LINT_BASELINE.json` suppression-debt ratchet. Zero unsuppressed
//! findings is the gate; growth in suppressed findings fails the build
//! until the baseline is consciously refreshed. Without `--scan-only`, the
//! workspace-wide `cargo fmt --check` and `cargo clippy -- -D warnings` run
//! afterwards.
//!
//! Flags:
//!
//! * `--json` — print the byte-deterministic JSON report to stdout
//!   (exit status still reflects findings and the ratchet);
//! * `--scan-only` — skip fmt/clippy (CI runs them separately);
//! * `--update-baseline` — rewrite `LINT_BASELINE.json` with the current
//!   per-rule suppression counts after a passing scan.
//!
//! # `cargo xtask bench-diff old.json new.json`
//!
//! Compares two bench files produced by `obs_report --bench` and fails when
//! any run's total cycles, breakdown category or latency percentile grew
//! past the threshold (default 5%, with a 100-cycle absolute floor). With
//! `--update`, a passing (or missing) baseline is rewritten with the new
//! numbers, which is how `BENCH_tier1.json` tracks the trajectory.
//!
//! # `cargo xtask wall-diff old.json new.json`
//!
//! The host-side twin of `bench-diff`: compares two wall reports produced
//! by `wall_bench --save-baseline` and fails when any bench's median wall
//! time more than doubled (noisy CI hosts get a generous gate) or its
//! allocation count/bytes grew past 10% (exact counters get a tight one) —
//! thresholds overridable with `--time-threshold` / `--alloc-threshold`.
//! With `--update`, a passing (or missing) baseline is rewritten, which is
//! how `BENCH_WALL.json` tracks the trajectory.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ncp2_lint::baseline::Baseline;

const BASELINE_FILE: &str = "LINT_BASELINE.json";

const USAGE: &str = "usage: cargo xtask lint [--scan-only] [--json] [--update-baseline]\n\
     \x20      cargo xtask bench-diff OLD.json NEW.json [--threshold PCT] [--update]\n\
     \x20      cargo xtask wall-diff OLD.json NEW.json [--time-threshold PCT]\n\
     \x20                            [--alloc-threshold PCT] [--update]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "lint" => lint(flags),
        "bench-diff" => bench_diff(flags),
        "wall-diff" => wall_diff(flags),
        _ => {
            eprintln!("unknown xtask `{cmd}`; available: lint, bench-diff, wall-diff\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The `lint` subcommand: run the analyzer, apply the suppression ratchet,
/// then (unless `--scan-only`) fmt and clippy.
fn lint(flags: &[String]) -> ExitCode {
    let scan_only = flags.iter().any(|f| f == "--scan-only");
    let json = flags.iter().any(|f| f == "--json");
    let update_baseline = flags.iter().any(|f| f == "--update-baseline");

    let root = workspace_root();
    let report = match ncp2_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: cannot scan workspace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    if !report.findings.is_empty() {
        eprintln!(
            "xtask lint: {} unsuppressed finding(s)",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }

    // Suppression-debt ratchet against the committed baseline.
    let current = Baseline::from_report(&report);
    let baseline_path = root.join(BASELINE_FILE);
    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, current.to_json()) {
            eprintln!("xtask lint: cannot write {BASELINE_FILE}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask lint: {BASELINE_FILE} updated ({} suppression(s))",
            current.total()
        );
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(pinned) => {
                    let regressions = pinned.regressions(&current);
                    if !regressions.is_empty() {
                        for r in &regressions {
                            eprintln!("xtask lint: {r}");
                        }
                        return ExitCode::FAILURE;
                    }
                    if !json {
                        println!(
                            "xtask lint: suppression ratchet ok ({}/{} of baseline)",
                            current.total(),
                            pinned.total()
                        );
                    }
                }
                Err(e) => {
                    eprintln!("xtask lint: cannot parse {BASELINE_FILE}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => {
                eprintln!(
                    "xtask lint: no {BASELINE_FILE}; run `cargo xtask lint --update-baseline` \
                     to pin the suppression ratchet"
                );
            }
        }
    }

    if scan_only {
        return ExitCode::SUCCESS;
    }
    for (what, cmdline) in [
        ("cargo fmt --check", &["fmt", "--all", "--", "--check"][..]),
        (
            "cargo clippy -D warnings",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ][..],
        ),
    ] {
        let status = Command::new(env!("CARGO"))
            .args(cmdline)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => println!("xtask lint: {what} clean"),
            Ok(_) => {
                eprintln!("xtask lint: {what} failed");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask lint: could not run {what}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `bench-diff` subcommand: compare two bench files, flag regressions,
/// optionally update the baseline.
fn bench_diff(flags: &[String]) -> ExitCode {
    let mut threshold = 5.0f64;
    let parsed = parse_diff_args(flags, &mut [("--threshold", &mut threshold)]);
    let DiffArgs {
        old: old_path,
        new: new_path,
        update,
    } = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let new_text = match std::fs::read_to_string(new_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-diff: cannot read {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new_runs = match ncp2_obs::parse_bench(&new_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-diff: {new_path} is not a bench file: {e}");
            return ExitCode::FAILURE;
        }
    };

    let old_text = match std::fs::read_to_string(old_path) {
        Ok(t) => t,
        Err(_) if update => {
            // No baseline yet: seed it from the new numbers.
            if let Err(e) = std::fs::write(old_path, &new_text) {
                eprintln!("bench-diff: cannot seed baseline {old_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("bench-diff: no baseline at {old_path}; seeded from {new_path}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bench-diff: cannot read baseline {old_path}: {e} (pass --update to seed)");
            return ExitCode::FAILURE;
        }
    };
    let old_runs = match ncp2_obs::parse_bench(&old_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-diff: {old_path} is not a bench file: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (removed, added) = ncp2_obs::diff::membership_changes(&old_runs, &new_runs);
    for r in &removed {
        println!("bench-diff: run '{r}' disappeared from the suite");
    }
    for a in &added {
        println!("bench-diff: new run '{a}'");
    }

    let regressions = ncp2_obs::compare(&old_runs, &new_runs, threshold);
    if !regressions.is_empty() {
        eprintln!(
            "bench-diff: {} regression(s) beyond {threshold}%:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "bench-diff: {} run(s) within {threshold}% of baseline",
        new_runs.len()
    );
    if update {
        if let Err(e) = std::fs::write(old_path, &new_text) {
            eprintln!("bench-diff: cannot update baseline {old_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench-diff: baseline {old_path} updated");
    }
    ExitCode::SUCCESS
}

/// The `wall-diff` subcommand: compare two wall-bench reports against the
/// asymmetric host-side gates (loose on time, tight on allocation counts),
/// optionally updating the baseline.
fn wall_diff(flags: &[String]) -> ExitCode {
    let mut cfg = ncp2_prof::walldiff::WallDiffCfg::default();
    let parsed = parse_diff_args(
        flags,
        &mut [
            ("--time-threshold", &mut cfg.time_pct),
            ("--alloc-threshold", &mut cfg.alloc_pct),
        ],
    );
    let DiffArgs {
        old: old_path,
        new: new_path,
        update,
    } = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let new_text = match std::fs::read_to_string(new_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("wall-diff: cannot read {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new_report = match ncp2_prof::walldiff::parse_wall(&new_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wall-diff: {new_path} is not a wall report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let old_text = match std::fs::read_to_string(old_path) {
        Ok(t) => t,
        Err(_) if update => {
            // No baseline yet: seed it from the new numbers.
            if let Err(e) = std::fs::write(old_path, &new_text) {
                eprintln!("wall-diff: cannot seed baseline {old_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wall-diff: no baseline at {old_path}; seeded from {new_path}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("wall-diff: cannot read baseline {old_path}: {e} (pass --update to seed)");
            return ExitCode::FAILURE;
        }
    };
    let old_report = match ncp2_prof::walldiff::parse_wall(&old_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wall-diff: {old_path} is not a wall report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (failures, notes) = ncp2_prof::walldiff::compare_wall(&old_report, &new_report, &cfg);
    for n in &notes {
        println!("wall-diff: {n}");
    }
    if !failures.is_empty() {
        eprintln!(
            "wall-diff: {} regression(s) (time gate {:.0}%, alloc gate {:.0}%):",
            failures.len(),
            cfg.time_pct,
            cfg.alloc_pct
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "wall-diff: {} bench(es) within gates (time {:.0}%, alloc {:.0}%)",
        new_report.benches.len(),
        cfg.time_pct,
        cfg.alloc_pct
    );
    if update {
        if let Err(e) = std::fs::write(old_path, &new_text) {
            eprintln!("wall-diff: cannot update baseline {old_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wall-diff: baseline {old_path} updated");
    }
    ExitCode::SUCCESS
}

/// The arguments both regression gates share besides their thresholds.
#[derive(Debug, PartialEq)]
struct DiffArgs<'a> {
    old: &'a str,
    new: &'a str,
    update: bool,
}

/// Parses `OLD NEW [--update]` plus one `NAME PCT` pair for each entry of
/// `thresholds`, whose values hold the defaults on entry. A threshold must
/// be a finite, non-negative percentage: no growth exceeds `NaN` or `inf`,
/// so either would pass every regression (and let `--update` overwrite
/// the baseline).
fn parse_diff_args<'a>(
    flags: &'a [String],
    thresholds: &mut [(&str, &mut f64)],
) -> Result<DiffArgs<'a>, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut update = false;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        if f == "--update" {
            update = true;
        } else if let Some((name, value)) = thresholds.iter_mut().find(|(n, _)| n == f) {
            **value = it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("{name} needs a finite, non-negative percentage"))?;
        } else {
            paths.push(f);
        }
    }
    match paths.as_slice() {
        &[old, new] => Ok(DiffArgs { old, new, update }),
        _ => Err("expected exactly two report files, OLD.json and NEW.json".into()),
    }
}

/// Walks up from the xtask manifest to the workspace root.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .find(|p| p.join("Cargo.toml").is_file() && p.join("crates").is_dir())
        .unwrap_or(&manifest)
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn thresholds_paths_and_update_parse_in_any_order() {
        let flags = args(&["--alloc-threshold", "20", "a.json", "--update", "b.json"]);
        let (mut time, mut alloc) = (100.0, 10.0);
        let parsed = parse_diff_args(
            &flags,
            &mut [
                ("--time-threshold", &mut time),
                ("--alloc-threshold", &mut alloc),
            ],
        );
        assert_eq!(
            parsed,
            Ok(DiffArgs {
                old: "a.json",
                new: "b.json",
                update: true
            })
        );
        assert_eq!((time, alloc), (100.0, 20.0));
    }

    #[test]
    fn thresholds_must_be_finite_and_non_negative() {
        let parse = |value: &str| {
            let flags = args(&["a.json", "b.json", "--threshold", value]);
            let mut t = 5.0;
            parse_diff_args(&flags, &mut [("--threshold", &mut t)]).map(|_| t)
        };
        assert_eq!(parse("0"), Ok(0.0));
        assert_eq!(parse("12.5"), Ok(12.5));
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "-1", "-0.5", "x"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("--threshold needs"), "{err}");
        }
        let flags = args(&["a.json", "b.json", "--threshold"]);
        assert!(parse_diff_args(&flags, &mut [("--threshold", &mut 5.0)]).is_err());
    }

    #[test]
    fn wrong_path_count_is_rejected() {
        for list in [
            &["a.json"][..],
            &["a.json", "b.json", "c.json"][..],
            &[][..],
        ] {
            let flags = args(list);
            assert!(parse_diff_args(&flags, &mut [("--threshold", &mut 5.0)]).is_err());
        }
    }
}
