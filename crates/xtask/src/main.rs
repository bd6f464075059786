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
//! by `wall_bench --out` and fails when any bench's median wall time more
//! than doubled (noisy CI hosts get a generous gate) or its allocation
//! count/bytes grew past 10% (exact counters get a tight one) — thresholds
//! overridable with `--time-threshold` / `--alloc-threshold`. With
//! `--update`, a passing (or missing) baseline is rewritten, which is how
//! `BENCH_WALL.json` tracks the trajectory.
//!
//! Both gates also fail on a membership change: a run or bench that
//! disappeared from the new file, or that the baseline lacks. Admitting or
//! retiring one is a deliberate baseline refresh — delete the baseline and
//! re-seed it with `--update`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ncp2_lint::baseline::Baseline;
use ncp2_prof::walldiff::{WallDiffCfg, WallReport};

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

/// One regression gate's file format and comparison: all that `bench-diff`
/// and `wall-diff` do differently. Reading, seeding on `--update`, the
/// membership rule, reporting and the baseline refresh are [`run_gate`]'s.
struct Gate<R> {
    /// Subcommand name; prefixes every line the gate prints.
    name: &'static str,
    /// What one file holds, for error messages.
    file: &'static str,
    /// What one entry is, for the membership failures and the summary.
    entry: &'static str,
    /// The thresholds in force, for the verdict lines.
    limits: String,
    parse: fn(&str) -> Result<R, String>,
    /// Entry names, whose set the membership rule pins.
    names: fn(&R) -> Vec<String>,
    /// Regressions of the new file against the baseline, over the entries
    /// both hold.
    compare: Compare<R>,
}

/// A gate's comparison of `(baseline, new)`, closed over its thresholds.
type Compare<R> = Box<dyn Fn(&R, &R) -> Vec<String>>;

/// The `bench-diff` gate: simulated cycles, breakdowns and latency
/// percentiles of `obs_report --bench` files, at `threshold` percent.
fn bench_gate(threshold: f64) -> Gate<Vec<ncp2_obs::report::MetricsReport>> {
    Gate {
        name: "bench-diff",
        file: "bench file",
        entry: "run",
        limits: format!("{threshold}%"),
        parse: ncp2_obs::parse_bench,
        names: |runs| runs.iter().map(|r| r.name.clone()).collect(),
        compare: Box::new(move |old, new| {
            let regressions = ncp2_obs::compare(old, new, threshold);
            regressions.iter().map(ToString::to_string).collect()
        }),
    }
}

/// The `wall-diff` gate: the asymmetric host-side gates over `wall_bench`
/// reports (loose on time, tight on allocation counts).
fn wall_gate(cfg: WallDiffCfg) -> Gate<WallReport> {
    Gate {
        name: "wall-diff",
        file: "wall report",
        entry: "bench",
        limits: format!("time {:.0}%, alloc {:.0}%", cfg.time_pct, cfg.alloc_pct),
        parse: ncp2_prof::walldiff::parse_wall,
        names: |report| report.benches.keys().cloned().collect(),
        compare: Box::new(move |old, new| ncp2_prof::walldiff::compare_wall(old, new, &cfg)),
    }
}

/// The `bench-diff` subcommand.
fn bench_diff(flags: &[String]) -> ExitCode {
    let mut threshold = 5.0f64;
    match parse_diff_args(flags, &mut [("--threshold", &mut threshold)]) {
        Ok(args) => run_gate(&bench_gate(threshold), args),
        Err(e) => usage_error(&e),
    }
}

/// The `wall-diff` subcommand.
fn wall_diff(flags: &[String]) -> ExitCode {
    let mut cfg = WallDiffCfg::default();
    let parsed = parse_diff_args(
        flags,
        &mut [
            ("--time-threshold", &mut cfg.time_pct),
            ("--alloc-threshold", &mut cfg.alloc_pct),
        ],
    );
    match parsed {
        Ok(args) => run_gate(&wall_gate(cfg), args),
        Err(e) => usage_error(&e),
    }
}

fn usage_error(e: &str) -> ExitCode {
    eprintln!("{e}\n{USAGE}");
    ExitCode::FAILURE
}

/// Every failure of `new` against the `old` baseline: first the membership
/// rule — an entry that disappeared from the new file, or that the baseline
/// lacks, fails the gate — then the gate's own comparison.
fn gate_failures<R>(gate: &Gate<R>, old: &R, new: &R) -> Vec<String> {
    let (old_names, new_names) = ((gate.names)(old), (gate.names)(new));
    let (removed, added) = ncp2_obs::diff::membership_changes(&old_names, &new_names);
    let entry = gate.entry;
    let mut failures: Vec<String> = removed
        .iter()
        .map(|r| format!("{entry} '{r}' disappeared from the suite"))
        .collect();
    failures.extend(added.iter().map(|a| {
        format!("{entry} '{a}' is not in the baseline (re-seed it to admit a new {entry})")
    }));
    failures.extend((gate.compare)(old, new));
    failures
}

/// Compares the new file against the baseline and fails on any regression
/// or membership change. With `--update`, a missing baseline is seeded from
/// the new file and a passing one is refreshed with it.
fn run_gate<R>(gate: &Gate<R>, args: DiffArgs) -> ExitCode {
    let name = gate.name;
    let DiffArgs {
        old: old_path,
        new: new_path,
        update,
    } = args;
    let parse = |path: &str, text: &str| {
        let parsed = (gate.parse)(text);
        parsed
            .map_err(|e| eprintln!("{name}: {path} is not a {}: {e}", gate.file))
            .ok()
    };

    let new_text = match std::fs::read_to_string(new_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{name}: cannot read {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(new) = parse(new_path, &new_text) else {
        return ExitCode::FAILURE;
    };
    let old_text = match std::fs::read_to_string(old_path) {
        Ok(t) => t,
        Err(_) if update => {
            // No baseline yet: seed it from the new numbers.
            if let Err(e) = std::fs::write(old_path, &new_text) {
                eprintln!("{name}: cannot seed baseline {old_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{name}: no baseline at {old_path}; seeded from {new_path}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{name}: cannot read baseline {old_path}: {e} (pass --update to seed)");
            return ExitCode::FAILURE;
        }
    };
    let Some(old) = parse(old_path, &old_text) else {
        return ExitCode::FAILURE;
    };

    let failures = gate_failures(gate, &old, &new);
    if !failures.is_empty() {
        eprintln!(
            "{name}: {} failure(s) against the baseline (gates: {}):",
            failures.len(),
            gate.limits
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "{name}: {} {}(s) within the gates ({})",
        (gate.names)(&new).len(),
        gate.entry,
        gate.limits
    );
    if update {
        if let Err(e) = std::fs::write(old_path, &new_text) {
            eprintln!("{name}: cannot update baseline {old_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{name}: baseline {old_path} updated");
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
    use ncp2_obs::report::MetricsReport;
    use ncp2_prof::walldiff::WallBench;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A bench file with one identical run per name.
    fn runs(names: &[&str]) -> Vec<MetricsReport> {
        let run = |name: &&str| MetricsReport {
            name: name.to_string(),
            protocol: "Base".into(),
            nprocs: 4,
            total_cycles: 10_000,
            conservation_ok: true,
            categories: Vec::new(),
            exposed: Vec::new(),
            counters: Vec::new(),
            hists: Vec::new(),
            epochs: Vec::new(),
            host: Vec::new(),
        };
        names.iter().map(run).collect()
    }

    /// A wall report with one identical bench per name.
    fn benches(names: &[&str]) -> WallReport {
        let bench = WallBench {
            median_ns: 100,
            samples: 5,
            ..WallBench::default()
        };
        WallReport {
            alloc_counting: true,
            benches: names.iter().map(|n| (n.to_string(), bench)).collect(),
        }
    }

    #[test]
    fn an_entry_gone_from_the_new_file_fails_both_gates() {
        let bench = bench_gate(5.0);
        let old = runs(&["TSP/Base", "Svc/I+P+D"]);
        assert!(gate_failures(&bench, &old, &old).is_empty());
        let failures = gate_failures(&bench, &old, &runs(&["TSP/Base"]));
        assert_eq!(failures, ["run 'Svc/I+P+D' disappeared from the suite"]);

        let wall = wall_gate(WallDiffCfg::default());
        let old = benches(&["diff/apply_256", "sim/proc_handoff_served_4"]);
        assert!(gate_failures(&wall, &old, &old).is_empty());
        let failures = gate_failures(&wall, &old, &benches(&["diff/apply_256"]));
        assert_eq!(
            failures,
            ["bench 'sim/proc_handoff_served_4' disappeared from the suite"]
        );
    }

    #[test]
    fn an_entry_missing_from_the_baseline_fails_both_gates() {
        let failures = gate_failures(
            &bench_gate(5.0),
            &runs(&["TSP/Base"]),
            &runs(&["TSP/Base", "Svc/I+P+D"]),
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("run 'Svc/I+P+D' is not in the baseline"));

        let failures = gate_failures(
            &wall_gate(WallDiffCfg::default()),
            &benches(&["diff/apply_256"]),
            &benches(&["diff/apply_256", "sim/proc_handoff_served_4"]),
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("bench 'sim/proc_handoff_served_4' is not in the baseline"));
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
