//! Workspace automation: `cargo xtask wall-diff`, the host-side regression
//! gate. The workspace's exact gates need no subcommand here; `cargo test` runs
//! them: the static analyzer's (`crates/lint/tests/selflint.rs`) and the
//! tier-1 bench file's (`crates/bench/tests/golden_figures.rs`).
//!
//! # `cargo xtask wall-diff old.json new.json`
//!
//! Compares two wall reports produced by `wall_bench --out` and fails when
//! any bench's median wall time more than doubled (noisy CI hosts get a
//! generous gate) or its allocation count/bytes grew past 10% (exact
//! counters get a tight one) — thresholds overridable with
//! `--time-threshold` / `--alloc-threshold`. With `--update`, a passing (or
//! missing) baseline is rewritten, which is how `BENCH_WALL.json` tracks
//! the trajectory.
//!
//! The gate also fails on a membership change: a bench that disappeared
//! from the new file, or that the baseline lacks. Admitting or retiring one
//! is a deliberate baseline refresh — delete the baseline and re-seed it
//! with `--update`.

use std::process::ExitCode;

use ncp2_prof::walldiff::{compare_wall, parse_wall, WallDiffCfg, WallReport};

const USAGE: &str = "usage: cargo xtask wall-diff OLD.json NEW.json [--time-threshold PCT]\n\
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
        "wall-diff" => wall_diff(flags),
        _ => {
            eprintln!("unknown xtask `{cmd}`; available: wall-diff\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The `wall-diff` subcommand: the asymmetric host-side gates over
/// `wall_bench` reports (loose on time, tight on allocation counts).
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
        Ok(args) => run_gate(&cfg, args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Every failure of `new` against the `old` baseline: first the membership
/// rule — a bench that disappeared from the new file, or that the baseline
/// lacks, fails the gate — then the time and allocation comparison.
fn gate_failures(cfg: &WallDiffCfg, old: &WallReport, new: &WallReport) -> Vec<String> {
    let names = |report: &WallReport| report.benches.keys().cloned().collect::<Vec<_>>();
    let (removed, added) = ncp2_obs::diff::membership_changes(&names(old), &names(new));
    let mut failures: Vec<String> = removed
        .iter()
        .map(|r| format!("bench '{r}' disappeared from the suite"))
        .collect();
    failures.extend(
        added.iter().map(|a| {
            format!("bench '{a}' is not in the baseline (re-seed it to admit a new bench)")
        }),
    );
    failures.extend(compare_wall(old, new, cfg));
    failures
}

/// Compares the new report against the baseline and fails on any
/// regression or membership change. With `--update`, a missing baseline is
/// seeded from the new report and a passing one is refreshed with it.
fn run_gate(cfg: &WallDiffCfg, args: DiffArgs) -> ExitCode {
    const NAME: &str = "wall-diff";
    let DiffArgs {
        old: old_path,
        new: new_path,
        update,
    } = args;
    let parse = |path: &str, text: &str| {
        parse_wall(text)
            .map_err(|e| eprintln!("{NAME}: {path} is not a wall report: {e}"))
            .ok()
    };
    let limits = format!("time {:.0}%, alloc {:.0}%", cfg.time_pct, cfg.alloc_pct);

    let new_text = match std::fs::read_to_string(new_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{NAME}: cannot read {new_path}: {e}");
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
                eprintln!("{NAME}: cannot seed baseline {old_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{NAME}: no baseline at {old_path}; seeded from {new_path}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{NAME}: cannot read baseline {old_path}: {e} (pass --update to seed)");
            return ExitCode::FAILURE;
        }
    };
    let Some(old) = parse(old_path, &old_text) else {
        return ExitCode::FAILURE;
    };

    let failures = gate_failures(cfg, &old, &new);
    if !failures.is_empty() {
        eprintln!(
            "{NAME}: {} failure(s) against the baseline (gates: {limits}):",
            failures.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "{NAME}: {} bench(s) within the gates ({limits})",
        new.benches.len()
    );
    if update {
        if let Err(e) = std::fs::write(old_path, &new_text) {
            eprintln!("{NAME}: cannot update baseline {old_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{NAME}: baseline {old_path} updated");
    }
    ExitCode::SUCCESS
}

/// The gate's arguments besides its thresholds.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_prof::walldiff::WallBench;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
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
    fn an_entry_gone_from_the_new_file_fails_the_gate() {
        let cfg = WallDiffCfg::default();
        let old = benches(&["diff/apply_256", "sim/proc_handoff_served_4"]);
        assert!(gate_failures(&cfg, &old, &old).is_empty());
        let failures = gate_failures(&cfg, &old, &benches(&["diff/apply_256"]));
        assert_eq!(
            failures,
            ["bench 'sim/proc_handoff_served_4' disappeared from the suite"]
        );
    }

    #[test]
    fn an_entry_missing_from_the_baseline_fails_the_gate() {
        let failures = gate_failures(
            &WallDiffCfg::default(),
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
            let flags = args(&["a.json", "b.json", "--time-threshold", value]);
            let mut t = 100.0;
            parse_diff_args(&flags, &mut [("--time-threshold", &mut t)]).map(|_| t)
        };
        assert_eq!(parse("0"), Ok(0.0));
        assert_eq!(parse("12.5"), Ok(12.5));
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "-1", "-0.5", "x"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("--time-threshold needs"), "{err}");
        }
        let flags = args(&["a.json", "b.json", "--time-threshold"]);
        assert!(parse_diff_args(&flags, &mut [("--time-threshold", &mut 100.0)]).is_err());
    }

    #[test]
    fn wrong_path_count_is_rejected() {
        for list in [
            &["a.json"][..],
            &["a.json", "b.json", "c.json"][..],
            &[][..],
        ] {
            let flags = args(list);
            assert!(parse_diff_args(&flags, &mut [("--time-threshold", &mut 100.0)]).is_err());
        }
    }
}
