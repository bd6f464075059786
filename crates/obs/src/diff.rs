//! Bench files: the tier-1 suite's metrics as one text, and where two of
//! them part.
//!
//! A *bench file* is a JSON document holding one [`MetricsReport`] per
//! benchmark run, written by [`write_bench`]. `BENCH_tier1.json` in the repo
//! root is `obs_report --bench`'s output committed as a golden file: the
//! bench crate's `golden_figures` test requires a fresh run to equal it
//! byte for byte, so a change to any simulated cycle, counter, percentile
//! or epoch fails `cargo test`. [`first_difference`] says where: the first
//! differing line from each side, the run it falls in, and the runs only
//! one side holds. [`membership_changes`] finds those runs, and the
//! `cargo xtask wall-diff` gate applies the same rule to its benches.

use crate::report::MetricsReport;

/// Serializes reports as a bench file (`{"runs": [...]}`), deterministic
/// byte-for-byte.
pub fn write_bench(runs: &[MetricsReport]) -> String {
    let mut out = String::from("{\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&r.to_json_indented(2));
        out.push_str(if i + 1 == runs.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

/// The first line at which `fresh` departs from the `baseline` bench file,
/// quoted from both sides and named by the run it falls in, followed by the
/// runs only one side holds; `None` when the two texts are equal.
pub fn first_difference(baseline: &str, fresh: &str) -> Option<String> {
    if baseline == fresh {
        return None;
    }
    let (mut old_lines, mut new_lines) = (baseline.split('\n'), fresh.split('\n'));
    let (mut old_run, mut new_run) = ("", "");
    let mut line_no = 0;
    let (old, new) = loop {
        line_no += 1;
        let (old, new) = (old_lines.next(), new_lines.next());
        old_run = old.and_then(run_name).unwrap_or(old_run);
        new_run = new.and_then(run_name).unwrap_or(new_run);
        if old != new {
            break (old, new);
        }
    };
    let run = if old_run == new_run {
        format!("run '{old_run}'")
    } else {
        format!("run '{old_run}' (fresh: '{new_run}')")
    };
    let quote = |line: Option<&str>| line.map_or("<end of file>".into(), |l| l.trim().to_string());
    let mut out = format!(
        "{run}, line {line_no}:\n  baseline: {}\n  fresh:    {}",
        quote(old),
        quote(new)
    );
    let names = |text: &str| {
        text.lines()
            .filter_map(run_name)
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let (removed, added) = membership_changes(&names(baseline), &names(fresh));
    for (list, side) in [(removed, "fresh"), (added, "baseline")] {
        if !list.is_empty() {
            out.push_str(&format!("\n  missing from {side}: {}", list.join(", ")));
        }
    }
    Some(out)
}

/// The run a bench-file line names, if it is a run's `"name"` line.
fn run_name(line: &str) -> Option<&str> {
    line.trim()
        .strip_prefix("\"name\": \"")?
        .strip_suffix("\",")
}

/// `(removed, added)`: the names in `old` but not in `new`, and the names in
/// `new` but not in `old`, each in input order. [`first_difference`] and
/// the `wall-diff` gate report both, so a renamed or new entry never slips
/// past its baseline.
pub fn membership_changes(old: &[String], new: &[String]) -> (Vec<String>, Vec<String>) {
    let missing_from = |names: &[String], other: &[String]| {
        names
            .iter()
            .filter(|n| !other.contains(n))
            .cloned()
            .collect()
    };
    (missing_from(old, new), missing_from(new, old))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::HistSummary;

    fn report(name: &str, total: u64, messages: u64) -> MetricsReport {
        MetricsReport {
            name: name.into(),
            protocol: "Base".into(),
            nprocs: 4,
            total_cycles: total,
            conservation_ok: true,
            categories: vec![("busy".into(), 10_000), ("ipc".into(), 5_000)],
            exposed: vec![("busy".into(), 9_000), ("ipc".into(), 5_000)],
            counters: vec![("faults".into(), 3), ("messages".into(), messages)],
            hists: vec![(
                "msg_latency".into(),
                HistSummary {
                    count: 10,
                    p50: 200,
                    p90: 400,
                    p99: 500,
                    max: 500,
                },
            )],
            epochs: Vec::new(),
            host: Vec::new(),
        }
    }

    fn baseline() -> String {
        write_bench(&[
            report("TSP/Base", 545_780, 243),
            report("Water/Base", 401_003, 203),
        ])
    }

    #[test]
    fn identical_texts_have_no_difference() {
        assert_eq!(first_difference(&baseline(), &baseline()), None);
    }

    #[test]
    fn a_lower_total_is_reported_with_its_run_and_line() {
        let fresh = write_bench(&[
            report("TSP/Base", 545_780, 243),
            report("Water/Base", 400_003, 203),
        ]);
        let diff = first_difference(&baseline(), &fresh).expect("totals differ");
        let line = baseline()
            .lines()
            .position(|l| l.contains("401003"))
            .expect("baseline holds the total")
            + 1;
        assert_eq!(
            diff,
            format!(
                "run 'Water/Base', line {line}:\n  \
                 baseline: \"total_cycles\": 401003,\n  \
                 fresh:    \"total_cycles\": 400003,"
            )
        );
    }

    #[test]
    fn a_changed_counter_is_reported_with_its_run_and_line() {
        let fresh = write_bench(&[
            report("TSP/Base", 545_780, 300),
            report("Water/Base", 401_003, 203),
        ]);
        let diff = first_difference(&baseline(), &fresh).expect("counters differ");
        let (head, quoted) = diff.split_once('\n').expect("a header and the quotes");
        assert!(head.starts_with("run 'TSP/Base', line "), "{diff}");
        assert!(quoted.contains("\"messages\": 243"), "{diff}");
        assert!(quoted.contains("\"messages\": 300"), "{diff}");
    }

    #[test]
    fn a_run_missing_from_one_side_is_reported() {
        let tsp_only = write_bench(&[report("TSP/Base", 545_780, 243)]);
        let diff = first_difference(&baseline(), &tsp_only).expect("a run is gone");
        assert!(diff.starts_with("run 'TSP/Base', line "), "{diff}");
        assert!(
            diff.ends_with("\n  missing from fresh: Water/Base"),
            "{diff}"
        );

        let water_only = write_bench(&[report("Water/Base", 401_003, 203)]);
        let diff = first_difference(&water_only, &baseline()).expect("a run is new");
        assert!(
            diff.starts_with("run 'Water/Base' (fresh: 'TSP/Base'), line 3:"),
            "{diff}"
        );
        assert!(
            diff.ends_with("\n  missing from baseline: TSP/Base"),
            "{diff}"
        );
    }

    #[test]
    fn bench_file_roundtrips() {
        // Deterministic bytes, one run after another in input order.
        let text = baseline();
        assert_eq!(text, baseline());
        let names: Vec<&str> = text.lines().filter_map(run_name).collect();
        assert_eq!(names, ["TSP/Base", "Water/Base"]);
    }

    #[test]
    fn membership_changes_are_reported() {
        let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let old = names(&["A/Base", "C/Base"]);
        let new = names(&["B/Base", "C/Base"]);
        let (removed, added) = membership_changes(&old, &new);
        assert_eq!(removed, vec!["A/Base"]);
        assert_eq!(added, vec!["B/Base"]);
        assert_eq!(membership_changes(&old, &old), (vec![], vec![]));
    }
}
