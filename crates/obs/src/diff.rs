//! The bench-regression pipeline behind `cargo xtask bench-diff`.
//!
//! A *bench file* is a JSON document holding one [`MetricsReport`] per
//! benchmark run (`BENCH_tier1.json` in the repo root is the committed
//! trajectory baseline). [`compare`] diffs two bench files and flags every
//! metric that got meaningfully worse: total cycles, any breakdown
//! category, critical-path exposed cycles per category, or a
//! latency-histogram percentile.
//!
//! "Meaningfully" means both a *relative* threshold (default 5%) and an
//! *absolute* floor of 100 cycles, so single-cycle jitter on near-zero
//! metrics doesn't fail CI. A run present in only one file is not a
//! regression: [`membership_changes`] lists such runs, and the `bench-diff`
//! and `wall-diff` gates fail on any.

use crate::json::parse;
use crate::report::{report_from_jval, MetricsReport};

/// Absolute growth (cycles) below which a metric change is never flagged.
pub const ABS_FLOOR: u64 = 100;

/// One flagged metric regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Run name (`"APP/MODE"`).
    pub run: String,
    /// Metric path (e.g. `"total_cycles"`, `"category/ipc"`,
    /// `"hist/msg_latency/p99"`).
    pub metric: String,
    /// Baseline value.
    pub old: u64,
    /// Current value.
    pub new: u64,
    /// Relative growth in percent.
    pub pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} (+{:.1}%)",
            self.run, self.metric, self.old, self.new, self.pct
        )
    }
}

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

/// Parses a bench file back into its reports.
pub fn parse_bench(text: &str) -> Result<Vec<MetricsReport>, String> {
    let v = parse(text)?;
    let runs = v
        .get("runs")
        .and_then(|r| r.as_arr())
        .ok_or("bench file has no 'runs' array")?;
    runs.iter().map(report_from_jval).collect()
}

fn worse(old: u64, new: u64, threshold_pct: f64) -> Option<f64> {
    if new <= old || new - old < ABS_FLOOR {
        return None;
    }
    if old == 0 {
        // Growth from zero past the absolute floor is always suspicious.
        return Some(f64::INFINITY);
    }
    let pct = 100.0 * (new - old) as f64 / old as f64;
    (pct > threshold_pct).then_some(pct)
}

/// Compares two bench files and returns every flagged regression, in
/// baseline order. `threshold_pct` is the relative growth above which a
/// metric is flagged (subject to the [`ABS_FLOOR`] absolute floor).
pub fn compare(
    old: &[MetricsReport],
    new: &[MetricsReport],
    threshold_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            continue; // a membership change, the caller's to judge
        };
        let mut push = |metric: String, ov: u64, nv: u64| {
            if let Some(pct) = worse(ov, nv, threshold_pct) {
                out.push(Regression {
                    run: o.name.clone(),
                    metric,
                    old: ov,
                    new: nv,
                    pct,
                });
            }
        };
        push("total_cycles".into(), o.total_cycles, n.total_cycles);
        for (cat, ov) in &o.categories {
            if let Some(nv) = n.category(cat) {
                push(format!("category/{cat}"), *ov, nv);
            }
        }
        for (cat, ov) in &o.exposed {
            if let Some(&(_, nv)) = n.exposed.iter().find(|(c, _)| c == cat) {
                push(format!("exposed/{cat}"), *ov, nv);
            }
        }
        for (hname, oh) in &o.hists {
            if let Some(nh) = n.hist(hname) {
                push(format!("hist/{hname}/p50"), oh.p50, nh.p50);
                push(format!("hist/{hname}/p99"), oh.p99, nh.p99);
            }
        }
    }
    out
}

/// `(removed, added)`: the names in `old` but not in `new`, and the names in
/// `new` but not in `old`, each in input order. The regression gates fail
/// on either, so a renamed or new entry never slips past its baseline.
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

    fn report(name: &str, total: u64, ipc: u64, p99: u64) -> MetricsReport {
        MetricsReport {
            name: name.into(),
            protocol: "Base".into(),
            nprocs: 4,
            total_cycles: total,
            conservation_ok: true,
            categories: vec![("busy".into(), 10_000), ("ipc".into(), ipc)],
            exposed: vec![("busy".into(), 9_000), ("ipc".into(), ipc)],
            counters: vec![("faults".into(), 3)],
            hists: vec![(
                "msg_latency".into(),
                HistSummary {
                    count: 10,
                    p50: 200,
                    p90: 400,
                    p99,
                    max: p99,
                },
            )],
            epochs: Vec::new(),
            host: Vec::new(),
        }
    }

    #[test]
    fn five_percent_total_cycle_growth_is_flagged() {
        let old = vec![report("TSP/Base", 100_000, 5_000, 500)];
        let new = vec![report("TSP/Base", 106_000, 5_000, 500)];
        let regs = compare(&old, &new, 5.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "total_cycles");
        assert!((regs[0].pct - 6.0).abs() < 1e-9);
    }

    #[test]
    fn growth_below_threshold_or_floor_passes() {
        let old = vec![report("TSP/Base", 100_000, 5_000, 500)];
        // +4% total, +50 absolute cycles on ipc: both under the gates.
        let new = vec![report("TSP/Base", 104_000, 5_050, 500)];
        assert!(compare(&old, &new, 5.0).is_empty());
        // Improvements never flag.
        let faster = vec![report("TSP/Base", 50_000, 100, 100)];
        assert!(compare(&old, &faster, 5.0).is_empty());
    }

    #[test]
    fn category_and_percentile_regressions_are_flagged() {
        let old = vec![report("TSP/Base", 100_000, 5_000, 500)];
        let new = vec![report("TSP/Base", 100_000, 6_000, 1_200)];
        let regs = compare(&old, &new, 5.0);
        let metrics: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"category/ipc"), "{metrics:?}");
        assert!(metrics.contains(&"exposed/ipc"), "{metrics:?}");
        assert!(metrics.contains(&"hist/msg_latency/p99"), "{metrics:?}");
    }

    #[test]
    fn bench_file_roundtrips() {
        let runs = vec![
            report("TSP/Base", 100_000, 5_000, 500),
            report("Water/AURC+P", 90_000, 4_000, 400),
        ];
        let text = write_bench(&runs);
        let back = parse_bench(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "TSP/Base");
        assert_eq!(back[1].total_cycles, 90_000);
        // Deterministic bytes.
        assert_eq!(text, write_bench(&runs));
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
