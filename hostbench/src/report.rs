//! The benchmark's result line: named metrics with units, named output
//! checks, and the small statistics the harness needs (medians, and the
//! rule for which latency percentile a sample count can support).

use std::collections::BTreeMap;

use ncp2_obs::json;

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and is made of at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Samples strictly beyond the `p` quantile of `n` samples: those ranked
/// above `ceil(p * n)`.
pub fn samples_beyond(n: u64, p: f64) -> u64 {
    n - ((p * n as f64).ceil() as u64).min(n)
}

/// Whether `n` samples support reporting the `p` quantile: at least ten
/// samples must lie beyond it.
pub fn percentile_supported(n: u64, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median of `xs` (mean of the middle pair for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Least of `xs`; 0 for none.
pub fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Named pass/fail output checks, grouped into executions; each failure is
/// printed by name.
#[derive(Debug, Default)]
pub struct Checks {
    /// `(name, passed)` in evaluation order.
    pub results: Vec<(String, bool)>,
    /// Executions closed by [`Checks::end_execution`].
    executions: u64,
    /// Closed executions in which every check passed.
    clean: u64,
    /// Failed checks when the previous execution was closed.
    failed_before: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        if !passed {
            eprintln!("check failed: {name}");
        }
        self.results.push((name, passed));
    }

    /// Checks evaluated.
    pub fn attempted(&self) -> u64 {
        self.results.len() as u64
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.results.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// Closes one execution: it is clean if no check since the previous
    /// close failed.
    pub fn end_execution(&mut self) {
        let failed = self.failed();
        self.executions += 1;
        if failed == self.failed_before {
            self.clean += 1;
        }
        self.failed_before = failed;
    }

    /// Share of executions in which every check passed, in `[0, 1]`; 0 when
    /// none was closed. One failed check among `n` executions lowers it by
    /// `1/n`, however many checks an execution makes.
    pub fn pass_frac(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.clean as f64 / self.executions as f64
        }
    }
}

/// The final line the benchmark prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// No check failed (and at least one ran).
    pub correct: bool,
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Metric name to `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Output {
    /// An output carrying `checks`' verdict and no metrics yet.
    pub fn new(checks: &Checks) -> Output {
        Output {
            correct: checks.attempted() > 0 && checks.failed() == 0,
            attempted: checks.attempted(),
            failed: checks.failed(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or unit, a repeated name, or a value that
    /// is not finite — each a bug in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let prev = self
            .metrics
            .insert(name.to_string(), (value, unit.to_string()));
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    /// One-line JSON: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {"name": {"value": .., "unit": ".."}, ..}}`. Values are
    /// printed with every digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::esc(name),
                    fmt_num(*value),
                    json::esc(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`Output::to_json`] (the round-trip test's
    /// reader; `run.py` and `steady.py` parse the line with Python's).
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Output, String> {
        let v = json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k}"));
        let correct = field("correct")?.as_bool().ok_or("correct: not a bool")?;
        let attempted = field("attempted")?
            .as_u64()
            .ok_or("attempted: not a count")?;
        let failed = field("failed")?.as_u64().ok_or("failed: not a count")?;
        let mut metrics = BTreeMap::new();
        let obj = field("metrics")?.as_obj().ok_or("metrics: not an object")?;
        for (name, m) in obj {
            let value = m.get("value").and_then(json::JVal::as_f64);
            let unit = m.get("unit").and_then(json::JVal::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => {
                    metrics.insert(name.clone(), (value, unit.to_string()));
                }
                _ => return Err(format!("metric {name}: needs a value and a unit")),
            }
        }
        Ok(Output {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Formats a number with Rust's shortest round-trip formatting, which is
/// valid JSON for every finite value (`1.0`, `0.25`, `1.5e-7`).
fn fmt_num(x: f64) -> String {
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "sim.proc.ops",
            "core.cycles.busy",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["s", "ms", "1/s", "%", "count", "MiB", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seconds_per_round", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 16,000 responses leave 16 beyond p99.9; 9,999 leave only 9.
        assert_eq!(samples_beyond(16_000, 0.999), 16);
        assert!(percentile_supported(16_000, 0.999));
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert!(!percentile_supported(9_999, 0.999));
        assert!(percentile_supported(10_000, 0.999));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(least(&[]), 0.0);
        assert_eq!(least(&[4.0, 1.5, 3.0]), 1.5);
    }

    #[test]
    fn output_round_trips_through_json() {
        let mut checks = Checks::default();
        checks.check("a", true);
        checks.check("b", true);
        let mut out = Output::new(&checks);
        out.put("wall_s", 1.203_456_789_012_3, "s");
        out.put("sim_cycles", 6_412_345.0, "cycles");
        out.put("pass_frac", 1.0, "ratio");
        out.put("tiny", 1.5e-7, "s");
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let back = Output::from_json(&line).expect("parses");
        assert_eq!(back, out);
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (2, 0));
    }

    #[test]
    fn a_failed_check_makes_the_output_incorrect() {
        let mut checks = Checks::default();
        checks.check("ok", true);
        checks.end_execution();
        checks.check("wrong", false);
        checks.end_execution();
        let out = Output::new(&checks);
        assert!(!out.correct);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(checks.pass_frac(), 0.5);
        assert!(!Output::new(&Checks::default()).correct);
    }

    #[test]
    fn pass_frac_counts_executions_not_checks() {
        let mut checks = Checks::default();
        for execution in 0..4 {
            for check in 0..100 {
                checks.check(format!("{execution}.{check}"), (execution, check) != (2, 7));
            }
            checks.end_execution();
        }
        assert_eq!((checks.attempted(), checks.failed()), (400, 1));
        assert_eq!(checks.pass_frac(), 0.75);
        assert_eq!(Checks::default().pass_frac(), 0.0);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_metric_name_is_used_once() {
        let mut out = Output::new(&Checks::default());
        out.put("wall_s", 1.0, "s");
        out.put("wall_s", 2.0, "s");
    }
}
