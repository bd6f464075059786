//! SLO-style window assertions over a [`TsLog`].
//!
//! An assertion is a declarative predicate over one per-window series,
//! written in a tiny grammar:
//!
//! ```text
//! SERIES OP THRESHOLD for K      e.g.  retransmits > 0 for 2
//! monotone SERIES for K          e.g.  monotone queue_depth for 4
//! ```
//!
//! `SERIES` is any counter or gauge label from
//! [`TsCounter::label`](ncp2_core::TsCounter::label) /
//! [`TsGauge::label`](ncp2_core::TsGauge::label), or the derived
//! `occupancy_pct` (per-window controller occupancy, maxed over nodes).
//! `OP` is one of `>` `>=` `<` `<=`. A threshold assertion fires once per
//! maximal run of at least `K` consecutive windows that all satisfy the
//! predicate; `monotone` fires per maximal run of at least `K` windows
//! over which the series strictly increases. Each firing reports both the
//! window indices and the covered cycle range, so a firing can be checked
//! against an injected fault window (`chaos_report --check`,
//! `timeline_report --check`).

use ncp2_core::{TsCounter, TsGauge, TsLog};

/// Comparison operator in a threshold assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Op {
    fn eval(self, v: u64, thresh: u64) -> bool {
        match self {
            Op::Gt => v > thresh,
            Op::Ge => v >= thresh,
            Op::Lt => v < thresh,
            Op::Le => v <= thresh,
        }
    }

    fn text(self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
        }
    }
}

/// A parsed assertion. Keeps the normalized source text so reports stay
/// self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assertion {
    kind: Kind,
    series: String,
    k: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Threshold { op: Op, thresh: u64 },
    Monotone,
}

/// One assertion firing: a maximal qualifying window run and its cycle span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Normalized text of the assertion that fired.
    pub assertion: String,
    /// First window index of the run.
    pub first_window: usize,
    /// Last window index of the run (inclusive).
    pub last_window: usize,
    /// Start cycle of the run (`first_window * width`).
    pub start_cycle: u64,
    /// End cycle of the run (exclusive, `(last_window + 1) * width`).
    pub end_cycle: u64,
}

impl Assertion {
    /// Parses the grammar described in the module docs. The series name is
    /// validated against the known labels so typos fail at parse time, not
    /// silently at evaluation.
    pub fn parse(text: &str) -> Result<Assertion, String> {
        let toks: Vec<&str> = text.split_whitespace().collect();
        let parse_k = |s: &str| -> Result<usize, String> {
            match s.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(k),
                _ => Err(format!("'{text}': K must be a positive integer, got '{s}'")),
            }
        };
        let check_series = |s: &str| -> Result<String, String> {
            if known_series(s) {
                Ok(s.to_string())
            } else {
                Err(format!(
                    "'{text}': unknown series '{s}' (counters, gauges, or occupancy_pct)"
                ))
            }
        };
        match toks.as_slice() {
            ["monotone", series, "for", k] => Ok(Assertion {
                kind: Kind::Monotone,
                series: check_series(series)?,
                k: parse_k(k)?,
            }),
            [series, op, thresh, "for", k] => {
                let op = match *op {
                    ">" => Op::Gt,
                    ">=" => Op::Ge,
                    "<" => Op::Lt,
                    "<=" => Op::Le,
                    other => return Err(format!("'{text}': unknown operator '{other}'")),
                };
                let thresh = thresh
                    .parse::<u64>()
                    .map_err(|_| format!("'{text}': bad threshold '{thresh}'"))?;
                Ok(Assertion {
                    kind: Kind::Threshold { op, thresh },
                    series: check_series(series)?,
                    k: parse_k(k)?,
                })
            }
            _ => Err(format!(
                "'{text}': expected 'SERIES OP N for K' or 'monotone SERIES for K'"
            )),
        }
    }

    /// The normalized source text.
    pub fn text(&self) -> String {
        match &self.kind {
            Kind::Threshold { op, thresh } => {
                format!("{} {} {} for {}", self.series, op.text(), thresh, self.k)
            }
            Kind::Monotone => format!("monotone {} for {}", self.series, self.k),
        }
    }

    /// Evaluates against a log, returning one [`Firing`] per maximal
    /// qualifying run.
    pub fn evaluate(&self, log: &TsLog) -> Vec<Firing> {
        let vals = series_values(log, &self.series);
        // hits[i]: window i extends a qualifying run.
        let hits: Vec<bool> = match &self.kind {
            Kind::Threshold { op, thresh } => vals.iter().map(|&v| op.eval(v, *thresh)).collect(),
            // Window i qualifies when it strictly exceeds its predecessor;
            // the run then covers the predecessor too (see below).
            Kind::Monotone => (0..vals.len())
                .map(|i| i > 0 && vals[i] > vals[i - 1])
                .collect(),
        };
        let mut out = Vec::new();
        let mut i = 0;
        while i < hits.len() {
            if !hits[i] {
                i += 1;
                continue;
            }
            let mut j = i;
            while j + 1 < hits.len() && hits[j + 1] {
                j += 1;
            }
            // A monotone run of m increase-steps spans m + 1 windows,
            // starting one before the first increasing window.
            let first = match self.kind {
                Kind::Monotone => i - 1,
                Kind::Threshold { .. } => i,
            };
            if j - first + 1 >= self.k {
                out.push(Firing {
                    assertion: self.text(),
                    first_window: first,
                    last_window: j,
                    start_cycle: first as u64 * log.width,
                    end_cycle: (j as u64 + 1) * log.width,
                });
            }
            i = j + 1;
        }
        out
    }
}

/// True when `name` is a counter label, gauge label, or derived series.
fn known_series(name: &str) -> bool {
    name == "occupancy_pct"
        || TsCounter::ALL.iter().any(|c| c.label() == name)
        || TsGauge::ALL.iter().any(|g| g.label() == name)
}

/// Resolves a series name to its per-window values.
fn series_values(log: &TsLog, name: &str) -> Vec<u64> {
    if let Some(c) = TsCounter::ALL.iter().find(|c| c.label() == name) {
        return log.counter_series(*c);
    }
    if let Some(g) = TsGauge::ALL.iter().find(|g| g.label() == name) {
        return log.gauge_series(*g);
    }
    debug_assert_eq!(name, "occupancy_pct");
    let window_width = log.width.max(1);
    (0..log.windows.len())
        .map(|w| {
            log.occupancy
                .iter()
                // window: occupancy is busy-cycles-per-window; the percentage
                // needs the exact window width as denominator.
                .map(|node| 100 * node.get(w).copied().unwrap_or(0) / window_width)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Evaluates a list of assertions, concatenating firings in input order.
pub fn evaluate_all(assertions: &[Assertion], log: &TsLog) -> Vec<Firing> {
    assertions.iter().flat_map(|a| a.evaluate(log)).collect()
}

/// The assertion the CI timeline gate (`timeline_report --check`) evaluates:
/// two consecutive windows with retransmissions.
pub const TIMELINE_CHECK_ASSERTION: &str = "retransmits > 0 for 2";

/// The assertions the CI chaos gate evaluates: a fault-free run has no
/// hardened transport and therefore no retransmits, so this fires if and
/// only if the transport actually retransmitted somewhere.
pub fn default_check_assertions() -> Vec<Assertion> {
    // invariant: the built-in assertion text always parses.
    vec![Assertion::parse("retransmits > 0 for 1").expect("built-in assertion")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncp2_core::{ProtocolEvent, TsRecorder};

    fn log_with_retx(at: &[u64]) -> TsLog {
        let mut rec = TsRecorder::new(1, 100);
        for &t in at {
            rec.note(
                t,
                0,
                &ProtocolEvent::Retransmit {
                    src: 0,
                    dst: 1,
                    seq: 0,
                    attempt: 1,
                },
            );
            rec.count(TsCounter::Retransmits, t, 1);
        }
        rec.into_log(1_000)
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let a = Assertion::parse("retransmits > 0 for 2").unwrap();
        assert_eq!(a.text(), "retransmits > 0 for 2");
        let m = Assertion::parse("monotone queue_depth for 3").unwrap();
        assert_eq!(m.text(), "monotone queue_depth for 3");
        assert!(Assertion::parse("no_such_series > 0 for 1").is_err());
        assert!(Assertion::parse("retransmits >> 0 for 1").is_err());
        assert!(Assertion::parse("retransmits > 0 for 0").is_err());
        assert!(Assertion::parse("retransmits > 0").is_err());
        assert!(Assertion::parse("occupancy_pct >= 95 for 4").is_ok());
    }

    #[test]
    fn threshold_reports_maximal_runs_with_cycle_ranges() {
        // Retransmits in windows 1, 2 and 7: one run of 2, one of 1.
        let log = log_with_retx(&[150, 250, 299, 750]);
        let a = Assertion::parse("retransmits > 0 for 2").unwrap();
        let firings = a.evaluate(&log);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].first_window, 1);
        assert_eq!(firings[0].last_window, 2);
        assert_eq!(firings[0].start_cycle, 100);
        assert_eq!(firings[0].end_cycle, 300);

        let loose = Assertion::parse("retransmits > 0 for 1").unwrap();
        assert_eq!(loose.evaluate(&log).len(), 2);
    }

    #[test]
    fn clean_series_never_fires() {
        let log = log_with_retx(&[]);
        for a in default_check_assertions() {
            assert!(a.evaluate(&log).is_empty());
        }
    }

    #[test]
    fn monotone_growth_spans_the_whole_climb() {
        let mut rec = TsRecorder::new(1, 100);
        // Queue depth climbs 1,2,3 in windows 0..3, then drops.
        rec.gauge(TsGauge::QueueDepth, 50, 1);
        rec.gauge(TsGauge::QueueDepth, 150, 2);
        rec.gauge(TsGauge::QueueDepth, 250, 3);
        rec.gauge(TsGauge::QueueDepth, 350, 1);
        let log = rec.into_log(500);
        let a = Assertion::parse("monotone queue_depth for 3").unwrap();
        let firings = a.evaluate(&log);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].first_window, 0);
        assert_eq!(firings[0].last_window, 2);
        // Four windows strictly increasing nowhere exist, so K=4 is quiet.
        let strict = Assertion::parse("monotone queue_depth for 4").unwrap();
        assert!(strict.evaluate(&log).is_empty());
    }

    #[test]
    fn occupancy_pct_derives_from_the_busiest_node() {
        let mut rec = TsRecorder::new(2, 100);
        rec.span(0, 0, 50); // node 0: 50% in window 0
        rec.span(1, 100, 198); // node 1: 98% in window 1
        let log = rec.into_log(200);
        let a = Assertion::parse("occupancy_pct >= 95 for 1").unwrap();
        let firings = a.evaluate(&log);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].first_window, 1);
    }
}
