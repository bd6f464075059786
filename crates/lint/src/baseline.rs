//! The suppression-debt ratchet.
//!
//! Zero *unsuppressed* findings is a hard gate, but suppressions are debt:
//! each one is a hazard a human argued away. `LINT_BASELINE.json` pins the
//! per-rule suppression counts; CI fails when any rule's count grows, so
//! new debt needs a conscious `cargo xtask lint --update-baseline` in the
//! same change — the same discipline `BENCH_tier1.json` applies to
//! simulated output, which changes only with a conscious re-seed.

use std::fmt::Write as _;

use crate::diag::{json_str, Report};

/// Per-rule suppression counts, sorted by rule ID.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub per_rule: Vec<(String, usize)>,
}

impl Baseline {
    /// The baseline a report would pin.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline {
            per_rule: report
                .suppressed_by_rule()
                .into_iter()
                .map(|(r, n)| (r.to_string(), n))
                .collect(),
        }
    }

    /// Total suppression count.
    pub fn total(&self) -> usize {
        self.per_rule.iter().map(|&(_, n)| n).sum()
    }

    /// Byte-deterministic JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"format\": 1,\n  \"suppressed\": {");
        for (i, (rule, n)) in self.per_rule.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {}: {}", json_str(rule), n);
        }
        if !self.per_rule.is_empty() {
            s.push_str("\n  ");
        }
        let _ = write!(s, "}},\n  \"total\": {}\n}}\n", self.total());
        s
    }

    /// Parses the committed baseline file. The format is the flat object
    /// [`to_json`] writes; anything else is an error.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let obj = text
            .split_once("\"suppressed\"")
            .ok_or("missing \"suppressed\" key")?
            .1;
        let open = obj.find('{').ok_or("missing suppression object")?;
        let close = obj[open..].find('}').ok_or("unclosed suppression object")? + open;
        let mut per_rule = Vec::new();
        for entry in obj[open + 1..close].split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, val) = entry
                .split_once(':')
                .ok_or_else(|| format!("bad baseline entry `{entry}`"))?;
            let rule = key.trim().trim_matches('"').to_string();
            let n: usize = val
                .trim()
                .parse()
                .map_err(|_| format!("bad count in baseline entry `{entry}`"))?;
            per_rule.push((rule, n));
        }
        per_rule.sort();
        Ok(Baseline { per_rule })
    }

    /// Rules whose current suppression count exceeds the baseline.
    /// Empty means the ratchet passes.
    pub fn regressions(&self, current: &Baseline) -> Vec<String> {
        let mut out = Vec::new();
        for (rule, n) in &current.per_rule {
            let pinned = self
                .per_rule
                .iter()
                .find(|(r, _)| r == rule)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            if *n > pinned {
                out.push(format!(
                    "suppressions for `{rule}` grew {pinned} -> {n} (justify and \
                     `cargo xtask lint --update-baseline`, or fix the hazard)"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let b = Baseline {
            per_rule: vec![
                ("nondeterministic-iteration".into(), 3),
                ("unbounded-retry".into(), 1),
            ],
        };
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.total(), 4);
    }

    #[test]
    fn ratchet_flags_growth_only() {
        let pinned = Baseline {
            per_rule: vec![("a".into(), 2), ("b".into(), 1)],
        };
        let shrunk = Baseline {
            per_rule: vec![("a".into(), 1)],
        };
        assert!(pinned.regressions(&shrunk).is_empty());
        let grown = Baseline {
            per_rule: vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)],
        };
        assert_eq!(pinned.regressions(&grown).len(), 2);
    }
}
