//! Structured diagnostics and the deterministic report.
//!
//! Every finding carries a `file:line:col`, a stable rule ID, a message and
//! the offending source snippet. Reports sort all entries by
//! `(file, line, col, rule)`, so two runs over the same tree list the same
//! findings and suppressions in the same order.

use std::fmt::Write as _;

/// One unsuppressed lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
    /// Stable rule ID from the registry.
    pub rule: &'static str,
    /// Human explanation of the hazard.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A finding that an inline `lint: allow` comment silenced, retained so
/// `tests/selflint.rs` can pin every suppression by file and rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the silenced finding.
    pub line: u32,
    /// Rule that would have fired.
    pub rule: &'static str,
    /// The justification given after `--` in the suppression comment.
    pub reason: String,
}

/// The full outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub findings: Vec<Diagnostic>,
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned (stable across reruns of the same tree).
    pub files_scanned: usize,
}

impl Report {
    /// Sorts both lists into the canonical order; call before reading them.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        self.findings.dedup();
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed.dedup();
    }

    /// Human rendering for terminal output.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for d in &self.findings {
            let _ = writeln!(
                s,
                "{}:{}:{}: [{}] {}\n    {}",
                d.file, d.line, d.col, d.rule, d.message, d.snippet
            );
        }
        let _ = writeln!(
            s,
            "ncp2-lint: {} file(s), {} finding(s), {} suppression(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len()
        );
        s
    }
}
