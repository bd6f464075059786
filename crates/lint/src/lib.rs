//! # ncp2-lint — token-level static analysis for the NCP2 workspace
//!
//! The repro's value proposition is byte-reproducible simulated-time runs;
//! the hazards that break it (hash-order iteration reaching a metrics
//! file, a wall-clock read in the simulation, a truncating cycle cast, an
//! uncapped retry loop) rarely fail a test — they just bend the
//! curves. This crate checks the source itself, in the spirit of
//! mechanically checking coherence protocols rather than only testing
//! them.
//!
//! Architecture (see DESIGN.md §13):
//!
//! * [`lexer`] — a line/col-tracked Rust token stream that correctly skips
//!   string literals (plain/raw/byte), char literals, lifetimes and nested
//!   block comments, so rules never misfire on prose or test data;
//! * [`engine`] — per-file context (code tokens, comment index,
//!   `#[cfg(test)]` boundary, parsed suppressions) and the rule driver;
//! * [`rules`] — the registry. Every rule has a stable kebab-case ID, a
//!   file scope from [`config`], and firing/clean fixture tests;
//! * [`diag`] — structured `file:line:col` diagnostics and the report
//!   that collects them in a deterministic order.
//!
//! `tests/selflint.rs` is the workspace's lint gate: `cargo test` requires
//! zero unsuppressed findings and pins every suppression by file and rule.
//!
//! Suppressions are inline comments that must justify themselves:
//!
//! ```text
//! map.values().collect(); // lint: allow(nondeterministic-iteration) -- sorted two lines down
//! ```
//!
//! A suppression with no reason, an unknown rule ID, or no matching
//! finding is itself a finding. Test modules (`#[cfg(test)]` onward) are
//! exempt from all rules.

pub mod config;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use diag::{Diagnostic, Report, Suppressed};
pub use engine::{FileCtx, Rule};

/// Lints a single in-memory source file under its workspace-relative path.
/// This is the fixture-test entry point: scopes resolve exactly as they
/// would for a real file at `rel`.
pub fn lint_source(rel: &str, src: &str) -> Report {
    let rules = rules::registry();
    let ids = rules::rule_ids();
    let ctx = FileCtx::new(rel, src, &ids);
    let (findings, suppressed) = engine::run_rules(&ctx, &rules);
    let mut report = Report {
        findings,
        suppressed,
        files_scanned: 1,
    };
    report.normalize();
    report
}

/// Lints every non-test Rust source in the workspace (each `crates/*/src`
/// tree, `bin/` included; `tests/`, `benches/` and `examples/` are test
/// surface and exempt). File order is sorted, so reports are identical
/// across platforms and reruns.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let rules = rules::registry();
    let ids = rules::rule_ids();
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel_path = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel_path
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let ctx = FileCtx::new(&rel, &src, &ids);
        let (findings, suppressed) = engine::run_rules(&ctx, &rules);
        report.findings.extend(findings);
        report.suppressed.extend(suppressed);
        report.files_scanned += 1;
    }
    report.normalize();
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
