//! The analyzer lints the workspace that ships it — including itself.
//! This is the workspace's only lint gate, and it is exact: zero
//! unsuppressed findings, every suppression justified, and the set of
//! suppressions pinned file by file and rule by rule.

use std::path::PathBuf;

/// Every `lint: allow` in the workspace, as `(file, rule)`, in report
/// order. Adding, removing or moving a suppression fails
/// [`suppressions_match_the_pinned_list`]; update this list in the same
/// change and say why in CHANGES.md.
const PINNED_SUPPRESSIONS: [(&str, &str); 2] = [
    ("crates/obs/src/perfetto.rs", "window-boundary-div"),
    ("crates/verify/src/lib.rs", "nondeterministic-iteration"),
];

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .find(|p| p.join("Cargo.toml").is_file() && p.join("crates").is_dir())
        .expect("workspace root above crates/lint")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean() {
    let report = ncp2_lint::lint_workspace(&workspace_root()).expect("scan");
    assert!(
        report.findings.is_empty(),
        "workspace must lint to zero unsuppressed findings:\n{}",
        report.render_human()
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

#[test]
fn every_suppression_is_justified() {
    let report = ncp2_lint::lint_workspace(&workspace_root()).expect("scan");
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression at {}:{} has an empty reason",
            s.file,
            s.line
        );
    }
}

#[test]
fn suppressions_match_the_pinned_list() {
    let report = ncp2_lint::lint_workspace(&workspace_root()).expect("scan");
    let mut gone: Vec<(&str, &str)> = PINNED_SUPPRESSIONS.to_vec();
    let mut problems = Vec::new();
    for s in &report.suppressed {
        match gone.iter().position(|&(f, r)| f == s.file && r == s.rule) {
            Some(i) => {
                gone.remove(i);
            }
            None => problems.push(format!(
                "not pinned: {}:{} [{}] -- {}",
                s.file, s.line, s.rule, s.reason
            )),
        }
    }
    problems.extend(
        gone.iter()
            .map(|(file, rule)| format!("pinned but gone: {file} [{rule}]")),
    );
    assert!(
        problems.is_empty(),
        "the workspace's suppressions differ from PINNED_SUPPRESSIONS in \
         crates/lint/tests/selflint.rs:\n  {}\nUpdate the list in the same \
         change and say why in CHANGES.md, or fix the hazard.",
        problems.join("\n  ")
    );
}
