//! The per-file analysis context and the rule-driving engine.
//!
//! [`FileCtx`] is built once per file from the token stream and hands rules
//! everything context-sensitive they need: code tokens (strings and
//! comments already out of the way), per-line comment text for
//! justification tags, the `#[cfg(test)]` boundary, and the parsed inline
//! suppressions.
//!
//! Suppression syntax (normal `//` comments only — doc comments are prose
//! and never parsed): `lint: allow(rule-id) -- reason`, with a non-empty
//! reason after `--` and one or more comma-separated rule IDs. A trailing
//! suppression covers its own line; a comment-line suppression covers the
//! next code line (across further comment lines, not across blanks).
//! Malformed or unused suppressions are themselves findings, and
//! suppressions never apply to those two meta rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Suppressed};
use crate::lexer::{lex, Tok, TokKind};

/// One parsed `lint: allow` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line of the comment itself.
    pub line: u32,
    /// Code line it covers (`None` when no code line follows).
    pub target: Option<u32>,
    /// Rule IDs it silences.
    pub rules: Vec<String>,
    /// Justification text after `--`.
    pub reason: String,
    /// Parse error, when the directive is not well-formed.
    pub malformed: Option<String>,
}

/// Everything a rule may inspect about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Raw source lines (0-indexed by `line - 1`).
    pub lines: Vec<&'a str>,
    /// Non-comment tokens in source order.
    pub code: Vec<Tok>,
    /// First line of the trailing `#[cfg(test)]` region (`u32::MAX` if none).
    pub test_start: u32,
    /// Parsed `lint: allow` comments (non-test region only).
    pub suppressions: Vec<Suppression>,
    /// Valid rule IDs, for suppression validation.
    pub known_rules: &'a [&'static str],
    /// Concatenated comment text per line (block comments cover every line
    /// they span).
    comment_text: BTreeMap<u32, String>,
    /// Lines bearing at least one code token.
    code_lines: BTreeSet<u32>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `src` and builds the full context.
    pub fn new(rel: &'a str, src: &'a str, known_rules: &'a [&'static str]) -> Self {
        let toks = lex(src);
        let mut code = Vec::new();
        let mut comment_text: BTreeMap<u32, String> = BTreeMap::new();
        let mut code_lines = BTreeSet::new();
        let mut comment_cols: BTreeMap<u32, u32> = BTreeMap::new();
        let mut doc_only: BTreeMap<u32, bool> = BTreeMap::new();
        for t in toks {
            if t.kind.is_comment() {
                for (i, piece) in t.text.split('\n').enumerate() {
                    let line = t.line + i as u32;
                    let slot = comment_text.entry(line).or_default();
                    slot.push_str(piece);
                    slot.push(' ');
                    let doc = doc_only.entry(line).or_insert(true);
                    *doc &= t.kind.is_doc();
                    if i == 0 {
                        comment_cols.entry(line).or_insert(t.col);
                    }
                }
                // Non-doc line comments may carry suppressions; parsed below
                // from the per-line records to keep one code path.
                if t.kind == TokKind::LineComment {
                    doc_only.insert(t.line, false);
                }
            } else {
                code_lines.insert(t.line);
                code.push(t);
            }
        }
        let test_start = find_test_start(&code);
        let mut ctx = FileCtx {
            rel,
            lines: src.lines().collect(),
            code,
            test_start,
            suppressions: Vec::new(),
            known_rules,
            comment_text,
            code_lines,
        };
        ctx.suppressions = parse_suppressions(&ctx, &doc_only, &comment_cols);
        ctx
    }

    /// True when `line` falls in the trailing `#[cfg(test)]` module.
    pub fn in_test_region(&self, line: u32) -> bool {
        line >= self.test_start
    }

    /// The trimmed source text of a 1-based line (for snippets).
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// True when a justification tag (e.g. `invariant:`, `overflow:`)
    /// appears in a comment on `line` or in the contiguous comment block
    /// directly above it.
    pub fn justified(&self, line: u32, tag: &str) -> bool {
        if self
            .comment_text
            .get(&line)
            .is_some_and(|t| t.contains(tag))
        {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.code_lines.contains(&l) {
                return false;
            }
            match self.comment_text.get(&l) {
                Some(t) if t.contains(tag) => return true,
                Some(_) => continue,
                None => return false,
            }
        }
        false
    }

    /// Indices of code tokens whose `line` equals the given line.
    pub fn code_on_line(&self, line: u32) -> &[Tok] {
        let lo = self.code.partition_point(|t| t.line < line);
        let hi = self.code.partition_point(|t| t.line <= line);
        &self.code[lo..hi]
    }

    /// Emits a diagnostic at a token.
    pub fn diag(&self, t: &Tok, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.rel.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message,
            snippet: self.snippet(t.line),
        }
    }
}

/// A lint rule: stable ID, catalog summary, file scope and the check.
pub trait Rule {
    fn id(&self) -> &'static str;
    fn summary(&self) -> &'static str;
    fn applies(&self, rel: &str) -> bool;
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>);
}

/// Line of the first `#[cfg(test)]`-style attribute (any cfg predicate
/// mentioning `test`), found on real tokens — a mention inside a string or
/// comment no longer truncates the scan, unlike the old `src.find`.
fn find_test_start(code: &[Tok]) -> u32 {
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].is_punct('#') && code[i + 1].is_punct('[') {
            let end = matching(code, i + 1, '[', ']');
            if code[i + 2..end].iter().any(|t| t.is_ident("test"))
                && code[i + 2..end].iter().any(|t| t.is_ident("cfg"))
            {
                return code[i].line;
            }
            i = end;
        }
        i += 1;
    }
    u32::MAX
}

/// Index of the token closing the group opened at `open` (which must hold
/// the opening delimiter); saturates at the last token when unbalanced.
fn matching(code: &[Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Parses every `lint:` directive from non-doc comment lines.
fn parse_suppressions(
    ctx: &FileCtx,
    doc_only: &BTreeMap<u32, bool>,
    comment_cols: &BTreeMap<u32, u32>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (&line, text) in &ctx.comment_text {
        if line >= ctx.test_start || doc_only.get(&line).copied().unwrap_or(true) {
            continue;
        }
        let Some(pos) = text.find("lint:") else {
            continue;
        };
        let directive = text[pos + "lint:".len()..].trim_start();
        let mut sup = Suppression {
            line,
            target: None,
            rules: Vec::new(),
            reason: String::new(),
            malformed: None,
        };
        let parsed = parse_allow(directive, &mut sup, ctx.known_rules);
        if let Err(e) = parsed {
            sup.malformed = Some(e);
        }
        // Trailing comment covers its own line; a standalone comment line
        // covers the next code line reached through comment lines only.
        let col = comment_cols.get(&line).copied().unwrap_or(1);
        let has_code_before = ctx.code_on_line(line).iter().any(|t| t.col < col);
        if has_code_before {
            sup.target = Some(line);
        } else {
            let mut l = line + 1;
            loop {
                if ctx.code_lines.contains(&l) {
                    sup.target = Some(l);
                    break;
                }
                if !ctx.comment_text.contains_key(&l) {
                    break;
                }
                l += 1;
            }
        }
        out.push(sup);
    }
    out
}

/// Parses `allow(rule-a, rule-b) -- reason` into `sup`.
fn parse_allow(s: &str, sup: &mut Suppression, known: &[&'static str]) -> Result<(), String> {
    let Some(rest) = s.strip_prefix("allow") else {
        return Err("unknown `lint:` directive (only `allow(…) -- reason`)".into());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("`lint: allow` needs a parenthesized rule list".into());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed rule list in `lint: allow(…)`".into());
    };
    for id in rest[..close].split(',') {
        let id = id.trim();
        if id.is_empty() {
            return Err("empty rule ID in `lint: allow(…)`".into());
        }
        if !known.contains(&id) {
            return Err(format!("unknown rule ID `{id}` in `lint: allow(…)`"));
        }
        sup.rules.push(id.to_string());
    }
    if sup.rules.is_empty() {
        return Err("empty rule list in `lint: allow(…)`".into());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("`lint: allow(…)` needs ` -- reason` (the justification is mandatory)".into());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason after `--` in `lint: allow(…)`".into());
    }
    sup.reason = reason.to_string();
    Ok(())
}

/// Meta rules handled by the engine itself (not suppressible).
pub const META_MALFORMED: &str = "malformed-suppression";
pub const META_UNUSED: &str = "unused-suppression";

/// Runs every applicable rule over one file and resolves suppressions.
/// Returns the surviving findings and the suppression ledger.
pub fn run_rules(ctx: &FileCtx, rules: &[Box<dyn Rule>]) -> (Vec<Diagnostic>, Vec<Suppressed>) {
    let mut raw = Vec::new();
    for rule in rules {
        if rule.applies(ctx.rel) {
            rule.check(ctx, &mut raw);
        }
    }
    raw.retain(|d| !ctx.in_test_region(d.line));

    let mut used = vec![0usize; ctx.suppressions.len()];
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for d in raw {
        let hit = ctx.suppressions.iter().enumerate().find(|(_, s)| {
            s.malformed.is_none()
                && s.target == Some(d.line)
                && s.rules.iter().any(|r| r == d.rule)
                && d.rule != META_MALFORMED
                && d.rule != META_UNUSED
        });
        match hit {
            Some((i, s)) => {
                used[i] += 1;
                suppressed.push(Suppressed {
                    file: d.file,
                    line: d.line,
                    rule: d.rule,
                    reason: s.reason.clone(),
                });
            }
            None => findings.push(d),
        }
    }
    for (i, s) in ctx.suppressions.iter().enumerate() {
        if let Some(err) = &s.malformed {
            findings.push(Diagnostic {
                file: ctx.rel.to_string(),
                line: s.line,
                col: 1,
                rule: META_MALFORMED,
                message: err.clone(),
                snippet: ctx.snippet(s.line),
            });
        } else if used[i] == 0 {
            findings.push(Diagnostic {
                file: ctx.rel.to_string(),
                line: s.line,
                col: 1,
                rule: META_UNUSED,
                message: format!(
                    "suppression for {} matches no finding — remove it",
                    s.rules.join(", ")
                ),
                snippet: ctx.snippet(s.line),
            });
        }
    }
    (findings, suppressed)
}
