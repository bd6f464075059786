//! Protocol-hazard rules: engine bypass, unanchored dependency edges and
//! unbounded retries.

use crate::config::{in_dirs, EDGE_EMISSION_FILES, ENGINE_ONLY_DIR, RETRY_CAP_WINDOW, RETRY_DIRS};
use crate::diag::Diagnostic;
use crate::engine::{FileCtx, Rule};
use crate::lexer::TokKind;

/// `engine-bypass`: bench binaries must route every simulation through the
/// `Grid`/`Engine` scheduler — direct entry points lose parallelism,
/// caching and deterministic result ordering.
pub struct EngineBypass;

impl Rule for EngineBypass {
    fn id(&self) -> &'static str {
        "engine-bypass"
    }
    fn summary(&self) -> &'static str {
        "bench binaries must use Grid/Engine, not direct simulation entry points"
    }
    fn applies(&self, rel: &str) -> bool {
        in_dirs(rel, &[ENGINE_ONLY_DIR])
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            for f in ["run_app", "run_app_with", "sequential_baseline"] {
                if code[i].is_ident(f) && code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    out.push(ctx.diag(
                        &code[i],
                        self.id(),
                        format!("direct `{f}(…)` in a bench binary (use Grid/Engine)"),
                    ));
                }
            }
            if code[i].is_ident("Simulation")
                && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 3).is_some_and(|t| t.is_ident("new"))
                && code.get(i + 4).is_some_and(|t| t.is_punct('('))
            {
                out.push(ctx.diag(
                    &code[i],
                    self.id(),
                    "direct `Simulation::new(…)` in a bench binary (use Grid/Engine)".into(),
                ));
            }
        }
    }
}

/// `unanchored-edge`: every `obs_edge(…)` emission must pass an anchor
/// obtained from `obs_last_span(…)` somewhere inside the call — the
/// execution-graph builder rejects edges dangling off activity the span
/// log never recorded. Paren-matched over tokens, so the old fixed
/// line-window heuristic (and its long-call false negatives) is gone.
pub struct UnanchoredEdge;

impl Rule for UnanchoredEdge {
    fn id(&self) -> &'static str {
        "unanchored-edge"
    }
    fn summary(&self) -> &'static str {
        "`obs_edge(…)` calls must anchor via `obs_last_span(…)` in the call"
    }
    fn applies(&self, rel: &str) -> bool {
        EDGE_EMISSION_FILES.contains(&rel)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            if !code[i].is_ident("obs_edge") {
                continue;
            }
            // Skip the recorder definitions themselves.
            if i > 0 && code[i - 1].is_ident("fn") {
                continue;
            }
            if !code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let mut depth = 0i64;
            let mut end = code.len() - 1;
            for (j, t) in code.iter().enumerate().skip(i + 1) {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
            }
            let anchored = code[i + 1..=end]
                .iter()
                .any(|t| t.is_ident("obs_last_span"));
            if !anchored {
                out.push(ctx.diag(
                    &code[i],
                    self.id(),
                    "`obs_edge(…)` without an `obs_last_span(…)` anchor in the call".into(),
                ));
            }
        }
    }
}

/// `unbounded-retry`: every retransmission/backoff site — a
/// `RETRANSMIT_TIMEOUT` shifted for exponential backoff, or an `attempt`
/// counter being advanced — must reference a compile-time `MAX_`-prefixed
/// cap constant within [`RETRY_CAP_WINDOW`] lines. An uncapped retry loop
/// under a fault plan that keeps dropping frames is a livelock; an
/// uncapped shifted timeout is a cycle-counter overflow.
pub struct UnboundedRetry;

impl Rule for UnboundedRetry {
    fn id(&self) -> &'static str {
        "unbounded-retry"
    }
    fn summary(&self) -> &'static str {
        "retry/backoff sites must cite a `MAX_` cap constant nearby"
    }
    fn applies(&self, rel: &str) -> bool {
        in_dirs(rel, RETRY_DIRS)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = &code[i];
            let backoff_shift = t.is_ident("RETRANSMIT_TIMEOUT")
                && ctx
                    .code_on_line(t.line)
                    .windows(2)
                    .any(|w| w[0].is_punct('<') && w[1].is_punct('<') && w[0].line == w[1].line);
            let attempt_advance = t.is_ident("attempt")
                && code.get(i + 1).is_some_and(|n| n.is_punct('+'))
                && code
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct('=') || n.kind == TokKind::Num);
            if !(backoff_shift || attempt_advance) {
                continue;
            }
            let lo = t.line.saturating_sub(RETRY_CAP_WINDOW);
            let hi = t.line + RETRY_CAP_WINDOW;
            let capped = ctx.code.iter().any(|c| {
                c.line >= lo
                    && c.line <= hi
                    && c.kind == TokKind::Ident
                    && c.text.starts_with("MAX_")
            });
            if !capped {
                out.push(ctx.diag(
                    t,
                    self.id(),
                    format!(
                        "retry/backoff site without a `MAX_` cap constant within \
                         {RETRY_CAP_WINDOW} lines"
                    ),
                ));
            }
        }
    }
}
