//! The rule registry.
//!
//! Every rule has a stable kebab-case ID (used in diagnostics, `lint:
//! allow(…)` comments and the suppression pin in `tests/selflint.rs`), a
//! one-line catalog summary, a file scope from [`crate::config`], and a
//! token-level check.
//! [`registry`] returns the rules in stable ID order; adding a rule means
//! writing the struct, registering it here, and giving it a firing and a
//! clean fixture in `tests/rule_fixtures.rs`.

mod determinism;
mod panics;
mod perf;
mod protocol;
mod timing;

use crate::engine::{Rule, META_MALFORMED, META_UNUSED};
use crate::lexer::Tok;

pub use determinism::{NondeterministicIteration, OsThreadInSim};
pub use panics::{ForbiddenPanic, UncheckedIndex, UndocumentedPanic};
pub use perf::LinearScanInHotPath;
pub use protocol::{EngineBypass, UnanchoredEdge, UnboundedRetry};
pub use timing::{
    OpenLoopClock, SaturatingCycleArith, TruncatingCycleCast, WallClockInSim, WindowBoundaryDiv,
};

/// Catalog-only entries for the two meta rules the engine enforces itself
/// (they are not suppressible, so they never run as ordinary checks).
struct MetaRule {
    id: &'static str,
    summary: &'static str,
}

impl Rule for MetaRule {
    fn id(&self) -> &'static str {
        self.id
    }
    fn summary(&self) -> &'static str {
        self.summary
    }
    fn applies(&self, _rel: &str) -> bool {
        false
    }
    fn check(&self, _ctx: &crate::engine::FileCtx, _out: &mut Vec<crate::diag::Diagnostic>) {}
}

/// All rules in stable ID order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = vec![
        Box::new(EngineBypass),
        Box::new(ForbiddenPanic),
        Box::new(LinearScanInHotPath),
        Box::new(MetaRule {
            id: META_MALFORMED,
            summary: "every `lint: allow(…)` must name known rules and carry a `-- reason`",
        }),
        Box::new(NondeterministicIteration),
        Box::new(OpenLoopClock),
        Box::new(OsThreadInSim),
        Box::new(SaturatingCycleArith),
        Box::new(TruncatingCycleCast),
        Box::new(UnanchoredEdge),
        Box::new(UnboundedRetry),
        Box::new(UncheckedIndex),
        Box::new(UndocumentedPanic),
        Box::new(MetaRule {
            id: META_UNUSED,
            summary: "a suppression matching no finding must be removed",
        }),
        Box::new(WallClockInSim),
        Box::new(WindowBoundaryDiv),
    ];
    rules.sort_by_key(|r| r.id());
    rules
}

/// The stable rule IDs, in registry order.
pub fn rule_ids() -> Vec<&'static str> {
    registry().iter().map(|r| r.id()).collect()
}

/// True when `code[i..]` starts a method call `.name(`.
pub(crate) fn method_call(code: &[Tok], i: usize, name: &str) -> bool {
    code[i].is_punct('.')
        && code.get(i + 1).is_some_and(|t| t.is_ident(name))
        && code.get(i + 2).is_some_and(|t| t.is_punct('('))
}

/// True when `code[i..]` starts a macro invocation `name!(`/`name![`/`name!{`.
pub(crate) fn macro_call(code: &[Tok], i: usize, name: &str) -> bool {
    code[i].is_ident(name)
        && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        && code
            .get(i + 2)
            .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
}
