//! Asymptotics rules: the event core and the network are the two
//! subsystems whose per-event cost multiplies by the cluster size, so an
//! accidental O(n) container scan there turns a 256-node run quadratic.

use crate::config::{in_dirs, HOT_SCAN_DIRS};
use crate::diag::Diagnostic;
use crate::engine::{FileCtx, Rule};
use crate::rules::method_call;

/// `linear-scan-in-hot-path`: `Vec::remove` (shifting) and `retain`
/// (full-container walk) are forbidden in the event-core and network
/// crates unless the site carries a `// linear:` comment bounding the
/// scan. The keyed event heap and the indexed router exist precisely
/// because these scans, harmless at 4 nodes, dominated at 256; this rule
/// keeps them from creeping back. `swap_remove` stays legal — it is O(1).
pub struct LinearScanInHotPath;

impl Rule for LinearScanInHotPath {
    fn id(&self) -> &'static str {
        "linear-scan-in-hot-path"
    }
    fn summary(&self) -> &'static str {
        "`.remove(…)`/`.retain(…)` in event-core/network crates need a `// linear:` bound"
    }
    fn applies(&self, rel: &str) -> bool {
        in_dirs(rel, HOT_SCAN_DIRS)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            if !(method_call(code, i, "remove") || method_call(code, i, "retain")) {
                continue;
            }
            let tok = &code[i + 1];
            if !ctx.justified(tok.line, "linear:") {
                out.push(ctx.diag(
                    tok,
                    self.id(),
                    format!(
                        "`.{}(…)` in an event-core/network hot path without a \
                         `// linear:` comment bounding the scan (prefer \
                         `swap_remove`, an index, or a heap)",
                        tok.text
                    ),
                ));
            }
        }
    }
}
