//! Determinism rules.
//!
//! `os-thread-in-sim`: the simulator runs every workload as a coroutine on
//! one thread, so an OS thread in the simulated-time crates or the
//! workloads would bring host scheduling back into a run.
//!
//! `nondeterministic-iteration`: hash-order iteration in crates whose
//! output feeds checksums, metrics JSON, bench cache keys or committed
//! golden files.
//!
//! This is the rule the old line scanner could not express: it needs to
//! know *which names* in a file are bound to `HashMap`/`HashSet` before it
//! can object to `name.iter()`. The binder is token-level and per-file:
//! it records names from field declarations and let-bindings
//! (`name: HashMap<…>`, `let name = HashMap::new()`, `let mut name:
//! HashSet<…> = …`), then flags order-dependent consumption of those
//! names — iteration adapters and order-sensitive visitors like
//! `retain`/`drain`, plus direct `for … in name` loops. Point lookups
//! (`get`, `entry`, `insert`, `contains_key`) stay silent: they are
//! order-free. Sites that sort after collecting are true negatives —
//! suppress them with a `lint: allow` naming the sort.

use std::collections::BTreeSet;

use crate::config::{
    in_dirs, DETERMINISTIC_OUTPUT_DIRS, SIMULATED_TIME_DIRS, THREAD_ADAPTER_FILES, WORKLOAD_DIRS,
};
use crate::diag::Diagnostic;
use crate::engine::{FileCtx, Rule};
use crate::lexer::{Tok, TokKind};

/// `std::thread` items that start an OS thread.
const THREAD_STARTERS: &[&str] = &["spawn", "Builder", "scope"];

/// `os-thread-in-sim`: no `thread::spawn`/`Builder`/`scope` (by path or
/// imported from `std::thread`) in the simulated-time crates or the
/// workloads.
pub struct OsThreadInSim;

impl Rule for OsThreadInSim {
    fn id(&self) -> &'static str {
        "os-thread-in-sim"
    }
    fn summary(&self) -> &'static str {
        "no `thread::spawn`/`Builder`/`scope` in simulated-time crates or workloads"
    }
    fn applies(&self, rel: &str) -> bool {
        (in_dirs(rel, SIMULATED_TIME_DIRS) || in_dirs(rel, WORKLOAD_DIRS))
            && !THREAD_ADAPTER_FILES.contains(&rel)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            let path = code[i].is_ident("thread")
                && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 2).is_some_and(|t| t.is_punct(':'));
            if !path {
                continue;
            }
            // `thread::spawn` or `thread::{…, spawn, …}`.
            let items = match code.get(i + 3) {
                Some(t) if t.is_punct('{') => {
                    let end = code[i + 3..]
                        .iter()
                        .position(|t| t.is_punct('}'))
                        .map_or(code.len(), |k| i + 3 + k);
                    &code[i + 4..end]
                }
                Some(_) => &code[i + 3..i + 4],
                None => &[],
            };
            for t in items {
                if t.kind == TokKind::Ident && THREAD_STARTERS.contains(&t.text.as_str()) {
                    out.push(ctx.diag(
                        t,
                        self.id(),
                        format!(
                            "`thread::{}` in a crate that runs on the simulator thread \
                             (workloads are coroutines)",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Methods whose results (or visit order) depend on hash order.
const ORDER_DEPENDENT: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

pub struct NondeterministicIteration;

impl Rule for NondeterministicIteration {
    fn id(&self) -> &'static str {
        "nondeterministic-iteration"
    }
    fn summary(&self) -> &'static str {
        "no hash-order iteration in crates feeding checksums, metrics or cache keys"
    }
    fn applies(&self, rel: &str) -> bool {
        in_dirs(rel, DETERMINISTIC_OUTPUT_DIRS)
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
        let names = bind_hash_names(&ctx.code);
        if names.is_empty() {
            return;
        }
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = &code[i];
            if t.kind != TokKind::Ident || !names.contains(t.text.as_str()) {
                continue;
            }
            // `name.method(` with an order-dependent method.
            let method = code
                .get(i + 1)
                .filter(|d| d.is_punct('.'))
                .and_then(|_| code.get(i + 2))
                .filter(|m| {
                    m.kind == TokKind::Ident
                        && ORDER_DEPENDENT.contains(&m.text.as_str())
                        && code.get(i + 3).is_some_and(|p| p.is_punct('('))
                });
            if let Some(m) = method {
                out.push(ctx.diag(
                    m,
                    self.id(),
                    format!(
                        "hash-order `{}.{}(…)` in a deterministic-output crate — use a \
                         BTree collection or sort before consuming",
                        t.text, m.text
                    ),
                ));
                continue;
            }
            // `for x in [&[mut]] name {` / `for x in [&[mut]] self.name {`.
            let mut j = i;
            if j >= 2 && code[j - 1].is_punct('.') && code[j - 2].is_ident("self") {
                j -= 2;
            }
            let mut k = j;
            while k > 0 && (code[k - 1].is_punct('&') || code[k - 1].is_ident("mut")) {
                k -= 1;
            }
            let in_loop = k > 0 && code[k - 1].is_ident("in");
            let body_next = code.get(i + 1).is_some_and(|n| n.is_punct('{'));
            if in_loop && body_next {
                out.push(ctx.diag(
                    t,
                    self.id(),
                    format!(
                        "hash-order `for … in {}` in a deterministic-output crate — use a \
                         BTree collection or sort first",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Names bound to `HashMap`/`HashSet` anywhere in the file: field or
/// binding type ascriptions (`name: HashMap<…>`) and constructor bindings
/// (`let [mut] name = HashMap::new/with_capacity/from(…)`).
fn bind_hash_names(code: &[Tok]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        let t = &code[i];
        let is_hash = t.is_ident("HashMap") || t.is_ident("HashSet");
        if !is_hash {
            continue;
        }
        // `name : [std :: collections ::] HashMap` — walk back over the path.
        let mut j = i;
        while j >= 2 && code[j - 1].is_punct(':') && code[j - 2].is_punct(':') {
            if j >= 3 && code[j - 3].kind == TokKind::Ident {
                j -= 3;
            } else {
                break;
            }
        }
        if j >= 2 && code[j - 1].is_punct(':') && !code[j - 2].is_punct(':') {
            if let Some(name) = code.get(j - 2).filter(|n| n.kind == TokKind::Ident) {
                names.insert(name.text.as_str());
                continue;
            }
        }
        // `let [mut] name = HashMap :: new (` — walk back over `=`.
        let ctor = code.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && code.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && code.get(i + 3).is_some_and(|m| {
                m.is_ident("new") || m.is_ident("with_capacity") || m.is_ident("from")
            });
        if ctor && j >= 2 && code[j - 1].is_punct('=') && code[j - 2].kind == TokKind::Ident {
            names.insert(code[j - 2].text.as_str());
        }
    }
    names
}
