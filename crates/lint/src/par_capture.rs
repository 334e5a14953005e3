//! Parallel-capture analysis: what a closure drags across a thread
//! boundary. `movr_sim::pool_map` and `std::thread::scope` spawns are
//! the fan-out calls the analysis recognises, and their determinism
//! guarantee ("byte-identical at any thread count") holds *only* when
//! worker closures share nothing mutable and draw no randomness from a
//! stream owned outside the closure. The borrow checker stops the
//! crudest versions of those bugs; the patterns that compile —
//! interior mutability smuggled through `RefCell`/`Rc`, a `static mut`,
//! or an RNG handle drawn from per-item in closure-capture order — are
//! exactly the ones that destroy bit-identity silently.
//!
//! Three findings, evaluated over the closure expressions the item
//! parser records (`parser::ClosureExpr`), with enclosing-binding
//! context collected the same way `rng_flow` collects stream origins:
//!
//! * **`shared-mut-in-par-closure`** — a parallel closure assigns to,
//!   takes `&mut` of, or calls a mutating method (`push`, `insert`, …)
//!   on a binding declared in the enclosing function. Even when it
//!   compiles (scoped spawns may mutably capture disjoint locals), the
//!   result depends on which worker ran — fan-out must return values
//!   and join in spawn order instead.
//! * **`interior-mut-crosses-threads`** — a parallel closure captures a
//!   binding of an interior-mutability type (`RefCell`, `Cell`, `Rc`,
//!   the sweep bench's `MemoPattern` gain memo) or touches a
//!   `static mut`. Shared interior state makes per-worker results
//!   order-dependent (and `RefCell`/`Rc` are not `Sync` — the "fix" is
//!   usually a lock, which trades the compile error for
//!   nondeterminism). Atomics are deliberately *not* flagged: monotonic
//!   progress tracking is the sanctioned pattern.
//! * **`rng-unforked-in-par`** — a `SimRng` stream owned outside the
//!   closure is referenced inside it other than through a per-item
//!   `fork` whose label derives from a closure parameter. Draws would
//!   interleave in worker order; each item must fork (or seed) its own
//!   child keyed on the item index.
//!
//! Known approximations (documented in DESIGN.md): closures handed to
//! `WorkerPool::map` method calls are not seen, because matching `.map(`
//! by name would also catch every `Iterator::map`. Capture detection is
//! name-based, so a shadowing `let` inside the closure exempts the name
//! (under-approximation), while a binding declared in a *sibling*
//! closure earlier in the same function is treated as enclosing
//! (over-approximation). The mutating-method list is a fixed
//! vocabulary; `&mut self` methods outside it are not seen.

use crate::lexer::TokenKind;
use crate::parser::ClosureExpr;
use crate::rules::Diagnostic;
use crate::source::{match_delim_pub, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Types whose capture into a parallel closure is flagged (shared with
/// the v4 `interior-mut` effect scan).
pub(crate) const INTERIOR_MUT: &[&str] = &["RefCell", "Cell", "Rc", "MemoPattern"];

/// Methods that mutate their receiver — the fixed vocabulary the
/// shared-mutation finding keys on.
const MUT_METHODS: &[&str] = &[
    "push", "push_str", "insert", "remove", "clear", "extend", "pop", "drain", "append",
    "truncate", "sort", "sort_by", "sort_unstable", "retain",
];

/// What the analysis knows about one enclosing binding.
#[derive(Debug, Clone, Default)]
struct Binding {
    /// Binding is a `SimRng` stream (typed param, seeded root, or fork
    /// child — any of them drawn per-item across workers is a bug).
    is_rng: bool,
    /// The interior-mutability type mentioned in its type or
    /// initializer, if any.
    interior: Option<&'static str>,
}

/// Runs the parallel-capture analysis over every file. Benches,
/// examples, and binaries are *included* — drivers feed the golden
/// fingerprints, so a nondeterministic fan-out there corrupts exactly
/// the artifacts the repo pins. Only `#[cfg(test)]` ranges are exempt.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        check_file(f, out);
    }
}

fn diag(f: &SourceFile, rule: &'static str, line: usize, hint: String) -> Diagnostic {
    Diagnostic { rule, file: f.rel.clone(), line, snippet: f.snippet(line), hint }
}

fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let closures = parallel_closures(f);
    if closures.is_empty() {
        return;
    }
    let static_muts = static_mut_names(f);
    for c in closures {
        if f.in_cfg_test(c.start) {
            continue;
        }
        check_closure(f, c, &static_muts, out);
    }
}

/// The closures handed to a parallel primitive: arguments of a
/// `pool_map(...)` call or a `.spawn(...)` method call, outermost only
/// (a `.map(|x| …)` nested inside a spawned closure runs on the same
/// worker and is analyzed as part of the outer body).
pub(crate) fn parallel_closures(f: &SourceFile) -> Vec<&ClosureExpr> {
    let toks = &f.tokens;
    let mut candidates: Vec<&ClosureExpr> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_pool_map = t.is_ident("pool_map");
        let is_spawn = t.is_ident("spawn") && i >= 1 && toks[i - 1].is_punct('.');
        if !(is_pool_map || is_spawn) || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let close = match_delim_pub(toks, i + 1, '(', ')');
        for c in &f.parsed.closures {
            if c.start > i + 1 && c.start < close {
                candidates.push(c);
            }
        }
    }
    // Keep outermost candidates only.
    let starts: Vec<(usize, (usize, usize))> =
        candidates.iter().map(|c| (c.start, c.body)).collect();
    candidates.retain(|c| {
        !starts
            .iter()
            .any(|&(start, body)| start < c.start && body.0 <= c.start && c.start <= body.1)
    });
    candidates.dedup_by_key(|c| c.start);
    candidates
}

/// Names of `static mut` items declared anywhere in the file.
fn static_mut_names(f: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for w in f.tokens.windows(3) {
        if w[0].is_ident("static") && w[1].is_ident("mut") {
            if let TokenKind::Ident(name) = &w[2].kind {
                out.insert(name.clone());
            }
        }
    }
    out
}

fn check_closure(
    f: &SourceFile,
    c: &ClosureExpr,
    static_muts: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.tokens;
    let bindings = enclosing_bindings(f, c);
    let locals = closure_locals(f, c);
    let (lo, hi) = c.body;
    let hi = hi.min(toks.len().saturating_sub(1));
    // One finding per (rule, name) per closure: the first offending
    // reference anchors the diagnostic.
    let mut reported: BTreeSet<(&'static str, String)> = BTreeSet::new();
    for j in lo..=hi {
        let TokenKind::Ident(name) = &toks[j].kind else { continue };
        if static_muts.contains(name.as_str()) {
            if reported.insert(("interior-mut-crosses-threads", name.clone())) {
                out.push(diag(
                    f,
                    "interior-mut-crosses-threads",
                    toks[j].line,
                    format!(
                        "`static mut {name}` is touched from a parallel closure; worker order decides the value — pass per-item state in, return results out"
                    ),
                ));
            }
            continue;
        }
        if locals.contains(name.as_str()) {
            continue;
        }
        let Some(info) = bindings.get(name.as_str()) else { continue };
        if let Some(ty) = info.interior {
            if reported.insert(("interior-mut-crosses-threads", name.clone())) {
                out.push(diag(
                    f,
                    "interior-mut-crosses-threads",
                    toks[j].line,
                    format!(
                        "`{name}` ({ty}) is captured by a parallel closure; interior mutability shared across workers makes results order-dependent — build per-item state inside the closure"
                    ),
                ));
            }
        }
        if info.is_rng && !is_per_item_fork(toks, j, hi, &c.params) {
            if reported.insert(("rng-unforked-in-par", name.clone())) {
                out.push(diag(
                    f,
                    "rng-unforked-in-par",
                    toks[j].line,
                    format!(
                        "stream `{name}` crosses into a parallel closure without a per-item fork; draws interleave in worker order — use `{name}.fork(<label from the item index>)` (or seed per item)"
                    ),
                ));
            }
        }
        if mutates(toks, j, hi) {
            if reported.insert(("shared-mut-in-par-closure", name.clone())) {
                out.push(diag(
                    f,
                    "shared-mut-in-par-closure",
                    toks[j].line,
                    format!(
                        "parallel closure mutates enclosing binding `{name}`; which worker wrote last is scheduling-dependent — return per-item values and join in spawn order"
                    ),
                ));
            }
        }
    }
}

/// Bindings visible to the closure from its enclosing function:
/// parameters plus every `let` before the closure's opening `|`.
fn enclosing_bindings(f: &SourceFile, c: &ClosureExpr) -> BTreeMap<String, Binding> {
    let toks = &f.tokens;
    let mut bindings: BTreeMap<String, Binding> = BTreeMap::new();
    // Innermost fn whose body contains the closure.
    let sig = f
        .parsed
        .fns
        .iter()
        .filter(|s| {
            s.body
                .is_some_and(|(open, close)| open <= c.start && c.start <= close)
        })
        .min_by_key(|s| {
            let (open, close) = s.body.expect("filtered on body");
            close - open
        });
    let Some(sig) = sig else {
        return bindings;
    };
    for p in &sig.params {
        if p.name.is_empty() {
            continue;
        }
        bindings.insert(
            p.name.clone(),
            Binding {
                is_rng: p.ty.contains("SimRng"),
                interior: INTERIOR_MUT.iter().find(|t| p.ty.contains(*t)).copied(),
            },
        );
    }
    let (open, _) = sig.body.expect("filtered on body");
    let mut i = open;
    while i < c.start {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(TokenKind::Ident(name)) = toks.get(j).map(|t| &t.kind) {
                // Type annotation and initializer, to the statement end.
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct(';') {
                    k += 1;
                }
                let rest = &toks[j + 1..k.min(toks.len())];
                let mentions = |needle: &str| rest.iter().any(|t| t.is_ident(needle));
                let forked = rest
                    .windows(2)
                    .any(|w| w[0].is_punct('.') && w[1].is_ident("fork"));
                bindings.insert(
                    name.clone(),
                    Binding {
                        is_rng: mentions("SimRng") || mentions("seed_from_u64") || forked,
                        interior: INTERIOR_MUT.iter().find(|t| mentions(t)).copied(),
                    },
                );
                i = k;
                continue;
            }
        }
        i += 1;
    }
    bindings
}

/// Names bound *inside* the closure — its own parameters, parameters of
/// closures nested in its body, `let` bindings, and `for` patterns.
/// References to these never cross the thread boundary.
pub(crate) fn closure_locals(f: &SourceFile, c: &ClosureExpr) -> BTreeSet<String> {
    let toks = &f.tokens;
    let mut locals: BTreeSet<String> = c.params.iter().cloned().collect();
    for nested in &f.parsed.closures {
        if nested.start > c.body.0 && nested.start <= c.body.1 {
            locals.extend(nested.params.iter().cloned());
        }
    }
    let (lo, hi) = c.body;
    let hi = hi.min(toks.len().saturating_sub(1));
    let mut j = lo;
    while j <= hi {
        if toks[j].is_ident("let") {
            // All pattern idents up to the `=` (or type `:`).
            let mut k = j + 1;
            while k <= hi && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                if toks[k].is_punct(':') {
                    break;
                }
                if let TokenKind::Ident(w) = &toks[k].kind {
                    if w != "mut" && w != "ref" {
                        locals.insert(w.clone());
                    }
                }
                k += 1;
            }
            j = k;
            continue;
        }
        if toks[j].is_ident("for") {
            let mut k = j + 1;
            while k <= hi && !toks[k].is_ident("in") && !toks[k].is_punct('{') {
                if let TokenKind::Ident(w) = &toks[k].kind {
                    if w != "mut" && w != "ref" {
                        locals.insert(w.clone());
                    }
                }
                k += 1;
            }
            j = k;
            continue;
        }
        j += 1;
    }
    locals
}

/// True when the reference at `j` is `name.fork(…)` with a label that
/// involves a closure parameter — the sanctioned per-item pattern.
fn is_per_item_fork(
    toks: &[crate::lexer::Token],
    j: usize,
    body_end: usize,
    params: &[String],
) -> bool {
    if !toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        || !toks.get(j + 2).is_some_and(|t| t.is_ident("fork"))
        || !toks.get(j + 3).is_some_and(|t| t.is_punct('('))
    {
        return false;
    }
    let close = match_delim_pub(toks, j + 3, '(', ')').min(body_end);
    toks[j + 4..=close]
        .iter()
        .any(|t| matches!(&t.kind, TokenKind::Ident(w) if params.iter().any(|p| p == w)))
}

/// True when the ident at `j` is written through: plain or compound
/// assignment, `&mut` borrow, or a mutating method call.
fn mutates(toks: &[crate::lexer::Token], j: usize, body_end: usize) -> bool {
    // `&mut name`
    if j >= 2 && toks[j - 2].is_punct('&') && toks[j - 1].is_ident("mut") {
        return true;
    }
    let Some(next) = toks.get(j + 1) else { return false };
    if j + 1 > body_end {
        return false;
    }
    // `name = …` (not `==`, `=>`)
    if next.is_punct('=') {
        return !toks
            .get(j + 2)
            .is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
    }
    // `name += …` and friends
    if let TokenKind::Punct(c) = next.kind {
        if matches!(c, '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|')
            && toks.get(j + 2).is_some_and(|t| t.is_punct('='))
        {
            return true;
        }
    }
    // `name.push(…)` — fixed mutating vocabulary
    if next.is_punct('.') {
        if let Some(TokenKind::Ident(m)) = toks.get(j + 2).map(|t| &t.kind) {
            return MUT_METHODS.contains(&m.as_str())
                && toks.get(j + 3).is_some_and(|t| t.is_punct('('));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(src: &str) -> Vec<(&'static str, usize)> {
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &mut out);
        out.into_iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn mutable_capture_in_pool_map_flags() {
        let src = "fn f(items: &[u64]) -> u64 {\n  let mut total = 0u64;\n  pool_map(items, 4, |_, &x| { total += x; x });\n  total\n}";
        assert_eq!(hits(src), [("shared-mut-in-par-closure", 3)]);
    }

    #[test]
    fn spawn_push_flags_and_scope_closure_does_not() {
        let src = "fn f(shared: &mut Vec<u64>) {\n  std::thread::scope(|scope| {\n    scope.spawn(|| shared.push(1));\n  });\n}";
        assert_eq!(hits(src), [("shared-mut-in-par-closure", 3)]);
        // Mutating from the *scope* closure (caller thread) is fine.
        let ok = "fn f(shared: &mut Vec<u64>) {\n  std::thread::scope(|scope| {\n    shared.push(1);\n  });\n}";
        assert!(hits(ok).is_empty());
    }

    #[test]
    fn interior_mut_capture_flags() {
        let src = "fn f(items: &[u64]) {\n  let memo = MemoPattern::new(1.0);\n  pool_map(items, 4, |_, &x| memo.gain(x));\n}";
        assert_eq!(hits(src), [("interior-mut-crosses-threads", 3)]);
        // Building the table inside the closure is per-worker state.
        let ok = "fn f(items: &[u64]) {\n  pool_map(items, 4, |_, &x| { let memo = MemoPattern::new(1.0); memo.gain(x) });\n}";
        assert!(hits(ok).is_empty());
    }

    #[test]
    fn static_mut_is_flagged_even_unbound() {
        let src = "static mut HITS: u64 = 0;\nfn f(items: &[u64]) {\n  pool_map(items, 4, |_, &x| unsafe { HITS += x });\n}";
        assert_eq!(hits(src), [("interior-mut-crosses-threads", 3)]);
    }

    #[test]
    fn unforked_rng_flags_and_per_item_fork_passes() {
        let bad = "fn f(items: &[u64], rng: &mut SimRng) {\n  pool_map(items, 4, |_, &x| rng.next_u64() ^ x);\n}";
        assert_eq!(hits(bad), [("rng-unforked-in-par", 2)]);
        let ok = "fn f(items: &[u64], rng: &mut SimRng) {\n  pool_map(items, 4, |i, &x| { let mut child = rng.fork(1000 + i); child.next_u64() ^ x });\n}";
        assert!(hits(ok).is_empty());
        // A fork whose label ignores the item is still shared order.
        let still_bad = "fn f(items: &[u64], rng: &mut SimRng) {\n  pool_map(items, 4, |i, &x| { let mut child = rng.fork(7); child.next_u64() ^ x });\n}";
        assert_eq!(hits(still_bad), [("rng-unforked-in-par", 2)]);
    }

    #[test]
    fn closure_locals_and_read_only_captures_pass() {
        let ok = "fn f(items: &[u64], scale: u64) -> Vec<u64> {\n  pool_map(items, 4, |_, &x| { let mut acc = 0; acc += x; acc * scale })\n}";
        assert!(hits(ok).is_empty());
    }

    #[test]
    fn cfg_test_parallel_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(items: &[u64]) { let mut n = 0; pool_map(items, 2, |_, &x| { n += x; x }); }\n}";
        assert!(hits(src).is_empty());
    }
}
