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
//! parser records (`parser::ClosureExpr`), with enclosing bindings
//! taken from the enclosing fn's parameters and the parser's `let`s:
//!
//! * **`shared-mut-in-par-closure`** — a parallel closure assigns to,
//!   takes `&mut` of, or calls a mutating method (`push`, `insert`, …)
//!   on a binding declared in the enclosing function. Even when it
//!   compiles (scoped spawns may mutably capture disjoint locals), the
//!   result depends on which worker ran — fan-out must return values
//!   and join in spawn order instead.
//! * **`interior-mut-crosses-threads`** — a parallel closure captures a
//!   binding of an interior-mutability type (`RefCell`, `Cell`, `Rc`)
//!   or touches a `static mut`. Shared interior state makes per-worker
//!   results order-dependent (and `RefCell`/`Rc` are not `Sync` — the
//!   "fix" is usually a lock, which trades the compile error for
//!   nondeterminism). Atomics are deliberately *not* flagged: monotonic
//!   progress tracking is the sanctioned pattern.
//! * **`rng-unforked-in-par`** — a binding that holds an RNG stream is
//!   referenced inside the closure other than through a per-item
//!   `fork` whose label derives from a closure parameter, on the
//!   binding or through its fields (`ctx.rng.fork(i)`). A binding holds
//!   a stream when its type or initializer names `SimRng` or an *rng
//!   carrier* (a struct that transitively holds one), or when it was
//!   seeded or forked. Handing a carrier to a helper is itself such a
//!   reference, so no call graph is needed. Draws would interleave in
//!   worker order; each item must fork (or seed) its own child keyed on
//!   the item index.
//!
//! Known approximations (documented in DESIGN.md): closures handed to
//! `WorkerPool::map` method calls are not seen, because matching `.map(`
//! by name would also catch every `Iterator::map`. Capture detection is
//! name-based, so a shadowing `let` inside the closure exempts the name
//! (under-approximation), while a binding declared in a *sibling*
//! closure earlier in the same function is treated as enclosing
//! (over-approximation). The mutating-method list is a fixed
//! vocabulary; `&mut self` methods outside it are not seen.

use crate::lexer::{Token, TokenKind};
use crate::parser::ClosureExpr;
use crate::rules::Diagnostic;
use crate::source::{interior, match_delim, FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Types whose capture into a parallel closure is flagged (shared with
/// the v4 `interior-mut` effect scan).
pub(crate) const INTERIOR_MUT: &[&str] = &["RefCell", "Cell", "Rc"];

/// Methods that mutate their receiver — the fixed vocabulary the
/// shared-mutation finding keys on.
const MUT_METHODS: &[&str] = &[
    "push", "push_str", "insert", "remove", "clear", "extend", "pop", "drain", "append",
    "truncate", "sort", "sort_by", "sort_unstable", "retain",
];

/// What the analysis knows about one enclosing binding.
#[derive(Debug, Clone, Default)]
struct Binding {
    /// Binding holds an RNG stream (a `SimRng` or rng-carrier value, a
    /// seeded root or a fork child — any of them drawn per-item across
    /// workers is a bug).
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
    let carriers = rng_carrier_types(files);
    for f in files {
        let closures = parallel_closures(f);
        if closures.is_empty() {
            continue;
        }
        let static_muts = static_mut_names(f);
        for c in closures {
            if !f.in_cfg_test(c.start) {
                check_closure(f, c, &carriers, &static_muts, out);
            }
        }
    }
}

/// Struct names that (transitively) hold a `SimRng` field, plus
/// `SimRng` itself. One fixpoint over the workspace's struct defs.
fn rng_carrier_types(files: &[SourceFile]) -> BTreeSet<String> {
    let mut carriers: BTreeSet<String> = BTreeSet::new();
    carriers.insert("SimRng".to_string());
    loop {
        let mut grew = false;
        for f in files {
            if f.kind != FileKind::Lib {
                continue;
            }
            for st in &f.parsed.structs {
                if carriers.contains(&st.name) {
                    continue;
                }
                let holds = st.fields.iter().any(|field| {
                    field
                        .ty
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .any(|seg| carriers.contains(seg))
                });
                if holds {
                    carriers.insert(st.name.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            return carriers;
        }
    }
}

/// The closures handed to a parallel primitive: arguments of a
/// `pool_map(...)` call or a `.spawn(...)` method call, outermost only
/// (a `.map(|x| …)` nested inside a spawned closure runs on the same
/// worker and is analyzed as part of the outer body).
fn parallel_closures(f: &SourceFile) -> Vec<&ClosureExpr> {
    let toks = &f.tokens;
    let mut candidates: Vec<&ClosureExpr> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_pool_map = t.is_ident("pool_map");
        let is_spawn = t.is_ident("spawn") && i >= 1 && toks[i - 1].is_punct('.');
        if !(is_pool_map || is_spawn) || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let close = match_delim(toks, i + 1);
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
    carriers: &BTreeSet<String>,
    static_muts: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.tokens;
    let bindings = enclosing_bindings(f, c, carriers);
    let locals = closure_locals(f, c);
    let (lo, hi) = c.body;
    let hi = hi.min(toks.len().saturating_sub(1));
    // One finding per (rule, name) per closure: the first offending
    // reference anchors the diagnostic.
    let mut reported: BTreeSet<(&'static str, String)> = BTreeSet::new();
    let mut report = |rule: &'static str, name: &str, line: usize, hint: String| {
        if reported.insert((rule, name.to_string())) {
            out.push(Diagnostic::new(f, rule, line, hint));
        }
    };
    for j in lo..=hi {
        let TokenKind::Ident(name) = &toks[j].kind else { continue };
        let line = toks[j].line;
        if static_muts.contains(name.as_str()) {
            report("interior-mut-crosses-threads", name, line, format!(
                "`static mut {name}` is touched from a parallel closure; worker order decides the value — pass per-item state in, return results out"
            ));
            continue;
        }
        if locals.contains(name.as_str()) {
            continue;
        }
        let Some(info) = bindings.get(name.as_str()) else { continue };
        if let Some(ty) = info.interior {
            report("interior-mut-crosses-threads", name, line, format!(
                "`{name}` ({ty}) is captured by a parallel closure; interior mutability shared across workers makes results order-dependent — build per-item state inside the closure"
            ));
        }
        if info.is_rng && !is_per_item_fork(toks, j, &c.params) {
            report("rng-unforked-in-par", name, line, format!(
                "stream `{name}` crosses into a parallel closure without a per-item fork; draws interleave in worker order — use `{name}.fork(<label from the item index>)` (or seed per item)"
            ));
        }
        if mutates(toks, j, hi) {
            report("shared-mut-in-par-closure", name, line, format!(
                "parallel closure mutates enclosing binding `{name}`; which worker wrote last is scheduling-dependent — return per-item values and join in spawn order"
            ));
        }
    }
}

/// Bindings visible to the closure from its enclosing function:
/// parameters plus every `let` before the closure's opening `|`.
fn enclosing_bindings(
    f: &SourceFile,
    c: &ClosureExpr,
    carriers: &BTreeSet<String>,
) -> BTreeMap<String, Binding> {
    let mut bindings: BTreeMap<String, Binding> = BTreeMap::new();
    let Some(sig) = f.enclosing_fn(c.start) else {
        return bindings;
    };
    let carrier = |w: &str| carriers.contains(w);
    for p in sig.params.iter().filter(|p| !p.name.is_empty()) {
        let mut segments = p.ty.split(|c: char| !c.is_alphanumeric() && c != '_');
        let binding = Binding {
            is_rng: segments.any(carrier),
            interior: INTERIOR_MUT.iter().find(|t| p.ty.contains(*t)).copied(),
        };
        bindings.insert(p.name.clone(), binding);
    }
    let open = sig.body.map_or(c.start, |(open, _)| open);
    for l in f.parsed.lets_in(open, c.start) {
        // Type annotation and initializer.
        let tail = l.tail(&f.tokens);
        let mentions = |needle: &str| tail.iter().any(|t| t.is_ident(needle));
        let names_carrier = tail
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Ident(w) if carrier(w)));
        let forked = tail
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("fork"));
        let binding = Binding {
            is_rng: names_carrier || mentions("seed_from_u64") || forked,
            interior: INTERIOR_MUT.iter().find(|t| mentions(t)).copied(),
        };
        for name in &l.names {
            bindings.insert(name.clone(), binding.clone());
        }
    }
    bindings
}

/// Names bound *inside* the closure — its own parameters, parameters of
/// closures nested in its body, `let` bindings, and `for` patterns.
/// References to these never cross the thread boundary.
fn closure_locals(f: &SourceFile, c: &ClosureExpr) -> BTreeSet<String> {
    let toks = &f.tokens;
    let mut locals: BTreeSet<String> = c.params.iter().cloned().collect();
    for nested in &f.parsed.closures {
        if nested.start > c.body.0 && nested.start <= c.body.1 {
            locals.extend(nested.params.iter().cloned());
        }
    }
    let (lo, hi) = c.body;
    for l in f.parsed.lets_in(lo, hi + 1) {
        locals.extend(l.names.iter().cloned());
    }
    let hi = hi.min(toks.len().saturating_sub(1));
    let mut j = lo;
    while j <= hi {
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

/// True when the reference at `j` forks a per-item child — `name.fork(…)`,
/// or `name.field.fork(…)` through any fields — with a label that
/// involves a closure parameter: the sanctioned per-item pattern.
fn is_per_item_fork(toks: &[Token], j: usize, params: &[String]) -> bool {
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    let mut k = j + 1;
    while punct(k, '.') && punct(k + 2, '.') {
        k += 2;
    }
    let fork = toks.get(k + 1).is_some_and(|t| t.is_ident("fork"));
    if !(punct(k, '.') && fork && punct(k + 2, '(')) {
        return false;
    }
    let (label, _) = interior(toks, k + 2);
    label
        .iter()
        .any(|t| matches!(&t.kind, TokenKind::Ident(w) if params.contains(w)))
}

/// True when the ident at `j` is written through: plain or compound
/// assignment, `&mut` borrow, or a mutating method call.
fn mutates(toks: &[Token], j: usize, body_end: usize) -> bool {
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
        let src = "fn f(items: &[u64]) {\n  let memo = RefCell::new(0u64);\n  pool_map(items, 4, |_, &x| *memo.borrow() ^ x);\n}";
        assert_eq!(hits(src), [("interior-mut-crosses-threads", 3)]);
        // Building the cell inside the closure is per-worker state.
        let ok = "fn f(items: &[u64]) {\n  pool_map(items, 4, |_, &x| { let memo = RefCell::new(x); *memo.borrow() });\n}";
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
    fn carrier_struct_reaching_par_closure_through_helper_flags() {
        let src = "pub struct Ctx { pub rng: SimRng }\nfn jitter(x: u64, ctx: &mut Ctx) -> u64 { x ^ ctx.rng.next_u64() }\npub fn batched(items: &[u64], ctx: &mut Ctx) -> Vec<u64> {\n  pool_map(items, 4, |_, &x| jitter(x, ctx))\n}";
        assert_eq!(hits(src), [("rng-unforked-in-par", 4)]);
    }

    #[test]
    fn per_item_fork_from_the_carrier_is_clean() {
        let src = "pub struct Ctx { pub rng: SimRng }\nfn scramble(x: u64, r: &mut SimRng) -> u64 { x ^ r.next_u64() }\npub fn batched(items: &[u64], ctx: &mut Ctx) -> Vec<u64> {\n  pool_map(items, 4, |i, &x| { let mut child = ctx.rng.fork(4000 + i); scramble(x, &mut child) })\n}";
        assert!(hits(src).is_empty());
        // Forking in the argument list is the same per-item child (the
        // `&mut ctx…` borrow is the shared-mutation rule's business).
        let inline = "pub struct Ctx { pub rng: SimRng }\npub fn batched(items: &[u64], ctx: &mut Ctx) -> Vec<u64> {\n  pool_map(items, 4, |i, &x| scramble(x, &mut ctx.rng.fork(i)))\n}";
        let rules: Vec<_> = hits(inline).into_iter().map(|(rule, _)| rule).collect();
        assert!(!rules.contains(&"rng-unforked-in-par"), "{rules:?}");
    }

    #[test]
    fn let_bound_and_nested_carriers_flag() {
        let bound = "pub struct Ctx { pub rng: SimRng }\nfn f(items: &[u64]) -> Vec<u64> {\n  let ctx = Ctx::new(7);\n  pool_map(items, 4, |_, &x| jitter(x, &ctx))\n}";
        assert_eq!(hits(bound), [("rng-unforked-in-par", 4)]);
        let nested = "pub struct Inner { rng: SimRng }\npub struct Outer { inner: Inner }\nfn f(items: &[u64], o: &mut Outer) -> Vec<u64> {\n  pool_map(items, 4, |_, &x| o.inner.rng.next_u64() ^ x)\n}";
        assert_eq!(hits(nested), [("rng-unforked-in-par", 4)]);
        let forked = "pub struct Inner { rng: SimRng }\npub struct Outer { inner: Inner }\nfn f(items: &[u64], o: &mut Outer) -> Vec<u64> {\n  pool_map(items, 4, |i, &x| o.inner.rng.fork(i).next_u64() ^ x)\n}";
        assert!(hits(forked).is_empty());
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
