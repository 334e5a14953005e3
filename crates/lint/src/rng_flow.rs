//! RNG-stream dataflow: every `SimRng` stream must be a distinct,
//! labelled fork. Determinism survives refactors only when subsystems
//! own independent child streams — two handles onto the *same* stream
//! state, or streams whose labels collide, silently correlate results
//! the moment a call order changes.
//!
//! Three findings, tracked per function body through locals and call
//! boundaries (the item parser provides signatures and body ranges):
//!
//! * **`rng-fork-aliased`** — `.clone()` on a `SimRng` value. A clone
//!   replays the parent's exact draw sequence; the aliased streams stay
//!   bit-correlated forever. Fork a labelled child instead.
//! * **`rng-fork-in-loop`** — `.fork(<literal>)` inside a `for`/
//!   `while`/`loop` body. The label cannot vary per iteration, so the
//!   per-iteration streams are distinguished only by the parent's call
//!   order — exactly the order-dependence `fork` labels exist to break.
//!   Derive the label from the loop variable.
//! * **`rng-cross-crate-untagged`** — a raw stream handle (a `SimRng`
//!   parameter or a freshly seeded generator, *not* a labelled fork
//!   child) passed to a function resolved to another `movr_*` crate.
//!   The convention: a crate forks its own labelled child before
//!   handing randomness across a boundary, so each crate's consumption
//!   is independent of its callees'. Binary entry points (`src/bin/**`,
//!   `src/main.rs`) are exempt — a driver's `main` owns the root
//!   stream, and handing it to the system under test is its job.

use crate::lexer::TokenKind;
use crate::parser::FnSig;
use crate::rules::Diagnostic;
use crate::source::{interior, match_delim, FileKind, SourceFile};
use std::collections::BTreeMap;

/// How a `SimRng` binding came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A labelled `fork(...)` child — tagged, free to cross boundaries.
    Fork,
    /// A parameter or `seed_from_u64` root — raw, must be re-forked
    /// before crossing a crate boundary.
    Raw,
}

/// Runs the RNG-dataflow analysis over every library file.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        for sig in &f.parsed.fns {
            let Some((open, close)) = sig.body else { continue };
            if f.in_cfg_test(open) {
                continue;
            }
            check_fn(f, sig, open, close, out);
        }
    }
}

fn check_fn(f: &SourceFile, sig: &FnSig, open: usize, close: usize, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    // --- Collect SimRng bindings: parameters first, then `let`s.
    let mut bindings: BTreeMap<&str, Origin> = BTreeMap::new();
    for p in &sig.params {
        if !p.name.is_empty() && p.ty.contains("SimRng") {
            bindings.insert(p.name.as_str(), Origin::Raw);
        }
    }
    for l in f.parsed.lets_in(open, close + 1) {
        // Type annotation and initializer.
        let rhs = l.tail(toks);
        let forked = rhs
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("fork"));
        let seeded = rhs.iter().any(|t| t.is_ident("seed_from_u64"));
        // Aliased: a clone of a known stream replays it.
        let cloned = rhs.windows(3).find_map(|w| match &w[0].kind {
            TokenKind::Ident(src) if w[1].is_punct('.') && w[2].is_ident("clone") => {
                bindings.get(src.as_str()).copied()
            }
            _ => None,
        });
        let origin = if forked {
            Some(Origin::Fork)
        } else if seeded {
            Some(Origin::Raw)
        } else {
            cloned
        };
        if let Some(origin) = origin {
            for name in &l.names {
                bindings.insert(name.as_str(), origin);
            }
        }
    }
    // --- Finding 1: `.clone()` on any known stream handle.
    for k in open..=close.min(toks.len().saturating_sub(1)) {
        if toks[k].is_ident("clone")
            && k >= 2
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            if let TokenKind::Ident(recv) = &toks[k - 2].kind {
                if bindings.contains_key(recv.as_str()) {
                    out.push(Diagnostic::new(
                        f,
                        "rng-fork-aliased",
                        toks[k].line,
                        format!(
                            "`{recv}.clone()` aliases the stream — both handles replay identical draws; fork a labelled child instead"
                        ),
                    ));
                }
            }
        }
    }
    // --- Finding 2: literal-labelled forks inside loop bodies.
    let loop_ranges = loop_body_ranges(f, open, close);
    for k in open..=close.min(toks.len().saturating_sub(1)) {
        if !toks[k].is_ident("fork")
            || k == 0
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        if !loop_ranges.iter().any(|&(lo, hi)| lo < k && k < hi) {
            continue;
        }
        let (args, _) = interior(toks, k + 1);
        let literal_only = !args.is_empty()
            && args
                .iter()
                .all(|t| matches!(t.kind, TokenKind::Number(_)));
        if literal_only {
            out.push(Diagnostic::new(
                f,
                "rng-fork-in-loop",
                toks[k].line,
                "fork label is loop-invariant: every iteration's child is distinguished only by parent call order; derive the label from the loop counter".to_string(),
            ));
        }
    }
    // --- Finding 3: raw handles passed to another crate's function.
    // Binary entry points (`src/bin/**`, `src/main.rs`) are exempt: a
    // driver's `main` *owns* the root stream, and handing it to the
    // system under test is the whole program — the re-fork convention
    // binds library crates, not top-level drivers.
    if f.rel.contains("/bin/") || f.rel.ends_with("/main.rs") {
        return;
    }
    for k in open..=close.min(toks.len().saturating_sub(1)) {
        let TokenKind::Ident(callee) = &toks[k].kind else { continue };
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(target) = cross_crate_target(f, k) else { continue };
        if target == f.crate_name {
            continue;
        }
        let args_close = match_delim(toks, k + 1);
        let mut a = k + 2;
        while a < args_close {
            // A bare (possibly `&`/`&mut`-wrapped) known raw handle.
            while toks[a].is_punct('&') || toks[a].is_ident("mut") {
                a += 1;
            }
            if let TokenKind::Ident(arg) = &toks[a].kind {
                let bare = toks
                    .get(a + 1)
                    .is_some_and(|t| t.is_punct(',') || t.is_punct(')'));
                if bare && bindings.get(arg.as_str()) == Some(&Origin::Raw) {
                    out.push(Diagnostic::new(
                        f,
                        "rng-cross-crate-untagged",
                        toks[a].line,
                        format!(
                            "raw stream `{arg}` crosses into crate `{target}` via `{callee}`; pass `&mut {arg}.fork(<label>)` (or a labelled child) so the crates' draws stay independent"
                        ),
                    ));
                }
            }
            // Next top-level comma.
            let mut depth = 0i32;
            while a < args_close {
                match toks[a].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
                    TokenKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                a += 1;
            }
            a += 1;
        }
    }
}

/// Body token ranges of every `for`/`while`/`loop` between `open` and
/// `close`.
fn loop_body_ranges(f: &SourceFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for k in open..=close.min(toks.len().saturating_sub(1)) {
        let TokenKind::Ident(w) = &toks[k].kind else { continue };
        if !matches!(w.as_str(), "for" | "while" | "loop") {
            continue;
        }
        // `for` in `impl<T> X for Y` / HRTB `for<'a>`: a type-position
        // `for` is followed by an ident chain then `{` without `in`.
        // Cheap filter: `for` must be followed by `in` before its `{`
        // unless it's `while`/`loop`.
        let mut j = k + 1;
        let mut depth = 0i32;
        let mut saw_in = false;
        while j <= close && j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('{') if depth == 0 => break,
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Ident(w2) if w2 == "in" && depth == 0 => saw_in = true,
                _ => {}
            }
            j += 1;
        }
        if w == "for" && !saw_in {
            continue;
        }
        if j <= close && j < toks.len() && toks[j].is_punct('{') {
            out.push((j, match_delim(toks, j)));
        }
    }
    out
}

/// If the call at token `k` resolves to a workspace crate, returns that
/// crate's directory name. Two shapes: a qualified `movr_xxx::...` path,
/// or a leaf imported by a `use movr_xxx::...` declaration in this file.
fn cross_crate_target(f: &SourceFile, k: usize) -> Option<String> {
    let toks = &f.tokens;
    // Walk back over the `a::b::` path prefix to its first segment.
    let mut first = k;
    let mut j = k;
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        if j < 3 {
            break;
        }
        if let TokenKind::Ident(_) = toks[j - 3].kind {
            first = j - 3;
            j -= 3;
        } else {
            break;
        }
    }
    if first != k {
        let TokenKind::Ident(root) = &toks[first].kind else { return None };
        return crate_of_extern_root(root);
    }
    // Unqualified: resolve through this file's imports. Skip method
    // calls — the receiver, not the import, decides where they run.
    if k >= 1 && toks[k - 1].is_punct('.') {
        return None;
    }
    let TokenKind::Ident(name) = &toks[k].kind else { return None };
    let root = f.parsed.use_root_of(name)?;
    crate_of_extern_root(root)
}

/// Maps an extern-path root (`movr_math`, `movr`) to the workspace
/// crate directory name (`math`, `core`). Non-`movr` roots return None.
fn crate_of_extern_root(root: &str) -> Option<String> {
    if root == "movr" {
        return Some("core".to_string());
    }
    root.strip_prefix("movr_").map(|rest| rest.replace('_', "-"))
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
    fn clone_of_stream_is_aliased() {
        assert_eq!(
            hits("fn f(rng: &mut SimRng) { let a = rng.clone(); }"),
            [("rng-fork-aliased", 1)]
        );
        assert!(hits("fn f(rng: &mut SimRng) { let a = rng.fork(1); }").is_empty());
        // Cloning something that is not a stream is fine.
        assert!(hits("fn f(v: &Vec2) { let a = v.clone(); }").is_empty());
    }

    #[test]
    fn literal_fork_in_loop_flags() {
        assert_eq!(
            hits("fn f(rng: &mut SimRng) { for i in 0..4 { let c = rng.fork(7); } }"),
            [("rng-fork-in-loop", 1)]
        );
        // Loop-variant labels are the fix.
        assert!(hits(
            "fn f(rng: &mut SimRng) { for i in 0..4 { let c = rng.fork(base + i); } }"
        )
        .is_empty());
        // Outside a loop a literal label is the normal case.
        assert!(hits("fn f(rng: &mut SimRng) { let c = rng.fork(7); }").is_empty());
    }

    #[test]
    fn raw_stream_crossing_crates_flags() {
        let src = "fn f(rng: &mut SimRng) { movr_rfsim::noise::sample(rng); }";
        assert_eq!(hits(src), [("rng-cross-crate-untagged", 1)]);
        let ok = "fn f(rng: &mut SimRng) { let mut child = rng.fork(3); movr_rfsim::noise::sample(&mut child); }";
        assert!(hits(ok).is_empty());
    }

    #[test]
    fn imported_cross_crate_call_resolves_through_use() {
        let src = "use movr_radio::run_sls;\nfn f(rng: &mut SimRng) { run_sls(&mut rng); }";
        assert_eq!(hits(src), [("rng-cross-crate-untagged", 2)]);
    }

    #[test]
    fn same_crate_calls_are_fine() {
        let src = "fn g(rng: &mut SimRng) {}\nfn f(rng: &mut SimRng) { g(rng); }";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn binary_entry_points_may_pass_the_root_stream() {
        let src = "fn main() { let mut rng = SimRng::seed_from_u64(1); movr::install::run(&mut rng); }";
        let f = SourceFile::parse("crates/bench/src/bin/fig8.rs", src);
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &mut out);
        assert!(out.is_empty(), "{out:?}");
        // …but aliasing is still wrong even in a driver.
        let f = SourceFile::parse(
            "crates/bench/src/bin/fig8.rs",
            "fn main() { let mut rng = SimRng::seed_from_u64(1); let twin = rng.clone(); }",
        );
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "rng-fork-aliased");
    }

    #[test]
    fn seeded_root_is_raw() {
        let src = "fn f() { let mut rng = SimRng::seed_from_u64(1); movr_vr::jitter(&mut rng); }";
        assert_eq!(hits(src), [("rng-cross-crate-untagged", 1)]);
    }
}
