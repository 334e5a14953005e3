//! Order-sensitivity analysis: unordered container iteration feeding
//! output paths.
//!
//! Every artifact the repo pins — JSONL timelines, rollup JSON,
//! fingerprints, golden fixtures, SARIF — is compared byte-for-byte.
//! `HashMap`/`HashSet` iteration order varies per process (SipHash keys
//! are randomized), so one unordered loop in a rendering path turns a
//! stable gate into a coin flip. The obs reducer avoided this purely by
//! convention (sorted-key JSON, `BTreeMap` everywhere); this pass makes
//! the convention checkable.
//!
//! **`unordered-iter-in-output`** — a `for … in` loop or iterator
//! method chain (`.iter()`, `.keys()`, `.values()`, …) over a binding
//! or field of `HashMap`/`HashSet` type, where the iteration feeds an
//! output path: either the enclosing function's name marks it as a
//! renderer (`json`, `render`, `write`, `fingerprint`, `rollup`, …) or
//! the loop body contains a sink call (`writeln!`, `push_str`,
//! `format!`, …). Pure lookups, `.len()`, and iteration that only
//! aggregates (`.values().sum()`) in a non-output fn stay clean —
//! commutative folds are order-insensitive, and flagging every
//! HashMap use would drown the signal.
//!
//! Known approximation (documented in DESIGN.md): the sink test is
//! syntactic, so an order-dependent fold without a sink in a
//! non-output-named fn escapes (under-approximation), while a sorted
//! collect inside a loop that also writes is still flagged
//! (over-approximation) — switch the container to `BTreeMap`/`BTreeSet`
//! or collect-and-sort before entering the output path.

use crate::lexer::{Token, TokenKind};
use crate::rules::Diagnostic;
use crate::source::{match_delim, FileKind, SourceFile};
use std::collections::BTreeSet;

/// Enclosing-fn name fragments that mark a rendering/output path.
const OUTPUT_FN_MARKERS: &[&str] = &[
    "json", "render", "write", "emit", "encode", "serialize", "fingerprint", "rollup",
    "sarif", "dump", "print",
];

/// Macro/method idents inside an iteration that mark it as producing
/// output text or bytes.
const SINKS: &[&str] = &["write", "writeln", "push_str", "print", "println", "format"];

/// Iterator-producing methods on the unordered containers.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// Runs the order-sensitivity analysis over library code. Tests are
/// exempt (they assert on their own output), and benches/examples are
/// covered transitively through the library paths they call.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        check_file(f, out);
    }
}

fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let fields = unordered_fields(f);
    let toks = &f.tokens;
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for sig in &f.parsed.fns {
        let Some((open, close)) = sig.body else { continue };
        if f.in_cfg_test(open) {
            continue;
        }
        let unordered = fn_unordered_names(f, sig, &fields);
        if unordered.is_empty() {
            continue;
        }
        let close = close.min(toks.len().saturating_sub(1));
        let fn_is_output = {
            let lower = sig.name.to_lowercase();
            OUTPUT_FN_MARKERS.iter().any(|m| lower.contains(m))
        };
        for j in open..=close {
            let TokenKind::Ident(name) = &toks[j].kind else { continue };
            if !unordered.contains(name.as_str()) {
                continue;
            }
            let Some(range) = iteration_range(toks, j, close) else { continue };
            if !seen.insert(j) {
                continue;
            }
            if fn_is_output || has_sink(&toks[range.0..=range.1]) {
                out.push(Diagnostic::new(
                    f,
                    "unordered-iter-in-output",
                    toks[j].line,
                    format!(
                        "iterating `{name}` (HashMap/HashSet) feeds an output path; hash order varies per process and poisons byte-identical artifacts — use BTreeMap/BTreeSet or collect-and-sort first"
                    ),
                ));
            }
        }
    }
}

/// Struct-field names of `HashMap`/`HashSet` type, file-wide (so
/// `self.index` is recognized in any method).
fn unordered_fields(f: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for st in &f.parsed.structs {
        for field in &st.fields {
            if !field.name.is_empty()
                && (field.ty.contains("HashMap") || field.ty.contains("HashSet"))
            {
                names.insert(field.name.clone());
            }
        }
    }
    names
}

/// Names unordered *within one fn*: its own `HashMap`/`HashSet`-typed
/// params and `let` bindings, plus the file-wide fields. Scoping per fn
/// keeps a `BTreeMap` param clean even when another fn reuses the name
/// for a hash container.
fn fn_unordered_names(
    f: &SourceFile,
    sig: &crate::parser::FnSig,
    fields: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut names = fields.clone();
    let unordered_ty = |s: &str| s.contains("HashMap") || s.contains("HashSet");
    for p in &sig.params {
        if !p.name.is_empty() && unordered_ty(&p.ty) {
            names.insert(p.name.clone());
        }
    }
    let Some((open, close)) = sig.body else {
        return names;
    };
    for l in f.parsed.lets_in(open, close + 1) {
        let tail = l.tail(&f.tokens);
        if tail
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            names.extend(l.names.iter().cloned());
        }
    }
    names
}

/// If the reference at `j` starts an iteration, returns the inclusive
/// token range of that iteration (loop body, or the statement the
/// method chain belongs to). `None` for lookups and other uses.
fn iteration_range(toks: &[Token], j: usize, fn_close: usize) -> Option<(usize, usize)> {
    // `for pat in name …{ body }` — preceded by `in` (possibly through
    // `&`/`mut`), loop body is the next top-level brace block.
    let mut p = j;
    while p >= 1 && (toks[p - 1].is_punct('&') || toks[p - 1].is_ident("mut")) {
        p -= 1;
    }
    if p >= 1 && toks[p - 1].is_ident("in") {
        let mut k = j + 1;
        let mut depth = 0i32;
        while k <= fn_close {
            match &toks[k].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    return Some((k, match_delim(toks, k).min(fn_close)));
                }
                _ => {}
            }
            k += 1;
        }
        return None;
    }
    // `name.iter()…` / `name.keys()…` — range runs to the end of the
    // statement (`;` at depth 0) or through a trailing block.
    if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
        if let Some(TokenKind::Ident(m)) = toks.get(j + 2).map(|t| &t.kind) {
            if ITER_METHODS.contains(&m.as_str())
                && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
            {
                let mut k = j + 3;
                let mut depth = 0i32;
                while k <= fn_close {
                    match &toks[k].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                        TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                        TokenKind::Punct(';') if depth == 0 => return Some((j, k)),
                        TokenKind::Punct('{') if depth == 0 => {
                            return Some((j, match_delim(toks, k).min(fn_close)));
                        }
                        TokenKind::Punct('}') if depth <= 0 => return Some((j, k)),
                        _ => {}
                    }
                    if depth < 0 {
                        return Some((j, k));
                    }
                    k += 1;
                }
                return Some((j, fn_close));
            }
        }
    }
    None
}

fn has_sink(range: &[Token]) -> bool {
    range
        .iter()
        .any(|t| matches!(&t.kind, TokenKind::Ident(w) if SINKS.contains(&w.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(src: &str) -> Vec<usize> {
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        let mut out = Vec::new();
        check(std::slice::from_ref(&f), &mut out);
        assert!(out.iter().all(|d| d.rule == "unordered-iter-in-output"));
        out.into_iter().map(|d| d.line).collect()
    }

    #[test]
    fn for_loop_in_output_named_fn_flags() {
        let src = "use std::collections::HashMap;\nfn render_json(m: &HashMap<String, u64>) -> String {\n  let mut s = String::new();\n  for (k, v) in m {\n    s += k;\n  }\n  s\n}";
        assert_eq!(hits(src), [4]);
    }

    #[test]
    fn sink_in_loop_body_flags_regardless_of_fn_name() {
        let src = "fn tally(seen: &HashSet<u64>) {\n  for v in seen.iter() {\n    writeln!(out, \"{v}\").unwrap();\n  }\n}";
        assert_eq!(hits(src), [2]);
    }

    #[test]
    fn let_bound_hashmap_method_chain_flags() {
        let src = "fn encode(xs: &[u64]) -> String {\n  let mut m = HashMap::new();\n  m.keys().map(|k| format!(\"{k}\")).collect()\n}";
        assert_eq!(hits(src), [3]);
    }

    #[test]
    fn struct_field_iteration_flags() {
        let src = "struct Idx { by_name: HashMap<String, u64> }\nimpl Idx {\n  fn dump(&self) -> String {\n    let mut s = String::new();\n    for (k, _) in self.by_name.iter() {\n      s.push_str(k);\n    }\n    s\n  }\n}";
        assert_eq!(hits(src), [5]);
    }

    #[test]
    fn lookups_and_commutative_folds_are_clean() {
        let src = "fn total(m: &HashMap<String, u64>, key: &str) -> u64 {\n  let one = m.get(key).copied().unwrap_or(0);\n  one + m.values().sum::<u64>()\n}";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn btreemap_output_is_clean() {
        let src = "fn render_json(m: &BTreeMap<String, u64>) -> String {\n  let mut s = String::new();\n  for (k, v) in m {\n    s += k;\n  }\n  s\n}";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn name_reuse_across_fns_stays_scoped() {
        let src = "fn render_a(m: &HashMap<String, u64>) -> String {\n  m.keys().map(|k| format!(\"{k}\")).collect()\n}\nfn render_b(m: &BTreeMap<String, u64>) -> String {\n  m.keys().map(|k| format!(\"{k}\")).collect()\n}";
        assert_eq!(hits(src), [2]);
    }

    #[test]
    fn cfg_test_iteration_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn render(m: &HashMap<u8, u8>) -> String {\n    m.keys().map(|k| format!(\"{k}\")).collect()\n  }\n}";
        assert!(hits(src).is_empty());
    }
}
