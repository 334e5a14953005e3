//! The domain rule catalogue. Each rule walks a [`SourceFile`]'s token
//! stream (plus one cross-file rule for RNG fork labels) and emits
//! structured [`Diagnostic`]s. See `DESIGN.md` § "Static analysis" for
//! the rationale behind each rule and how to add one.

use crate::lexer::{Token, TokenKind};
use crate::source::{interior, FileKind, SourceFile};
use std::collections::BTreeMap;

/// One finding: a rule, a location, the offending line, and a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`raw-db-arithmetic`, `unit-mix-call`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line.
    pub snippet: String,
    /// How to fix or silence the finding.
    pub hint: String,
}

impl Diagnostic {
    /// A finding of `rule` at `line` of `f`, quoting that line.
    pub(crate) fn new(
        f: &SourceFile,
        rule: &'static str,
        line: usize,
        hint: impl Into<String>,
    ) -> Self {
        let (file, snippet, hint) = (f.rel.clone(), f.snippet(line), hint.into());
        Diagnostic {
            rule,
            file,
            line,
            snippet,
            hint,
        }
    }
}

/// The rule catalogue in reporting order: each id with the paragraph
/// `movr-lint --explain <rule>` prints. Kept as data (not doc comments)
/// so the binary can serve it at runtime.
pub const RULES: &[(&str, &str)] = &[
    ("rng-fork-label-unique",
     "Two .fork(<number>) calls in one crate's library code (outside #[cfg(test)]) with the same literal label, compared after dropping underscores, an f32/f64 suffix and a zero fraction; labels that are not a single number are not compared. Stream identity is the label; a collision silently correlates two supposedly independent streams."),
    ("raw-db-arithmetic",
     "A dB conversion written by hand outside crates/math/src/db.rs and #[cfg(test)]: a powf(…) whose argument divides by 10 or 20 (10f64.powf(x / 10.0)), or a 10 or 20 multiplied on the same line as a log10 call (20.0 * x.log10()). A 10-vs-20 slip skews every link-budget figure; the movr_math::db helpers carry the audited conversions."),
    ("recorded-pairing",
     "A fn name ends in _recorded but no unsuffixed twin exists in the same file (or vice versa where required). The observability contract is a plain/recorded pair whose plain path has zero overhead."),
    ("unit-mix-assign",
     "A let binding, assignment (plain or compound) or struct-literal field whose name or type declares one unit class — Db (_db), Dbm (_dbm), Linear (_linear, _lin), Radians (_rad, _radians), Degrees (_deg, _degrees) or SimTime — takes a value of another class. Unit slips through assignment are the quietest wrong-figure generator."),
    ("unit-mix-arith",
     "Binary +, - or * whose operands are both classified (Db, Dbm, Linear, Radians, Degrees, SimTime) and differ in class, e.g. a _db value plus a _linear one. Db and Dbm combine under + and - (power plus gain); every other cross-class mix is a category error."),
    ("unit-mix-call",
     "A call passes a single-term argument whose unit class (Db, Dbm, Linear, Radians, Degrees, SimTime) contradicts the class of the callee's parameter, read from the parameter's name or type in the workspace-wide signature table; names defined with conflicting signatures are skipped. The classic dBm-into-linear slip."),
    ("rng-fork-aliased",
     ".clone() of a SimRng stream within a function: a SimRng parameter, or a let bound by a fork, by seed_from_u64 or by cloning another stream. The clone replays the parent's exact draws, so the two handles stay bit-correlated; fork a labelled child instead."),
    ("rng-fork-in-loop",
     "A .fork(…) whose label is made only of number literals, inside a for/while/loop body. Every iteration re-creates the same child stream, told apart only by the parent's call order; derive the label from the loop variable."),
    ("rng-cross-crate-untagged",
     "A SimRng crosses a crate boundary as a bare &mut without a fork at the call site. Callees drawing from a caller's stream entangle stream state across module seams; fork a labelled child at the boundary."),
];

/// The doc string for `rule`, if it is a known rule id.
pub fn rule_doc(rule: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|(_, doc)| *doc)
}

/// Runs every rule over `files` and returns the combined findings,
/// sorted by (file, line, rule).
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        raw_db_arithmetic(f, &mut out);
        recorded_pairing(f, &mut out);
    }
    rng_fork_label_unique(files, &mut out);
    crate::units::check(files, &mut out);
    crate::rng_flow::check(files, &mut out);
    // Stable, so one site's findings keep the order they were found in.
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// **rng-fork-label-unique** — two `fork(<literal>)` calls with the same
/// label inside one crate's library code produce *correlated* child
/// streams if they ever fork the same parent at the same position.
/// Labels must be unique per crate.
fn rng_fork_label_unique(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    // crate name -> label text -> first-seen location.
    let mut seen: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut hits: Vec<(usize, usize)> = Vec::new(); // (file idx, token idx)
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Lib {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            if t.is_ident("fork")
                && i >= 1
                && f.tokens[i - 1].is_punct('.')
                && f.tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                && matches!(f.tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Number(_)))
                && f.tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
                && !f.is_test_code(i)
            {
                hits.push((fi, i));
            }
        }
    }
    for (fi, i) in hits {
        let f = &files[fi];
        let TokenKind::Number(label) = &f.tokens[i + 2].kind else {
            continue;
        };
        let key = (f.crate_name.clone(), normalize_number(label));
        let line = f.tokens[i].line;
        if let Some((first_file, first_line)) = seen.get(&key) {
            out.push(Diagnostic::new(
                f,
                "rng-fork-label-unique",
                line,
                format!(
                    "fork label {} already used at {first_file}:{first_line} in crate `{}`; duplicate labels correlate the child streams",
                    key.1, f.crate_name
                ),
            ));
        } else {
            seen.insert(key, (f.rel.clone(), line));
        }
    }
}

/// **raw-db-arithmetic** — inline `powf(x/10.0)`- or `10.0*log10`-style
/// dB conversions outside `crates/math/src/db.rs`. A 10-vs-20 slip
/// (power vs amplitude) silently skews every figure; all conversions go
/// through the audited helpers.
fn raw_db_arithmetic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.rel == "crates/math/src/db.rs" {
        return;
    }
    const HINT: &str =
        "use movr_math::db (db_to_linear / linear_to_db / db_to_amplitude / amplitude_to_db); the 10-vs-20 factor is audited there once";
    for (i, t) in f.tokens.iter().enumerate() {
        if f.is_test_code(i) {
            continue;
        }
        // powf(... / 10.0 ...) or powf(... / 20.0 ...)
        if t.is_ident("powf") && f.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let (args, _) = interior(&f.tokens, i + 1);
            let divides_by_db_factor = args.windows(2).any(|w| {
                w[0].is_punct('/')
                    && matches!(&w[1].kind, TokenKind::Number(n) if is_db_factor(n))
            });
            if divides_by_db_factor {
                out.push(Diagnostic::new(f, "raw-db-arithmetic", t.line, HINT));
            }
        }
        // 10.0 * (...).log10()  /  (...).log10() * 20.0  (same line)
        if t.is_ident("log10") {
            let line = t.line;
            let line_toks: Vec<&Token> =
                f.tokens.iter().filter(|t| t.line == line).collect();
            let multiplied = line_toks.windows(2).any(|w| {
                (w[0].is_punct('*')
                    && matches!(&w[1].kind, TokenKind::Number(n) if is_db_factor(n)))
                    || (w[1].is_punct('*')
                        && matches!(&w[0].kind, TokenKind::Number(n) if is_db_factor(n)))
            });
            if multiplied {
                out.push(Diagnostic::new(f, "raw-db-arithmetic", line, HINT));
            }
        }
    }
}

/// **recorded-pairing** — every `fn foo_recorded(...)` in library code
/// must be paired with a plain `fn foo(...)` in the same file (the PR 2
/// contract: observability is always optional). Two sound shapes:
/// either the recorded variant's own body delegates to the plain
/// primitive (say, a default trait method watching `current()`), or the
/// file wires a `NullRecorder` through outside tests — delegation may be
/// transitive (`run_session` → `run_session_on` → `Session::step_frame`
/// → `step_frame_recorded`), so that check is file-scoped.
fn recorded_pairing(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.kind != FileKind::Lib {
        return;
    }
    let fns = &f.parsed.fns;
    let has_null_delegation = f
        .tokens
        .iter()
        .enumerate()
        .any(|(i, t)| t.is_ident("NullRecorder") && !f.in_cfg_test(i));
    for (k, sig) in fns.iter().enumerate() {
        let (name, line) = (sig.name.as_str(), sig.line);
        let Some(base) = name.strip_suffix("_recorded") else {
            continue;
        };
        // A name's first definition speaks for it; test-only ones are exempt.
        if fns[..k].iter().any(|s| s.name == name) || f.in_cfg_test(sig.start) {
            continue;
        }
        if !fns.iter().any(|s| s.name == base) {
            out.push(Diagnostic::new(
                f,
                "recorded-pairing",
                line,
                format!("`{name}` has no plain `{base}` wrapper in this file; add one delegating with NullRecorder"),
            ));
            continue;
        }
        // Inverse delegation: any `X_recorded` body that calls plain `X`
        // is sound by construction (observability layered over the
        // primitive, e.g. a default trait method).
        let wraps_plain = fns.iter().filter(|s| s.name == name).any(|s| {
            s.body.is_some_and(|(open, close)| {
                f.tokens[open..=close].iter().any(|t| t.is_ident(base))
            })
        });
        if !wraps_plain && !has_null_delegation {
            out.push(Diagnostic::new(
                f,
                "recorded-pairing",
                line,
                format!("plain `{base}` exists but nothing in this file delegates with NullRecorder; the plain API must be the recorded one observed by nobody"),
            ));
        }
    }
}

/// True for the dB conversion factors `10` / `20` in any spelling
/// (`10`, `10.0`, `10f64`, `20.0_f64`, …).
fn is_db_factor(text: &str) -> bool {
    matches!(normalize_number(text).as_str(), "10" | "20")
}

/// Strips underscores, type suffixes, and a trailing `.0…0` so numeric
/// spellings compare equal (`10.0_f64` → `10`).
fn normalize_number(text: &str) -> String {
    let no_underscore: String = text.chars().filter(|&c| c != '_').collect();
    let lower = no_underscore.to_ascii_lowercase();
    let without_suffix = lower
        .strip_suffix("f64")
        .or_else(|| lower.strip_suffix("f32"))
        .unwrap_or(&lower);
    match without_suffix.split_once('.') {
        Some((int, frac)) if frac.chars().all(|c| c == '0') => int.to_string(),
        _ => without_suffix.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    fn rules_hit(src: &str) -> Vec<(&'static str, usize)> {
        run_all(&[lib(src)])
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn db_factor_spellings() {
        assert!(is_db_factor("10.0"));
        assert!(is_db_factor("20"));
        assert!(is_db_factor("10f64"));
        assert!(is_db_factor("10.0_f64"));
        assert!(!is_db_factor("100.0"));
        assert!(!is_db_factor("2.0"));
        assert!(!is_db_factor("10.5"));
    }

    #[test]
    fn powf_only_flags_db_divisors() {
        assert_eq!(
            rules_hit("fn f(x: f64) -> f64 { 10f64.powf(x / 10.0) }"),
            [("raw-db-arithmetic", 1)]
        );
        assert!(rules_hit("fn f(x: f64) -> f64 { 2f64.powf(x / 3.0) }").is_empty());
        assert!(rules_hit("fn f(x: f64) -> f64 { x.powf(1.0 / 3.0) }").is_empty());
    }

    #[test]
    fn log10_needs_the_factor_on_the_same_line() {
        assert_eq!(
            rules_hit("fn f(x: f64) -> f64 { 20.0 * x.log10() }"),
            [("raw-db-arithmetic", 1)]
        );
        assert!(rules_hit("fn f(x: f64) -> f64 { x.log10() }").is_empty());
    }

    #[test]
    fn fork_labels_deduplicate_per_crate() {
        let a = SourceFile::parse(
            "crates/demo/src/a.rs",
            "fn f(r: &mut SimRng) { let x = r.fork(1); let y = r.fork(2); }",
        );
        let b = SourceFile::parse(
            "crates/demo/src/b.rs",
            "fn g(r: &mut SimRng) { let z = r.fork(1); }",
        );
        let other = SourceFile::parse(
            "crates/other/src/lib.rs",
            "fn h(r: &mut SimRng) { let w = r.fork(1); }",
        );
        let hits: Vec<_> = run_all(&[a, b, other])
            .into_iter()
            .map(|d| (d.file, d.line))
            .collect();
        assert_eq!(hits, [("crates/demo/src/b.rs".to_string(), 1)]);
    }

    #[test]
    fn recorded_without_wrapper_flags() {
        let src = "pub fn foo_recorded(rec: &mut dyn Recorder) {}";
        assert_eq!(rules_hit(src), [("recorded-pairing", 1)]);
        let good = "pub fn foo() { foo_recorded(&mut NullRecorder) }\npub fn foo_recorded(rec: &mut dyn Recorder) {}";
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn recorded_default_method_wrapping_plain_is_sound() {
        // Inverse delegation: the recorded variant calls the plain
        // primitive — no NullRecorder needed anywhere.
        let src = "trait T {\n  fn go(&mut self) -> u32;\n  fn go_recorded(&mut self, rec: &mut dyn Recorder) -> u32 { self.go() }\n}";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt_where_documented() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: f64) -> f64 { 10f64.powf(x / 10.0) } }";
        assert!(rules_hit(src).is_empty());
        let test_file = SourceFile::parse("tests/it.rs", "fn t(x: f64) -> f64 { 20.0 * x.log10() }");
        assert!(run_all(&[test_file]).is_empty());
    }
}
