//! The domain rule catalogue. Each rule walks a [`SourceFile`]'s token
//! stream (plus one cross-file rule for RNG fork labels) and emits
//! structured [`Diagnostic`]s. See `DESIGN.md` § "Static analysis" for
//! the rationale behind each rule and how to add one.

use crate::layers::LayerSpec;
use crate::lexer::{Token, TokenKind};
use crate::source::{interior, FileKind, SourceFile};
use std::collections::HashMap;

/// One finding: a rule, a location, the offending line, and a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`unwrap-in-lib`, `no-wall-clock`, …).
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
    ("no-wall-clock",
     "std::time::Instant/SystemTime anywhere outside the testkit and bench crates. Simulation code must be a pure function of SimTime + SimRng; a wall clock breaks bit determinism silently."),
    ("no-external-rng",
     "Any randomness source other than movr_math::rng::SimRng (thread_rng, StdRng, OsRng, getrandom, rand::…). External RNGs are unseeded or version-dependent; both destroy reproducibility."),
    ("rng-fork-label-unique",
     "Two .fork(<number>) calls in one crate's library code (outside #[cfg(test)]) with the same literal label, compared after dropping underscores, an f32/f64 suffix and a zero fraction; labels that are not a single number are not compared. Stream identity is the label; a collision silently correlates two supposedly independent streams."),
    ("raw-db-arithmetic",
     "A dB conversion written by hand outside crates/math/src/db.rs and #[cfg(test)]: a powf(…) whose argument divides by 10 or 20 (10f64.powf(x / 10.0)), or a 10 or 20 multiplied on the same line as a log10 call (20.0 * x.log10()). A 10-vs-20 slip skews every link-budget figure; the movr_math::db helpers carry the audited conversions."),
    ("float-exact-eq",
     "== or != between floating-point expressions in lib code. Exact float equality is almost always a latent tolerance bug; use movr_testkit::assert_close or an explicit epsilon."),
    ("recorded-pairing",
     "A fn name ends in _recorded but no unsuffixed twin exists in the same file (or vice versa where required). The observability contract is a plain/recorded pair whose plain path has zero overhead."),
    ("unwrap-in-lib",
     ".unwrap() in library code outside #[cfg(test)]; .expect(\"…\") does not fire. Library paths must name the invariant they rely on (expect states it) or return a structured error; a bare unwrap kills the session and its goldens without saying which invariant broke."),
    ("raw-numeric-cast",
     "A lossy `as` cast between numeric types in lib code. Silent truncation/rounding corrupts fingerprints; use the checked movr_math::convert helpers (or a justified // lint: comment where audited)."),
    ("unjustified-allow",
     "#[allow(...)] without a // lint: justification comment on the same line. Suppressions are fine when they say why; naked ones rot."),
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
    ("layer-violation",
     "A crate references a movr_* crate that lint-layers.toml does not allow (or the crate is undeclared). The dependency DAG is part of the architecture; violations rot it silently."),
    ("shared-mut-in-par-closure",
     "A parallel closure (pool_map/scope spawn) assigns to, takes &mut of, or calls a mutating method on an enclosing binding. Which worker wrote last is scheduling-dependent; return values and join in spawn order. Closures passed to WorkerPool::map method calls are not seen: matching .map( by name would also catch every Iterator::map."),
    ("interior-mut-crosses-threads",
     "A parallel closure captures a binding whose type or initializer names RefCell, Cell or Rc, or touches a static mut. Shared interior mutability makes per-worker results order-dependent even when it compiles."),
    ("rng-unforked-in-par",
     "A parallel closure (pool_map/scope spawn) references an enclosing binding that holds an RNG stream — its type or initializer names SimRng or a struct that transitively holds one, or it was seeded or forked — other than through a per-item fork whose label uses a closure parameter (rng.fork(i), ctx.rng.fork(i)). Draws interleave in worker order, destroying bit-identity across thread counts."),
    ("unordered-iter-in-output",
     "Iteration over a HashMap/HashSet feeds an output channel (writer, sink, fingerprint) without an intervening sort. Hash iteration order is randomized per process; outputs must be canonically ordered."),
    ("panic-reachable-from-decode",
     "A decode*/restore* fn's transitive call tree contains a panic site (unwrap/expect, panic! family, indexing). The checkpoint contract is that corrupt input yields SnapshotError, never a panic; the call graph finds the expect five helpers down. Justify unavoidable sites with // lint: <why>."),
    ("blocking-in-hot-loop",
     "A hot-loop root (step_frame, Session::step, the estimate_* sweep kernels) transitively reaches blocking-io or wall-clock effects. The motion-to-photon budget is milliseconds; one buried println! or Instant::now() in the per-frame path blows it, and the wall clock also breaks determinism."),
    ("recorded-effect-divergence",
     "A foo/foo_recorded pair whose transitive effect sets differ beyond sink-write. The recorded twin must be the plain computation plus events only; extra I/O, panics, or randomness mean the instrumented run no longer measures the plain run."),
];

/// The doc string for `rule`, if it is a known rule id.
pub fn rule_doc(rule: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|(_, doc)| *doc)
}

/// Runs every rule over `files` and returns the combined findings,
/// sorted by (file, line, rule). `layers` is the parsed
/// `lint-layers.toml` when the analyzed root has one; without it the
/// layering analysis is skipped (the other analyses still run).
pub fn run_all(files: &[SourceFile], layers: Option<&LayerSpec>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        no_wall_clock(f, &mut out);
        no_external_rng(f, &mut out);
        raw_db_arithmetic(f, &mut out);
        float_exact_eq(f, &mut out);
        recorded_pairing(f, &mut out);
        unwrap_in_lib(f, &mut out);
        raw_numeric_cast(f, &mut out);
        unjustified_allow(f, &mut out);
    }
    rng_fork_label_unique(files, &mut out);
    crate::units::check(files, &mut out);
    crate::rng_flow::check(files, &mut out);
    crate::par_capture::check(files, &mut out);
    crate::order_io::check(files, &mut out);
    crate::effects::check(files, &mut out);
    if let Some(spec) = layers {
        crate::layers::check(files, spec, &mut out);
    }
    sorted(out)
}

/// `diagnostics` in reporting order: by file, then line, then rule
/// (stable, so one site's findings keep the order they were found in).
pub(crate) fn sorted(mut diagnostics: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diagnostics
}

/// **no-wall-clock** — `std::time::Instant`/`SystemTime` anywhere
/// outside the `testkit` and `bench` crates. Simulation code must be a
/// pure function of `SimTime` + `SimRng`; a wall clock breaks bit
/// determinism silently.
fn no_wall_clock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.crate_name == "testkit" || f.crate_name == "bench" {
        return;
    }
    for t in &f.tokens {
        if let TokenKind::Ident(name) = &t.kind {
            if name == "Instant" || name == "SystemTime" {
                out.push(Diagnostic::new(
                    f,
                    "no-wall-clock",
                    t.line,
                    "simulation code must use movr_sim::SimTime (wall clocks break determinism); timing utilities live in movr-testkit",
                ));
            }
        }
    }
}

/// **no-external-rng** — any randomness source other than
/// `movr_math::rng::SimRng`. External RNGs are unseeded or
/// version-dependent; both destroy reproducibility.
fn no_external_rng(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const BANNED: &[&str] = &[
        "thread_rng",
        "ThreadRng",
        "StdRng",
        "SmallRng",
        "OsRng",
        "from_entropy",
        "getrandom",
        "rand_core",
    ];
    for (i, t) in f.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        let banned = BANNED.contains(&name.as_str())
            || (name == "rand"
                && f.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && f.tokens.get(i + 2).is_some_and(|t| t.is_punct(':')));
        if banned {
            out.push(Diagnostic::new(
                f,
                "no-external-rng",
                t.line,
                "draw from movr_math::rng::SimRng (seeded, forkable) so every run replays bit-exactly",
            ));
        }
    }
}

/// **rng-fork-label-unique** — two `fork(<literal>)` calls with the same
/// label inside one crate's library code produce *correlated* child
/// streams if they ever fork the same parent at the same position.
/// Labels must be unique per crate.
fn rng_fork_label_unique(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    // crate name -> label text -> first-seen location.
    let mut seen: HashMap<(String, String), (String, usize)> = HashMap::new();
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

/// **float-exact-eq** — `==`/`!=` against a float literal (or a float
/// constant like `f64::INFINITY`) outside test code. Exact float
/// comparison is almost always a tolerance bug in simulation code;
/// intentional exact guards live in the baseline.
fn float_exact_eq(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..f.tokens.len().saturating_sub(1) {
        let is_eq = f.tokens[i].is_punct('=') && f.tokens[i + 1].is_punct('=');
        let is_ne = f.tokens[i].is_punct('!') && f.tokens[i + 1].is_punct('=');
        if !(is_eq || is_ne) || f.is_test_code(i) {
            continue;
        }
        // `<=`, `>=`, and `a == = b` cannot appear; `=>` is ('=','>').
        if i >= 1 && (f.tokens[i - 1].is_punct('<') || f.tokens[i - 1].is_punct('>')) {
            continue;
        }
        let before = i.checked_sub(1).map(|j| &f.tokens[j]);
        // A leading unary minus on the right-hand side (`x == -1.0`).
        let after_idx = if f.tokens.get(i + 2).is_some_and(|t| t.is_punct('-')) {
            i + 3
        } else {
            i + 2
        };
        let after = f.tokens.get(after_idx);
        let floaty = |t: Option<&Token>, side_after: bool| -> bool {
            match t.map(|t| &t.kind) {
                Some(TokenKind::Number(n)) => is_float_literal(n),
                // f64::INFINITY on the right reads Ident(f64) :: Ident(INFINITY):
                // the token adjacent to `==` is `f64`; on the left it is the
                // constant name.
                Some(TokenKind::Ident(name)) => {
                    if side_after {
                        (name == "f64" || name == "f32")
                            && f.tokens.get(after_idx + 1).is_some_and(|t| t.is_punct(':'))
                    } else {
                        matches!(name.as_str(), "INFINITY" | "NEG_INFINITY" | "NAN" | "EPSILON")
                    }
                }
                _ => false,
            }
        };
        if floaty(before, false) || floaty(after, true) {
            out.push(Diagnostic::new(
                f,
                "float-exact-eq",
                f.tokens[i].line,
                "compare floats with a tolerance (or is_nan/is_infinite); if the exact guard is intentional, it belongs in the baseline",
            ));
        }
    }
}

/// **recorded-pairing** — every `fn foo_recorded(...)` in library code
/// must be paired with a plain `fn foo(...)` in the same file (the PR 2
/// contract: observability is always optional). Two sound shapes:
/// either the recorded variant's own body delegates to the plain
/// primitive (a default trait method watching `current()`), or the file
/// wires a `NullRecorder` through outside tests — delegation may be
/// transitive (`run_session` → `run_session_on` →
/// `run_session_on_recorded`), so that check is file-scoped.
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

/// **unwrap-in-lib** — `.unwrap()` in library code. Hot paths must
/// either state the invariant (`expect("…")`) or return a `Result`.
/// Existing unwraps are pinned in the baseline and can only shrink.
fn unwrap_in_lib(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.kind != FileKind::Lib {
        return;
    }
    for (i, t) in f.tokens.iter().enumerate() {
        if t.is_ident("unwrap")
            && i >= 1
            && f.tokens[i - 1].is_punct('.')
            && !f.is_test_code(i)
        {
            out.push(Diagnostic::new(
                f,
                "unwrap-in-lib",
                t.line,
                "state the invariant with expect(\"…\") or return a Result; bare unwrap hides which invariant broke",
            ));
        }
    }
}

/// **raw-numeric-cast** — `as <numeric type>` in library code. `as`
/// silently truncates, wraps, and loses precision; prefer
/// `From`/`TryFrom` where lossless. Existing casts are baselined and
/// ratcheted downward.
fn raw_numeric_cast(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    // `movr_math::convert` is the audited home for the casts that must
    // exist somewhere (quantizer ranges, counter→f64 means), mirroring
    // the db.rs exemption in raw-db-arithmetic.
    if f.kind != FileKind::Lib || f.rel == "crates/math/src/convert.rs" {
        return;
    }
    const NUMERIC: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
        "isize", "f32", "f64",
    ];
    for (i, t) in f.tokens.iter().enumerate() {
        if t.is_ident("as")
            && matches!(f.tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Ident(n)) if NUMERIC.contains(&n.as_str()))
            && !f.is_test_code(i)
        {
            out.push(Diagnostic::new(
                f,
                "raw-numeric-cast",
                t.line,
                "prefer From/TryFrom (lossless, checked); if the cast is deliberate the ratchet keeps it pinned",
            ));
        }
    }
}

/// **unjustified-allow** — every `#[allow(...)]` / `#![allow(...)]`
/// must carry a trailing `// lint: <why>` justification on the line its
/// attribute closes on. An allow without a reason is a suppressed
/// warning nobody can audit.
fn unjustified_allow(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if !t.is_punct('#') {
            continue;
        }
        let mut j = i + 1;
        if f.tokens.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !f.tokens.get(j).is_some_and(|t| t.is_punct('['))
            || !f.tokens.get(j + 1).is_some_and(|t| t.is_ident("allow"))
        {
            continue;
        }
        // The justification must sit on the line where the attribute
        // closes (attributes in this codebase are single-line).
        let line = t.line;
        let justified = f
            .lines
            .get(line - 1)
            .is_some_and(|l| l.contains("// lint:"));
        if !justified {
            out.push(Diagnostic::new(
                f,
                "unjustified-allow",
                line,
                "append `// lint: <why this allow is sound>` or remove the allow",
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

/// True if a numeric literal is float-typed: has a fraction, an
/// exponent, or an `f32`/`f64` suffix.
fn is_float_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    lower.contains('.') || lower.contains('e') || lower.ends_with("f32") || lower.ends_with("f64")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    fn rules_hit(src: &str) -> Vec<(&'static str, usize)> {
        run_all(&[lib(src)], None)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(rules_hit("fn f() { x.unwrap_or(0); }").is_empty());
        assert_eq!(rules_hit("fn f() { x.unwrap(); }"), [("unwrap-in-lib", 1)]);
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
    fn float_eq_on_enum_compare_is_fine() {
        assert!(rules_hit("fn f(a: Mode, b: Mode) -> bool { a == b }").is_empty());
        assert_eq!(
            rules_hit("fn f(a: f64) -> bool { a == 0.0 }"),
            [("float-exact-eq", 1)]
        );
        assert_eq!(
            rules_hit("fn f(a: f64) -> bool { a != f64::INFINITY }"),
            [("float-exact-eq", 1)]
        );
        assert!(rules_hit("fn f(a: f64) -> bool { a <= 1.0 }").is_empty());
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
        let hits: Vec<_> = run_all(&[a, b, other], None)
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
    fn allow_requires_lint_justification() {
        assert_eq!(
            rules_hit("#[allow(dead_code)]\nfn f() {}"),
            [("unjustified-allow", 1)]
        );
        assert!(rules_hit("#[allow(dead_code)] // lint: fixture\nfn f() {}").is_empty());
    }

    #[test]
    fn test_code_is_exempt_where_documented() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); let b = a == 0.0; } }";
        assert!(rules_hit(src).is_empty());
        // …but wall clocks are banned even in tests.
        let clocky = "#[cfg(test)]\nmod tests { use std::time::Instant; }";
        assert_eq!(rules_hit(clocky), [("no-wall-clock", 2)]);
    }
}
