//! Unit-flow analysis: dB vs. linear power vs. angles vs. sim-time.
//!
//! The §4.2 saturation condition (`G_dB − L_dB < 0`) is meaningless if
//! a linear gain leaks into a dB expression, and the type system can't
//! see it — everything is `f64`. This analysis recovers unit classes
//! from the workspace's *naming conventions* (`_db`, `_dbm`, `_linear`,
//! `_deg`, `_rad` suffixes; the `SimTime` type) and flags three
//! kinds of cross-class flow in library code:
//!
//! * **`unit-mix-assign`** — `let x_db = y_linear`, `x_db = y_linear`,
//!   compound assignment, and struct-literal field bindings
//!   (`Params { gain_db: leak_linear }`).
//! * **`unit-mix-arith`** — `+`/`-`/`*` with classified operands of
//!   incompatible classes (`snr_db + leak_linear`). dB and dBm combine
//!   freely under `+`/`-` (power plus gain, power difference).
//! * **`unit-mix-call`** — an argument whose class contradicts the
//!   callee parameter's class (`apply_gain(leak_linear)` where the
//!   signature says `gain_db: f64`), resolved through a workspace-wide
//!   signature table built by the item parser.
//!
//! `crates/math/src/db.rs` is exempt: it is the one audited site where
//! dB and linear values legitimately meet.
//!
//! Classification is deliberately conservative: a finding needs *both*
//! sides classified, so untagged locals (`margin`, `acc`) never fire.

use crate::lexer::TokenKind;
use crate::rules::Diagnostic;
use crate::source::{interior, match_delim, FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// The audited conversion site where classes may mix freely.
const EXEMPT_FILE: &str = "crates/math/src/db.rs";

/// A recovered unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitClass {
    /// Relative power ratio in decibels (`_db`).
    Db,
    /// Absolute power referenced to 1 mW (`_dbm`).
    Dbm,
    /// Linear power or amplitude ratio (`_linear`, `_lin`).
    Linear,
    /// Angle in radians (`_rad`, `_radians`, `to_radians`).
    Radians,
    /// Angle in degrees (`_deg`, `_degrees`, `to_degrees`).
    Degrees,
    /// Simulation time (`SimTime`-typed values).
    SimTime,
}

impl UnitClass {
    fn name(self) -> &'static str {
        match self {
            UnitClass::Db => "dB",
            UnitClass::Dbm => "dBm",
            UnitClass::Linear => "linear",
            UnitClass::Radians => "radians",
            UnitClass::Degrees => "degrees",
            UnitClass::SimTime => "SimTime",
        }
    }
}

/// Classifies an identifier by naming convention. Exact unit words
/// (`db`) and suffixed names (`min_snr_db`) both classify; conversion
/// helpers land on their *output* class (`linear_to_db` → dB).
pub fn classify_name(name: &str) -> Option<UnitClass> {
    let suffix = |s: &str| name == s || name.ends_with(&format!("_{s}"));
    if suffix("dbm") {
        Some(UnitClass::Dbm)
    } else if suffix("db") {
        Some(UnitClass::Db)
    } else if suffix("linear") || suffix("lin") {
        Some(UnitClass::Linear)
    } else if suffix("radians") || suffix("rad") {
        Some(UnitClass::Radians)
    } else if suffix("degrees") || suffix("deg") {
        Some(UnitClass::Degrees)
    } else {
        None
    }
}

/// Classifies a type by its final path segment (`SimTime`).
pub fn classify_type(last_ident: &str) -> Option<UnitClass> {
    match last_ident {
        "SimTime" => Some(UnitClass::SimTime),
        _ => None,
    }
}

/// The class of a parameter: the name convention wins, the type
/// convention backs it up.
fn classify_param(p: &crate::parser::Param) -> Option<UnitClass> {
    classify_name(&p.name).or_else(|| p.ty_last_ident().and_then(classify_type))
}

/// Whether two classes may meet under an operator (or assignment,
/// encoded as `op == '='`). dB and dBm combine under `+`/`-` — power
/// plus gain is the whole point of a link budget.
fn compatible(a: UnitClass, b: UnitClass, op: char) -> bool {
    if a == b {
        return true;
    }
    let db_family = |c| matches!(c, UnitClass::Db | UnitClass::Dbm);
    (op == '+' || op == '-') && db_family(a) && db_family(b)
}

/// A workspace-wide callable signature: parameter classes in order.
struct SigEntry {
    has_self: bool,
    param_classes: Vec<Option<UnitClass>>,
    /// Ambiguous names (defined twice with different class signatures)
    /// are dropped from checking.
    ambiguous: bool,
}

/// Builds the global `fn name → parameter classes` table from every
/// library file. Names whose definitions disagree are marked ambiguous.
fn build_sig_table(files: &[SourceFile]) -> BTreeMap<String, SigEntry> {
    let mut table: BTreeMap<String, SigEntry> = BTreeMap::new();
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        for sig in &f.parsed.fns {
            let classes: Vec<Option<UnitClass>> = sig.params.iter().map(classify_param).collect();
            if classes.iter().all(Option::is_none) {
                // Nothing to check against; but still poison duplicates
                // so a classified same-name sibling isn't misapplied.
                if let Some(e) = table.get_mut(&sig.name) {
                    if e.param_classes != classes || e.has_self != sig.has_self {
                        e.ambiguous = true;
                    }
                }
                table.entry(sig.name.clone()).or_insert(SigEntry {
                    has_self: sig.has_self,
                    param_classes: classes,
                    ambiguous: false,
                });
                continue;
            }
            match table.get_mut(&sig.name) {
                Some(e) => {
                    if e.param_classes != classes || e.has_self != sig.has_self {
                        e.ambiguous = true;
                    }
                }
                None => {
                    table.insert(
                        sig.name.clone(),
                        SigEntry { has_self: sig.has_self, param_classes: classes, ambiguous: false },
                    );
                }
            }
        }
    }
    table
}

/// Runs the whole unit-flow analysis over the workspace.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let sigs = build_sig_table(files);
    for f in files {
        if f.kind != FileKind::Lib || f.rel == EXEMPT_FILE {
            continue;
        }
        check_assignments(f, out);
        check_arithmetic(f, out);
        check_calls(f, &sigs, out);
    }
}

/// The classified first term of an expression starting at `i`:
/// `(class, end_index_exclusive)`. Walks one path / call / field chain,
/// letting classified method calls re-classify the chain
/// (`x_db.to_radians()` → radians) and unclassified ones (`.max(…)`)
/// keep the receiver's class. Field access re-classifies by field name
/// (unknown fields drop to unclassified — conservative).
fn term_class(f: &SourceFile, start: usize) -> (Option<UnitClass>, usize) {
    let toks = &f.tokens;
    let mut i = start;
    // Leading sign / reference / deref sugar.
    while toks
        .get(i)
        .is_some_and(|t| t.is_punct('-') || t.is_punct('&') || t.is_punct('*') || t.is_ident("mut"))
    {
        i += 1;
    }
    let mut cls;
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Number(_)) => {
            return (None, i + 1);
        }
        Some(TokenKind::Ident(_)) => {}
        Some(TokenKind::Punct('(')) => {
            // Parenthesised subexpression: opaque.
            return (None, match_delim(toks, i) + 1);
        }
        _ => return (None, i + 1),
    }
    // Path: a::b::c — the final segment names the value or callee.
    let mut last = String::new();
    while let Some(TokenKind::Ident(w)) = toks.get(i).map(|t| &t.kind) {
        last = w.clone();
        i += 1;
        if toks.get(i).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && matches!(toks.get(i + 2).map(|t| &t.kind), Some(TokenKind::Ident(_)))
        {
            i += 2;
        } else {
            break;
        }
    }
    if toks.get(i).is_some_and(|t| t.is_punct('(')) {
        // Call: class of the callee name.
        cls = classify_name(&last);
        i = match_delim(toks, i) + 1;
    } else {
        cls = classify_name(&last).or_else(|| classify_type(&last));
    }
    // Trailing `.field` / `.method(...)` / `.0` chain.
    while toks.get(i).is_some_and(|t| t.is_punct('.')) {
        match toks.get(i + 1).map(|t| &t.kind) {
            Some(TokenKind::Ident(w)) => {
                let w = w.clone();
                if toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    // Method: classified methods convert, the rest
                    // (max, clamp, abs, …) preserve the class — except
                    // combinators taking a closure (`.map(|g| …)`),
                    // where the closure decides the value's class and
                    // we can't see inside it.
                    let (args, close) = interior(toks, i + 2);
                    if let Some(c) = classify_name(&w) {
                        cls = Some(c);
                    } else if args.iter().any(|t| t.is_punct('|')) {
                        cls = None;
                    }
                    i = close + 1;
                } else {
                    // Field access: class follows the field name.
                    cls = classify_name(&w);
                    i += 2;
                }
            }
            Some(TokenKind::Number(_)) => i += 2, // tuple index keeps class
            _ => break,
        }
    }
    (cls, i)
}

/// The class of the value *ending* at token `end` (the left operand of
/// an operator): a bare ident, a field (`a.b_db`), or a call
/// (`linear_to_db(x)`).
fn left_class(f: &SourceFile, end: usize) -> Option<UnitClass> {
    let toks = &f.tokens;
    match toks.get(end).map(|t| &t.kind) {
        Some(TokenKind::Ident(w)) => classify_name(w),
        Some(TokenKind::Punct(')')) => {
            // Walk back to the matching `(`; the ident before it is the
            // callee (grouping parens have none → unclassified).
            let mut depth = 0i32;
            let mut k = end;
            loop {
                match toks[k].kind {
                    TokenKind::Punct(')') => depth += 1,
                    TokenKind::Punct('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            match k.checked_sub(1).map(|j| &toks[j].kind) {
                Some(TokenKind::Ident(w)) => classify_name(w),
                _ => None,
            }
        }
        _ => None,
    }
}

/// `let` bindings, plain assignments, compound assignments, and
/// struct-literal / pattern field bindings.
fn check_assignments(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    // -- `let name [: Type] = term`: the name classifies, else the
    // annotation's last ident.
    for l in &f.parsed.lets {
        let (Some(eq), [name]) = (l.eq, l.names.as_slice()) else {
            continue;
        };
        if f.is_test_code(l.start) {
            continue;
        }
        let ann = l.ty.and_then(|(lo, hi)| {
            toks[lo..hi].iter().rev().find_map(|t| match &t.kind {
                TokenKind::Ident(w) => Some(w.as_str()),
                _ => None,
            })
        });
        let ann = ann.and_then(classify_type);
        let (rhs, _) = term_class(f, eq + 1);
        if let (Some(a), Some(b)) = (classify_name(name).or(ann), rhs) {
            if !compatible(a, b, '=') {
                out.push(Diagnostic::new(
                    f,
                    "unit-mix-assign",
                    toks[l.start].line,
                    format!(
                        "binding classified as {} is initialised from a {} value; convert through movr_math::db or to_degrees/to_radians first",
                        a.name(),
                        b.name()
                    ),
                ));
            }
        }
    }
    let let_eqs: BTreeSet<usize> = f.parsed.lets.iter().filter_map(|l| l.eq).collect();
    for i in 0..toks.len() {
        if f.is_test_code(i) {
            continue;
        }
        // -- plain `name = term` and compound `name op= term`; a `let`'s
        // own `=` was handled above.
        if toks[i].is_punct('=')
            && !toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && i >= 1
            && !let_eqs.contains(&i)
        {
            let prev = &toks[i - 1];
            // Exclude comparisons (`==`, `<=`, `>=`, `!=`) and arrows.
            if matches!(prev.kind, TokenKind::Punct('=') | TokenKind::Punct('<') | TokenKind::Punct('>') | TokenKind::Punct('!')) {
                continue;
            }
            let (lhs_end, op) = if matches!(
                prev.kind,
                TokenKind::Punct('+') | TokenKind::Punct('-') | TokenKind::Punct('*')
            ) {
                let TokenKind::Punct(c) = prev.kind else { unreachable!() };
                (i.checked_sub(2), c)
            } else {
                (i.checked_sub(1), '=')
            };
            let Some(lhs_end) = lhs_end else { continue };
            let lhs = left_class(f, lhs_end);
            let (rhs, _) = term_class(f, i + 1);
            if let (Some(a), Some(b)) = (lhs, rhs) {
                if !compatible(a, b, op) {
                    out.push(Diagnostic::new(
                        f,
                        "unit-mix-assign",
                        toks[i].line,
                        format!(
                            "assignment stores a {} value into a {} slot; convert through the audited helpers first",
                            b.name(),
                            a.name()
                        ),
                    ));
                }
            }
            continue;
        }
        // -- struct-literal / pattern field binding `name_db: term`
        if toks[i].is_punct(':')
            && i >= 1
            && !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks[i - 1].is_punct(':')
        {
            let Some(TokenKind::Ident(field)) = toks.get(i - 1).map(|t| &t.kind) else {
                continue;
            };
            let Some(a) = classify_name(field) else { continue };
            let (rhs, _) = term_class(f, i + 1);
            let Some(b) = rhs else { continue };
            if !compatible(a, b, '=') {
                out.push(Diagnostic::new(
                    f,
                    "unit-mix-assign",
                    toks[i].line,
                    format!(
                        "field `{field}` ({}) is bound to a {} value",
                        a.name(),
                        b.name()
                    ),
                ));
            }
        }
    }
}

/// Binary `+`/`-`/`*` with classified operands of incompatible classes.
fn check_arithmetic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let TokenKind::Punct(op @ ('+' | '-' | '*')) = toks[i].kind else {
            continue;
        };
        if f.is_test_code(i) {
            continue;
        }
        // Compound assignment handled by check_assignments; arrow `->`
        // and unary uses are not binary operators.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('=') || t.is_punct('>')) {
            continue;
        }
        let Some(prev) = i.checked_sub(1) else { continue };
        let binary = matches!(
            toks[prev].kind,
            TokenKind::Ident(_) | TokenKind::Number(_) | TokenKind::Punct(')') | TokenKind::Punct(']')
        );
        if !binary {
            continue;
        }
        let lhs = left_class(f, prev);
        let (rhs, _) = term_class(f, i + 1);
        if let (Some(a), Some(b)) = (lhs, rhs) {
            if !compatible(a, b, op) {
                out.push(Diagnostic::new(
                    f,
                    "unit-mix-arith",
                    toks[i].line,
                    format!(
                        "`{op}` combines a {} operand with a {} operand; only same-class (or dB±dBm) arithmetic is sound",
                        a.name(),
                        b.name()
                    ),
                ));
            }
        }
    }
}

/// Call-argument bindings checked against the workspace signature table.
fn check_calls(f: &SourceFile, sigs: &BTreeMap<String, SigEntry>, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let TokenKind::Ident(name) = &toks[i].kind else { continue };
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) || f.is_test_code(i) {
            continue;
        }
        // Skip definitions and macro invocations.
        if i >= 1 && (toks[i - 1].is_ident("fn") || toks.get(i + 1).is_some_and(|t| t.is_punct('!'))) {
            continue;
        }
        let Some(entry) = sigs.get(name.as_str()) else { continue };
        if entry.ambiguous || entry.param_classes.iter().all(Option::is_none) {
            continue;
        }
        let is_method_call = i >= 1 && toks[i - 1].is_punct('.');
        // Methods must be called as methods, free fns as free fns —
        // anything else we cannot align positionally.
        if entry.has_self != is_method_call {
            continue;
        }
        let open = i + 1;
        let close = match_delim(toks, open);
        let mut arg_start = open + 1;
        let mut arg_idx = 0usize;
        while arg_start < close && arg_idx < entry.param_classes.len() {
            let (cls, _) = term_class(f, arg_start);
            // Only flag when the whole argument is that single term —
            // a following `,` or the closing paren. Composite args
            // (`a_db - b_db`) are the arithmetic checker's business.
            let (_, end) = term_class(f, arg_start);
            let simple = end >= close || toks.get(end).is_some_and(|t| t.is_punct(','));
            if simple {
                if let (Some(want), Some(got)) = (entry.param_classes[arg_idx], cls) {
                    if !compatible(want, got, '=') {
                        out.push(Diagnostic::new(
                            f,
                            "unit-mix-call",
                            toks[i].line,
                            format!(
                                "argument {} of `{name}` wants {} but receives {}",
                                arg_idx + 1,
                                want.name(),
                                got.name()
                            ),
                        ));
                    }
                }
            }
            // Advance to the next top-level comma.
            let mut depth = 0i32;
            let mut k = arg_start;
            while k < close {
                match toks[k].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1;
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        depth -= 1;
                    }
                    TokenKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            arg_start = k + 1;
            arg_idx += 1;
        }
    }
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
    fn classify_conventions() {
        assert_eq!(classify_name("min_snr_db"), Some(UnitClass::Db));
        assert_eq!(classify_name("tx_power_dbm"), Some(UnitClass::Dbm));
        assert_eq!(classify_name("db_to_linear"), Some(UnitClass::Linear));
        assert_eq!(classify_name("linear_to_db"), Some(UnitClass::Db));
        assert_eq!(classify_name("to_radians"), Some(UnitClass::Radians));
        assert_eq!(classify_name("boresight_deg"), Some(UnitClass::Degrees));
        assert_eq!(classify_name("margin"), None);
        assert_eq!(classify_name("update"), None, "`update` must not read as _deg/_db");
        assert_eq!(classify_type("SimTime"), Some(UnitClass::SimTime));
    }

    #[test]
    fn let_binding_mix_flags() {
        assert_eq!(
            hits("fn f(leak_linear: f64) { let total_db = leak_linear; }"),
            [("unit-mix-assign", 1)]
        );
        assert!(hits("fn f(gain_db: f64) { let total_db = gain_db; }").is_empty());
        assert!(hits("fn f(leak_linear: f64) { let total_db = linear_to_db(leak_linear); }").is_empty());
    }

    #[test]
    fn db_dbm_sum_is_fine_but_assignment_is_not() {
        assert!(hits("fn f(p_dbm: f64, g_db: f64) { let rx_dbm = p_dbm + g_db; }").is_empty());
        assert_eq!(
            hits("fn f(p_dbm: f64) { let g_db = p_dbm; }"),
            [("unit-mix-assign", 1)]
        );
    }

    #[test]
    fn arithmetic_mix_flags() {
        assert_eq!(
            hits("fn f(snr_db: f64, leak_linear: f64) -> f64 { snr_db + leak_linear }"),
            [("unit-mix-arith", 1)]
        );
        assert_eq!(
            hits("fn f(yaw_deg: f64, tilt_rad: f64) -> f64 { yaw_deg - tilt_rad }"),
            [("unit-mix-arith", 1)]
        );
        assert!(hits("fn f(a_db: f64, b_db: f64) -> f64 { a_db - b_db }").is_empty());
        assert!(hits("fn f(a_db: f64, n: f64) -> f64 { a_db * n }").is_empty());
    }

    #[test]
    fn method_chain_preserves_or_converts_class() {
        assert!(hits("fn f(a_deg: f64, b_deg: f64) -> f64 { a_deg.max(0.0) - b_deg }").is_empty());
        assert_eq!(
            hits("fn f(a_deg: f64, b_deg: f64) -> f64 { a_deg.to_radians() - b_deg }"),
            [("unit-mix-arith", 1)]
        );
    }

    #[test]
    fn closure_combinators_erase_the_class() {
        // `.map(|g| …)` computes whatever the closure computes — the
        // receiver's class must not leak through it.
        assert!(hits(
            "fn f(gain_db: Option<f64>, p_dbm: f64) { let out_dbm = gain_db.map(|g| p_dbm + g); }"
        )
        .is_empty());
    }

    #[test]
    fn call_binding_mix_flags() {
        let src = "fn apply(gain_db: f64) -> f64 { gain_db }\n\
                   fn f(leak_linear: f64) -> f64 { apply(leak_linear) }";
        assert_eq!(hits(src), [("unit-mix-call", 2)]);
        let ok = "fn apply(gain_db: f64) -> f64 { gain_db }\n\
                  fn f(g_db: f64) -> f64 { apply(g_db) }";
        assert!(hits(ok).is_empty());
    }

    #[test]
    fn struct_literal_field_mix_flags() {
        assert_eq!(
            hits("fn f(leak_linear: f64) -> P { P { gain_db: leak_linear } }"),
            [("unit-mix-assign", 1)]
        );
        assert!(hits("fn f(g: f64) -> P { P { gain_db: g } }").is_empty());
    }

    #[test]
    fn unclassified_operands_never_fire() {
        assert!(hits("fn f(a: f64, b: f64) -> f64 { let c = a + b; c * 2.0 }").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f(a_db: f64, b_linear: f64) -> f64 { a_db + b_linear } }";
        assert!(hits(src).is_empty());
    }
}
