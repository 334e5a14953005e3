//! Analyzer self-test: runs the full rule catalogue against the seeded
//! fixture workspace and asserts the *exact* (rule, file, line) of
//! every diagnostic — any drift in the lexer or a rule shows up as a
//! precise diff here.
//!
//! The fixture also keeps the examples of the checks rustc and clippy
//! now own (wall clocks, `rand::`, exact float compares, unwraps, `as`
//! casts, reasonless allows, parallel-closure captures); none of them
//! may produce a movr-lint finding.

use movr_lint::{analyze, RULES};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// `(rule, file, line)` for every expected fixture diagnostic, in the
/// engine's reporting order (file, then line, then rule).
const EXPECTED: &[(&str, &str, usize)] = &[
    ("rng-fork-label-unique", "crates/alpha/src/lib.rs", 17),
    ("raw-db-arithmetic", "crates/alpha/src/lib.rs", 22),
    ("raw-db-arithmetic", "crates/alpha/src/lib.rs", 26),
    ("recorded-pairing", "crates/alpha/src/lib.rs", 33),
    ("rng-fork-aliased", "crates/rng/src/lib.rs", 4),
    ("rng-fork-in-loop", "crates/rng/src/lib.rs", 9),
    ("rng-cross-crate-untagged", "crates/rng/src/lib.rs", 15),
    ("unit-mix-assign", "crates/units/src/lib.rs", 8),
    ("unit-mix-arith", "crates/units/src/lib.rs", 9),
    ("unit-mix-call", "crates/units/src/lib.rs", 10),
];

#[test]
fn fixture_hits_are_exact() {
    let report = analyze(&fixture_root()).expect("fixture workspace analyzes");
    let hits: Vec<(&str, &str, usize)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(hits, EXPECTED, "full diagnostic list drifted");
}

#[test]
fn every_rule_fires_on_the_fixture() {
    let report = analyze(&fixture_root()).expect("fixture workspace analyzes");
    for (rule, _) in RULES {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == *rule),
            "rule `{rule}` produced no fixture diagnostic — catalogue untested"
        );
    }
}

#[test]
fn diagnostics_carry_snippets_and_hints() {
    let report = analyze(&fixture_root()).expect("fixture workspace analyzes");
    for d in &report.diagnostics {
        assert!(!d.snippet.is_empty(), "{}:{} has no snippet", d.file, d.line);
        assert!(!d.hint.is_empty(), "{}:{} has no hint", d.file, d.line);
    }
    let raw_db = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "raw-db-arithmetic")
        .expect("raw-db hit");
    assert_eq!(raw_db.snippet, "10f64.powf(x / 10.0)");
}

#[test]
fn exempt_db_file_mixes_units_cleanly() {
    // The fixture's crates/math/src/db.rs assigns a dB value to a
    // `linear`-named binding — the one place that must never fire.
    let report = analyze(&fixture_root()).expect("fixture workspace analyzes");
    assert!(
        !report.diagnostics.iter().any(|d| d.file == "crates/math/src/db.rs"),
        "the audited conversion site must produce no diagnostics"
    );
}
