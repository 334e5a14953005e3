//! Analyzer self-test: runs the full rule catalogue against the seeded
//! fixture workspace and asserts the *exact* (rule, file, line) of
//! every diagnostic — any drift in the lexer or a rule shows up as a
//! precise diff here. Also exercises the ratchet round-trip on the
//! fixture findings.

use movr_lint::{analyze, apply_baseline, Baseline, RULES};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// `(rule, file, line)` for every expected fixture diagnostic, in the
/// engine's reporting order (file, then line, then rule).
const EXPECTED: &[(&str, &str, usize)] = &[
    ("no-wall-clock", "crates/alpha/src/lib.rs", 4),
    ("no-wall-clock", "crates/alpha/src/lib.rs", 6),
    ("no-wall-clock", "crates/alpha/src/lib.rs", 7),
    ("no-external-rng", "crates/alpha/src/lib.rs", 11),
    ("no-external-rng", "crates/alpha/src/lib.rs", 11),
    ("rng-fork-label-unique", "crates/alpha/src/lib.rs", 17),
    ("raw-db-arithmetic", "crates/alpha/src/lib.rs", 22),
    ("raw-db-arithmetic", "crates/alpha/src/lib.rs", 26),
    ("float-exact-eq", "crates/alpha/src/lib.rs", 30),
    ("recorded-pairing", "crates/alpha/src/lib.rs", 33),
    ("unwrap-in-lib", "crates/alpha/src/lib.rs", 36),
    ("raw-numeric-cast", "crates/alpha/src/lib.rs", 40),
    ("unjustified-allow", "crates/alpha/src/lib.rs", 43),
    ("layer-violation", "crates/beta/src/lib.rs", 10),
    ("layer-violation", "crates/beta/src/lib.rs", 14),
    ("layer-violation", "crates/beta/src/lib.rs", 18),
    ("panic-reachable-from-decode", "crates/codec/src/lib.rs", 12),
    ("panic-reachable-from-decode", "crates/codec/src/lib.rs", 21),
    ("recorded-effect-divergence", "crates/codec/src/lib.rs", 57),
    ("blocking-in-hot-loop", "crates/hot/src/lib.rs", 13),
    ("blocking-in-hot-loop", "crates/hot/src/lib.rs", 21),
    ("blocking-in-hot-loop", "crates/hot/src/lib.rs", 21),
    ("no-wall-clock", "crates/hot/src/lib.rs", 27),
    ("unordered-iter-in-output", "crates/outp/src/lib.rs", 10),
    ("unordered-iter-in-output", "crates/outp/src/lib.rs", 18),
    ("shared-mut-in-par-closure", "crates/par/src/lib.rs", 15),
    ("interior-mut-crosses-threads", "crates/par/src/lib.rs", 16),
    ("rng-unforked-in-par", "crates/par/src/lib.rs", 17),
    ("shared-mut-in-par-closure", "crates/par/src/lib.rs", 24),
    ("rng-unforked-in-par", "crates/par/src/lib.rs", 59),
    ("rng-fork-aliased", "crates/rng/src/lib.rs", 4),
    ("rng-fork-in-loop", "crates/rng/src/lib.rs", 9),
    ("rng-cross-crate-untagged", "crates/rng/src/lib.rs", 15),
    ("unit-mix-assign", "crates/units/src/lib.rs", 8),
    ("unit-mix-arith", "crates/units/src/lib.rs", 9),
    ("unit-mix-call", "crates/units/src/lib.rs", 10),
    ("no-wall-clock", "tests/integration.rs", 9),
    ("no-wall-clock", "tests/integration.rs", 10),
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
    let unwrap = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "unwrap-in-lib")
        .expect("unwrap hit");
    assert_eq!(unwrap.snippet, "v.unwrap()");
}

#[test]
fn ratchet_roundtrip_on_fixture() {
    let report = analyze(&fixture_root()).expect("fixture workspace analyzes");
    let total = report.diagnostics.len();

    // Pinning exactly the current findings makes the gate clean.
    let pinned = Baseline::parse(&Baseline::render(&report.counts())).expect("baseline");
    let clean = apply_baseline(analyze(&fixture_root()).expect("re-analyze"), &pinned);
    assert!(clean.is_clean(), "{}", clean.render_human());
    assert_eq!(clean.baselined, total);

    // An empty baseline reports everything as new.
    let raw = apply_baseline(analyze(&fixture_root()).expect("re-analyze"), &Baseline::empty());
    assert_eq!(raw.new.len(), total);
    assert!(!raw.is_clean());
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

#[test]
fn json_report_mentions_every_rule_hit() {
    let report = apply_baseline(
        analyze(&fixture_root()).expect("fixture workspace analyzes"),
        &Baseline::empty(),
    );
    let json = report.render_json();
    for (rule, _) in RULES {
        assert!(json.contains(rule), "JSON output missing rule `{rule}`");
    }
    assert!(json.contains("\"clean\": false"));
}
