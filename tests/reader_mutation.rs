//! Mutation harness for the workspace's readers: seeded bit flips,
//! truncations, splices and duplicated lines applied to a recorded
//! fleet session's timeline, to the three checked-in TOML configs and
//! to a rendered SARIF log.
//!
//! Over every JSONL mutant, [`Json::parse`] (line by line),
//! [`reduce_lines`] and [`reduce_one_stream`] must return `Ok` or a
//! structured error and never panic. A [`ReduceError`] must name a line
//! at or after the first line the mutation touched: the untouched
//! prefix reduces cleanly, so an earlier line would be a misattributed
//! error. Where the mutant is still UTF-8, the streaming and the
//! borrowed-line reducer must agree.
//!
//! Session 6 of the canonical fleet is small (677 lines in 1 s) yet
//! has every event kind the reducer folds: frames, mode switches,
//! realignments, stall recoveries and `realign_stall` spans.
//!
//! Each config mutant goes through its own typed parser
//! ([`Baseline::parse`], [`LayerSpec::parse`], [`parse_baseline`]) and
//! each SARIF mutant through [`sarif::validate`]; none may panic, and a
//! TOML syntax error names a line at or after the first mutated one.

use movr_lint::{sarif, Baseline, Diagnostic, LayerSpec, Report, StaleEntry};
use movr_math::toml;
use movr_obs::{parse_baseline, reduce_lines, reduce_one_stream, Json, ReduceError, Rollup};
use movr_system::fleet::session_jsonl;
use movr_testkit::{
    choice, prop_assert, prop_assert_eq, property, u64_range, usize_range, vec_of, PropError,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

const LABEL: &str = "mutant.jsonl";

fn timeline() -> &'static [u8] {
    static TIMELINE: OnceLock<String> = OnceLock::new();
    TIMELINE.get_or_init(|| session_jsonl(6, 1.0)).as_bytes()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// Flip bit `b % 8` of byte `a`.
    BitFlip,
    /// Keep the first `a` bytes.
    Truncate,
    /// Join the text before byte `a` to the text from byte `b` on:
    /// a cut when `a < b`, a repeat when `a > b`.
    Splice,
    /// Insert a copy of line `a` before line `b`.
    DuplicateLine,
}

fn mutate(text: &[u8], m: Mutation, a: u64, b: u64) -> Vec<u8> {
    let cut = |x: u64| (x % (text.len() as u64 + 1)) as usize;
    match m {
        Mutation::BitFlip => {
            let mut out = text.to_vec();
            out[(a % text.len() as u64) as usize] ^= 1 << (b % 8);
            out
        }
        Mutation::Truncate => text[..cut(a)].to_vec(),
        Mutation::Splice => [&text[..cut(a)], &text[cut(b)..]].concat(),
        Mutation::DuplicateLine => {
            let mut lines: Vec<&[u8]> = text.split_inclusive(|&c| c == b'\n').collect();
            let copy = lines[(a % lines.len() as u64) as usize];
            lines.insert((b % (lines.len() as u64 + 1)) as usize, copy);
            lines.concat()
        }
    }
}

/// The 1-based line holding the first byte where `mutant` departs from
/// `text` (one past the last line when `mutant` is a prefix of it).
fn first_mutated_line(text: &[u8], mutant: &[u8]) -> u64 {
    let same = text.iter().zip(mutant).take_while(|(x, y)| x == y).count();
    1 + mutant[..same].iter().filter(|&&c| c == b'\n').count() as u64
}

/// Runs every reader over `mutant`: the parser on each (lossily
/// decoded) line, the streaming reducer on the raw bytes, and the
/// borrowed-line reducer where the bytes are UTF-8.
fn read_all(mutant: &[u8]) -> (Option<ReduceError>, Option<Option<ReduceError>>) {
    for line in String::from_utf8_lossy(mutant).lines() {
        let _ = Json::parse(line);
    }
    let streamed = reduce_one_stream(LABEL, mutant).err();
    let borrowed = std::str::from_utf8(mutant).ok().map(|text| {
        let mut rollup = Rollup::new();
        reduce_lines(LABEL, text.lines(), &mut rollup).err()
    });
    (streamed, borrowed)
}

#[test]
fn unmutated_timeline_reduces_cleanly() {
    let (streamed, borrowed) = read_all(timeline());
    assert!(streamed.is_none(), "{streamed:?}");
    assert!(matches!(borrowed, Some(None)), "{borrowed:?}");
}

property! {
    cases = 384,
    fn mutated_timelines_fail_structurally_at_or_after_the_mutation(
        m in choice(vec![
            Mutation::BitFlip,
            Mutation::Truncate,
            Mutation::Splice,
            Mutation::DuplicateLine,
        ]),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, u64::MAX),
    ) {
        let text = timeline();
        let mutant = mutate(text, m, a, b);
        let first = first_mutated_line(text, &mutant);
        let (streamed, borrowed) = catch_unwind(AssertUnwindSafe(|| read_all(&mutant)))
            .map_err(|_| PropError::failed(format!("a reader panicked on {m:?} ({a}, {b})")))?;
        for e in streamed.iter().chain(borrowed.iter().flatten()) {
            prop_assert!(e.stream == LABEL, "{}", e);
            prop_assert!(e.line >= first, "{} is before the first mutated line {}", e, first);
        }
        if let Some(borrowed) = borrowed {
            let key = |e: &Option<ReduceError>| e.as_ref().map(|e| (e.line, e.what.clone()));
            prop_assert_eq!(key(&streamed), key(&borrowed));
        }
    }
}

/// The checked-in configs, each with its typed parser's verdict.
type ConfigReader = fn(&str) -> Result<(), String>;

const CONFIGS: [(&str, &str, ConfigReader); 3] = [
    ("lint-baseline.toml", include_str!("../lint-baseline.toml"), |t| {
        Baseline::parse(t).map(drop)
    }),
    ("lint-layers.toml", include_str!("../lint-layers.toml"), |t| {
        LayerSpec::parse(t).map(drop)
    }),
    ("bench-baseline.toml", include_str!("../bench-baseline.toml"), |t| {
        parse_baseline(t).map(drop).map_err(|e| e.to_string())
    }),
];

/// A SARIF log with one new diagnostic and one stale baseline entry,
/// both carrying text the writer must escape.
fn sarif_log() -> String {
    let new = vec![Diagnostic {
        rule: "unwrap-in-lib",
        file: "crates/demo/src/lib.rs".to_string(),
        line: 7,
        snippet: "let v = x.unwrap(); // \"why\"\t\\".to_string(),
        hint: "return a structured error".to_string(),
    }];
    let report = Report {
        diagnostics: new.clone(),
        new,
        stale: vec![StaleEntry {
            file: "crates/demo/src/déjà vu.rs".to_string(),
            rule: "float-exact-eq".to_string(),
            pinned: 2,
            actual: 1,
        }],
        baselined: 0,
        files_scanned: 1,
    };
    sarif::render(&report)
}

#[test]
fn checked_in_configs_and_rendered_sarif_read_cleanly() {
    for (name, text, read) in CONFIGS {
        assert_eq!(read(text), Ok(()), "{name}");
    }
    assert_eq!(sarif::validate(&sarif_log()), Ok(()));
}

property! {
    cases = 384,
    fn mutated_configs_and_sarif_fail_structurally(
        input in usize_range(0, 3),
        m in choice(vec![
            Mutation::BitFlip,
            Mutation::Truncate,
            Mutation::Splice,
            Mutation::DuplicateLine,
        ]),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, u64::MAX),
    ) {
        let sarif = sarif_log();
        let (name, text, read): (&str, &str, Option<ConfigReader>) = match CONFIGS.get(input) {
            Some(&(name, text, read)) => (name, text, Some(read)),
            None => ("SARIF log", &sarif, None),
        };
        let mutant = mutate(text.as_bytes(), m, a, b);
        let first = first_mutated_line(text.as_bytes(), &mutant);
        let mutant = String::from_utf8_lossy(&mutant);
        let outcome = catch_unwind(AssertUnwindSafe(|| match read {
            Some(read) => {
                let syntax = toml::parse(&mutant).err();
                (syntax, read(&mutant).err())
            }
            None => (None, sarif::validate(&mutant).err().map(|errs| errs.join("; "))),
        }))
        .map_err(|_| PropError::failed(format!("{name}: a reader panicked on {m:?} ({a}, {b})")))?;
        let (syntax, typed) = outcome;
        if let Some(e) = &syntax {
            let at = movr_math::convert::usize_to_u64(e.line);
            prop_assert!(at >= first, "{}: {} is before the first mutated line {}", name, e, first);
            prop_assert!(typed.is_some(), "{}: {} passed the typed parser", name, e);
        }
        if let Some(e) = typed {
            prop_assert!(!e.is_empty(), "{}: empty error", name);
        }
    }
}

property! {
    cases = 256,
    fn rendered_baselines_parse_back_entry_for_entry(
        entries in vec_of(
            (
                choice(vec![
                    "crates/a/src/lib.rs",
                    "dir/\"quoted\".rs",
                    "back\\slash.rs",
                    "hash#tag.rs",
                    "key = value.rs",
                    "[[entry]].rs",
                    "déjà/vu.rs",
                    "tab\tand\nnewline.rs",
                ]),
                choice(vec!["unwrap-in-lib", "float-exact-eq", "rule \"#=\\"]),
                usize_range(0, 40),
            ),
            0,
            12,
        ),
    ) {
        let counts: BTreeMap<(String, String), usize> = entries
            .iter()
            .map(|&(file, rule, count)| ((file.to_string(), rule.to_string()), count))
            .collect();
        let text = Baseline::render(&counts);
        let parsed = Baseline::parse(&text)
            .map_err(|e| PropError::failed(format!("{e}\n{text}")))?;
        let pinned: BTreeMap<(String, String), usize> =
            counts.into_iter().filter(|&(_, n)| n > 0).collect();
        prop_assert_eq!(parsed.len(), pinned.len());
        for ((file, rule), n) in &pinned {
            prop_assert_eq!(parsed.allowed(file, rule), *n);
        }
    }
}
