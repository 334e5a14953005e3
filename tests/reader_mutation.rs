//! Mutation harness for the workspace's readers: seeded bit flips,
//! truncations, splices and duplicated lines applied to a recorded
//! fleet session's timeline and to the checked-in perf-ratchet baseline,
//! `bench-baseline.toml`.
//!
//! Over every JSONL mutant, [`FlatObject::parse`] and [`Json::parse`]
//! (line by line), [`reduce_lines`] and [`reduce_one_stream`] must
//! return `Ok` or a structured error and never panic. A [`ReduceError`]
//! must name a line at or after the first line the mutation touched:
//! the untouched prefix reduces cleanly, so an earlier line would be a
//! misattributed error. Where the mutant is still UTF-8, the streaming
//! and the borrowed-line reducer must agree. Where the flat reader
//! accepts a mutant line, `Json::parse` must accept it too and read
//! every field the same: the reducer folds a line through whichever of
//! the two took it, so that is what keeps its errors and rollups
//! independent of the reader.
//!
//! Session 6 of the canonical fleet is small (677 lines in 1 s) yet
//! has every event kind the reducer folds: frames, mode switches,
//! realignments, stall recoveries and `realign_stall` spans.
//!
//! Each baseline mutant goes through the TOML reader and the typed
//! [`parse_baseline`]; neither may panic, and a TOML syntax error names a
//! line at or after the first mutated one.

use movr_math::json::{FlatObject, Scalar};
use movr_math::toml;
use movr_obs::{parse_baseline, reduce_lines, reduce_one_stream, Json, ReduceError, Rollup};
use movr_system::fleet::session_jsonl;
use movr_testkit::{choice, prop_assert, prop_assert_eq, property, u64_range, PropError};
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

/// What each accessor reads from a field: `as_f64`'s bits, `as_u64`,
/// `as_str` and `as_bool`.
type Reading<'a> = (Option<u64>, Option<u64>, Option<&'a str>, Option<bool>);

fn flat_reading<'a>(v: &'a Scalar<'_>) -> Reading<'a> {
    (
        v.as_f64().map(f64::to_bits),
        v.as_u64(),
        v.as_str(),
        v.as_bool(),
    )
}

fn json_reading<'a>(v: &'a Json<'_>) -> Reading<'a> {
    (
        v.as_f64().map(f64::to_bits),
        v.as_u64(),
        v.as_str(),
        v.as_bool(),
    )
}

/// Runs both readers on `line` and says how the flat reader's reading
/// differs from [`Json::parse`]'s, if it accepts the line: `Json::parse`
/// rejecting it, a key out of order, or any accessor reading the first
/// field of some key differently.
fn flat_disagreement(line: &str) -> Option<String> {
    let doc = Json::parse(line);
    let flat = FlatObject::parse(line)?;
    let doc = match doc {
        Ok(doc) => doc,
        Err(e) => {
            return Some(format!(
                "{line:?}: the flat reader accepts it, Json::parse says {e}"
            ))
        }
    };
    let keys: Vec<&str> = flat.fields().iter().map(|(k, _)| *k).collect();
    let json_keys: Vec<&str> = doc
        .fields()
        .map_or(Vec::new(), |f| f.iter().map(|(k, _)| k.as_str()).collect());
    if keys != json_keys {
        return Some(format!("{line:?}: keys {keys:?} against {json_keys:?}"));
    }
    keys.into_iter().find_map(|key| {
        let a = flat.get(key).map(flat_reading);
        let b = doc.get(key).map(json_reading);
        (a != b).then(|| format!("{line:?}: `{key}` reads {a:?} against {b:?}"))
    })
}

/// Runs every reader over `mutant`: the flat reader and the parser on
/// each (lossily decoded) line, the streaming reducer on the raw bytes,
/// and the borrowed-line reducer where the bytes are UTF-8. Returns the
/// first line the two readers read differently, then the reducers'
/// errors.
fn read_all(
    mutant: &[u8],
) -> (
    Option<String>,
    Option<ReduceError>,
    Option<Option<ReduceError>>,
) {
    let disagreement = String::from_utf8_lossy(mutant)
        .lines()
        .find_map(flat_disagreement);
    let streamed = reduce_one_stream(LABEL, mutant).err();
    let borrowed = std::str::from_utf8(mutant).ok().map(|text| {
        let mut rollup = Rollup::new();
        reduce_lines(LABEL, text.lines(), &mut rollup).err()
    });
    (disagreement, streamed, borrowed)
}

#[test]
fn unmutated_timeline_reduces_cleanly() {
    let (disagreement, streamed, borrowed) = read_all(timeline());
    assert!(disagreement.is_none(), "{disagreement:?}");
    assert!(streamed.is_none(), "{streamed:?}");
    assert!(matches!(borrowed, Some(None)), "{borrowed:?}");
    // Every recorded line takes the reducer's flat path: a writer change
    // that sends lines to the fallback fails here, not only in a bench.
    let text = std::str::from_utf8(timeline()).expect("the timeline is UTF-8");
    let declined: Vec<&str> = text
        .lines()
        .filter(|l| FlatObject::parse(l).is_none())
        .collect();
    assert!(
        declined.is_empty(),
        "{} of {} lines declined, first {:?}",
        declined.len(),
        text.lines().count(),
        declined.first()
    );
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
        let (disagreement, streamed, borrowed) = catch_unwind(AssertUnwindSafe(|| read_all(&mutant)))
            .map_err(|_| PropError::failed(format!("a reader panicked on {m:?} ({a}, {b})")))?;
        if let Some(d) = disagreement {
            return Err(PropError::failed(format!("{m:?} ({a}, {b}): {d}")));
        }
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

const BASELINE: &str = include_str!("../bench-baseline.toml");

#[test]
fn checked_in_bench_baseline_reads_cleanly() {
    parse_baseline(BASELINE).expect("bench-baseline.toml parses");
}

property! {
    cases = 384,
    fn mutated_bench_baselines_fail_structurally(
        m in choice(vec![
            Mutation::BitFlip,
            Mutation::Truncate,
            Mutation::Splice,
            Mutation::DuplicateLine,
        ]),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, u64::MAX),
    ) {
        let mutant = mutate(BASELINE.as_bytes(), m, a, b);
        let first = first_mutated_line(BASELINE.as_bytes(), &mutant);
        let mutant = String::from_utf8_lossy(&mutant);
        let (syntax, typed) = catch_unwind(AssertUnwindSafe(|| {
            (toml::parse(&mutant).err(), parse_baseline(&mutant).err())
        }))
        .map_err(|_| PropError::failed(format!("a reader panicked on {m:?} ({a}, {b})")))?;
        if let Some(e) = &syntax {
            let at = movr_math::convert::usize_to_u64(e.line);
            prop_assert!(at >= first, "{} is before the first mutated line {}", e, first);
            prop_assert!(typed.is_some(), "{} passed the typed parser", e);
        }
        if let Some(e) = typed {
            prop_assert!(!e.what.is_empty());
        }
    }
}
