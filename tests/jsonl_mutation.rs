//! Mutation harness for the JSONL reader: seeded bit flips,
//! truncations, splices and duplicated lines applied to a recorded
//! fleet session's timeline.
//!
//! Over every mutant, [`Json::parse`] (line by line), [`reduce_lines`]
//! and [`reduce_one_stream`] must return `Ok` or a structured error and
//! never panic. A [`ReduceError`] must name a line at or after the
//! first line the mutation touched: the untouched prefix reduces
//! cleanly, so an earlier line would be a misattributed error. Where
//! the mutant is still UTF-8, the streaming and the borrowed-line
//! reducer must agree.
//!
//! Session 6 of the canonical fleet is small (677 lines in 1 s) yet
//! has every event kind the reducer folds: frames, mode switches,
//! realignments, stall recoveries and `realign_stall` spans.

use movr_obs::{reduce_lines, reduce_one_stream, Json, ReduceError, Rollup};
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
