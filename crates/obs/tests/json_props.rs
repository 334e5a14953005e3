//! Writer → reader round trip: any [`Event`] the recorders can write,
//! [`Json::parse`] reads back field for field.
//!
//! Kinds, field names and string values come from a fixed set that
//! mixes plain text (read back as slices of the line) with quotes,
//! backslashes and control characters (escaped by the writer, so read
//! back as owned copies), for keys and values alike. Floats range over
//! every bit pattern, non-finite ones included, which the writer
//! encodes as `null`.
//!
//! Runs on the in-tree `movr-testkit` harness; overridable with
//! `MOVR_TESTKIT_CASES` / `MOVR_TESTKIT_SEED`.

use movr_obs::{Event, Json, Value};
use movr_sim::SimTime;
use movr_testkit::{
    prop_assert, prop_assert_eq, property, u64_range, usize_range, vec_of, PropError,
};

/// Kinds, field names and string values. None is `t_ns` or `kind`, so
/// every generated field is reachable through `Json::get`.
const TEXTS: [&str; 12] = [
    "frame",
    "gain_step",
    "snr_db",
    "",
    "has \"quote\"",
    "back\\slash",
    "tab\there",
    "line\nbreak",
    "\u{1}\u{1f}",
    "\u{7f}del",
    "mé",
    "déjà \"vu\" \\ \u{0}",
];

/// Float values the bit-pattern draw would almost never hit.
const SPECIAL_F64: [f64; 10] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    -f64::MAX,
    1e-7,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Largest integer the reader returns: past 2^53 − 1 two integer
/// literals can parse to the same `f64`.
const EXACT: u64 = movr_math::json::MAX_EXACT_INTEGER;

/// One field from `(name, variant, integer, float bits, text)` draws.
fn field(
    (name, variant, int, bits, text): (usize, usize, u64, u64, usize),
) -> (&'static str, Value) {
    let value = match variant {
        0 => Value::Bool(int % 2 == 1),
        1 => Value::U64(int),
        2 if text % 2 == 0 => Value::I64(int as i64),
        2 => Value::I64(-(int as i64)),
        3 => Value::F64(f64::from_bits(bits)),
        4 => Value::F64(SPECIAL_F64[text % SPECIAL_F64.len()]),
        _ => Value::Str(TEXTS[text]),
    };
    (TEXTS[name], value)
}

property! {
    cases = 512,
    fn every_written_event_reads_back_field_for_field(
        t_ns in u64_range(0, EXACT),
        kind in usize_range(0, TEXTS.len() - 1),
        draws in vec_of(
            (
                usize_range(0, TEXTS.len() - 1),
                usize_range(0, 5),
                u64_range(0, EXACT),
                u64_range(0, u64::MAX),
                usize_range(0, TEXTS.len() - 1),
            ),
            0,
            8,
        ),
    ) {
        let mut event = Event::new(SimTime::from_nanos(t_ns), TEXTS[kind]);
        for (name, value) in draws.into_iter().map(field) {
            // Distinct names: `get` returns the first match.
            if event.field(name).is_none() {
                event = event.with(name, value);
            }
        }
        let line = event.json_line();
        let doc = Json::parse(&line)
            .map_err(|e| PropError::failed(format!("{e} in {line:?}")))?;
        prop_assert_eq!(doc.get("t_ns").and_then(Json::as_u64), Some(t_ns));
        prop_assert_eq!(doc.get("kind").and_then(Json::as_str), Some(TEXTS[kind]));
        prop_assert_eq!(doc.fields().map(<[_]>::len), Some(event.fields.len() + 2));
        for &(name, value) in &event.fields {
            let got = doc.get(name);
            let same = match value {
                Value::Bool(b) => got.and_then(Json::as_bool) == Some(b),
                Value::U64(n) => got.and_then(Json::as_u64) == Some(n),
                Value::I64(n) => {
                    got.and_then(Json::as_f64).map(f64::to_bits) == Some((n as f64).to_bits())
                }
                Value::F64(x) if x.is_finite() => {
                    got.and_then(Json::as_f64).map(f64::to_bits) == Some(x.to_bits())
                }
                Value::F64(_) => got == Some(&Json::Null),
                Value::Str(s) => got.and_then(Json::as_str) == Some(s),
            };
            prop_assert!(same, "{:?} = {:?} read back as {:?} from {:?}", name, value, got, line);
        }
    }
}
