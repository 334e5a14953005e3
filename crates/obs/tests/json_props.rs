//! Writer → reader round trip: any [`Event`] the recorders can write,
//! [`Json::parse`] reads back field for field, and the reducer's flat
//! reader, [`FlatObject::parse`], reads the same wherever it accepts the
//! line. It must accept every line whose string values need no escaping
//! and whose floats are below 1e308 in magnitude: kinds and keys come
//! from the closed vocabulary, whose names need no escape, and an event
//! holds no more fields than the flat reader's array takes.
//!
//! Kinds and keys are drawn from the whole vocabulary ([`Kind::ALL`],
//! [`Key::ALL`]). String values come from a fixed set that mixes plain
//! text (read back as slices of the line) with quotes, backslashes and
//! control characters (escaped by the writer, so read back as owned
//! copies). Floats range over every bit pattern, non-finite ones
//! included, which the writer encodes as `null`.
//!
//! Runs on the in-tree `movr-testkit` harness; overridable with
//! `MOVR_TESTKIT_CASES` / `MOVR_TESTKIT_SEED`.

use movr_math::json::{FlatObject, Scalar, FLAT_FIELDS};
use movr_obs::{
    Event, Json, JsonlWriter, Key, Kind, MemoryRecorder, Recorder, SessionTagged, Value, MAX_FIELDS,
};
use movr_sim::SimTime;
use movr_testkit::{
    prop_assert, prop_assert_eq, property, u64_range, usize_range, vec_of, PropError,
};

/// String values: plain, and needing every kind of escape.
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

/// One field from `(key, variant, integer, float bits, text)` draws.
fn field((key, variant, int, bits, text): (usize, usize, u64, u64, usize)) -> (Key, Value) {
    let value = match variant {
        0 => Value::Bool(int % 2 == 1),
        1 => Value::U64(int),
        2 if text % 2 == 0 => Value::I64(int as i64),
        2 => Value::I64(-(int as i64)),
        3 => Value::F64(f64::from_bits(bits)),
        4 => Value::F64(SPECIAL_F64[text % SPECIAL_F64.len()]),
        _ => Value::Str(TEXTS[text]),
    };
    (Key::ALL[key], value)
}

/// Whether the writer spells `s` with an escape.
fn needs_escaping(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// Whether the flat reader must accept `event`'s line: no string value
/// needs an escape, and every float is written in fewer than 309 integer
/// digits (or as `null`).
fn flat_must_accept(event: &Event) -> bool {
    event.fields().all(|(_, value)| match value {
        Value::Str(s) => !needs_escaping(s),
        Value::F64(x) => !x.is_finite() || x.abs() < 1e308,
        _ => true,
    })
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

property! {
    cases = 512,
    fn every_written_event_reads_back_field_for_field(
        t_ns in u64_range(0, EXACT),
        kind in usize_range(0, Kind::ALL.len() - 1),
        draws in vec_of(
            (
                usize_range(0, Key::ALL.len() - 1),
                usize_range(0, 5),
                u64_range(0, EXACT),
                u64_range(0, u64::MAX),
                usize_range(0, TEXTS.len() - 1),
            ),
            0,
            MAX_FIELDS,
        ),
    ) {
        let kind = Kind::ALL[kind];
        let mut event = Event::new(SimTime::from_nanos(t_ns), kind);
        for (key, value) in draws.into_iter().map(field) {
            // Distinct keys: `get` returns the first match.
            if event.field(key).is_none() {
                event = event.with(key, value);
            }
        }
        let line = event.json_line();
        let doc = Json::parse(&line)
            .map_err(|e| PropError::failed(format!("{e} in {line:?}")))?;
        prop_assert_eq!(doc.get("t_ns").and_then(Json::as_u64), Some(t_ns));
        prop_assert_eq!(doc.get("kind").and_then(Json::as_str), Some(kind.name()));
        prop_assert_eq!(doc.fields().map(<[_]>::len), Some(event.fields().len() + 2));
        for (key, value) in event.fields() {
            let got = doc.get(key.name());
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
            prop_assert!(same, "{:?} = {:?} read back as {:?} from {:?}", key, value, got, line);
        }
        let Some(flat) = FlatObject::parse(&line) else {
            prop_assert!(!flat_must_accept(&event), "the flat reader declined {:?}", line);
            return Ok(());
        };
        prop_assert_eq!(flat.fields().len(), event.fields().len() + 2);
        for name in ["t_ns", "kind"].into_iter().chain(event.fields().map(|(k, _)| k.name())) {
            let (a, b) = (flat.get(name).map(flat_reading), doc.get(name).map(json_reading));
            prop_assert!(a == b, "{:?} reads {:?} against {:?} in {:?}", name, a, b, line);
        }
    }
}

/// The largest line any emit site writes: a reflector-mode `frame` with
/// every optional key, session-tagged, through the writer the fleet
/// streams with. It fits the flat reader and reads back field for field.
#[test]
fn the_largest_tagged_line_reads_flat_field_for_field() {
    let frame = Event::new(SimTime::from_nanos(5_988_888_889), Kind::Frame)
        .with(Key::Delivered, true)
        .with(Key::SnrDb, -21.531_415_926_535_9)
        .with(Key::StallNs, 1_999_999_999u64)
        .with(Key::Mcs, 12usize)
        .with(Key::AirtimeNs, 987_654u64)
        .with(Key::Mode, "reflector")
        .with(Key::Reflector, 3usize);
    let mut writer = JsonlWriter::new(Vec::new());
    SessionTagged::new(&mut writer, 4_294_967_295).record(frame);
    let bytes = writer.finish().expect("an in-memory sink cannot fail");
    let line = std::str::from_utf8(&bytes).expect("UTF-8").trim_end();

    let mut mem = MemoryRecorder::new();
    SessionTagged::new(&mut mem, 4_294_967_295).record(frame);
    let tagged = mem.events()[0];
    assert_eq!(tagged.fields().len(), 8);
    assert_eq!(mem.to_jsonl(), format!("{line}\n"));

    let flat = FlatObject::parse(line).unwrap_or_else(|| panic!("declined {line}"));
    assert!(flat.fields().len() <= FLAT_FIELDS);
    assert_eq!(flat.fields().len(), tagged.fields().len() + 2);
    assert_eq!(
        flat.get("t_ns").and_then(Scalar::as_u64),
        Some(5_988_888_889)
    );
    assert_eq!(flat.get("kind").and_then(Scalar::as_str), Some("frame"));
    for ((key, value), (name, scalar)) in tagged.fields().zip(&flat.fields()[2..]) {
        assert_eq!(key.name(), *name, "{line}");
        let same = match value {
            Value::Bool(b) => scalar.as_bool() == Some(b),
            Value::U64(n) => scalar.as_u64() == Some(n),
            Value::F64(x) => scalar.as_f64().map(f64::to_bits) == Some(x.to_bits()),
            Value::Str(s) => scalar.as_str() == Some(s),
            Value::I64(_) => false,
        };
        assert!(
            same,
            "{key:?} = {value:?} read back as {scalar:?} from {line}"
        );
    }
}
