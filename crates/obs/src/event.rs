//! Structured events stamped with simulated time.
//!
//! An [`Event`] is one row of a session timeline: a [`SimTime`] stamp, a
//! [`Kind`], and up to [`MAX_FIELDS`] typed fields, each named by a
//! [`Key`]. Events are always stamped with *sim* time, never wall-clock,
//! so a recorded stream is a pure function of the seed — the
//! determinism tests compare JSONL output byte-for-byte across runs.
//!
//! The vocabulary is closed: the 13 kinds and 21 keys are enums, each
//! variant spelled once, with the JSON text it is written as (`,"kind":
//! "gain_step"`, `,"gain_db":`) fixed at compile time. The fields sit in
//! an inline array, so building, tagging, writing and dropping an event
//! never touches the heap, and every line, session tag included, fits the
//! reducer's flat reader ([`movr_math::json::FlatObject`]).
//!
//! The JSON encoding is hand-rolled and deterministic: fields serialise
//! in insertion order, and [`Event::write_json`] appends a whole line to
//! a byte buffer in one pass. Kinds and keys go in as their fixed text;
//! integers through [`write_u64_bytes`]; floats through
//! [`write_f64_bytes`], which prints exactly Rust's shortest-round-trip
//! `Display` text, and non-finite floats as `null` (JSON has no
//! `inf`/`NaN`); string values through [`write_str_bytes`], escaped.

use movr_math::convert::usize_to_u64;
use movr_math::json::{write_f64_bytes, write_str_bytes, write_u64_bytes, FLAT_FIELDS};
use movr_sim::SimTime;
use std::fmt;

/// Defines a closed vocabulary: an enum whose variants each carry their
/// name once, and the JSON text each is written as, `$prefix` + name +
/// `$suffix`, spelled at compile time.
macro_rules! vocabulary {
    (
        $(#[$doc:meta])*
        pub enum $name:ident = $prefix:literal + name + $suffix:literal {
            $($(#[$vdoc:meta])* $variant:ident = $text:literal,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The name a recorded line spells.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }

            /// The variant a recorded line spells as `name`.
            pub fn from_name(name: &str) -> Option<$name> {
                match name {
                    $($text => Some($name::$variant),)*
                    _ => None,
                }
            }

            /// The text [`Event::write_json`] writes for the variant.
            const fn json(self) -> &'static [u8] {
                match self {
                    $($name::$variant => concat!($prefix, $text, $suffix).as_bytes(),)*
                }
            }
        }
    };
}

vocabulary! {
    /// What an event records: the closed set of event kinds.
    pub enum Kind = ",\"kind\":\"" + name + "\"" {
        /// One frame's fate (session).
        Frame = "frame",
        /// The serving link changed mode (session).
        ModeSwitch = "mode_switch",
        /// The system realigned its beams (session).
        Realign = "realign",
        /// A run of missed frames ended (session).
        StallRecovered = "stall_recovered",
        /// One probed gain of the §4.2 ramp.
        GainStep = "gain_step",
        /// The §4.2 ramp found the knee and backed off.
        GainBackoff = "gain_backoff",
        /// The §4.2 ramp reached the amplifier's ceiling.
        GainCeiling = "gain_ceiling",
        /// The rate adapter chose a higher MCS (session).
        RateUp = "rate_up",
        /// The rate adapter chose a lower MCS (session).
        RateDown = "rate_down",
        /// The rate adapter found no usable MCS (session).
        RateOutage = "rate_outage",
        /// A usable MCS returned after an outage (session).
        RateRestore = "rate_restore",
        /// A span opened ([`crate::Recorder::start_span`]).
        SpanStart = "span_start",
        /// A span closed ([`crate::Recorder::end_span`]).
        SpanEnd = "span_end",
    }
}

vocabulary! {
    /// A field's name: the closed set of event keys.
    pub enum Key = ",\"" + name + "\":" {
        /// Whether the frame met its deadline.
        Delivered = "delivered",
        /// The frame's SNR, dB.
        SnrDb = "snr_db",
        /// The realignment stall left at the frame, ns.
        StallNs = "stall_ns",
        /// The frame's MCS index.
        Mcs = "mcs",
        /// The frame's burst airtime, ns.
        AirtimeNs = "airtime_ns",
        /// The serving link mode.
        Mode = "mode",
        /// The serving reflector's index.
        Reflector = "reflector",
        /// The mode switched to.
        To = "to",
        /// The mode switched from.
        From = "from",
        /// A realignment's cost, ns.
        CostNs = "cost_ns",
        /// The missed frames a stall lasted.
        StallFrames = "stall_frames",
        /// The SNR report a rate change followed, dB.
        SnrReportDb = "snr_report_db",
        /// The MCS index before a rate change.
        FromMcs = "from_mcs",
        /// The MCS index after a rate change.
        ToMcs = "to_mcs",
        /// A ramp step's gain, dB.
        GainDb = "gain_db",
        /// A ramp step's mean current read, A.
        CurrentA = "current_a",
        /// The gain a ramp settled on, dB.
        ChosenGainDb = "chosen_gain_db",
        /// The gain at which a ramp saw the knee, dB.
        KneeGainDb = "knee_gain_db",
        /// A span's name.
        Span = "span",
        /// The id pairing a span's start and end.
        SpanId = "span_id",
        /// The session a tagged event belongs to ([`crate::SessionTagged`]).
        Session = "session",
    }
}

/// The key of every line's time stamp, nanoseconds of sim time.
pub(crate) const TIME_KEY: &str = "t_ns";
/// The key of every line's kind.
pub(crate) const KIND_KEY: &str = "kind";
/// How every line opens: its time stamp's key.
const LINE_START: &[u8] = b"{\"t_ns\":";

/// The most fields an event holds: the flat reader's [`FLAT_FIELDS`]
/// less the `t_ns` and `kind` every line opens with.
pub const MAX_FIELDS: usize = FLAT_FIELDS - 2;

/// A typed field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, indices, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (dB, degrees, amperes). Non-finite encodes as `null`.
    F64(f64),
    /// Static string (mode names, span names).
    Str(&'static str),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(usize_to_u64(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}
impl From<SimTime> for Value {
    fn from(v: SimTime) -> Self {
        Value::U64(v.as_nanos())
    }
}

/// One timeline row: a sim-time stamp, a kind, and typed fields held
/// inline, in insertion order.
#[derive(Clone, Copy, PartialEq)]
pub struct Event {
    /// When the event happened, in simulated time.
    pub t: SimTime,
    /// What the event records.
    pub kind: Kind,
    /// Fields in use: the first `len` slots of `keys` and `values`. The
    /// slots past it keep the fill [`Event::new`] gave them, so derived
    /// equality compares the fields in use.
    len: u8,
    keys: [Key; MAX_FIELDS],
    values: [Value; MAX_FIELDS],
}

impl Event {
    /// A new event at `t` with no fields yet.
    pub fn new(t: SimTime, kind: Kind) -> Self {
        Event {
            t,
            kind,
            len: 0,
            keys: [Key::Session; MAX_FIELDS],
            values: [Value::Bool(false); MAX_FIELDS],
        }
    }

    /// Appends one field (builder style).
    ///
    /// # Panics
    ///
    /// If the event already holds [`MAX_FIELDS`] fields. No emit site
    /// builds that many (the largest line, a reflector `frame` with its
    /// session tag, holds 8), so a panic here is a bug in the emit site.
    pub fn with(mut self, key: Key, value: impl Into<Value>) -> Self {
        let i = usize::from(self.len);
        assert!(
            i < MAX_FIELDS,
            "a `{}` event has no slot for `{}`: an event holds at most {MAX_FIELDS} fields, \
             the flat reader's {FLAT_FIELDS} less `t_ns` and `kind`",
            self.kind.name(),
            key.name(),
        );
        self.keys[i] = key;
        self.values[i] = value.into();
        self.len += 1;
        self
    }

    /// The field named `key` (first match).
    pub fn field(&self, key: Key) -> Option<&Value> {
        let i = self.keys().iter().position(|&k| k == key)?;
        self.values().get(i)
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (Key, Value)> + '_ {
        self.keys()
            .iter()
            .copied()
            .zip(self.values().iter().copied())
    }

    fn keys(&self) -> &[Key] {
        &self.keys[..usize::from(self.len)]
    }

    fn values(&self) -> &[Value] {
        &self.values[..usize::from(self.len)]
    }

    /// Appends the event to `out` as one JSON object, no trailing
    /// newline: `{"t_ns":<nanos>,"kind":"<kind>",<fields...>}`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(LINE_START);
        write_u64_bytes(out, self.t.as_nanos());
        out.extend_from_slice(self.kind.json());
        for (key, value) in self.keys().iter().zip(self.values()) {
            out.extend_from_slice(key.json());
            match *value {
                Value::Bool(true) => out.extend_from_slice(b"true"),
                Value::Bool(false) => out.extend_from_slice(b"false"),
                Value::U64(n) => write_u64_bytes(out, n),
                Value::I64(n) => {
                    if n < 0 {
                        out.push(b'-');
                    }
                    write_u64_bytes(out, n.unsigned_abs());
                }
                Value::F64(x) if x.is_finite() => write_f64_bytes(out, x),
                Value::F64(_) => out.extend_from_slice(b"null"),
                Value::Str(s) => write_str_bytes(out, s),
            }
        }
        out.push(b'}');
    }

    /// The event as one JSON object in a fresh `String`; see
    /// [`Event::write_json`].
    pub fn json_line(&self) -> String {
        let mut out = Vec::with_capacity(48 + 24 * usize::from(self.len));
        self.write_json(&mut out);
        String::from_utf8(out).expect("event lines are UTF-8")
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("t", &self.t)
            .field("kind", &self.kind)
            .field("keys", &self.keys())
            .field("values", &self.values())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::json::{write_str, FlatObject, Json, Scalar};

    #[test]
    fn round_trips_event_json() {
        let e = Event::new(SimTime::from_micros(7), Kind::Realign)
            .with(Key::Mode, "has \"quote\"")
            .with(Key::SnrDb, f64::NAN)
            .with(Key::CostNs, -3i64);
        let line = e.json_line();
        let v = Json::parse(&line).expect("writer output must parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("realign"));
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("has \"quote\""));
        assert_eq!(v.get("snr_db"), Some(&Json::Null));
        assert_eq!(v.get("cost_ns").and_then(Json::as_f64), Some(-3.0));
    }

    #[test]
    fn json_line_shape() {
        let e = Event::new(SimTime::from_millis(11), Kind::Frame)
            .with(Key::Delivered, true)
            .with(Key::SnrDb, 21.5)
            .with(Key::Mcs, 14usize)
            .with(Key::Mode, "direct");
        assert_eq!(
            e.json_line(),
            "{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\
             \"snr_db\":21.5,\"mcs\":14,\"mode\":\"direct\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new(SimTime::ZERO, Kind::GainStep)
            .with(Key::GainDb, f64::INFINITY)
            .with(Key::CurrentA, f64::NAN);
        assert_eq!(
            e.json_line(),
            "{\"t_ns\":0,\"kind\":\"gain_step\",\"gain_db\":null,\"current_a\":null}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new(SimTime::ZERO, Kind::SpanStart).with(Key::Span, "has \"quote\"");
        assert!(e.json_line().contains("\\\"quote\\\""));
    }

    #[test]
    fn field_lookup() {
        let e = Event::new(SimTime::ZERO, Kind::StallRecovered).with(Key::StallFrames, 7u64);
        assert_eq!(e.field(Key::StallFrames), Some(&Value::U64(7)));
        assert_eq!(e.field(Key::Session), None);
        assert_eq!(
            e.fields().collect::<Vec<_>>(),
            [(Key::StallFrames, Value::U64(7))]
        );
    }

    #[test]
    fn simtime_field_encodes_nanos() {
        let e = Event::new(SimTime::ZERO, Kind::Realign).with(Key::CostNs, SimTime::from_micros(3));
        assert_eq!(e.field(Key::CostNs), Some(&Value::U64(3_000)));
    }

    #[test]
    fn each_name_is_written_as_write_str_spells_it() {
        let spelled = |name: &str| {
            let mut s = String::new();
            write_str(&mut s, name);
            s
        };
        assert_eq!(Kind::ALL.len(), 13);
        assert_eq!(Key::ALL.len(), 21);
        for &kind in Kind::ALL {
            let text = format!(",{}:{}", spelled(KIND_KEY), spelled(kind.name()));
            assert_eq!(kind.json(), text.as_bytes(), "{kind:?}");
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        for &key in Key::ALL {
            let text = format!(",{}:", spelled(key.name()));
            assert_eq!(key.json(), text.as_bytes(), "{key:?}");
            assert_eq!(Key::from_name(key.name()), Some(key));
        }
        assert_eq!(LINE_START, format!("{{{}:", spelled(TIME_KEY)).as_bytes());
        assert_eq!(Kind::from_name("probe"), None);
        assert_eq!(Key::from_name(KIND_KEY), None);
        assert_eq!(Key::from_name(TIME_KEY), None);
    }

    #[test]
    fn a_full_event_fits_the_flat_reader() {
        let mut e = Event::new(SimTime::from_nanos(u64::MAX >> 11), Kind::Frame);
        for (i, &key) in Key::ALL.iter().take(MAX_FIELDS).enumerate() {
            e = e.with(key, -1.0 / (i as f64 + 3.0));
        }
        let line = e.json_line();
        let flat = FlatObject::parse(&line).expect("a full event reads flat");
        assert_eq!(flat.fields().len(), FLAT_FIELDS);
        for (key, value) in e.fields() {
            let Value::F64(x) = value else { unreachable!() };
            assert_eq!(
                flat.get(key.name()).and_then(Scalar::as_f64),
                Some(x),
                "{line}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a `frame` event has no slot for `session`")]
    fn an_eleventh_field_panics_naming_the_event() {
        let mut e = Event::new(SimTime::ZERO, Kind::Frame);
        for &key in &Key::ALL[..MAX_FIELDS] {
            e = e.with(key, 1u64);
        }
        let _ = e.with(Key::Session, 1u64);
    }

    #[test]
    fn an_event_stays_small_and_off_the_heap() {
        // Held inline and moved by value through two `dyn` calls per
        // recorded line: its size is its cost.
        assert_eq!(std::mem::size_of::<Key>(), 1);
        let size = std::mem::size_of::<Event>();
        assert!(size <= 264, "{size}");
    }
}
