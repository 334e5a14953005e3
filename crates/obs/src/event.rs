//! Structured events stamped with simulated time.
//!
//! An [`Event`] is one row of a session timeline: a [`SimTime`] stamp, a
//! static `kind`, and a small ordered list of typed fields. Events are
//! always stamped with *sim* time, never wall-clock, so a recorded stream
//! is a pure function of the seed — the determinism tests compare JSONL
//! output byte-for-byte across runs.
//!
//! The JSON encoding is hand-rolled and deterministic: fields serialise
//! in insertion order, and [`Event::write_json`] appends a whole line in
//! one pass through the workspace's writers in [`movr_math::json`], with
//! no `fmt` machinery. Strings go through `write_str`, integers through
//! a digit loop, and floats through `write_f64`, which prints exactly
//! Rust's shortest-round-trip `Display` text; non-finite floats become
//! `null` (JSON has no `inf`/`NaN`).

use crate::metrics::write_json_f64;
use movr_math::convert::usize_to_u64;
use movr_math::json::{write_str, write_u64};
use movr_sim::SimTime;

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
    /// Static string (mode names, message kinds).
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

/// One timeline row: a sim-time stamp, a kind, and typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event happened, in simulated time.
    pub t: SimTime,
    /// Event kind (`"frame"`, `"realign"`, `"gain_step"`, …).
    pub kind: &'static str,
    /// Ordered fields; insertion order is serialisation order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event at `t` with no fields yet.
    pub fn new(t: SimTime, kind: &'static str) -> Self {
        Event {
            t,
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends one field (builder style).
    pub fn with(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Looks up a field by name (first match).
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Appends the event to `out` as one JSON object, no trailing
    /// newline: `{"t_ns":<nanos>,"kind":"<kind>",<fields...>}`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_ns\":");
        write_u64(out, self.t.as_nanos());
        out.push_str(",\"kind\":");
        write_str(out, self.kind);
        for (name, value) in &self.fields {
            out.push(',');
            write_str(out, name);
            out.push(':');
            match *value {
                Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Value::U64(n) => write_u64(out, n),
                Value::I64(n) => {
                    if n < 0 {
                        out.push('-');
                    }
                    write_u64(out, n.unsigned_abs());
                }
                Value::F64(x) => write_json_f64(out, x),
                Value::Str(s) => write_str(out, s),
            }
        }
        out.push('}');
    }

    /// The event as one JSON object in a fresh `String`; see
    /// [`Event::write_json`].
    pub fn json_line(&self) -> String {
        let mut out = String::with_capacity(48 + 24 * self.fields.len());
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::json::Json;

    #[test]
    fn round_trips_event_json() {
        let e = Event::new(SimTime::from_micros(7), "has \"quote\"")
            .with("nan", f64::NAN)
            .with("neg", -3i64);
        let line = e.json_line();
        let v = Json::parse(&line).expect("writer output must parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("has \"quote\""));
        assert_eq!(v.get("nan"), Some(&Json::Null));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-3.0));
    }

    #[test]
    fn json_line_shape() {
        let e = Event::new(SimTime::from_millis(11), "frame")
            .with("delivered", true)
            .with("snr_db", 21.5)
            .with("mcs", 14usize)
            .with("mode", "direct");
        assert_eq!(
            e.json_line(),
            "{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\
             \"snr_db\":21.5,\"mcs\":14,\"mode\":\"direct\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new(SimTime::ZERO, "x")
            .with("a", f64::INFINITY)
            .with("b", f64::NAN);
        assert_eq!(e.json_line(), "{\"t_ns\":0,\"kind\":\"x\",\"a\":null,\"b\":null}");
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new(SimTime::ZERO, "has \"quote\"");
        assert!(e.json_line().contains("\\\"quote\\\""));
    }

    #[test]
    fn field_lookup() {
        let e = Event::new(SimTime::ZERO, "x").with("k", 7u64);
        assert_eq!(e.field("k"), Some(&Value::U64(7)));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn simtime_field_encodes_nanos() {
        let e = Event::new(SimTime::ZERO, "x").with("at", SimTime::from_micros(3));
        assert_eq!(e.field("at"), Some(&Value::U64(3_000)));
    }
}
