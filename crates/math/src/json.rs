//! The workspace's one JSON reader and its one JSON string writer.
//!
//! Writers across the workspace (events, metrics, rollups, bench lines,
//! lint reports, SARIF) hand-roll their serialisation and spell every
//! string through [`write_str`]; this module is the matching *reading*
//! half, used by movr-obs's fleet reducer (JSONL event lines), rollup
//! differ and perf ratchet (bench JSON lines), by movr-lint's SARIF
//! checker, and by the [`crate::toml`] reader for its values. It is a
//! strict recursive-descent parser over RFC 8259 JSON — objects,
//! arrays, strings with escapes, numbers, `true` / `false` / `null` —
//! kept in-tree so the workspace has no external dependencies.
//!
//! A parsed [`Json`] borrows from its input: string values and object
//! keys are [`JsonStr`]s that slice the document, and only text spelled
//! with escapes is copied out and owned. Reading an event line therefore
//! allocates one `Vec` per object and nothing per field.
//!
//! Numbers follow RFC 8259's grammar exactly (no leading zeros, no bare
//! `.` or exponent) and parse to `f64`; a number too large for `f64` is
//! an error, never `±∞`. Every integer the simulator serialises
//! (counts, nanosecond timestamps) is far below 2^53, so round-tripping
//! through `f64` is exact; [`Json::as_u64`] re-checks exactness instead
//! of trusting that argument.

use crate::convert::f64_to_u64;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Deref;

/// Appends `s` to `out` as a JSON string literal: quotes, `"` and `\`
/// backslash-escaped, control characters as `\u00XX`, everything else
/// verbatim. [`Json::parse`] reads the result back to `s`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A string value or object key of a parsed document, unescaped: a
/// slice of the document when the text holds no escapes, an owned copy
/// when it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonStr<'a>(Cow<'a, str>);

impl JsonStr<'_> {
    /// The unescaped text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for JsonStr<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for JsonStr<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Object fields keep their document order (the differ reports paths in
/// a canonical sorted order regardless).
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (finite when parsed).
    Num(f64),
    /// A string, unescaped.
    Str(JsonStr<'a>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in document order.
    Obj(Vec<(JsonStr<'a>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &'a str) -> Result<Json<'a>, JsonError> {
        let (v, end) = Json::parse_prefix(text)?;
        if end != text.len() {
            return Err(JsonError {
                at: end,
                what: "trailing characters after the document".to_string(),
            });
        }
        Ok(v)
    }

    /// Parses the value that starts `text` and returns it with the offset
    /// past it and any whitespace after it, leaving the rest to the
    /// caller: the TOML reader stops a value at a trailing `# comment`.
    pub(crate) fn parse_prefix(text: &'a str) -> Result<(Json<'a>, usize), JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        Ok((v, p.pos))
    }

    /// Object field by name (first match), if this is an object.
    pub fn get(&self, name: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k.as_str() == name)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: `Some` only when the
    /// value is a non-negative number with no fractional part that fits
    /// `f64` exactly (≤ 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0) {
            return None;
        }
        Some(f64_to_u64(x))
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object fields in document order, if this is an object.
    pub fn fields(&self) -> Option<&[(JsonStr<'a>, Json<'a>)]> {
        match self {
            Json::Obj(f) => Some(f),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub at: usize,
    /// What the parser expected or found.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Documents nest at most a handful of levels (rollups: 3); a hard cap
/// keeps a malicious or corrupt input from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Fields reserved per object up front: an event line carries `t_ns`,
/// `kind`, its own fields and the `session` tag — five for the
/// `gain_step` lines that dominate a fleet, up to ten for a `frame`.
const OBJECT_FIELDS: usize = 10;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(b))))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let mut fields = Vec::with_capacity(OBJECT_FIELDS);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// A string literal. Runs of plain text are sliced from the
    /// document; the first escape switches to an owned copy. Every run
    /// starts just after a `"` or an escape and ends at a `"` or `\`,
    /// all ASCII, so each slice falls on character boundaries.
    fn string(&mut self) -> Result<JsonStr<'a>, JsonError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(JsonStr(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    }));
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                // The scan stops only at `"`, `\`, a control byte or the end.
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash, leaving `pos` past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Timelines only escape control characters; surrogate
                // pairs are out of scope, and a lone surrogate is an
                // error, not data.
                return char::from_u32(cp)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign, no fewer digits).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut cp = 0;
        for &b in digits {
            cp = cp * 16
                + char::from(b)
                    .to_digit(16)
                    .ok_or_else(|| self.err("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// A number: the maximal run of number characters must match RFC
    /// 8259's grammar as a whole and parse to a finite `f64`; otherwise
    /// the error sits at the end of the run.
    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        let grammatical = self.number_grammar();
        let end = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The run is ASCII, so the slice falls on character boundaries.
        let text = &self.text[start..self.pos];
        if !grammatical || self.pos != end {
            return Err(self.err(format!("invalid number `{text}`")));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.err(format!("number `{text}` is out of range for f64"))),
            Err(_) => Err(self.err(format!("invalid number `{text}`"))),
        }
    }

    /// Advances over `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`;
    /// `false` where the text breaks that grammar.
    fn number_grammar(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return false,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return false;
            }
        }
        true
    }

    /// Advances over a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_event_line() {
        let v = Json::parse(
            "{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\
             \"snr_db\":21.5,\"mcs\":14,\"mode\":\"direct\"}",
        )
        .expect("valid line");
        assert_eq!(v.get("t_ns").and_then(Json::as_u64), Some(11_000_000));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("frame"));
        assert_eq!(v.get("delivered").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("snr_db").and_then(Json::as_f64), Some(21.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nesting_arrays_null_and_escapes() {
        let v = Json::parse(
            "{\"a\":[1,-2.5,1e3,null],\"s\":\"q\\\"\\\\\\u0041\\n\",\"o\":{\"k\":false}}",
        )
        .expect("valid document");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Num(1000.0),
                Json::Null
            ]))
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("q\"\\A\n"));
        assert_eq!(v.get("o").and_then(|o| o.get("k")).and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for (text, at) in [
            ("", 0),
            ("{", 1),
            ("{\"a\":}", 5),
            ("[1,]", 3),
            ("truex", 4),
            ("\"unterminated", 13),
            ("{\"a\":1} extra", 8),
            ("\"a\\x\"", 3),
            ("\"a\u{1}\"", 2),
            ("\"\\ud800\"", 7),
            // `\u` takes exactly four hex digits: no sign, no short form.
            ("\"\\u+041\"", 3),
            ("\"\\u-041\"", 3),
            ("\"\\u004\"", 3),
            ("\"\\u12", 3),
        ] {
            let e = Json::parse(text).expect_err(text);
            assert_eq!(e.at, at, "{text}: {e}");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259_and_stay_finite() {
        for (text, x) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.25e-3", -1.25e-3),
            ("1E+3", 1000.0),
            ("2e0", 2.0),
            ("1e-999", 0.0),
        ] {
            let v = Json::parse(text).expect(text).as_f64().expect(text);
            assert_eq!(v.to_bits(), x.to_bits(), "{text}");
        }
        // Each error sits at the end of the run of number characters.
        for (text, at) in [
            ("01", 2),
            ("00", 2),
            ("-01", 3),
            ("1.", 2),
            ("-.5", 3),
            ("1.e3", 4),
            ("1e", 2),
            ("1e+", 3),
            ("-", 1),
            ("1.2.3", 5),
            ("[1,01]", 5),
            ("1e999", 5),
            ("-1e999", 6),
            ("{\"snr_db\":1e999}", 15),
        ] {
            let e = Json::parse(text).expect_err(text);
            assert_eq!(e.at, at, "{text}: {e}");
        }
        assert!(Json::parse("1e999")
            .expect_err("overflow")
            .what
            .contains("out of range"));
        // A leading `+` or `.` is not a number at all.
        assert_eq!(Json::parse("+1").expect_err("+1").at, 0);
        assert_eq!(Json::parse(".5").expect_err(".5").at, 0);
    }

    #[test]
    fn plain_text_is_borrowed_and_escaped_text_is_owned() {
        let line = r#"{"kind":"gain_step","k\"ey":"a\nb","mé":"déjà"}"#;
        let v = Json::parse(line).expect("valid line");
        let fields = v.fields().expect("object");
        let borrowed = |s: &JsonStr<'_>| matches!(s.0, Cow::Borrowed(_));
        assert_eq!(fields[0].0, "kind");
        assert!(borrowed(&fields[0].0));
        let Json::Str(kind) = &fields[0].1 else {
            panic!("kind is a string");
        };
        assert!(borrowed(kind) && *kind == "gain_step");
        // An escape in a key or a value makes that string owned.
        assert_eq!(fields[1].0, "k\"ey");
        assert!(!borrowed(&fields[1].0));
        let Json::Str(val) = &fields[1].1 else {
            panic!("value is a string");
        };
        assert!(!borrowed(val) && *val == "a\nb");
        // Non-ASCII text without escapes is still a slice.
        assert_eq!(fields[2].0, "mé");
        assert!(borrowed(&fields[2].0));
        assert_eq!(fields[2].1.as_str(), Some("déjà"));
    }

    #[test]
    fn as_u64_is_exact_or_none() {
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(9e15).as_u64(), Some(9_000_000_000_000_000));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(1e16).as_u64(), None);
        assert_eq!(Json::Str(JsonStr(Cow::Borrowed("7"))).as_u64(), None);
    }

    #[test]
    fn written_strings_read_back() {
        for s in [
            "",
            "plain",
            "q\"b\\s",
            "tab\tnl\ncr\r\u{1}\u{1f}",
            "mé/déjà #=",
        ] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert!(!out[1..out.len() - 1].bytes().any(|b| b < 0x20), "{out}");
            assert_eq!(Json::parse(&out).expect(&out).as_str(), Some(s));
        }
        let mut out = String::new();
        write_str(&mut out, "a\"\\\n");
        assert_eq!(out, "\"a\\\"\\\\\\u000a\"");
    }

    #[test]
    fn depth_limit_errors_instead_of_overflowing() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
