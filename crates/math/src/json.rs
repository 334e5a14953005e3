//! The workspace's one JSON reader and its JSON value writers.
//!
//! Writers across the workspace (events, metrics, rollups, bench lines)
//! hand-roll their serialisation and spell every string through
//! [`write_str_bytes`]. Each writer routine has one implementation, over
//! a `Vec<u8>`: [`write_str_bytes`], [`write_u64_bytes`] and
//! [`write_f64_bytes`]. A writer appends a whole line or document to one
//! buffer with no `fmt` machinery, and a document that must be a
//! `String` checks its UTF-8 once, when it is finished.
//! `write_f64_bytes` is an in-tree Ryū (Adams, PLDI 2018) that
//! prints exactly the text Rust's `Display` gives: shortest round-trip
//! digits, fixed notation, exact ties rounded up. `tests/float_writer.rs`
//! holds it to `format!` over a million random bit patterns and every
//! exponent's edge mantissas.
//!
//! The rest of this module is the matching *reading* half, used by
//! movr-obs's fleet reducer (JSONL event lines), rollup differ and perf
//! ratchet (bench JSON lines), and by the [`crate::toml`] reader for its
//! values (the perf ratchet's and movr-lint's configs). It is a
//! strict recursive-descent parser over RFC 8259 JSON — objects,
//! arrays, strings with escapes, numbers, `true` / `false` / `null` —
//! kept in-tree so the workspace has no external dependencies.
//!
//! A parsed [`Json`] borrows from its input: string values and object
//! keys are [`JsonStr`]s that slice the document, and only text spelled
//! with escapes is copied out and owned. A parsed object still allocates
//! one `Vec`, and every number is converted to `f64` as it is read.
//!
//! [`FlatObject`] is the reader for the lines the fleet reducer folds: a
//! one-line object of at most [`FLAT_FIELDS`] scalar fields, read into a
//! stack array of borrowed `(key, value)` slices with no allocation. A
//! number stays as its text until [`Scalar::as_f64`] or
//! [`Scalar::as_u64`] asks for it. It runs the same string and number
//! routines as [`Json::parse`], and it declines (`None`, never an error)
//! any text it cannot prove `Json::parse` accepts and reads field for
//! field the same way: an escape, whitespace between tokens, a nested
//! value, too many fields, an exponent, a number with more than 308
//! integer digits, and every grammar error. A caller falls back to
//! `Json::parse` on `None`.
//!
//! Numbers follow RFC 8259's grammar exactly (no leading zeros, no bare
//! `.` or exponent) and parse to `f64`; a number too large for `f64` is
//! an error, never `±∞`. Every integer the simulator serialises
//! (counts, nanosecond timestamps) is far below 2^53, so round-tripping
//! through `f64` is exact; [`Json::as_u64`] re-checks exactness instead
//! of trusting that argument, and reads nothing past
//! [`MAX_EXACT_INTEGER`].

use crate::convert::{f64_to_u64, u64_to_f64};
use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// The largest integer [`Json::as_u64`] reads, 2^53 − 1: past it, two
/// integer literals can parse to the same `f64`.
pub const MAX_EXACT_INTEGER: u64 = (1 << 53) - 1;

/// Appends `s` to `out` as a JSON string literal: quotes, `"` and `\`
/// backslash-escaped, control characters as `\u00XX`, everything else
/// verbatim. [`Json::parse`] reads the result back to `s`. Each run of
/// text between bytes that need escaping goes in as one slice; those
/// bytes are ASCII, so no run splits a character.
pub fn write_str_bytes(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.extend_from_slice(&bytes[plain..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

/// Appends the decimal digits of `n`, as `format!("{n}")` would: the
/// digits are laid out left-aligned in a 20-byte buffer, which goes in
/// as one fixed-size copy before the excess is cut off.
pub fn write_u64_bytes(out: &mut Vec<u8>, n: u64) {
    let (buf, len) = decimal_digits(n);
    let end = out.len() + len;
    out.extend_from_slice(&buf);
    out.truncate(end);
}

/// Appends `x` exactly as `format!("{x}")` writes it, without the
/// formatting machinery: `NaN`, `inf`, `-inf`, `0`, `-0`, and otherwise
/// the shortest digits that read back as `x`, in fixed notation (never
/// an exponent: `5e-324` prints all 324 decimals and `f64::MAX` its 309
/// integer digits). Among equally short candidates the one nearest `x`
/// wins, and an exact tie rounds up, as Display does: `2^50 + 0.25`
/// prints `1125899906842624.3`.
///
/// The digits come from Ryū (Adams, PLDI 2018) over tables of 5^i and
/// 5^−i computed at compile time.
#[expect(
    clippy::as_conversions,
    reason = "digit counts and the decimal point's position stay within ±330"
)]
pub fn write_f64_bytes(out: &mut Vec<u8>, x: f64) {
    if x.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if x.is_infinite() {
        out.extend_from_slice(b"inf");
        return;
    }
    let bits = x.to_bits();
    let (mantissa, exponent) = (bits & ((1 << 52) - 1), (bits >> 52) & 0x7ff);
    if mantissa == 0 && exponent == 0 {
        out.push(b'0');
        return;
    }
    let (digits, exp10) = shortest_digits(mantissa, exponent);
    let (buf, len) = decimal_digits(digits);
    let digits = &buf[..len];
    // `x = 0.d₁d₂…dₙ · 10^point`.
    let point = exp10 + len as i32;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < len {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point as usize - len), b'0');
    }
}

/// The decimal digits of `n` in `buf[..len]`, two at a time from the
/// last.
#[expect(
    clippy::as_conversions,
    reason = "a digit count is at most 20 and remainders below 100 index the pair table"
)]
fn decimal_digits(mut n: u64) -> ([u8; 20], usize) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let len = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut buf = [b'0'; 20];
    let mut end = len;
    while n >= 10 {
        let r = (n % 100) as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[r..r + 2]);
        n /= 100;
    }
    if end > 0 {
        buf[0] = b'0' + n as u8;
    }
    (buf, len)
}

/// Significant bits of each [`POW5`] entry.
const POW5_BITS: u32 = 125;
/// Significant bits of each [`POW5_INV`] entry, before its `+ 1`.
const POW5_INV_BITS: u32 = 125;

/// Bit length of 5^e, ⌈log₂ 5^e⌉ (1 at e = 0), for e ≤ 3528.
const fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// ⌊log₁₀ 2^e⌋ for e ≤ 1650.
const fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// ⌊log₁₀ 5^e⌋ for e ≤ 2620.
const fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// A little-endian bignum wide enough for 2^1023, the seed of
/// [`POW5_INV`]; 5^325, the top of [`POW5`], needs 755 bits.
type Big = [u64; 16];

#[expect(
    clippy::as_conversions,
    reason = "widening a limb, then keeping the low 64 bits by design"
)]
const fn big_mul5(mut a: Big) -> Big {
    let mut carry = 0u128;
    let mut k = 0;
    while k < a.len() {
        let v = a[k] as u128 * 5 + carry;
        a[k] = v as u64;
        carry = v >> 64;
        k += 1;
    }
    a
}

#[expect(
    clippy::as_conversions,
    reason = "widening a limb; (rem · 2^64 + limb) / 5 < 2^64 as rem < 5"
)]
const fn big_div5(mut a: Big) -> Big {
    let mut rem = 0u128;
    let mut k = a.len();
    while k > 0 {
        k -= 1;
        let v = (rem << 64) | a[k] as u128;
        a[k] = (v / 5) as u64;
        rem = v % 5;
    }
    a
}

/// ⌊a / 2^shift⌋ mod 2^128.
#[expect(
    clippy::as_conversions,
    reason = "widening limbs; shift / 64 is a limb index"
)]
const fn big_bits(a: &Big, shift: u32) -> u128 {
    let (limb, off) = ((shift / 64) as usize, shift % 64);
    let mut out = 0u128;
    let mut k = 0;
    while k < 3 && limb + k < a.len() {
        let v = a[limb + k] as u128;
        out |= match k {
            0 => v >> off,
            1 => v << (64 - off),
            _ if off == 0 => 0,
            _ => v << (128 - off),
        };
        k += 1;
    }
    out
}

/// `POW5[i]` is 5^i scaled to exactly [`POW5_BITS`] bits: shifted up
/// while it is shorter, truncated while it is longer. Built at compile
/// time by multiplying by 5.
#[expect(clippy::as_conversions, reason = "table indices below 326 fit u32")]
const POW5: [u128; 326] = {
    let mut table = [0; 326];
    let mut p: Big = [0; 16];
    p[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = pow5_bits(i as u32);
        table[i] = if len <= POW5_BITS {
            big_bits(&p, 0) << (POW5_BITS - len)
        } else {
            big_bits(&p, len - POW5_BITS)
        };
        p = big_mul5(p);
        i += 1;
    }
    table
};

/// `POW5_INV[i]` is ⌊2^j / 5^i⌋ + 1 with j = bitlen(5^i) − 1 +
/// [`POW5_INV_BITS`], a [`POW5_INV_BITS`]-bit approximation of 5^−i
/// from above. Built at compile time from ⌊2^1023 / 5^i⌋, which
/// repeated division of 2^1023 by 5 yields exactly.
#[expect(clippy::as_conversions, reason = "table indices below 342 fit u32")]
const POW5_INV: [u128; 342] = {
    let mut table = [0; 342];
    let mut q: Big = [0; 16];
    q[15] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let j = pow5_bits(i as u32) - 1 + POW5_INV_BITS;
        table[i] = big_bits(&q, 1023 - j) + 1;
        q = big_div5(q);
        i += 1;
    }
    table
};

/// ⌊m · mul / 2^j⌋ for m < 2^55 and 64 ≤ j.
#[expect(
    clippy::as_conversions,
    reason = "Ryū's shifts keep the quotient below 2^64"
)]
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let m = u128::from(m);
    let lo = m * (mul & u128::from(u64::MAX));
    let hi = m * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

fn pow5_factor(mut n: u64) -> u32 {
    let mut count = 0;
    while n.is_multiple_of(5) {
        n /= 5;
        count += 1;
    }
    count
}

/// Ryū's shortest decimal `(digits, exponent)` for the finite, non-zero
/// `f64` with these mantissa and biased exponent bits: `digits ·
/// 10^exponent` is the shortest decimal that reads back as the value,
/// the nearest such one when several are equally short, and the larger
/// one on an exact tie.
///
/// Reference Ryū rounds such ties to even, which needs to know whether
/// the digits it drops are exactly `50…0`. Rounding up needs only the
/// first dropped digit: `vr` is the exact floor of the scaled value, so
/// a first dropped digit of 5 or more means the dropped part is at
/// least half.
#[expect(
    clippy::as_conversions,
    reason = "the exponent field has 11 bits and q ≤ 325, so both casts are exact"
)]
fn shortest_digits(mantissa: u64, exponent: u64) -> (u64, i32) {
    // Two extra bits below the mantissa hold the interval's half-ulp ends.
    let (e2, m2) = if exponent == 0 {
        (1 - 1023 - 52 - 2, mantissa)
    } else {
        (exponent as i32 - 1023 - 52 - 2, mantissa | 1 << 52)
    };
    // Round-to-even parsing reads both interval ends back as this value
    // exactly when its mantissa is even.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    // The gap below is half as wide at the bottom of a binade.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let mm = mv - 1 - mm_shift;
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let e2 = e2.unsigned_abs();
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = q + POW5_INV_BITS + pow5_bits(q) - 1 - e2;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mm, mul, j);
        // At most one of mm, mv and mv + 2 is a multiple of 5; the scaled
        // ends are exact only when that end divides by 5^q.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let ne2 = e2.unsigned_abs();
        let q = log10_pow5(ne2) - u32::from(ne2 > 1);
        e10 = q as i32 + e2;
        let i = ne2 - q;
        let j = q + POW5_BITS - pow5_bits(i);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mm, mul, j);
        // With q ≤ 1 the scaled ends are exact: mm ends in a 0 bit
        // exactly when mm_shift is 1, and mv + 2 always does.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let round_up;
    if vm_is_trailing_zeros {
        // The lower end is an exact, acceptable decimal: track whether it
        // stays one as digits drop, and drop its trailing zeros too.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        round_up = (vr == vm && !vm_is_trailing_zeros) || last >= 5;
    } else {
        // Drop the most digits that keep the ends apart, in chunks of
        // 16, 8, 4, 2 and 1; the first digit of the last chunk decides
        // the rounding.
        let mut up = false;
        for (k, pow) in [
            (16, 10_000_000_000_000_000),
            (8, 100_000_000),
            (4, 10_000),
            (2, 100),
            (1, 10),
        ] {
            if vp / pow > vm / pow {
                up = vr % pow >= pow / 2;
                (vr, vp, vm) = (vr / pow, vp / pow, vm / pow);
                removed += k;
            }
        }
        // Here vm is the floor of an inexact lower end, so `vr == vm`
        // lies below the interval.
        round_up = vr == vm || up;
    }
    (vr + u64::from(round_up), e10 + removed)
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
        let mut p = Parser::new(text);
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
    /// value is a non-negative integer no larger than
    /// [`MAX_EXACT_INTEGER`], 2^53 − 1. Every integer up to there is an
    /// `f64` exactly and no integer literal beyond it parses to one, so a
    /// `Some` is the integer the text spelled. 2^53 itself is refused:
    /// `9007199254740993` parses to it too.
    pub fn as_u64(&self) -> Option<u64> {
        exact_u64(self.as_f64()?)
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

/// `x` as an exact unsigned integer, under [`Json::as_u64`]'s rule.
fn exact_u64(x: f64) -> Option<u64> {
    if !(x >= 0.0 && x.fract() == 0.0 && x <= u64_to_f64(MAX_EXACT_INTEGER)) {
        return None;
    }
    Some(f64_to_u64(x))
}

/// Fields a [`FlatObject`] holds; a line with more falls back to
/// [`Json::parse`]. An event line carries at most ten today. Each slot is
/// filled in before a line is read, so a larger array costs every line.
pub const FLAT_FIELDS: usize = 12;

/// Integer digits a [`FlatObject`] number may have. Without an exponent
/// that keeps it below 10^308 < `f64::MAX`, so it is finite and
/// [`Json::parse`] accepts it without the conversion being run first.
const FLAT_INT_DIGITS: usize = 308;

/// A field value of a [`FlatObject`], borrowed from the line. Each
/// accessor returns exactly what the same accessor of the [`Json`] value
/// [`Json::parse`] reads from the same text returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's text, known to parse to a finite `f64`.
    Num(&'a str),
    /// A string's text between its quotes, which holds no escape.
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    /// The number, converted by the same `str::parse::<f64>` call that
    /// [`Json::parse`] makes.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, under [`Json::as_u64`]'s
    /// rule: `Some` only for a non-negative integer no larger than
    /// [`MAX_EXACT_INTEGER`].
    pub fn as_u64(&self) -> Option<u64> {
        // Fifteen digits or fewer with no sign, point or exponent spell an
        // integer below 10^15 < 2^53, which the `f64` holds exactly: sum
        // the digits instead of converting.
        if let Scalar::Num(text) = self {
            if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
                return Some(text.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0')));
            }
        }
        exact_u64(self.as_f64()?)
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A one-line JSON object of scalar fields, read into a stack array of
/// borrowed `(key, value)` slices. See the module docs for what it
/// declines.
#[derive(Clone)]
pub struct FlatObject<'a> {
    fields: [(&'a str, Scalar<'a>); FLAT_FIELDS],
    len: usize,
}

impl<'a> FlatObject<'a> {
    /// Reads `line` as `{"key":value,…}` with no whitespace, or `None`
    /// where [`Json::parse`] might reject it or read any field
    /// differently.
    pub fn parse(line: &'a str) -> Option<FlatObject<'a>> {
        let mut p = Parser::new(line);
        let mut obj = FlatObject {
            fields: [("", Scalar::Null); FLAT_FIELDS],
            len: 0,
        };
        if !p.take(b'{') {
            return None;
        }
        if !p.take(b'}') {
            loop {
                let key = p.plain_string()?;
                if !p.take(b':') {
                    return None;
                }
                *obj.fields.get_mut(obj.len)? = (key, p.flat_scalar()?);
                obj.len += 1;
                if p.take(b'}') {
                    break;
                }
                if !p.take(b',') {
                    return None;
                }
            }
        }
        (p.pos == line.len()).then_some(obj)
    }

    /// Field by name (first match), as [`Json::get`] finds it.
    pub fn get(&self, name: &str) -> Option<&Scalar<'a>> {
        self.fields()
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// The fields in line order.
    pub fn fields(&self) -> &[(&'a str, Scalar<'a>)] {
        &self.fields[..self.len]
    }
}

impl fmt::Debug for FlatObject<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.fields().iter().map(|(k, v)| (k, v)))
            .finish()
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

/// What the grammar saw of a number that bounds its magnitude.
#[derive(Clone, Copy)]
struct NumberShape {
    /// Digits before any `.` or exponent.
    int_digits: usize,
    /// Whether an exponent part follows.
    exponent: bool,
}

// The grammar's scanners. Each takes the document's bytes and an offset
// and returns the offset past what it matched, so `Parser` and
// `FlatObject::parse` share one definition, and the offset stays in a
// register for the length of a scan.

/// The offset of the first `"`, `\`, control byte or the end at or
/// after `i`: the end of a run of plain string text.
fn plain_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\\' && bytes[i] >= 0x20 {
        i += 1;
    }
    i
}

/// The offset past the run of ASCII digits at `i`.
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while matches!(bytes.get(i), Some(b'0'..=b'9')) {
        i += 1;
    }
    i
}

/// Matches `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` at
/// `i`: the offset past it and its shape, or `None` where the text
/// breaks that grammar.
fn number_end(bytes: &[u8], mut i: usize) -> Option<(usize, NumberShape)> {
    if bytes.get(i) == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    match bytes.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => i = digits_end(bytes, i + 1),
        _ => return None,
    }
    let int_digits = i - int_start;
    if bytes.get(i) == Some(&b'.') {
        let frac_end = digits_end(bytes, i + 1);
        if frac_end == i + 1 {
            return None;
        }
        i = frac_end;
    }
    let exponent = matches!(bytes.get(i), Some(b'e' | b'E'));
    if exponent {
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp_end = digits_end(bytes, i);
        if exp_end == i {
            return None;
        }
        i = exp_end;
    }
    Some((
        i,
        NumberShape {
            int_digits,
            exponent,
        },
    ))
}

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
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

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

    /// Advances past `b` if it comes next.
    fn take(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.take(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(b))))
        }
    }

    /// Advances past `lit` if it comes next.
    fn take_lit(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn eat_lit(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.take_lit(lit) {
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
            self.pos = plain_end(self.bytes, self.pos);
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

    /// A string literal with no escape, as the slice between its quotes:
    /// what [`Parser::string`] borrows. `None` where `string` would copy
    /// the text out (an escape) or fail (a control byte, no closing
    /// quote).
    fn plain_string(&mut self) -> Option<&'a str> {
        if self.peek() != Some(b'"') {
            return None;
        }
        let start = self.pos + 1;
        let end = plain_end(self.bytes, start);
        if self.bytes.get(end) != Some(&b'"') {
            return None;
        }
        self.pos = end + 1;
        Some(&self.text[start..end])
    }

    /// A scalar that [`Parser::value`] reads as the same value without
    /// any conversion being needed to know it succeeds: a plain string,
    /// a literal, or a number with no exponent and at most
    /// [`FLAT_INT_DIGITS`] integer digits. `None` on anything else.
    fn flat_scalar(&mut self) -> Option<Scalar<'a>> {
        match self.peek()? {
            b'"' => self.plain_string().map(Scalar::Str),
            b't' => self.take_lit("true").then_some(Scalar::Bool(true)),
            b'f' => self.take_lit("false").then_some(Scalar::Bool(false)),
            b'n' => self.take_lit("null").then_some(Scalar::Null),
            b'-' | b'0'..=b'9' => {
                let (text, shape) = self.number_run();
                shape
                    .filter(|s| !s.exponent && s.int_digits <= FLAT_INT_DIGITS)
                    .map(|_| Scalar::Num(text))
            }
            _ => None,
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
        let (text, shape) = self.number_run();
        if shape.is_none() {
            return Err(self.err(format!("invalid number `{text}`")));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.err(format!("number `{text}` is out of range for f64"))),
            Err(_) => Err(self.err(format!("invalid number `{text}`"))),
        }
    }

    /// Advances over the maximal run of number characters and returns
    /// it, with its shape when the whole run matches RFC 8259's grammar.
    fn number_run(&mut self) -> (&'a str, Option<NumberShape>) {
        let start = self.pos;
        let number = number_end(self.bytes, start);
        let mut end = number.map_or(start, |(end, _)| end);
        while matches!(
            self.bytes.get(end),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            end += 1;
        }
        self.pos = end;
        let shape = number.and_then(|(number_end, shape)| (number_end == end).then_some(shape));
        // The run is ASCII, so the slice falls on character boundaries.
        (&self.text[start..end], shape)
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
        // 2^53 is where two integer literals first share an `f64`.
        let last = Json::parse("9007199254740991").expect("an integer literal");
        assert_eq!(last.as_u64(), Some(MAX_EXACT_INTEGER));
        for past in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
        ] {
            assert_eq!(Json::parse(past).expect(past).as_u64(), None, "{past}");
        }
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
            let mut out = Vec::new();
            write_str_bytes(&mut out, s);
            let out = String::from_utf8(out).expect("UTF-8");
            assert!(!out[1..out.len() - 1].bytes().any(|b| b < 0x20), "{out}");
            assert_eq!(Json::parse(&out).expect(&out).as_str(), Some(s));
        }
        let mut out = Vec::new();
        write_str_bytes(&mut out, "a\"\\\n");
        assert_eq!(out, b"\"a\\\"\\\\\\u000a\"");
    }

    #[test]
    fn byte_forms_append_what_the_string_forms_write() {
        // Each byte form appends what the value's string form (Display,
        // or Debug with JSON's control escapes for text) spells.
        let mut bytes = b"[".to_vec();
        let mut expected = String::from("[");
        for n in [0, 9, 10, 99, 100, 12_345, 999_999, 1 << 53, u64::MAX] {
            write_u64_bytes(&mut bytes, n);
            expected.push_str(&n.to_string());
            bytes.push(b',');
            expected.push(',');
        }
        for x in [0.5, -0.0, 21.53, 1e-7, f64::MAX, f64::NAN, -f64::INFINITY] {
            write_f64_bytes(&mut bytes, x);
            expected.push_str(&x.to_string());
        }
        for s in ["", "plain", "q\"b\\s\u{1}", "mé"] {
            write_str_bytes(&mut bytes, s);
            expected.push_str(&format!("{:?}", s).replace("\\u{1}", "\\u0001"));
        }
        assert_eq!(bytes, expected.into_bytes());
    }

    /// Asserts that the flat reader accepts `line` and reads every field
    /// as [`Json::parse`] does: the same keys in the same order, and the
    /// same value from each accessor of the first match of each key.
    fn assert_flat_reads_as_json(line: &str) {
        let flat = FlatObject::parse(line).unwrap_or_else(|| panic!("declined {line}"));
        let doc = Json::parse(line).expect(line);
        let keys: Vec<&str> = flat.fields().iter().map(|(k, _)| *k).collect();
        let doc_keys: Vec<&str> = doc
            .fields()
            .expect(line)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, doc_keys, "{line}");
        for key in keys {
            let (a, b) = (flat.get(key).expect(key), doc.get(key).expect(key));
            assert_eq!(
                a.as_f64().map(f64::to_bits),
                b.as_f64().map(f64::to_bits),
                "{line}: {key}"
            );
            assert_eq!(a.as_u64(), b.as_u64(), "{line}: {key}");
            assert_eq!(a.as_str(), b.as_str(), "{line}: {key}");
            assert_eq!(a.as_bool(), b.as_bool(), "{line}: {key}");
            assert_eq!(*a == Scalar::Null, *b == Json::Null, "{line}: {key}");
        }
    }

    /// Asserts that the flat reader declines `line`, and whether
    /// [`Json::parse`], which the caller then falls back to, accepts it.
    fn assert_declined(line: &str, json_accepts: bool) {
        assert!(FlatObject::parse(line).is_none(), "accepted {line}");
        assert_eq!(Json::parse(line).is_ok(), json_accepts, "{line}");
    }

    #[test]
    fn flat_reader_reads_event_lines_as_json_does() {
        for line in [
            "{}",
            "{\"t_ns\":0,\"kind\":\"gain_step\",\"gain_db\":0.5,\"current_a\":0.2498982498982499,\"session\":1}",
            "{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\"snr_db\":21.5,\"mcs\":14,\"mode\":\"direct\"}",
            "{\"a\":null,\"b\":false,\"c\":\"\",\"m\u{e9}\":\"d\u{e9}j\u{e0}\",\"n\":-12.25}",
            // The first of two equal keys is the one read.
            "{\"k\":1,\"k\":\"two\",\"k\":true}",
            // Integers past 2^53 - 1 read as no `u64`, by either reader.
            "{\"a\":9007199254740991,\"b\":9007199254740992,\"c\":18446744073709551615}",
            "{\"a\":1.5,\"b\":-1,\"c\":5.0000000000000001,\"d\":0.000001}",
        ] {
            assert_flat_reads_as_json(line);
        }
    }

    #[test]
    fn flat_reader_reads_minus_zero_and_one_point_zero_as_json_does() {
        assert_flat_reads_as_json("{\"a\":-0,\"b\":1.0,\"c\":-0.0,\"d\":0}");
        let flat = FlatObject::parse("{\"a\":-0,\"b\":1.0}").expect("flat");
        assert_eq!(
            flat.get("a").and_then(Scalar::as_f64).map(f64::to_bits),
            Some((-0.0_f64).to_bits())
        );
        assert_eq!(flat.get("a").and_then(Scalar::as_u64), Some(0));
        assert_eq!(flat.get("b").and_then(Scalar::as_u64), Some(1));
    }

    #[test]
    fn flat_reader_declines_an_escape_in_a_key() {
        assert_declined(r#"{"k\"ey":1}"#, true);
        assert_declined(r#"{"k\u0041":1}"#, true);
    }

    #[test]
    fn flat_reader_declines_an_escape_in_a_value() {
        assert_declined(r#"{"k":"a\nb"}"#, true);
        assert_declined(r#"{"k":"\/"}"#, true);
    }

    #[test]
    fn flat_reader_declines_a_nested_value() {
        assert_declined(r#"{"a":[1]}"#, true);
        assert_declined(r#"{"a":{"b":1}}"#, true);
        assert_declined("[1]", true);
    }

    #[test]
    fn flat_reader_declines_too_many_fields() {
        let line = |n: usize| {
            let fields: Vec<String> = (0..n).map(|i| format!("\"f{i}\":{i}")).collect();
            format!("{{{}}}", fields.join(","))
        };
        assert_flat_reads_as_json(&line(FLAT_FIELDS));
        assert_declined(&line(FLAT_FIELDS + 1), true);
    }

    #[test]
    fn flat_reader_declines_an_exponent() {
        assert_declined(r#"{"a":1e2}"#, true);
        assert_declined(r#"{"a":-1.5E-3}"#, true);
        assert_declined(r#"{"a":1e999}"#, false);
    }

    #[test]
    fn flat_reader_declines_a_309_digit_integer() {
        // 308 digits are below 10^308 and read; a 309th may or may not
        // overflow, which only the conversion can tell.
        let nines = "9".repeat(308);
        assert_flat_reads_as_json(&format!("{{\"a\":{nines},\"b\":-{nines}.5}}"));
        assert_declined(&format!("{{\"a\":1{}}}", "0".repeat(308)), true);
        assert_declined(&format!("{{\"a\":2{}}}", "0".repeat(308)), false);
    }

    #[test]
    fn flat_reader_declines_a_raw_control_byte() {
        assert_declined("{\"a\":\"x\u{1}y\"}", false);
        assert_declined("{\"a\u{1f}\":1}", false);
    }

    #[test]
    fn flat_reader_declines_a_leading_zero() {
        assert_declined(r#"{"a":01}"#, false);
        assert_declined(r#"{"a":-00.5}"#, false);
    }

    #[test]
    fn flat_reader_declines_a_bare_minus() {
        assert_declined(r#"{"a":-}"#, false);
        assert_declined(r#"{"a":-,"b":1}"#, false);
    }

    #[test]
    fn flat_reader_declines_a_bare_point() {
        assert_declined(r#"{"a":1.}"#, false);
        assert_declined(r#"{"a":1.,"b":1}"#, false);
    }

    #[test]
    fn flat_reader_declines_whitespace_between_tokens() {
        for line in [
            r#" {"a":1}"#,
            r#"{"a":1} "#,
            r#"{ "a":1}"#,
            r#"{"a" :1}"#,
            r#"{"a": 1}"#,
            r#"{"a":1 ,"b":2}"#,
            "{\"a\":1,\n\"b\":2}",
        ] {
            assert_declined(line, true);
        }
    }

    #[test]
    fn flat_reader_declines_other_grammar_errors() {
        for line in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1"#,
            r#"{"a":tru}"#,
            r#"{"a":truex}"#,
            r#"{"a":1}x"#,
            r#"{"a":1.2.3}"#,
            r#"{"a":+1}"#,
            r#"{"a:1}"#,
            r#"{a:1}"#,
        ] {
            assert_declined(line, false);
        }
    }

    #[test]
    fn depth_limit_errors_instead_of_overflowing() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
