//! Zero-dependency binary (de)serialization for checkpoints.
//!
//! The session checkpoint/restore feature (see `movr::snapshot`) needs a
//! byte format that round-trips simulation state **bit-exactly** — a
//! resumed session must continue on the same floating-point trajectory as
//! the uninterrupted run. General-purpose text formats round floats; this
//! module instead writes `f64::to_bits` verbatim, length-prefixes every
//! variable-sized field, and never silently truncates: [`WireReader`]
//! returns a structured [`WireError`] for every malformed read instead of
//! panicking, so corrupted snapshots surface as errors, not crashes.
//!
//! All integers are little-endian. The format has no self-description —
//! writer and reader must agree on the field sequence, which is exactly
//! what the snapshot format version in `movr::snapshot` pins.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the checksum used by snapshot footers
/// and config fingerprints. Stable by construction; pinned by tests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a [`WireReader`] refused to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field was complete.
    Truncated {
        /// Byte offset at which the read started.
        at: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A decoded value violated the field's invariant (a bool byte
    /// other than 0 or 1, a `u64` too large for `usize`).
    Malformed {
        /// Byte offset of the offending field.
        at: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated {
                at,
                needed,
                remaining,
            } => write!(
                f,
                "truncated at byte {at}: field needs {needed} bytes, {remaining} remain"
            ),
            WireError::Malformed { at, what } => {
                write!(f, "malformed field at byte {at}: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends wire-encoded fields to a growable byte buffer.
#[derive(Debug, Clone, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (lossless on every supported target).
    pub fn usize(&mut self, v: usize) {
        self.u64(crate::convert::usize_to_u64(v));
    }

    /// Writes an `f64` as its exact bit pattern — NaN payloads, signed
    /// zeros and infinities all round-trip verbatim.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends the FNV-1a checksum of everything written so far. Call
    /// last; the matching read is [`WireReader::verify_checksum_footer`].
    pub fn finish_with_checksum(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Sequential, bounds-checked reader over a wire-encoded buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let trunc = WireError::Truncated {
            at: self.pos,
            needed: n,
            remaining: self.remaining(),
        };
        // `get` + `checked_add` keep the whole read panic-free for any
        // width at any offset.
        let end = self.pos.checked_add(n).ok_or_else(|| trunc.clone())?;
        let s = self.buf.get(self.pos..end).ok_or(trunc)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads exactly `N` bytes as a fixed array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let at = self.pos;
        self.take(N)?.try_into().map_err(|_| WireError::Malformed {
            at,
            what: "field width mismatch",
        })
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` written by [`WireWriter::usize`]. Values that do
    /// not fit the target's `usize` are malformed.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed {
            at,
            what: "u64 does not fit usize",
        })
    }

    /// Reads an `f64` bit pattern written by [`WireWriter::f64`].
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed {
                at,
                what: "bool byte is neither 0 nor 1",
            }),
        }
    }

    /// A reader over only the payload of a checksummed buffer (all but
    /// the final 8 bytes), after verifying the FNV-1a footer written by
    /// [`WireWriter::finish_with_checksum`]. `Ok(None)` means the
    /// checksum did not match; errors mean the buffer cannot even hold a
    /// footer.
    pub fn verify_checksum_footer(buf: &'a [u8]) -> Result<Option<WireReader<'a>>, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated {
                at: 0,
                needed: 8,
                remaining: buf.len(),
            });
        }
        let (payload, footer) = buf.split_at(buf.len() - 8);
        let mut b = [0u8; 8];
        b.copy_from_slice(footer);
        let stored = u64::from_le_bytes(b);
        if fnv1a64(payload) != stored {
            return Ok(None);
        }
        Ok(Some(WireReader::new(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.f64(f64::NEG_INFINITY);
        w.bool(true);
        w.bool(false);
        w.usize(0);
        let bytes = w.bytes();

        let mut r = WireReader::new(bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn f64_bit_patterns_survive() {
        // Exact bit patterns, including a non-canonical NaN payload.
        for bits in [0u64, 1, 0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0000, 42] {
            let mut w = WireWriter::new();
            w.f64(f64::from_bits(bits));
            let bytes = w.bytes();
            let got = WireReader::new(bytes).f64().unwrap();
            assert_eq!(got.to_bits(), bits);
        }
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = WireWriter::new();
        w.u64(99);
        w.usize(5);
        let bytes = w.bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            // Whatever partial decode succeeds, the full sequence can't.
            let ok = r.u64().is_ok() && r.usize().is_ok();
            assert!(!ok, "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn bad_bool_is_malformed() {
        let mut r = WireReader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn checksum_footer_detects_any_single_byte_flip() {
        let mut w = WireWriter::new();
        w.u64(0x0123_4567_89AB_CDEF);
        w.usize(7);
        let bytes = w.finish_with_checksum();
        assert!(WireReader::verify_checksum_footer(&bytes)
            .unwrap()
            .is_some());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                let verdict = WireReader::verify_checksum_footer(&c).unwrap();
                assert!(verdict.is_none(), "flip at byte {i} bit {bit} passed");
            }
        }
    }

    #[test]
    fn fnv1a64_pinned_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
