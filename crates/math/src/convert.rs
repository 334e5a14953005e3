//! Audited numeric conversions.
//!
//! `as` casts silently truncate, wrap, and lose precision, so library
//! and binary code may not write one: `scripts/verify.sh` runs clippy's
//! `as_conversions` over every library and binary target. Some
//! conversions are still necessary — counter means, quantizer step
//! sizes, truncating a computed count — and this module is their one
//! audited home. Each helper documents exactly what is lost and carries
//! the `#[expect(clippy::as_conversions, …)]` that admits its cast; a
//! crate that cannot depend on `movr-math` puts the same attribute on
//! the function holding the cast.

/// `usize → f64` for counts (sums over `n` samples, vertex counts).
///
/// Exact for every count below 2^53 (~9·10^15); simulation loop and
/// collection sizes are far below that, so in practice lossless.
#[expect(clippy::as_conversions, reason = "counts stay below 2^53, where usize → f64 is exact")]
pub fn usize_to_f64(n: usize) -> f64 {
    n as f64
}

/// `u64 → f64` for counters and derived values (`1 << adc_bits`,
/// payload bits, elapsed nanoseconds).
///
/// Exact below 2^53, same argument as [`usize_to_f64`]; quantizer
/// level counts come from bit widths ≤ 32, and 2^53 ns is 104 days.
#[expect(clippy::as_conversions, reason = "values stay below 2^53, where u64 → f64 is exact")]
pub fn u64_to_f64(x: u64) -> f64 {
    x as f64
}

/// `usize → u64` for counters crossing into fixed-width APIs
/// (`SimTime::from_nanos` arithmetic, fork labels).
///
/// Lossless on every supported target (usize is at most 64 bits).
#[expect(clippy::as_conversions, reason = "usize is at most 64 bits, so usize → u64 is lossless")]
pub fn usize_to_u64(n: usize) -> u64 {
    n as u64
}

/// `f64 → u64` truncating toward zero, for computed non-negative counts
/// (`2·window + 1` sweep steps).
///
/// Fractional parts are dropped; negative and non-finite inputs
/// saturate to 0 / `u64::MAX` per Rust's defined `as` semantics.
#[expect(clippy::as_conversions, reason = "truncation toward zero and saturation are the documented contract")]
pub fn f64_to_u64(x: f64) -> u64 {
    x as u64
}

/// `f64 → usize` truncating toward zero, for computed non-negative
/// loop bounds (`2.0 / frame_s` prediction-horizon frame counts).
///
/// Fractional parts are dropped; negative and non-finite inputs
/// saturate to 0 / `usize::MAX` per Rust's defined `as` semantics.
#[expect(clippy::as_conversions, reason = "truncation toward zero and saturation are the documented contract")]
pub fn f64_to_usize(x: f64) -> usize {
    x as usize
}

/// `usize → i32` for small structural indices crossing into `i32` APIs
/// (`f64::powi` exponents for bucket-edge construction).
///
/// Saturates at `i32::MAX`; every in-tree caller passes bucket or
/// element counts far below 2^31, so in practice lossless.
pub fn usize_to_i32(n: usize) -> i32 {
    i32::try_from(n).unwrap_or(i32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_conversions_are_exact_in_range() {
        assert_eq!(usize_to_f64(0), 0.0);
        assert_eq!(usize_to_f64(1_000_000), 1.0e6);
        assert_eq!(u64_to_f64((1u64 << 12) - 1), 4095.0);
        assert_eq!(usize_to_u64(usize::MAX) as usize, usize::MAX);
    }

    #[test]
    fn f64_to_u64_truncates_and_saturates() {
        assert_eq!(f64_to_u64(7.9), 7);
        assert_eq!(f64_to_u64(0.0), 0);
        assert_eq!(f64_to_u64(-3.0), 0);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn f64_to_usize_truncates_and_saturates() {
        assert_eq!(f64_to_usize(7.9), 7);
        assert_eq!(f64_to_usize(0.0), 0);
        assert_eq!(f64_to_usize(-3.0), 0);
        assert_eq!(f64_to_usize(f64::INFINITY), usize::MAX);
    }

    #[test]
    fn usize_to_i32_saturates() {
        assert_eq!(usize_to_i32(0), 0);
        assert_eq!(usize_to_i32(4096), 4096);
        assert_eq!(usize_to_i32(usize::MAX), i32::MAX);
    }
}
