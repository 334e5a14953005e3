//! Simulated time.
//!
//! [`SimTime`] is a monotonic instant measured in integer nanoseconds from
//! the simulation epoch. Integer nanoseconds make event ordering exact
//! (no float-comparison ties) while still resolving the sub-microsecond
//! beam-steering latencies the paper cares about (§6).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulated instant, in nanoseconds since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant (~584 simulated years).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds (fractional allowed).
    ///
    /// Inputs too large for the `u64` nanosecond range (above ~5.8e11
    /// seconds) saturate to [`SimTime::MAX`] rather than relying on the
    /// cast's implicit clamping — callers feeding in huge durations get a
    /// well-defined, documented ceiling instead of silent wrap-adjacent
    /// behaviour.
    ///
    /// # Panics
    /// Panics on negative, NaN, or infinite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime::try_from_secs_f64(secs).expect("time must be non-negative")
    }

    /// [`SimTime::from_secs_f64`], or `None` on negative, NaN, or
    /// infinite input.
    #[expect(
        clippy::as_conversions,
        reason = "the rounded ns lie below the ceiling checked first, so the cast is exact"
    )]
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        if !(secs >= 0.0 && secs.is_finite()) {
            return None;
        }
        let ns = (secs * 1e9).round();
        Some(if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns as u64)
        })
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    #[expect(
        clippy::as_conversions,
        reason = "u64 ns → f64 is exact below 2^53 ns (104 days of simulated time)"
    )]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch.
    #[expect(
        clippy::as_conversions,
        reason = "u64 ns → f64 is exact below 2^53 ns (104 days of simulated time)"
    )]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self − earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Saturating sum `self + span`: [`SimTime::MAX`] where it does not
    /// fit.
    pub fn saturating_add(self, span: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(span.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics when `rhs` is later than `self` — use
    /// [`SimTime::saturating_since`] where underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    #[expect(
        clippy::as_conversions,
        reason = "display only: ns below one second convert to f64 exactly"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(1), SimTime::from_nanos(1_000_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::try_from_secs_f64(1.5), Some(SimTime::from_secs_f64(1.5)));
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            assert_eq!(SimTime::try_from_secs_f64(bad), None, "{bad}");
        }
        assert!((SimTime::from_millis(11).as_secs_f64() - 0.011).abs() < 1e-12);
        assert!((SimTime::from_millis(11).as_millis_f64() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(11);
        assert!(a < b);
        assert_eq!(a, SimTime::from_nanos(10));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(8));
        assert_eq!(a - b, SimTime::from_millis(2));
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.saturating_add(b), SimTime::from_millis(8));
        assert_eq!(a.saturating_add(SimTime::MAX), SimTime::MAX);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(8));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_rejected() {
        SimTime::from_secs_f64(-0.1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn infinite_seconds_rejected() {
        SimTime::from_secs_f64(f64::INFINITY);
    }

    #[test]
    fn huge_seconds_saturate_to_max() {
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
        // Exactly at the boundary region: u64::MAX ns ≈ 1.8447e19 ns.
        assert_eq!(SimTime::from_secs_f64(2e10), SimTime::MAX);
        // Comfortably below the ceiling, conversion is exact as before.
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!(SimTime::from_secs_f64(1e9) < SimTime::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", SimTime::from_micros(2)), "2.000µs");
        assert_eq!(format!("{}", SimTime::from_millis(11)), "11.000ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.5)), "2.500s");
    }
}
