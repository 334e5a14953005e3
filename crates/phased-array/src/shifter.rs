//! Analog phase shifters and their control quantisation.
//!
//! The prototype drives Hittite HMC-933 *analog* phase shifters from an
//! AD7228 8-bit DAC (§5). The shifter itself is continuous; the resolution
//! of the phase actually applied is set by the DAC word. This module
//! models that chain: a requested phase is quantised to the nearest
//! control step and suffers the part's insertion loss.

use movr_math::wrap_deg_360;

/// A phase shifter with quantised control.
#[derive(Debug, Clone, Copy)]
pub struct PhaseShifter {
    /// Control resolution in bits over the full 0–360° range.
    pub control_bits: u32,
    /// Insertion loss of the part, dB (HMC-933 class: a few dB).
    pub insertion_loss_db: f64,
}

impl Default for PhaseShifter {
    fn default() -> Self {
        PhaseShifter {
            control_bits: 8,
            insertion_loss_db: 4.0,
        }
    }
}

impl PhaseShifter {
    /// Creates a shifter with the given control resolution.
    ///
    /// # Panics
    /// Panics if `control_bits` is 0 or greater than 16.
    pub fn with_bits(control_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&control_bits),
            "control_bits must be in 1..=16"
        );
        PhaseShifter {
            control_bits,
            ..Default::default()
        }
    }

    /// The smallest phase step the control DAC can command, degrees.
    #[inline]
    pub fn step_deg(&self) -> f64 {
        360.0 / movr_math::convert::u64_to_f64(1u64 << self.control_bits)
    }

    /// Quantises a requested phase (degrees) to the nearest control step,
    /// returned in `[0, 360)`.
    #[inline]
    pub fn apply(&self, requested_deg: f64) -> f64 {
        let wrapped = wrap_deg_360(requested_deg);
        let step = self.step_deg();
        let idx = (wrapped / step).round();
        wrap_deg_360(idx * step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_bit_step() {
        let s = PhaseShifter::default();
        assert!((s.step_deg() - 1.40625).abs() < 1e-9);
    }

    #[test]
    fn apply_quantises_to_grid() {
        let s = PhaseShifter::with_bits(2); // 90° steps
        assert_eq!(s.apply(0.0), 0.0);
        assert_eq!(s.apply(44.0), 0.0);
        assert_eq!(s.apply(46.0), 90.0);
        assert_eq!(s.apply(100.0), 90.0);
        assert_eq!(s.apply(181.0), 180.0);
    }

    #[test]
    fn apply_wraps_negative_and_large() {
        let s = PhaseShifter::with_bits(2);
        assert_eq!(s.apply(-90.0), 270.0);
        assert_eq!(s.apply(359.0), 0.0);
        assert_eq!(s.apply(720.0 + 91.0), 90.0);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let s = PhaseShifter::default();
        for i in 0..1000 {
            let req = i as f64 * 0.361;
            let got = s.apply(req);
            let err = (movr_math::wrap_deg_180(got - req)).abs();
            assert!(err <= s.step_deg() / 2.0 + 1e-9, "req={req} got={got}");
        }
    }

    #[test]
    fn more_bits_less_error() {
        assert!(PhaseShifter::with_bits(8).step_deg() < PhaseShifter::with_bits(4).step_deg());
    }

    #[test]
    #[should_panic(expected = "control_bits")]
    fn zero_bits_rejected() {
        PhaseShifter::with_bits(0);
    }
}
