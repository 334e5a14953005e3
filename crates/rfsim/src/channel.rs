//! Complex channel gains from traced paths.
//!
//! Each geometric [`Path`] becomes one tap of a narrowband multipath
//! channel: an amplitude set by the loss budget (Friis + reflections +
//! shadowing) and a phase set by the electrical length. Taps combine
//! *coherently* — two paths half a wavelength apart in length cancel —
//! which is what makes mmWave links so sensitive to geometry.

use crate::raytrace::Path;
use crate::{fspl_db, wavelength_m};
use movr_math::{db_to_linear, C64};
use std::f64::consts::PI;

/// The complex gain contributed by one path, before antenna gains.
#[derive(Debug, Clone, Copy)]
pub struct PathGain {
    /// Complex amplitude gain (dimensionless field ratio).
    pub coefficient: C64,
    /// Power gain of this path alone, dB (negative = loss).
    pub power_gain_db: f64,
}

/// A narrowband channel evaluator at a fixed carrier frequency.
#[derive(Debug, Clone, Copy)]
pub struct Channel {
    freq_hz: f64,
}

impl Channel {
    /// Creates a channel at `freq_hz` (e.g. `24.0e9` for the paper's
    /// prototype, `60.48e9` for 802.11ad channel 2).
    pub fn new(freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "carrier frequency must be positive"); // constructor contract on a deployment constant
        Channel { freq_hz }
    }

    /// Carrier frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Wavelength in metres.
    pub fn wavelength_m(&self) -> f64 {
        wavelength_m(self.freq_hz)
    }

    /// The complex gain of one path: amplitude from FSPL plus the path's
    /// excess loss, phase from the electrical length `-2π·L/λ`.
    pub fn path_gain(&self, path: &Path) -> PathGain {
        let loss_db = fspl_db(path.length_m, self.freq_hz) + path.excess_loss_db();
        let amplitude = db_to_linear(-loss_db).sqrt();
        let phase = -2.0 * PI * path.length_m / self.wavelength_m();
        PathGain {
            coefficient: C64::from_polar(amplitude, phase),
            power_gain_db: -loss_db,
        }
    }
}

/// The coherent sum over `(tap, antenna gain in dB)` terms, taken in
/// path order: each tap is weighted by the square root of its power
/// gain (antenna gain is a power gain applied to the field) and the
/// weighted taps fold from zero.
///
/// Every link evaluation ends here —
/// [`TracedLink::evaluate`](crate::TracedLink::evaluate) for the scalar
/// (per-frame) path and [`LinkBatch`](crate::LinkBatch) for precomputed
/// gain rows — so the two agree bit for bit by construction.
#[inline]
pub(crate) fn coherent_sum(terms: impl Iterator<Item = (C64, f64)>) -> C64 {
    let mut sum = C64::ZERO;
    for (tap, gain_db) in terms {
        sum += tap * db_to_linear(gain_db).sqrt();
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raytrace::PathKind;
    use movr_math::{linear_to_db, Vec2};

    fn los_path(len: f64) -> Path {
        Path {
            kind: PathKind::LineOfSight,
            vertices: [Vec2::ZERO, Vec2::new(len, 0.0)].into(),
            length_m: len,
            departure_deg: 0.0,
            arrival_deg: 180.0,
            reflection_loss_db: 0.0,
            shadow_loss_db: 0.0,
        }
    }

    #[test]
    fn single_path_power_matches_friis() {
        let ch = Channel::new(24.0e9);
        let p = los_path(4.0);
        let g = ch.path_gain(&p);
        let expect = -fspl_db(4.0, 24.0e9);
        assert!((g.power_gain_db - expect).abs() < 1e-9);
        assert!((linear_to_db(g.coefficient.norm_sq()) - expect).abs() < 1e-6);
    }

    #[test]
    fn excess_loss_reduces_amplitude() {
        let ch = Channel::new(24.0e9);
        let mut p = los_path(4.0);
        let clean = ch.path_gain(&p).coefficient.abs();
        p.shadow_loss_db = 20.0;
        let shadowed = ch.path_gain(&p).coefficient.abs();
        // 20 dB power = 10× amplitude.
        assert!((clean / shadowed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn phase_advances_with_length() {
        let ch = Channel::new(24.0e9);
        let lambda = ch.wavelength_m();
        // A full wavelength of extra travel returns the same phase.
        let a = ch.path_gain(&los_path(1.0)).coefficient.arg();
        let b = ch.path_gain(&los_path(1.0 + lambda)).coefficient.arg();
        assert!((a - b).abs() < 1e-6 || (a - b).abs() > 2.0 * PI - 1e-6);
        // Half a wavelength flips the phase.
        let c = ch.path_gain(&los_path(1.0 + lambda / 2.0)).coefficient;
        let ratio = c / ch.path_gain(&los_path(1.0)).coefficient;
        assert!(ratio.re < 0.0);
    }

    #[test]
    fn two_paths_can_cancel() {
        let ch = Channel::new(24.0e9);
        let lambda = ch.wavelength_m();
        let p1 = los_path(2.0);
        let p2 = los_path(2.0 + lambda / 2.0);
        let combined = coherent_sum([p1, p2].iter().map(|p| (ch.path_gain(p).coefficient, 0.0)));
        // Near-perfect destructive combining (amplitudes differ slightly
        // because of the tiny distance difference).
        let single = ch.path_gain(&p1).coefficient.abs();
        assert!(combined.abs() < 0.02 * single);
    }

    #[test]
    fn antenna_gain_weighting() {
        let ch = Channel::new(24.0e9);
        let p = los_path(3.0);
        let tap = ch.path_gain(&p).coefficient;
        let iso = coherent_sum(std::iter::once((tap, 0.0)));
        // 10 dBi at each end.
        let directional = coherent_sum(std::iter::once((tap, 10.0 + 10.0)));
        // +20 dB total power = 10× amplitude.
        assert!((directional.abs() / iso.abs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn directional_nulling_removes_path() {
        let ch = Channel::new(24.0e9);
        let p = los_path(3.0);
        // RX pattern with a null toward the arrival bearing.
        let rx_dbi = if (p.arrival_deg - 180.0).abs() < 1.0 { -200.0 } else { 0.0 };
        let combined = coherent_sum(std::iter::once((ch.path_gain(&p).coefficient, rx_dbi)));
        assert!(combined.abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        Channel::new(0.0);
    }
}
