//! Antenna directivity patterns.
//!
//! The propagation core only needs one question answered: *how much gain
//! does this antenna apply toward a given direction?* The [`Pattern`] trait
//! captures that; `movr-phased-array` supplies the steerable array
//! implementation through an adapter in `movr-radio`, and the simple
//! patterns here serve as probes and test fixtures.

use movr_math::wrap_deg_180;

/// Directional gain of an antenna, queried by absolute direction in the
/// room plane (degrees, counter-clockwise from +x).
pub trait Pattern {
    /// Gain in dBi toward `direction_deg`.
    fn gain_dbi(&self, direction_deg: f64) -> f64;

    /// The peak gain over all directions, in dBi. Default scans at 0.5°.
    fn peak_gain_dbi(&self) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut a = -180.0;
        while a < 180.0 {
            best = best.max(self.gain_dbi(a));
            a += 0.5;
        }
        best
    }
}

/// An ideal isotropic radiator: 0 dBi everywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsotropicPattern;

impl Pattern for IsotropicPattern {
    fn gain_dbi(&self, _direction_deg: f64) -> f64 {
        0.0
    }
    fn peak_gain_dbi(&self) -> f64 {
        0.0
    }
}

/// An idealised sector beam: flat `gain_dbi` inside the half-power
/// beamwidth around `boresight_deg`, a fixed floor outside.
///
/// This is the textbook "flat-top" model; it is useful where a test wants
/// beam-steering semantics without array-factor sidelobe structure.
#[derive(Debug, Clone, Copy)]
pub struct SectorPattern {
    /// Beam centre, degrees.
    pub boresight_deg: f64,
    /// Full beamwidth, degrees.
    pub beamwidth_deg: f64,
    /// Gain inside the beam, dBi.
    pub gain_dbi: f64,
    /// Gain outside the beam (sidelobe floor), dBi.
    pub floor_dbi: f64,
}

impl SectorPattern {
    /// A sector with a typical mmWave front-to-sidelobe ratio of 25 dB.
    pub fn new(boresight_deg: f64, beamwidth_deg: f64, gain_dbi: f64) -> Self {
        assert!(beamwidth_deg > 0.0, "beamwidth must be positive");
        SectorPattern {
            boresight_deg,
            beamwidth_deg,
            gain_dbi,
            floor_dbi: gain_dbi - 25.0,
        }
    }
}

impl Pattern for SectorPattern {
    fn gain_dbi(&self, direction_deg: f64) -> f64 {
        let off = wrap_deg_180(direction_deg - self.boresight_deg).abs();
        if off <= self.beamwidth_deg / 2.0 {
            self.gain_dbi
        } else {
            self.floor_dbi
        }
    }

    fn peak_gain_dbi(&self) -> f64 {
        self.gain_dbi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_is_flat() {
        let p = IsotropicPattern;
        for a in [-180.0, -37.0, 0.0, 90.0, 179.0] {
            assert_eq!(p.gain_dbi(a), 0.0);
        }
        assert_eq!(p.peak_gain_dbi(), 0.0);
    }

    #[test]
    fn sector_in_and_out_of_beam() {
        let p = SectorPattern::new(90.0, 10.0, 15.0);
        assert_eq!(p.gain_dbi(90.0), 15.0);
        assert_eq!(p.gain_dbi(94.9), 15.0);
        assert_eq!(p.gain_dbi(96.0), -10.0);
        assert_eq!(p.gain_dbi(-90.0), -10.0);
    }

    #[test]
    fn sector_wraps_around() {
        let p = SectorPattern::new(179.0, 10.0, 12.0);
        // -178° is only 3° away from 179° going through ±180.
        assert_eq!(p.gain_dbi(-178.0), 12.0);
    }

    #[test]
    fn default_peak_scan_matches_sector_gain() {
        let p = SectorPattern::new(30.0, 12.0, 18.0);
        // Use the trait's default scanning implementation.
        struct Wrap<'a>(&'a SectorPattern);
        impl Pattern for Wrap<'_> {
            fn gain_dbi(&self, d: f64) -> f64 {
                self.0.gain_dbi(d)
            }
        }
        assert!((Wrap(&p).peak_gain_dbi() - 18.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "beamwidth")]
    fn zero_beamwidth_rejected() {
        SectorPattern::new(0.0, 0.0, 10.0);
    }
}
