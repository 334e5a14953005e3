//! Single patch-antenna element.
//!
//! A microstrip patch radiates into the half-space in front of its ground
//! plane with a broad, roughly cosine-shaped pattern and a peak gain of a
//! few dBi. The array multiplies this element pattern by the array factor;
//! the element is what prevents the array from radiating backwards.

use movr_math::{linear_to_db, wrap_deg_180};

/// A patch element with a `cosᵖ` power pattern.
#[derive(Debug, Clone, Copy)]
pub struct PatchElement {
    /// Peak (boresight) gain, dBi.
    pub peak_gain_dbi: f64,
    /// Power-pattern exponent: `G(θ) ∝ cosᵖ(θ)`. Larger = more directive.
    pub exponent: f64,
    /// Floor applied behind the ground plane and at pattern nulls, dBi.
    pub back_lobe_dbi: f64,
}

impl Default for PatchElement {
    fn default() -> Self {
        // A typical PCB patch at 24 GHz: ~5 dBi peak, gentle rolloff,
        // ~25 dB front-to-back ratio.
        PatchElement {
            peak_gain_dbi: 5.0,
            exponent: 2.0,
            back_lobe_dbi: -20.0,
        }
    }
}

impl PatchElement {
    /// True when every parameter equals `other`'s bit for bit.
    pub(crate) fn same_bits(&self, other: &PatchElement) -> bool {
        self.peak_gain_dbi.to_bits() == other.peak_gain_dbi.to_bits()
            && self.exponent.to_bits() == other.exponent.to_bits()
            && self.back_lobe_dbi.to_bits() == other.back_lobe_dbi.to_bits()
    }

    /// Element gain (dBi) at angle `theta_deg` off boresight
    /// (−180…180; |θ| > 90° is behind the ground plane).
    pub fn gain_dbi(&self, theta_deg: f64) -> f64 {
        self.gain_at(wrap_deg_180(theta_deg))
    }

    /// [`PatchElement::gain_dbi`] at `theta` already wrapped into
    /// (−180°, 180°], where wrapping again returns `theta` unchanged.
    pub(crate) fn gain_at(&self, theta: f64) -> f64 {
        if theta.abs() >= 90.0 {
            return self.back_lobe_dbi;
        }
        let c = theta.to_radians().cos();
        let g = self.peak_gain_dbi + linear_to_db(c.powf(self.exponent));
        g.max(self.back_lobe_dbi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boresight_is_peak() {
        let e = PatchElement::default();
        assert_eq!(e.gain_dbi(0.0), 5.0);
        for t in [10.0, 30.0, 60.0, 89.0] {
            assert!(e.gain_dbi(t) < e.gain_dbi(0.0));
        }
    }

    #[test]
    fn pattern_is_symmetric() {
        let e = PatchElement::default();
        for t in [5.0, 25.0, 45.0, 80.0] {
            assert!((e.gain_dbi(t) - e.gain_dbi(-t)).abs() < 1e-12);
        }
    }

    #[test]
    fn back_half_is_floored() {
        let e = PatchElement::default();
        assert_eq!(e.gain_dbi(90.0), e.back_lobe_dbi);
        assert_eq!(e.gain_dbi(135.0), e.back_lobe_dbi);
        assert_eq!(e.gain_dbi(180.0), e.back_lobe_dbi);
        assert_eq!(e.gain_dbi(-120.0), e.back_lobe_dbi);
    }

    #[test]
    fn monotone_rolloff_in_front_half() {
        let e = PatchElement::default();
        let mut prev = f64::INFINITY;
        for i in 0..=17 {
            let g = e.gain_dbi(i as f64 * 5.0);
            assert!(g <= prev + 1e-12);
            prev = g;
        }
    }

    #[test]
    fn half_power_near_65_degrees_for_cos2() {
        // cos²θ = 0.5 at θ = 45°... in power-pattern terms with p=2:
        // 10·log10(cos²45°) = -3.01 dB.
        let e = PatchElement::default();
        let g = e.gain_dbi(45.0);
        assert!((g - (5.0 - 3.01)).abs() < 0.05, "g={g}");
    }

    #[test]
    fn wraparound_angles() {
        let e = PatchElement::default();
        assert_eq!(e.gain_dbi(350.0), e.gain_dbi(-10.0));
        assert_eq!(e.gain_dbi(370.0), e.gain_dbi(10.0));
    }
}
