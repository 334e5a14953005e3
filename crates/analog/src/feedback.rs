//! Feedback-loop analysis of the reflector's amplify-leak loop.
//!
//! Fig. 6 of the paper reduces the reflector to a signal-flow graph: the
//! input is amplified by `G` dB, attenuated by `L` dB through the antenna
//! leakage, and fed back to the input. Classical feedback theory [22, 25]
//! gives the stability criterion the whole gain-control design rests on:
//!
//! > the system is stable iff `G_dB − L_dB < 0`.
//!
//! For a stable loop the closed-loop gain exceeds the forward gain by the
//! regeneration factor `−20·log10(1 − β)` where `β = 10^{(G−L)/20}` is the
//! loop amplitude ratio; as `G → L` the regeneration diverges and the real
//! amplifier saturates.

use movr_math::db::{amplitude_to_db, db_to_amplitude};

/// A single-amplifier positive-feedback loop.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackLoop {
    /// Forward amplifier gain, dB.
    pub gain_db: f64,
    /// Leakage attenuation, dB (positive).
    pub leakage_attenuation_db: f64,
}

impl FeedbackLoop {
    /// Creates a loop description.
    pub fn new(gain_db: f64, leakage_attenuation_db: f64) -> Self {
        FeedbackLoop {
            gain_db,
            leakage_attenuation_db,
        }
    }

    /// Loop amplitude ratio `β = 10^{(G−L)/20}`.
    pub fn loop_ratio(&self) -> f64 {
        db_to_amplitude(self.gain_db - self.leakage_attenuation_db)
    }

    /// The §4.2 criterion: stable iff `G_dB − L_dB < 0`.
    pub fn is_stable(&self) -> bool {
        self.gain_db < self.leakage_attenuation_db
    }

    /// Closed-loop gain in dB: `Some(G − 20·log10(1 − β))` when stable,
    /// `None` when the loop is unstable (the amplifier saturates and the
    /// output is garbage, not a larger signal).
    pub fn closed_loop_gain_db(&self) -> Option<f64> {
        if !self.is_stable() {
            return None;
        }
        let beta = self.loop_ratio();
        Some(self.gain_db - amplitude_to_db(1.0 - beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_boundary() {
        assert!(FeedbackLoop::new(29.9, 30.0).is_stable());
        assert!(!FeedbackLoop::new(30.0, 30.0).is_stable());
        assert!(!FeedbackLoop::new(35.0, 30.0).is_stable());
    }

    #[test]
    fn unstable_loop_has_no_gain() {
        assert_eq!(FeedbackLoop::new(30.0, 30.0).closed_loop_gain_db(), None);
        assert_eq!(FeedbackLoop::new(50.0, 30.0).closed_loop_gain_db(), None);
    }

    /// Closed-loop minus forward gain, dB.
    fn regeneration_db(g: f64, l: f64) -> f64 {
        FeedbackLoop::new(g, l).closed_loop_gain_db().unwrap() - g
    }

    #[test]
    fn deep_margin_means_negligible_regeneration() {
        // 40 dB margin: β = 0.01, regeneration ≈ 0.09 dB.
        let r = regeneration_db(10.0, 50.0);
        assert!(r > 0.0 && r < 0.1, "r={r}");
    }

    #[test]
    fn regeneration_diverges_at_the_boundary() {
        let near = regeneration_db(29.9, 30.0);
        let nearer = regeneration_db(29.99, 30.0);
        assert!(near > 18.0, "0.1 dB margin regenerates strongly: {near}");
        assert!(nearer > near);
    }

    #[test]
    fn closed_loop_gain_exceeds_forward_gain_when_stable() {
        for (g, l) in [(10.0, 40.0), (25.0, 30.0), (29.0, 30.0)] {
            let loop_ = FeedbackLoop::new(g, l);
            let closed = loop_.closed_loop_gain_db().unwrap();
            assert!(closed > g, "g={g} l={l} closed={closed}");
        }
    }

    #[test]
    fn loop_ratio_is_amplitude_convention() {
        let l = FeedbackLoop::new(20.0, 40.0);
        assert!((l.loop_ratio() - 0.1).abs() < 1e-12); // -20 dB → 0.1 amplitude
    }
}
