//! The reflector's variable-gain amplifier.
//!
//! The prototype builds its VGA from a Hittite HMC-C020 power amplifier, a
//! Quinstar QLW-2440 LNA and an HMC712 attenuator (§5). For the system's
//! purposes the chain is one device with:
//!
//! * a commandable gain `G` over a finite range,
//! * an on/off switch (the backscatter protocol modulates the amplifier
//!   at f₂ by toggling it),
//! * a *saturation* condition when the loop gain through the antenna
//!   leakage goes non-negative (`G_dB ≥ L_dB`), and
//! * a DC supply current that rises sharply as the device approaches
//!   saturation — the observable §4.2's gain-control algorithm monitors.
//!
//! The current curve follows the qualitative behaviour documented in PA
//! datasheets and the amplifier-design references the paper cites
//! [23, 27]: flat quiescent draw in normal operation, a steep knee within
//! the last couple of dB of margin, and a high clipped draw in saturation.

/// A variable-gain amplifier with saturation-aware supply-current model.
#[derive(Debug, Clone, Copy)]
pub struct VariableGainAmplifier {
    /// Minimum commandable gain, dB.
    pub min_gain_db: f64,
    /// Maximum commandable gain, dB.
    pub max_gain_db: f64,
    /// Quiescent supply current in normal operation, amperes.
    pub quiescent_current_a: f64,
    /// Supply current when saturated, amperes.
    pub saturated_current_a: f64,
    /// Loop margin (dB) at which the current knee is centred. With
    /// `margin = L_dB − G_dB`, the draw starts climbing when the margin
    /// shrinks below a few times this value.
    pub knee_margin_db: f64,
    /// Width of the knee transition, dB.
    pub knee_width_db: f64,
    gain_db: f64,
    enabled: bool,
}

impl Default for VariableGainAmplifier {
    fn default() -> Self {
        // The prototype's LNA + PA + attenuator chain. The ceiling reaches
        // into the lower part of the loop-leakage band (≈43–83 dB) so the
        // §4.2 knee binds for a meaningful share of beam pairs, while the
        // net relay gain stays modest enough that MoVR's SNR sits "a few
        // dB" above unblocked LOS (Fig. 9), not tens.
        VariableGainAmplifier {
            min_gain_db: 0.0,
            max_gain_db: 53.0,
            quiescent_current_a: 0.250,
            saturated_current_a: 0.520,
            knee_margin_db: 1.5,
            knee_width_db: 0.6,
            gain_db: 0.0,
            enabled: true,
        }
    }
}

impl VariableGainAmplifier {
    /// Current commanded gain, dB (0 contribution when disabled).
    pub fn gain_db(&self) -> f64 {
        self.gain_db
    }

    /// Commands a gain, clamped to the device range; returns the applied
    /// value.
    pub fn set_gain_db(&mut self, gain_db: f64) -> f64 {
        self.gain_db = gain_db.clamp(self.min_gain_db, self.max_gain_db);
        self.gain_db
    }

    /// Whether the amplifier is powered (the backscatter modulator toggles
    /// this at f₂).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Powers the amplifier on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True if the amplifier is saturated given a leakage attenuation of
    /// `leakage_attenuation_db` (positive dB): the §4.2 stability criterion
    /// `G_dB − L_dB < 0` has been violated.
    pub fn is_saturated(&self, leakage_attenuation_db: f64) -> bool {
        self.enabled && self.gain_db >= leakage_attenuation_db
    }

    /// Loop margin `L_dB − G_dB`, dB. Positive = stable. `+inf` when off.
    pub fn loop_margin_db(&self, leakage_attenuation_db: f64) -> f64 {
        if self.enabled {
            leakage_attenuation_db - self.gain_db
        } else {
            f64::INFINITY
        }
    }

    /// Instantaneous DC supply current (amperes) for the present gain and
    /// the given leakage attenuation.
    ///
    /// The sigmoid knee keeps the curve smooth (real parts do not step),
    /// while concentrating the rise inside the last ~2 dB of margin so a
    /// step-and-watch algorithm sees a sudden jump — the §4.2 signature.
    pub fn supply_current_a(&self, leakage_attenuation_db: f64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let margin = self.loop_margin_db(leakage_attenuation_db);
        let x = (self.knee_margin_db - margin) / self.knee_width_db;
        let sigmoid = 1.0 / (1.0 + (-x).exp());
        self.quiescent_current_a + (self.saturated_current_a - self.quiescent_current_a) * sigmoid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_clamps_to_range() {
        let mut a = VariableGainAmplifier {
            min_gain_db: 5.0,
            max_gain_db: 30.0,
            ..Default::default()
        };
        assert_eq!(a.set_gain_db(50.0), 30.0);
        assert_eq!(a.set_gain_db(-10.0), 5.0);
        assert_eq!(a.set_gain_db(17.5), 17.5);
    }

    #[test]
    fn saturation_criterion_matches_paper() {
        let mut a = VariableGainAmplifier::default();
        a.set_gain_db(30.0);
        // G < L: stable.
        assert!(!a.is_saturated(35.0));
        // G == L: unstable boundary counts as saturated.
        assert!(a.is_saturated(30.0));
        // G > L: saturated.
        assert!(a.is_saturated(25.0));
    }

    #[test]
    fn disabled_amplifier_draws_nothing_and_cannot_saturate() {
        let mut a = VariableGainAmplifier::default();
        a.set_gain_db(40.0);
        a.set_enabled(false);
        assert_eq!(a.supply_current_a(20.0), 0.0);
        assert!(!a.is_saturated(20.0));
        assert_eq!(a.loop_margin_db(20.0), f64::INFINITY);
    }

    #[test]
    fn current_is_quiescent_with_wide_margin() {
        let mut a = VariableGainAmplifier::default();
        a.set_gain_db(10.0);
        let i = a.supply_current_a(60.0); // 50 dB margin
        assert!((i - a.quiescent_current_a).abs() < 1e-3, "i={i}");
    }

    #[test]
    fn current_approaches_saturated_value_past_the_knee() {
        let mut a = VariableGainAmplifier::default();
        a.set_gain_db(40.0);
        let i = a.supply_current_a(35.0); // 5 dB *negative* margin
        assert!((i - a.saturated_current_a).abs() < 1e-3, "i={i}");
    }

    #[test]
    fn current_rises_monotonically_as_margin_shrinks() {
        let a = {
            let mut a = VariableGainAmplifier::default();
            a.set_gain_db(30.0);
            a
        };
        let mut prev = 0.0;
        // Sweep leakage from huge margin down to negative margin.
        for l in (25..=80).rev() {
            let i = a.supply_current_a(l as f64);
            assert!(i >= prev - 1e-12, "current must not fall as margin shrinks");
            prev = i;
        }
    }

    #[test]
    fn knee_is_sudden() {
        // The jump across the last 3 dB of margin dominates the total
        // rise — that's what makes threshold detection work.
        let mut a = VariableGainAmplifier::default();
        a.set_gain_db(30.0);
        let far = a.supply_current_a(40.0); // 10 dB margin
        let near = a.supply_current_a(33.0); // 3 dB margin
        let at = a.supply_current_a(30.5); // 0.5 dB margin
        let rise_early = near - far;
        let rise_late = at - near;
        assert!(rise_late > 4.0 * rise_early, "early={rise_early} late={rise_late}");
    }
}
