//! The backscatter tone probe (§4.1).
//!
//! During beam alignment the AP transmits a sinewave at f₁ while the
//! reflector toggles its amplifier on/off at f₂. The reflected signal is
//! thereby modulated: its energy moves to sidebands at f₁ ± f₂, while the
//! AP's own TX→RX leakage stays at f₁. A bandpass filter at f₁ + f₂ then
//! reads the *reflected* power essentially free of the (much stronger)
//! leakage — the measurement the whole alignment protocol is built on.
//!
//! The model accounts for:
//! * **Modulation conversion loss** — a 50 % duty square-wave modulator
//!   puts only part of the reflected power into the first sideband
//!   (≈7 dB below the unmodulated carrier).
//! * **AP self-leakage** — TX couples into RX at `ap_coupling_db` below
//!   transmit power; the filter suppresses it by `filter_rejection_db`,
//!   leaving a residual that can still swamp a weak reflection.
//! * **A narrowband noise floor and log-normal measurement jitter.**

use movr_math::db::{dbm_to_watts, watts_to_dbm};
use movr_math::SimRng;

/// One sideband power reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneMeasurement {
    /// Power measured in the f₁+f₂ filter, dBm.
    pub power_dbm: f64,
}

/// The AP-side measurement chain for the backscatter protocol.
#[derive(Debug, Clone, Copy)]
pub struct ToneProbe {
    /// AP TX→RX antenna coupling, dB below transmit power.
    pub ap_coupling_db: f64,
    /// Filter rejection of the f₁ leakage at the f₁+f₂ sideband, dB.
    pub filter_rejection_db: f64,
    /// Conversion loss from reflected carrier into the first sideband, dB.
    pub modulation_loss_db: f64,
    /// Narrowband measurement noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// RMS measurement jitter, dB.
    pub sigma_db: f64,
}

impl Default for ToneProbe {
    fn default() -> Self {
        ToneProbe {
            ap_coupling_db: 45.0,
            filter_rejection_db: 60.0,
            modulation_loss_db: 7.0,
            noise_floor_dbm: -95.0,
            sigma_db: 0.5,
        }
    }
}

impl ToneProbe {
    /// The AP's self-leakage power at its receiver, dBm.
    pub fn ap_leakage_dbm(&self, tx_power_dbm: f64) -> f64 {
        tx_power_dbm - self.ap_coupling_db
    }

    /// The meter for the f₁+f₂ sideband with the reflector *modulating*,
    /// at a fixed transmit power.
    ///
    /// Modulation shifts the round-trip reflection into the sideband at
    /// the conversion loss; the AP's leakage contributes only its
    /// filtered residual. That residual and the noise floor convert to
    /// watts once here instead of per probe.
    pub fn modulated_meter(&self, tx_power_dbm: f64) -> ToneMeter {
        ToneMeter {
            loss_db: self.modulation_loss_db,
            leak_w: dbm_to_watts(self.ap_leakage_dbm(tx_power_dbm) - self.filter_rejection_db),
            floor_w: dbm_to_watts(self.noise_floor_dbm),
            sigma_db: self.sigma_db,
        }
    }

    /// The meter at f₁ with the reflector *not* modulating — the
    /// ablation case. The AP's own leakage lands in-band at full
    /// strength (unfiltered, no conversion loss) and swamps the
    /// reflection, which is why the paper needs modulation. The leakage
    /// converts to watts once, as in [`ToneProbe::modulated_meter`].
    pub fn unmodulated_meter(&self, tx_power_dbm: f64) -> ToneMeter {
        ToneMeter {
            loss_db: 0.0,
            leak_w: dbm_to_watts(self.ap_leakage_dbm(tx_power_dbm)),
            floor_w: dbm_to_watts(self.noise_floor_dbm),
            sigma_db: self.sigma_db,
        }
    }
}

/// A [`ToneProbe`] bound to one transmit power, with every probe-
/// invariant conversion hoisted: each reading costs one dBm→watt and one
/// watt→dBm conversion. Readings are bit-identical to summing the three
/// powers with [`sum_dbm`](movr_math::db::sum_dbm) per probe (same
/// float-op order, same RNG draws).
#[derive(Debug, Clone, Copy)]
pub struct ToneMeter {
    /// Conversion loss applied to the reflected carrier, dB (0 for the
    /// unmodulated ablation).
    loss_db: f64,
    /// Leakage reaching the measurement filter, watts.
    leak_w: f64,
    /// Narrowband noise floor, watts.
    floor_w: f64,
    /// RMS measurement jitter, dB.
    sigma_db: f64,
}

impl ToneMeter {
    /// One sideband (or in-band, for the unmodulated meter) reading of
    /// a round-trip reflection arriving at `reflected_carrier_dbm`: its
    /// [`ToneMeter::pre_jitter_dbm`] plus one jitter draw.
    pub fn measure(&self, reflected_carrier_dbm: f64, rng: &mut SimRng) -> ToneMeasurement {
        ToneMeasurement {
            power_dbm: self.pre_jitter_dbm(reflected_carrier_dbm) + rng.normal(0.0, self.sigma_db),
        }
    }

    /// The reading of `reflected_carrier_dbm` before its jitter draw,
    /// dBm. It is non-decreasing in the carrier.
    #[inline]
    pub fn pre_jitter_dbm(&self, reflected_carrier_dbm: f64) -> f64 {
        // Exactly `sum_dbm(&[sideband, leak, floor])`: the std `sum()`
        // folds left-to-right from 0.0, and `0.0 + x == x` bitwise for
        // every power in watts, so adding the precomputed terms in the
        // same order reproduces the bits.
        let sideband_w = dbm_to_watts(reflected_carrier_dbm - self.loss_db);
        watts_to_dbm(sideband_w + self.leak_w + self.floor_w)
    }

    /// The inverse of [`ToneMeter::pre_jitter_dbm`]: the carrier, dBm,
    /// whose reading before jitter is `level_dbm`, up to rounding. −∞
    /// when the leakage and the floor alone read `level_dbm` or more.
    pub fn carrier_at_dbm(&self, level_dbm: f64) -> f64 {
        watts_to_dbm(dbm_to_watts(level_dbm) - self.leak_w - self.floor_w) + self.loss_db
    }

    /// No reading lies further than this from its pre-jitter value, dB:
    /// `|σ|·`[`SimRng::STD_NORMAL_MAX`].
    pub fn jitter_bound_db(&self) -> f64 {
        self.sigma_db.abs() * SimRng::STD_NORMAL_MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::db::sum_dbm;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(99)
    }

    fn quiet_probe() -> ToneProbe {
        ToneProbe {
            sigma_db: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn strong_reflection_dominates_modulated_reading() {
        let p = quiet_probe();
        let m = p.modulated_meter(10.0).measure(-50.0, &mut rng());
        // Sideband = -57 dBm; residual leak = 10-45-60 = -95 dBm; floor -95.
        assert!((m.power_dbm - (-57.0)).abs() < 0.1, "m={}", m.power_dbm);
    }

    #[test]
    fn modulated_reading_tracks_reflection_changes() {
        // A 10 dB change in reflected power moves the reading ~10 dB —
        // this is what lets the AP rank beam combinations.
        let p = quiet_probe();
        let meter = p.modulated_meter(10.0);
        let hi = meter.measure(-50.0, &mut rng()).power_dbm;
        let lo = meter.measure(-60.0, &mut rng()).power_dbm;
        assert!((hi - lo - 10.0).abs() < 0.5, "hi={hi} lo={lo}");
    }

    #[test]
    fn unmodulated_reading_is_leakage_blind() {
        // Without modulation the reading barely moves when the reflection
        // changes: leakage at -35 dBm dominates both cases.
        let p = quiet_probe();
        let meter = p.unmodulated_meter(10.0);
        let hi = meter.measure(-50.0, &mut rng()).power_dbm;
        let lo = meter.measure(-60.0, &mut rng()).power_dbm;
        assert!((hi - lo).abs() < 0.2, "hi={hi} lo={lo}");
        // And the absolute level is essentially the leakage.
        assert!((hi - (-35.0)).abs() < 0.3, "hi={hi}");
    }

    #[test]
    fn weak_reflection_bottoms_out_at_floor() {
        let p = quiet_probe();
        let m = p.modulated_meter(10.0).measure(-130.0, &mut rng());
        // Sideband -137 dBm is far below the floor; the reading is the sum
        // of the -95 dBm residual leak and the -95 dBm floor (≈ -92 dBm).
        assert!(m.power_dbm > -93.5 && m.power_dbm < -91.0, "m={}", m.power_dbm);
    }

    #[test]
    fn jitter_is_applied() {
        let p = ToneProbe::default();
        let meter = p.modulated_meter(10.0);
        let mut r = rng();
        let a = meter.measure(-50.0, &mut r).power_dbm;
        let b = meter.measure(-50.0, &mut r).power_dbm;
        assert_ne!(a, b);
        assert!((a - b).abs() < 5.0);
    }

    #[test]
    fn ap_leakage_level() {
        let p = ToneProbe::default();
        assert_eq!(p.ap_leakage_dbm(10.0), -35.0);
    }

    #[test]
    fn carrier_at_inverts_the_pre_jitter_reading() {
        let p = ToneProbe::default();
        for meter in [p.modulated_meter(20.0), p.unmodulated_meter(20.0)] {
            for carrier in [-130.0, -80.0, -57.3, -30.0] {
                let level = meter.pre_jitter_dbm(carrier);
                let back = meter.pre_jitter_dbm(meter.carrier_at_dbm(level));
                assert!((back - level).abs() < 1e-9, "{carrier}: {level} vs {back}");
            }
            // The leakage and the floor alone read more than this level.
            let quiet = meter.pre_jitter_dbm(f64::NEG_INFINITY);
            assert_eq!(meter.carrier_at_dbm(quiet - 0.1), f64::NEG_INFINITY);
        }
    }

    #[test]
    fn jitter_stays_within_its_bound() {
        let meter = ToneProbe::default().modulated_meter(20.0);
        let bound = meter.jitter_bound_db();
        assert_eq!(bound, 0.5 * SimRng::STD_NORMAL_MAX);
        let mut r = rng();
        let pre = meter.pre_jitter_dbm(-60.0);
        for _ in 0..1000 {
            assert!((meter.measure(-60.0, &mut r).power_dbm - pre).abs() <= bound);
        }
    }

    /// Reference for the meters: the whole reading recomputed per call,
    /// summing the three powers with `sum_dbm` — the formula the meters
    /// hoist their constant terms out of.
    fn per_call_dbm(
        p: &ToneProbe,
        modulated: bool,
        reflected_carrier_dbm: f64,
        tx_power_dbm: f64,
        rng: &mut SimRng,
    ) -> f64 {
        let (signal, leak) = if modulated {
            (
                reflected_carrier_dbm - p.modulation_loss_db,
                p.ap_leakage_dbm(tx_power_dbm) - p.filter_rejection_db,
            )
        } else {
            (reflected_carrier_dbm, p.ap_leakage_dbm(tx_power_dbm))
        };
        sum_dbm(&[signal, leak, p.noise_floor_dbm]) + rng.normal(0.0, p.sigma_db)
    }

    #[test]
    fn meters_are_bit_identical_to_per_call_measurement() {
        let p = ToneProbe::default();
        for tx_power_dbm in [10.0, 20.0, 23.5] {
            let modulated = p.modulated_meter(tx_power_dbm);
            let unmodulated = p.unmodulated_meter(tx_power_dbm);
            for reflected in [-30.0, -57.3, -95.0, -130.0, f64::NEG_INFINITY] {
                let mut r1 = rng();
                let mut r2 = rng();
                let a = per_call_dbm(&p, true, reflected, tx_power_dbm, &mut r1);
                let b = modulated.measure(reflected, &mut r2).power_dbm;
                assert_eq!(a.to_bits(), b.to_bits(), "modulated {reflected}");
                let a = per_call_dbm(&p, false, reflected, tx_power_dbm, &mut r1);
                let b = unmodulated.measure(reflected, &mut r2).power_dbm;
                assert_eq!(a.to_bits(), b.to_bits(), "unmodulated {reflected}");
                // Both consumed the same draws.
                assert_eq!(r1.uniform(0.0, 1.0).to_bits(), r2.uniform(0.0, 1.0).to_bits());
            }
        }
    }
}
