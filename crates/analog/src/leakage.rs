//! TX→RX antenna leakage on the reflector.
//!
//! Some of the signal the reflector transmits couples straight back into
//! its own receive antenna. The paper measured this leakage across beam
//! angles (Fig. 7): for a fixed receive beam it swings by up to ~20 dB as
//! the transmit beam steers across 40°–140°, sitting between roughly
//! −50 dB and −80 dB, and the whole curve changes when the receive beam
//! moves. That variability is *why* gain control must be adaptive (§4.2).
//!
//! The surface here is a deterministic function of both beam angles plus a
//! per-device seed: a smooth multi-ripple structure (multipath coupling
//! between the two PCB arrays) on top of a proximity term that raises
//! coupling when the transmit beam steers toward the receive side.

use movr_math::SimRng;

/// Default leakage attenuation bounds, dB (positive). This is the
/// *antenna-to-antenna* coupling; the loop the amplifier sees adds the
/// phase-shifter insertion losses of both arrays (≈8 dB), which puts the
/// terminal-to-terminal measurement in Fig. 7's −50…−80 dB band.
const MIN_ATTENUATION_DB: f64 = 33.0;
const MAX_ATTENUATION_DB: f64 = 70.0;

/// An angle-dependent TX→RX leakage surface for one reflector device.
#[derive(Debug, Clone, Copy)]
pub struct LeakageSurface {
    /// Mean attenuation, dB.
    base_db: f64,
    /// Per-device ripple phases (radians).
    phase1: f64,
    phase2: f64,
    phase3: f64,
    /// Ripple amplitudes, dB.
    amp1: f64,
    amp2: f64,
    amp3: f64,
}

impl LeakageSurface {
    /// Creates the leakage surface for a device identified by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x4C45_414B); // "LEAK"
        LeakageSurface {
            base_db: 45.0 + rng.uniform(-2.0, 2.0),
            phase1: rng.phase(),
            phase2: rng.phase(),
            phase3: rng.phase(),
            amp1: 7.0 + rng.uniform(-1.0, 1.0),
            amp2: 5.0 + rng.uniform(-1.0, 1.0),
            amp3: 3.0 + rng.uniform(-0.5, 0.5),
        }
    }

    /// Leakage attenuation (positive dB) from the TX antenna steered to
    /// `tx_deg` into the RX antenna steered to `rx_deg`.
    ///
    /// The §4.2 stability criterion is `gain_db < attenuation_db`.
    pub fn attenuation_db(&self, tx_deg: f64, rx_deg: f64) -> f64 {
        // Slow and fast ripples across the TX sweep, each modulated by the
        // RX angle so the curve reshapes when the receive beam moves
        // (Fig. 7's two panels differ in structure, not just offset).
        let r1 = self.amp1 * (tx_deg / 8.0 + rx_deg / 23.0 + self.phase1).sin();
        let r2 = self.amp2 * (tx_deg / 3.6 + rx_deg / 11.0 + self.phase2).sin();
        let r3 = self.amp3 * ((tx_deg - rx_deg) / 15.0 + self.phase3).sin();
        // Proximity: steering the TX beam near the RX beam's direction
        // couples more strongly (lower attenuation).
        let d = (tx_deg - rx_deg) / 30.0;
        let proximity = -6.0 * (-d * d).exp();
        (self.base_db + r1 + r2 + r3 + proximity)
            .clamp(MIN_ATTENUATION_DB, MAX_ATTENUATION_DB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::angle::sweep_deg;

    #[test]
    fn attenuation_in_figure_range() {
        let s = LeakageSurface::new(1);
        for tx in sweep_deg(40.0, 140.0, 1.0) {
            for rx in [50.0, 65.0, 90.0, 120.0] {
                let a = s.attenuation_db(tx, rx);
                assert!((MIN_ATTENUATION_DB..=MAX_ATTENUATION_DB).contains(&a));
            }
        }
    }

    #[test]
    fn swing_across_tx_sweep_matches_fig7() {
        // Fig. 7: variation "as high as 20 dB" across the TX sweep.
        let s = LeakageSurface::new(2);
        for rx in [50.0, 65.0] {
            let vals: Vec<f64> = sweep_deg(40.0, 140.0, 1.0)
                .into_iter()
                .map(|tx| s.attenuation_db(tx, rx))
                .collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(max - min >= 12.0, "rx={rx} swing={}", max - min);
            assert!(max - min <= 35.0);
        }
    }

    #[test]
    fn surface_depends_on_rx_angle() {
        let s = LeakageSurface::new(3);
        let diff: f64 = sweep_deg(40.0, 140.0, 5.0)
            .into_iter()
            .map(|tx| (s.attenuation_db(tx, 50.0) - s.attenuation_db(tx, 65.0)).abs())
            .sum();
        assert!(diff > 10.0, "changing the RX beam must reshape the curve");
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a = LeakageSurface::new(10);
        let b = LeakageSurface::new(10);
        let c = LeakageSurface::new(11);
        assert_eq!(a.attenuation_db(90.0, 50.0), b.attenuation_db(90.0, 50.0));
        assert_ne!(a.attenuation_db(90.0, 50.0), c.attenuation_db(90.0, 50.0));
    }

    #[test]
    fn smooth_in_tx_angle() {
        // One-degree steps move the surface by at most a few dB — the
        // gain-control algorithm re-runs per beam change, not per jitter.
        let s = LeakageSurface::new(5);
        let vals: Vec<f64> = sweep_deg(40.0, 140.0, 1.0)
            .into_iter()
            .map(|tx| s.attenuation_db(tx, 65.0))
            .collect();
        for w in vals.windows(2) {
            assert!((w[1] - w[0]).abs() < 4.0);
        }
    }
}
