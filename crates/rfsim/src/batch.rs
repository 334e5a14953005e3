//! Row-batched link evaluation: precompute everything that does not
//! depend on the antenna weighting, then evaluate whole probe rows as
//! slice passes.
//!
//! A beam sweep reweights the *same* traced path set thousands of times;
//! the geometry (taps, bearings) and the noise budget are loop
//! invariants. [`LinkBatch`] hoists them once so the per-probe work
//! shrinks to one multiply-accumulate pass over the taps. Every hoist is
//! a pure recomputation of the scalar pipeline's intermediates — no
//! algebraic rewrite — and the pass itself is the same coherent fold the
//! scalar [`TracedLink::evaluate`] ends in, so batched results are
//! bit-identical to it by construction.
//!
//! [`TracedLink::evaluate`]: crate::TracedLink::evaluate

use crate::channel::coherent_sum;
use crate::noise::NoiseModel;
use crate::scene::LinkEval;
use movr_math::{linear_to_db, C64};

/// A traced link frozen into structure-of-arrays form for row
/// evaluation: one complex tap, its magnitude and the departure/arrival
/// bearings per path, and the receiver noise budget folded to two
/// constants.
///
/// Built by [`TracedLink::batch`](crate::TracedLink::batch). Callers
/// evaluate by handing in per-path gain slices (typically rows of a
/// `GainPage` computed with the phased-array batch kernels).
#[derive(Debug, Clone)]
pub struct LinkBatch {
    taps: Vec<C64>,
    tap_magnitudes: Vec<f64>,
    departure_deg: Vec<f64>,
    arrival_deg: Vec<f64>,
    noise_floor_dbm: f64,
    implementation_loss_db: f64,
}

impl LinkBatch {
    pub(crate) fn new(
        taps: Vec<C64>,
        departure_deg: Vec<f64>,
        arrival_deg: Vec<f64>,
        noise: &NoiseModel,
    ) -> Self {
        LinkBatch {
            tap_magnitudes: taps.iter().map(|tap| tap.abs()).collect(),
            taps,
            departure_deg,
            arrival_deg,
            // Loop-invariant hoist: `NoiseModel::snr_db` recomputes the
            // floor per call from the same fields, so precomputing it
            // yields identical bits.
            noise_floor_dbm: noise.noise_floor_dbm(),
            implementation_loss_db: noise.implementation_loss_db,
        }
    }

    /// `|tap|` of each path (path order). With each end's gains as field
    /// amplitudes `aₖ = 10^(gₖ/20)`, the triangle inequality bounds the
    /// coherent fold: `|Σₖ tapₖ·10^((g_txₖ + g_rxₖ)/20)| ≤ Σₖ |tapₖ|·a_txₖ·a_rxₖ`.
    pub fn tap_magnitudes(&self) -> &[f64] {
        &self.tap_magnitudes
    }

    /// Departure bearing of each path (absolute degrees, path order).
    /// Feed these to the TX side's gain kernel.
    pub fn departure_deg(&self) -> &[f64] {
        &self.departure_deg
    }

    /// Arrival bearing of each path (absolute degrees, path order).
    /// Feed these to the RX side's gain kernel.
    pub fn arrival_deg(&self) -> &[f64] {
        &self.arrival_deg
    }

    /// Replaces the noise budget (e.g. a relay front end instead of the
    /// scene's receiver). Taps and bearings are unchanged.
    pub fn with_noise(mut self, noise: &NoiseModel) -> Self {
        self.noise_floor_dbm = noise.noise_floor_dbm();
        self.implementation_loss_db = noise.implementation_loss_db;
        self
    }

    /// Received power (dBm) under per-path TX/RX gains in dBi.
    ///
    /// `tx_gains_dbi[i]`/`rx_gains_dbi[i]` weight path `i`. The taps go
    /// through the same coherent fold as the scalar path,
    /// [`TracedLink::evaluate`](crate::TracedLink::evaluate), in path
    /// order, so the result is bit-identical to it.
    ///
    /// # Panics
    /// Panics if either gain slice's length differs from the path count
    /// (the length of [`LinkBatch::departure_deg`]).
    pub fn received_dbm(
        &self,
        tx_power_dbm: f64,
        tx_gains_dbi: &[f64],
        rx_gains_dbi: &[f64],
    ) -> f64 {
        received_dbm(&self.taps, tx_power_dbm, tx_gains_dbi, rx_gains_dbi)
    }

    /// SNR (dB) for a received power under this batch's noise budget.
    /// Same op order as [`NoiseModel::snr_db`]: `(r − floor) − impl`.
    pub fn snr_db(&self, received_dbm: f64) -> f64 {
        received_dbm - self.noise_floor_dbm - self.implementation_loss_db
    }

    /// Full link evaluation: [`LinkBatch::received_dbm`] plus
    /// [`LinkBatch::snr_db`], mirroring
    /// [`TracedLink::evaluate`](crate::TracedLink::evaluate).
    ///
    /// # Panics
    /// Panics if either gain slice's length differs from the path count
    /// (the length of [`LinkBatch::departure_deg`]).
    pub fn eval(
        &self,
        tx_power_dbm: f64,
        tx_gains_dbi: &[f64],
        rx_gains_dbi: &[f64],
    ) -> LinkEval {
        let received_dbm = self.received_dbm(tx_power_dbm, tx_gains_dbi, rx_gains_dbi);
        LinkEval {
            received_dbm,
            snr_db: self.snr_db(received_dbm),
        }
    }
}

/// Received power (dBm) of `taps` under per-path gain rows: the fold
/// behind [`LinkBatch::received_dbm`] and
/// [`TracedLink::evaluate_rows`](crate::TracedLink::evaluate_rows).
///
/// # Panics
/// Panics if either gain slice's length differs from the tap count.
pub(crate) fn received_dbm(
    taps: &[C64],
    tx_power_dbm: f64,
    tx_gains_dbi: &[f64],
    rx_gains_dbi: &[f64],
) -> f64 {
    assert_eq!(
        tx_gains_dbi.len(),
        taps.len(),
        "tx gain row length must match the tap count"
    );
    assert_eq!(
        rx_gains_dbi.len(),
        taps.len(),
        "rx gain row length must match the tap count"
    );
    let terms = taps.iter().zip(tx_gains_dbi).zip(rx_gains_dbi);
    let sum = coherent_sum(terms.map(|((tap, gt), gr)| (*tap, gt + gr)));
    tx_power_dbm + linear_to_db(sum.norm_sq())
}

#[cfg(test)]
mod tests {
    use crate::obstacle::{BodyPart, Obstacle};
    use crate::pattern::{IsotropicPattern, Pattern, SectorPattern};
    use crate::scene::Scene;
    use movr_math::Vec2;

    fn gains(p: &dyn Pattern, bearings: &[f64]) -> Vec<f64> {
        bearings.iter().map(|&d| p.gain_dbi(d)).collect()
    }

    #[test]
    fn batch_eval_bit_identical_to_evaluate() {
        let mut scene = Scene::paper_office();
        scene.add_obstacle(Obstacle::new(BodyPart::Hand, Vec2::new(2.4, 2.5)));
        let endpoints = [
            (Vec2::new(0.5, 2.5), Vec2::new(4.5, 2.5)),
            (Vec2::new(1.0, 4.75), Vec2::new(4.0, 2.0)),
            (Vec2::new(1.0, 1.0), Vec2::new(1.2, 1.0)),
        ];
        let txp = SectorPattern::new(0.0, 10.0, 15.0);
        let rxp = SectorPattern::new(180.0, 10.0, 15.0);
        for (tx, rx) in endpoints {
            let link = scene.trace_link(tx, rx);
            let batch = link.batch();
            assert_eq!(batch.departure_deg().len(), link.paths().len());
            for power in [-10.0, 0.0, 23.0] {
                let scalar = link.evaluate(&txp, power, &rxp);
                let rowed = batch.eval(
                    power,
                    &gains(&txp, batch.departure_deg()),
                    &gains(&rxp, batch.arrival_deg()),
                );
                assert_eq!(rowed.received_dbm.to_bits(), scalar.received_dbm.to_bits());
                assert_eq!(rowed.snr_db.to_bits(), scalar.snr_db.to_bits());
            }
        }
    }

    #[test]
    fn empty_path_set_yields_silent_link() {
        // Zero taps must reproduce the scalar pipeline's empty case:
        // |0|² → −∞ dBm received. Two metal cabinets on the transmitter
        // put 120 dB on every path, past the tracer's 80 dB pruning.
        let mut scene = Scene::paper_office();
        let tx = Vec2::new(1.0, 2.5);
        scene.set_obstacles(vec![Obstacle::new(BodyPart::MetalFurniture, tx); 2]);
        let link = scene.trace_link(tx, Vec2::new(4.0, 2.5));
        let batch = link.batch();
        assert!(batch.departure_deg().is_empty());
        let scalar = link.evaluate(&IsotropicPattern, 10.0, &IsotropicPattern);
        let rowed = batch.eval(10.0, &[], &[]);
        assert_eq!(scalar.received_dbm, f64::NEG_INFINITY);
        assert_eq!(rowed.received_dbm.to_bits(), scalar.received_dbm.to_bits());
        assert_eq!(rowed.snr_db.to_bits(), scalar.snr_db.to_bits());
    }

    #[test]
    fn with_noise_swaps_the_budget_only() {
        let scene = Scene::paper_office();
        let link = scene.trace_link(Vec2::new(0.5, 2.5), Vec2::new(4.0, 2.0));
        let quiet = crate::noise::NoiseModel {
            bandwidth_hz: 100e6,
            noise_figure_db: 4.0,
            implementation_loss_db: 0.0,
            temperature_k: 290.0,
        };
        let batch = link.batch().with_noise(&quiet);
        let iso = IsotropicPattern;
        let r = batch.received_dbm(
            10.0,
            &gains(&iso, batch.departure_deg()),
            &gains(&iso, batch.arrival_deg()),
        );
        assert_eq!(batch.snr_db(r).to_bits(), quiet.snr_db(r).to_bits());
        let plain = link.batch();
        assert_eq!(plain.snr_db(r).to_bits(), scene.noise().snr_db(r).to_bits());
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn gain_row_length_mismatch_rejected() {
        let scene = Scene::paper_office();
        let link = scene.trace_link(Vec2::new(0.5, 2.5), Vec2::new(4.0, 2.0));
        link.batch().received_dbm(0.0, &[], &[]);
    }
}
