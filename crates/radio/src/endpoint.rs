//! Radio endpoints: a steerable array at a position in the room.
//!
//! [`RadioEndpoint`] is what the AP, the headset receiver and (twice) the
//! reflector physically are: a phased array somewhere in the room with a
//! transmit power. [`ArrayPattern`] adapts `movr-phased-array`'s
//! [`SteeredArray`] to `movr-rfsim`'s [`Pattern`] trait so the propagation
//! layer can weight multipath components by the live beam shape.

use movr_math::Vec2;
use movr_phased_array::SteeredArray;
use movr_rfsim::{LinkBudget, Pattern, Scene};

/// Adapter: a steered array viewed as a propagation-layer pattern.
#[derive(Debug, Clone, Copy)]
pub struct ArrayPattern<'a>(pub &'a SteeredArray);

impl Pattern for ArrayPattern<'_> {
    fn gain_dbi(&self, direction_deg: f64) -> f64 {
        self.0.gain_dbi(direction_deg)
    }
}

/// A mmWave radio endpoint: position, steerable array, transmit power.
#[derive(Debug, Clone, Copy)]
pub struct RadioEndpoint {
    position: Vec2,
    array: SteeredArray,
    tx_power_dbm: f64,
}

impl RadioEndpoint {
    /// Creates an endpoint.
    pub fn new(position: Vec2, array: SteeredArray, tx_power_dbm: f64) -> Self {
        RadioEndpoint {
            position,
            array,
            tx_power_dbm,
        }
    }

    /// An endpoint with the paper's array and a 0 dBm PA, facing
    /// `boresight_deg`. The modest power calibrates the clear-LOS SNR to
    /// the paper's reported ~25 dB mean in the 5 m × 5 m office.
    pub fn paper_radio(position: Vec2, boresight_deg: f64) -> Self {
        RadioEndpoint::new(position, SteeredArray::paper_array(boresight_deg), 0.0)
    }

    /// Position in the room, metres.
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// Transmit power, dBm.
    pub fn tx_power_dbm(&self) -> f64 {
        self.tx_power_dbm
    }

    /// The steerable array (read access).
    pub fn array(&self) -> &SteeredArray {
        &self.array
    }

    /// Steers the beam toward an absolute bearing; returns the applied
    /// bearing (clamped to the scan range).
    pub fn steer_to(&mut self, absolute_deg: f64) -> f64 {
        self.array.steer_to(absolute_deg)
    }

    /// Steers the beam toward a point in the room.
    pub fn steer_toward(&mut self, target: Vec2) -> f64 {
        self.steer_to(self.position.bearing_deg_to(target))
    }
}

/// Evaluates the link budget from `tx` to `rx` through `scene`, using both
/// endpoints' current beam steering.
pub fn evaluate_link(scene: &Scene, tx: &RadioEndpoint, rx: &RadioEndpoint) -> LinkBudget {
    scene.link_budget(
        tx.position(),
        &ArrayPattern(tx.array()),
        tx.tx_power_dbm(),
        rx.position(),
        &ArrayPattern(rx.array()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn face_to_face() -> (Scene, RadioEndpoint, RadioEndpoint) {
        let scene = Scene::paper_office();
        // AP on the west side facing east; headset on the east facing west.
        let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 0.0);
        let mut hs = RadioEndpoint::paper_radio(Vec2::new(4.5, 2.5), 180.0);
        ap.steer_toward(hs.position());
        hs.steer_toward(ap.position());
        (scene, ap, hs)
    }

    #[test]
    fn aligned_link_has_vr_grade_snr() {
        let (scene, ap, hs) = face_to_face();
        let lb = evaluate_link(&scene, &ap, &hs);
        // Calibration anchor: a clear 4 m LOS link lands in the paper's
        // ~25 dB regime (within a few dB; multipath moves it).
        assert!(
            (20.0..33.0).contains(&lb.snr_db),
            "snr={} — calibration drifted",
            lb.snr_db
        );
    }

    #[test]
    fn missteered_tx_drops_the_link() {
        let (scene, mut ap, hs) = face_to_face();
        let aligned = evaluate_link(&scene, &ap, &hs).snr_db;
        ap.steer_to(45.0);
        let missteered = evaluate_link(&scene, &ap, &hs).snr_db;
        assert!(aligned - missteered > 10.0);
    }

    #[test]
    fn steer_toward_points_at_target() {
        let mut ap = RadioEndpoint::paper_radio(Vec2::new(1.0, 1.0), 45.0);
        let applied = ap.steer_toward(Vec2::new(2.0, 2.0));
        assert!((applied - 45.0).abs() < 1e-9);
        assert!((ap.array().steering_deg() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn reciprocity_within_reason() {
        // Same arrays, same powers: A→B and B→A budgets match closely
        // (the channel is reciprocal; patterns are applied symmetrically).
        let (scene, ap, hs) = face_to_face();
        let ab = evaluate_link(&scene, &ap, &hs).snr_db;
        let ba = evaluate_link(&scene, &hs, &ap).snr_db;
        assert!((ab - ba).abs() < 1e-6);
    }
}
