//! The MoVR reflector device.
//!
//! Two steerable phased arrays (receive and transmit) joined by a
//! variable-gain amplifier, plus the control-side bits the Arduino sees:
//! a DAC setting the gain, a current sensor watching the amplifier, and
//! an on/off modulator. No transmit or receive baseband chains — the
//! device can only *reflect* (§4).

use movr_analog::{CurrentSensor, LeakageSurface, VariableGainAmplifier};
use movr_math::Vec2;
use movr_phased_array::SteeredArray;

/// A wall-mounted MoVR reflector.
#[derive(Debug, Clone)]
pub struct MovrReflector {
    position: Vec2,
    rx_array: SteeredArray,
    tx_array: SteeredArray,
    amplifier: VariableGainAmplifier,
    leakage: LeakageSurface,
    current_sensor: CurrentSensor,
    /// True while the backscatter modulator toggles the amplifier at f₂.
    modulating: bool,
}

impl MovrReflector {
    /// Mounts a reflector at `position` with both arrays' broadside facing
    /// `boresight_deg` (into the room). `device_seed` individualises the
    /// leakage surface and sensor noise, as two physical units differ.
    pub fn wall_mounted(position: Vec2, boresight_deg: f64, device_seed: u64) -> Self {
        MovrReflector::with_boresights(position, boresight_deg, boresight_deg, device_seed)
    }

    /// Mounts a reflector whose receive array faces `rx_boresight_deg`
    /// and whose transmit array faces `tx_boresight_deg`, as a unit
    /// built across a corner would be; otherwise as
    /// [`MovrReflector::wall_mounted`].
    pub fn with_boresights(
        position: Vec2,
        rx_boresight_deg: f64,
        tx_boresight_deg: f64,
        device_seed: u64,
    ) -> Self {
        MovrReflector {
            position,
            rx_array: SteeredArray::paper_array(rx_boresight_deg),
            tx_array: SteeredArray::paper_array(tx_boresight_deg),
            amplifier: VariableGainAmplifier::default(),
            leakage: LeakageSurface::new(device_seed),
            current_sensor: CurrentSensor::new(device_seed.wrapping_add(1)),
            modulating: false,
        }
    }

    /// Where the reflector is mounted.
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// The receive-side array.
    pub fn rx_array(&self) -> &SteeredArray {
        &self.rx_array
    }

    /// The transmit-side array.
    pub fn tx_array(&self) -> &SteeredArray {
        &self.tx_array
    }

    /// Steers the receive beam to an absolute bearing; returns the applied
    /// (clamped) bearing.
    pub fn steer_rx(&mut self, absolute_deg: f64) -> f64 {
        self.rx_array.steer_to(absolute_deg)
    }

    /// Steers the transmit beam to an absolute bearing; returns the
    /// applied (clamped) bearing.
    pub fn steer_tx(&mut self, absolute_deg: f64) -> f64 {
        self.tx_array.steer_to(absolute_deg)
    }

    /// Steers both beams to the same bearing — the alignment-protocol
    /// posture ("sets the reflector's receive and transmit beams to the
    /// same direction, say θ₁", §4.1).
    pub fn steer_both(&mut self, absolute_deg: f64) -> f64 {
        self.steer_rx(absolute_deg);
        self.steer_tx(absolute_deg)
    }

    /// Puts both arrays in the state of `rx` and `tx`, copies of this
    /// reflector's own arrays already steered (entries of `PatternTable`s
    /// built on [`MovrReflector::rx_array`] and
    /// [`MovrReflector::tx_array`]): the state that steering each array
    /// to its copy's beam gives, without recomputing the steering.
    pub(crate) fn adopt_steering(&mut self, rx: &SteeredArray, tx: &SteeredArray) {
        let mount = |a: &SteeredArray| a.boresight_deg().to_bits();
        debug_assert!(
            mount(rx) == mount(&self.rx_array) && mount(tx) == mount(&self.tx_array),
            "steered copies of another mount"
        );
        self.rx_array = *rx;
        self.tx_array = *tx;
    }

    /// The amplifier (read access).
    pub fn amplifier(&self) -> &VariableGainAmplifier {
        &self.amplifier
    }

    /// Commands the amplifier gain (clamped); returns the applied value.
    pub fn set_gain_db(&mut self, gain_db: f64) -> f64 {
        self.amplifier.set_gain_db(gain_db)
    }

    /// Powers the amplifier on/off.
    pub fn set_amplifier_enabled(&mut self, enabled: bool) {
        self.amplifier.set_enabled(enabled);
    }

    /// Starts/stops the f₂ on/off modulation used during alignment.
    pub fn set_modulating(&mut self, on: bool) {
        self.modulating = on;
    }

    /// True while modulating.
    pub fn is_modulating(&self) -> bool {
        self.modulating
    }

    /// Antenna-to-antenna TX→RX coupling attenuation (positive dB) at the
    /// current beam settings — the raw leakage surface.
    pub fn antenna_leakage_db(&self) -> f64 {
        self.leakage
            .attenuation_db(self.tx_array.steering_deg(), self.rx_array.steering_deg())
    }

    /// Total insertion loss of the signal path through both arrays'
    /// phase shifters, dB.
    pub fn insertion_loss_db(&self) -> f64 {
        self.rx_array.array().shifter().insertion_loss_db
            + self.tx_array.array().shifter().insertion_loss_db
    }

    /// The attenuation of the full feedback loop the amplifier sees
    /// (positive dB): amplifier → TX shifters → antenna coupling → RX
    /// shifters → amplifier. This is what Fig. 7 measures terminal to
    /// terminal, and what the §4.2 criterion `G_dB < L_dB` compares
    /// against. The firmware cannot read it — only the current sensor.
    pub fn loop_attenuation_db(&self) -> f64 {
        self.antenna_leakage_db() + self.insertion_loss_db()
    }

    /// True if the amplifier is saturated at the current gain and beams.
    pub fn is_saturated(&self) -> bool {
        self.amplifier.is_saturated(self.loop_attenuation_db())
    }

    /// The *effective* end-to-end amplification applied to a through
    /// signal, dB: the closed-loop gain when stable, minus the shifter
    /// insertion losses the signal pays crossing both arrays. `None` when
    /// saturated (output is garbage, not signal) or when the amplifier is
    /// off.
    pub fn effective_gain_db(&self) -> Option<f64> {
        if !self.amplifier.is_enabled() {
            return None;
        }
        movr_analog::FeedbackLoop::new(self.amplifier.gain_db(), self.loop_attenuation_db())
            .closed_loop_gain_db()
            .map(|g| g - self.insertion_loss_db())
    }

    /// The current sensor's noise-stream RNG state, for checkpointing.
    pub fn sensor_rng_state(&self) -> [u64; 4] {
        self.current_sensor.rng_state()
    }

    /// Restores the sensor noise stream from a
    /// [`MovrReflector::sensor_rng_state`] capture, so resumed gain-control
    /// runs draw the same measurement noise the uninterrupted device would.
    pub fn restore_sensor_rng_state(&mut self, state: [u64; 4]) {
        self.current_sensor.restore_rng_state(state);
    }

    /// The current sensor watching the amplifier's supply, through which
    /// the firmware reads [`VariableGainAmplifier::supply_current_a`].
    pub fn current_sensor_mut(&mut self) -> &mut CurrentSensor {
        &mut self.current_sensor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> MovrReflector {
        MovrReflector::wall_mounted(Vec2::new(4.5, 4.5), 225.0, 42)
    }

    /// Shortest-arc angular difference, degrees.
    fn arc(a: f64, b: f64) -> f64 {
        movr_math::wrap_deg_180(a - b).abs()
    }

    #[test]
    fn steering_both_moves_both() {
        let mut r = device();
        let applied = r.steer_both(200.0);
        assert!(arc(r.rx_array().steering_deg(), 200.0) < 1e-9);
        assert!(arc(r.tx_array().steering_deg(), 200.0) < 1e-9);
        assert!(arc(applied, 200.0) < 1e-9);
    }

    #[test]
    fn independent_beam_steering() {
        let mut r = device();
        r.steer_rx(225.0 - 30.0);
        r.steer_tx(225.0 + 30.0);
        assert!(arc(r.rx_array().steering_deg(), 195.0) < 1e-9);
        assert!(arc(r.tx_array().steering_deg(), 255.0) < 1e-9);
    }

    #[test]
    fn leakage_changes_with_beams() {
        let mut r = device();
        r.steer_both(225.0);
        let a = r.loop_attenuation_db();
        r.steer_tx(255.0);
        let b = r.loop_attenuation_db();
        assert_ne!(a, b);
    }

    #[test]
    fn saturation_follows_gain_vs_leakage() {
        let mut r = device();
        r.steer_both(225.0);
        let leak = r.loop_attenuation_db();
        r.set_gain_db(leak - 5.0);
        assert!(!r.is_saturated());
        assert!(r.effective_gain_db().is_some());
        r.set_gain_db(r.amplifier().max_gain_db.min(leak + 2.0));
        if r.amplifier().gain_db() >= leak {
            assert!(r.is_saturated());
            assert_eq!(r.effective_gain_db(), None);
        }
    }

    #[test]
    fn effective_gain_accounts_for_regeneration_and_insertion() {
        // Effective gain = closed-loop gain minus the shifter insertion
        // losses: regeneration lifts it above (G − insertion), insertion
        // keeps it below the raw closed-loop value.
        let mut r = device();
        r.steer_both(225.0);
        r.set_gain_db((r.loop_attenuation_db() - 3.0).min(r.amplifier().max_gain_db));
        let g = r.amplifier().gain_db();
        let eff = r.effective_gain_db().unwrap();
        let closed = movr_analog::FeedbackLoop::new(g, r.loop_attenuation_db())
            .closed_loop_gain_db()
            .unwrap();
        assert!(eff > g - r.insertion_loss_db(), "regeneration must help");
        assert!(eff < closed, "insertion loss must be paid");
        assert!((eff - (closed - r.insertion_loss_db())).abs() < 1e-9);
    }

    #[test]
    fn disabled_amplifier_has_no_gain() {
        let mut r = device();
        r.set_amplifier_enabled(false);
        assert_eq!(r.effective_gain_db(), None);
        assert!(!r.is_saturated());
    }

    #[test]
    fn current_rises_near_saturation() {
        // Find a beam posture whose loop attenuation the amplifier can
        // actually approach (the surface varies ~20 dB across beams).
        let mut r = device();
        let mut best = (f64::INFINITY, 225.0);
        for k in 0..=100 {
            let tx = 175.0 + k as f64;
            r.steer_rx(225.0);
            r.steer_tx(tx);
            let l = r.loop_attenuation_db();
            if l < best.0 {
                best = (l, tx);
            }
        }
        assert!(
            best.0 - 0.5 < r.amplifier().max_gain_db,
            "no reachable knee anywhere: min loop {}",
            best.0
        );
        r.steer_rx(225.0);
        r.steer_tx(best.1);
        let leak = r.loop_attenuation_db();
        let mut read_at = |gain_db: f64| {
            r.set_gain_db(gain_db);
            let true_current = r.amplifier().supply_current_a(leak);
            r.current_sensor_mut().measure_a(true_current)
        };
        let far = read_at(leak - 20.0);
        let near = read_at(leak - 0.5);
        assert!(near > far + 0.05, "near={near} far={far}");
    }

    #[test]
    fn modulation_flag() {
        let mut r = device();
        assert!(!r.is_modulating());
        r.set_modulating(true);
        assert!(r.is_modulating());
    }
}
