//! Receiver noise model.
//!
//! SNR in this workspace is always `received power − noise floor`, with the
//! floor set by thermal noise over the channel bandwidth plus the
//! receiver's noise figure and implementation loss. Implementation loss
//! folds in everything a real front-end wastes (quantisation, phase noise,
//! imperfect filters) and is the knob used to calibrate absolute SNR to
//! the paper's reported 25 dB LOS mean.

use movr_math::db::thermal_noise_dbm;

/// Thermal + receiver noise description.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Channel bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Implementation loss applied to SNR, dB.
    pub implementation_loss_db: f64,
    /// Ambient temperature, kelvin.
    pub temperature_k: f64,
}

impl NoiseModel {
    /// A noise model for one 2.16 GHz 802.11ad channel with a typical
    /// consumer-grade mmWave front end.
    pub fn ieee_802_11ad() -> Self {
        NoiseModel {
            bandwidth_hz: 2.16e9,
            noise_figure_db: 7.0,
            implementation_loss_db: 9.0,
            temperature_k: 290.0,
        }
    }

    /// Effective noise floor in dBm: `kTB + NF`.
    pub fn noise_floor_dbm(&self) -> f64 {
        thermal_noise_dbm(self.bandwidth_hz, self.temperature_k) + self.noise_figure_db
    }

    /// SNR (dB) for a given received signal power, including the
    /// implementation loss.
    pub fn snr_db(&self, received_dbm: f64) -> f64 {
        received_dbm - self.noise_floor_dbm() - self.implementation_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ad_noise_floor() {
        // kTB over 2.16 GHz ≈ -80.6 dBm; +7 dB NF ≈ -73.6 dBm.
        let n = NoiseModel::ieee_802_11ad();
        let floor = n.noise_floor_dbm();
        assert!((floor - (-73.6)).abs() < 0.3, "floor={floor}");
    }

    #[test]
    fn snr_is_signal_minus_floor_minus_impl() {
        let n = NoiseModel::ieee_802_11ad();
        let snr = n.snr_db(-50.0);
        let expect = -50.0 - n.noise_floor_dbm() - n.implementation_loss_db;
        assert!((snr - expect).abs() < 1e-12);
    }

    #[test]
    fn wider_band_raises_floor() {
        let narrow = NoiseModel {
            bandwidth_hz: 100e6,
            ..NoiseModel::ieee_802_11ad()
        };
        let wide = NoiseModel::ieee_802_11ad();
        assert!(wide.noise_floor_dbm() > narrow.noise_floor_dbm());
        // 2.16 GHz / 100 MHz ≈ 13.3 dB difference.
        let diff = wide.noise_floor_dbm() - narrow.noise_floor_dbm();
        assert!((diff - 13.34).abs() < 0.1);
    }
}
