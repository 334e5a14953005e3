//! DC current sensing (INA169 class).
//!
//! The gain-control algorithm's only observable is the amplifier's supply
//! current, read through a high-side current sensor into the Arduino's
//! ADC (§4.2, §5). The sensor model adds what a real measurement has:
//! ADC quantisation and a little noise. The detection threshold in the
//! core algorithm must clear both.

use movr_math::SimRng;

/// A current sensor feeding an n-bit ADC.
#[derive(Debug, Clone)]
pub struct CurrentSensor {
    /// Full-scale measurable current, amperes.
    pub full_scale_a: f64,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// RMS measurement noise, amperes.
    pub noise_rms_a: f64,
    rng: SimRng,
}

impl CurrentSensor {
    /// Creates a sensor. The Arduino Due's ADC is 12-bit; a 1 A full scale
    /// and ~1 mA of noise are representative of an INA169 + shunt setup.
    pub fn new(seed: u64) -> Self {
        CurrentSensor {
            full_scale_a: 1.0,
            adc_bits: 12,
            noise_rms_a: 0.001,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The noise stream's raw RNG state, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the noise stream from a [`CurrentSensor::rng_state`]
    /// capture, so subsequent measurements draw the same noise sequence
    /// the uninterrupted sensor would have.
    pub fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = SimRng::from_state(state);
    }

    /// The smallest current step the ADC resolves, amperes.
    pub fn lsb_a(&self) -> f64 {
        self.full_scale_a / movr_math::convert::u64_to_f64((1u64 << self.adc_bits) - 1)
    }

    /// Measures a true current: adds noise, clamps to full scale,
    /// quantises to the ADC grid.
    pub fn measure_a(&mut self, true_current_a: f64) -> f64 {
        let noisy = true_current_a + self.rng.normal(0.0, self.noise_rms_a);
        let clamped = noisy.clamp(0.0, self.full_scale_a);
        let lsb = self.lsb_a();
        (clamped / lsb).round() * lsb
    }

    /// The farthest a read of a true current in `[0, full_scale_a]` can
    /// land from it, amperes: the largest noise draw plus half an LSB,
    /// up to rounding of order `f64::EPSILON × full_scale_a`. Clamping
    /// to the ADC range only moves such a read toward the true current.
    pub fn max_read_error_a(&self) -> f64 {
        self.noise_rms_a.abs() * SimRng::STD_NORMAL_MAX + 0.5 * self.lsb_a()
    }

    /// Advances the noise stream past one read without taking it, so the
    /// next [`CurrentSensor::measure_a`] draws what it would have drawn
    /// after a read.
    pub fn skip_read(&mut self) {
        self.rng.skip_std_normal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noise-free 16-bit sensor.
    fn ideal() -> CurrentSensor {
        CurrentSensor {
            adc_bits: 16,
            noise_rms_a: 0.0,
            ..CurrentSensor::new(0)
        }
    }

    #[test]
    fn ideal_sensor_is_exact_to_one_lsb() {
        let mut s = ideal();
        for i in [0.0, 0.1, 0.25, 0.333, 0.9] {
            let m = s.measure_a(i);
            assert!((m - i).abs() <= s.lsb_a() / 2.0 + 1e-12, "i={i} m={m}");
        }
    }

    #[test]
    fn clamps_to_range() {
        let mut s = ideal();
        assert_eq!(s.measure_a(-0.5), 0.0);
        assert_eq!(s.measure_a(5.0), s.full_scale_a);
    }

    #[test]
    fn noise_has_expected_scale() {
        let mut s = CurrentSensor::new(42);
        let n = 2000;
        let errs: Vec<f64> = (0..n).map(|_| s.measure_a(0.5) - 0.5).collect();
        let mean: f64 = errs.iter().sum::<f64>() / n as f64;
        let rms: f64 = (errs.iter().map(|e| e * e).sum::<f64>() / n as f64).sqrt();
        assert!(mean.abs() < 0.0005, "mean={mean}");
        // Quantisation adds a little on top of the 1 mA noise.
        assert!(rms > 0.0005 && rms < 0.002, "rms={rms}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = CurrentSensor::new(7);
        let mut b = CurrentSensor::new(7);
        for _ in 0..50 {
            assert_eq!(a.measure_a(0.3), b.measure_a(0.3));
        }
    }

    #[test]
    fn reads_stay_within_the_error_bound() {
        let mut s = CurrentSensor {
            noise_rms_a: 0.05,
            ..CurrentSensor::new(3)
        };
        let bound = s.max_read_error_a();
        for k in 0..=100 {
            let t = f64::from(k) / 100.0;
            for _ in 0..100 {
                assert!((s.measure_a(t) - t).abs() <= bound, "t={t}");
            }
        }
    }

    #[test]
    fn a_skipped_read_draws_what_a_read_draws() {
        let mut read = CurrentSensor::new(9);
        let mut skipped = read.clone();
        read.measure_a(0.3);
        skipped.skip_read();
        assert_eq!(read.rng_state(), skipped.rng_state());
        assert_eq!(read.measure_a(0.3), skipped.measure_a(0.3));
    }

    #[test]
    fn twelve_bit_lsb() {
        let s = CurrentSensor::new(0);
        assert!((s.lsb_a() - 1.0 / 4095.0).abs() < 1e-12);
    }
}
