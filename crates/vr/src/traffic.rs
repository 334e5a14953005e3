//! The VR frame source.
//!
//! An HTC Vive-class headset refreshes at 90 Hz. Uncompressed, its
//! 2160 × 1200 panel at 24 bits/pixel would need ~5.6 Gb/s; with the
//! light, latency-free link-layer packing real HDMI links use
//! (chroma subsampling, blanking removal — *not* the frame-buffer
//! compression the paper rules out for latency), the stream lands at
//! ~4 Gb/s, matching [`movr_radio::VR_REQUIRED_RATE_MBPS`].

use movr_radio::VR_REQUIRED_RATE_MBPS;
use movr_sim::SimTime;

/// The headset's display stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct VrTrafficModel {
    /// Display refresh rate, Hz.
    pub refresh_hz: f64,
    /// Bits per video frame.
    pub frame_bits: f64,
}

impl Default for VrTrafficModel {
    fn default() -> Self {
        VrTrafficModel::vive()
    }
}

impl VrTrafficModel {
    /// The Vive-class stream: 90 Hz, ~44.4 Mbit frames (≈4 Gb/s).
    pub fn vive() -> Self {
        VrTrafficModel {
            refresh_hz: 90.0,
            frame_bits: VR_REQUIRED_RATE_MBPS * 1e6 / 90.0,
        }
    }

    /// Time between frames.
    pub fn frame_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.refresh_hz)
    }

    /// Time to push one frame through a link of `link_rate_mbps`, or
    /// `None` when the link is in outage (rate 0).
    pub fn frame_airtime(&self, link_rate_mbps: f64) -> Option<SimTime> {
        if link_rate_mbps <= 0.0 {
            return None;
        }
        Some(SimTime::from_secs_f64(
            self.frame_bits / (link_rate_mbps * 1e6),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vive_rate_matches_requirement() {
        let m = VrTrafficModel::vive();
        let rate_mbps = m.frame_bits * m.refresh_hz / 1e6;
        assert!((rate_mbps - VR_REQUIRED_RATE_MBPS).abs() < 1.0);
    }

    #[test]
    fn frame_interval_is_11ms() {
        let m = VrTrafficModel::vive();
        let dt = m.frame_interval().as_millis_f64();
        assert!((dt - 11.1).abs() < 0.1, "dt={dt}");
    }

    #[test]
    fn airtime_scales_inversely_with_rate() {
        let m = VrTrafficModel::vive();
        let at_full = m.frame_airtime(6756.75).unwrap();
        let at_half = m.frame_airtime(6756.75 / 2.0).unwrap();
        // Nanosecond rounding in SimTime leaves a tiny residual.
        assert!((at_half.as_secs_f64() / at_full.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn outage_has_no_airtime() {
        let m = VrTrafficModel::vive();
        assert!(m.frame_airtime(0.0).is_none());
        assert!(m.frame_airtime(-5.0).is_none());
    }
}
