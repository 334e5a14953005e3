//! The VR frame source.
//!
//! An HTC Vive-class headset refreshes at 90 Hz. Uncompressed, its
//! 2160 × 1200 panel at 24 bits/pixel would need ~5.6 Gb/s; with the
//! light, latency-free link-layer packing real HDMI links use
//! (chroma subsampling, blanking removal — *not* the frame-buffer
//! compression the paper rules out for latency), the stream lands at
//! ~4 Gb/s, matching [`movr_radio::VR_REQUIRED_RATE_MBPS`]. That is a
//! frame of [`FRAME_BITS`], the Vive's, at whatever refresh rate the
//! [`VrTrafficModel`] runs.

use movr_radio::VR_REQUIRED_RATE_MBPS;
use movr_sim::SimTime;

/// Bits per video frame: the Vive's ~44.4 Mbit, ≈4 Gb/s at 90 Hz.
pub const FRAME_BITS: f64 = VR_REQUIRED_RATE_MBPS * 1e6 / 90.0;

/// The headset's display stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct VrTrafficModel {
    /// Display refresh rate, Hz.
    pub refresh_hz: f64,
}

impl Default for VrTrafficModel {
    fn default() -> Self {
        VrTrafficModel::vive()
    }
}

impl VrTrafficModel {
    /// The Vive-class stream: 90 Hz.
    pub fn vive() -> Self {
        VrTrafficModel { refresh_hz: 90.0 }
    }

    /// Time between frames.
    pub fn frame_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.refresh_hz)
    }
}

/// Time to push one frame through a link of `link_rate_mbps`, or `None`
/// when the link is in outage (rate 0).
pub fn frame_airtime(link_rate_mbps: f64) -> Option<SimTime> {
    if link_rate_mbps <= 0.0 {
        return None;
    }
    Some(SimTime::from_secs_f64(FRAME_BITS / (link_rate_mbps * 1e6)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vive_rate_matches_requirement() {
        let m = VrTrafficModel::vive();
        let rate_mbps = FRAME_BITS * m.refresh_hz / 1e6;
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
        let at_full = frame_airtime(6756.75).unwrap();
        let at_half = frame_airtime(6756.75 / 2.0).unwrap();
        // Nanosecond rounding in SimTime leaves a tiny residual.
        assert!((at_half.as_secs_f64() / at_full.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn outage_has_no_airtime() {
        assert!(frame_airtime(0.0).is_none());
        assert!(frame_airtime(-5.0).is_none());
    }
}
