//! The VR tracking system.
//!
//! PC-based VR systems continuously track the headset's 6-DoF pose (the
//! Vive's lighthouse system resolves millimetres at hundreds of hertz).
//! The paper leans on this twice: the headset "tracks the SNR and can
//! trigger a new measurement" (§4.1), and §6 proposes using the tracked
//! pose to re-aim beams without a full sweep. [`LighthouseTracker`]
//! produces those pose estimates with realistic noise and update rate.

use crate::pose::PlayerState;
use movr_math::{SimRng, Vec2};

/// A tracked pose estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedPose {
    /// Estimated head-centre position, metres.
    pub center: Vec2,
    /// Estimated yaw, degrees.
    pub yaw_deg: f64,
}

impl TrackedPose {
    /// Estimated receiver position (same face offset as the true pose).
    pub fn receiver_position(&self) -> Vec2 {
        self.center + Vec2::unit_from_deg(self.yaw_deg) * crate::pose::FACE_OFFSET_M
    }
}

/// A lighthouse-class outside-in tracker.
#[derive(Debug, Clone)]
pub struct LighthouseTracker {
    /// RMS position noise per axis, metres.
    pub position_noise_m: f64,
    /// RMS yaw noise, degrees.
    pub yaw_noise_deg: f64,
    /// Pose update rate, Hz.
    pub update_rate_hz: f64,
    rng: SimRng,
    last_update_s: f64,
    last_pose: Option<TrackedPose>,
}

impl LighthouseTracker {
    /// A Vive-class tracker: ~1.5 mm, ~0.3°, 250 Hz.
    pub fn new(seed: u64) -> Self {
        LighthouseTracker {
            position_noise_m: 0.0015,
            yaw_noise_deg: 0.3,
            update_rate_hz: 250.0,
            rng: SimRng::seed_from_u64(seed),
            last_update_s: f64::NEG_INFINITY,
            last_pose: None,
        }
    }

    /// The full mutable state — `(rng_state, last_update_s, last_pose)` —
    /// for checkpointing. `last_update_s` starts at `-inf` before the
    /// first tick; the f64 is preserved bit-exactly by the snapshot codec.
    pub fn state(&self) -> ([u64; 4], f64, Option<TrackedPose>) {
        (self.rng.state(), self.last_update_s, self.last_pose)
    }

    /// Restores the mutable state captured by [`LighthouseTracker::state`].
    /// Noise parameters and update rate are config, not state — they come
    /// from the constructor, and only the estimation progress is restored.
    pub fn restore_state(&mut self, state: ([u64; 4], f64, Option<TrackedPose>)) {
        let (rng, last_update_s, last_pose) = state;
        self.rng = SimRng::from_state(rng);
        self.last_update_s = last_update_s;
        self.last_pose = last_pose;
    }

    /// Observes the true pose at time `t_s` and returns the tracker's
    /// estimate. Between update ticks the previous estimate is returned
    /// (the tracker has its own cadence, independent of the caller's).
    pub fn track(&mut self, t_s: f64, truth: &PlayerState) -> TrackedPose {
        let period = 1.0 / self.update_rate_hz;
        if let Some(last) = self.last_pose {
            if t_s - self.last_update_s < period {
                return last;
            }
        }
        let pose = TrackedPose {
            center: truth.center
                + Vec2::new(
                    self.rng.normal(0.0, self.position_noise_m),
                    self.rng.normal(0.0, self.position_noise_m),
                ),
            yaw_deg: truth.yaw_deg + self.rng.normal(0.0, self.yaw_noise_deg),
        };
        self.last_update_s = t_s;
        self.last_pose = Some(pose);
        pose
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> PlayerState {
        PlayerState::standing(Vec2::new(2.0, 3.0), 45.0)
    }

    #[test]
    fn ideal_tracker_is_exact() {
        // Zero noise, infinite rate.
        let mut t = LighthouseTracker {
            position_noise_m: 0.0,
            yaw_noise_deg: 0.0,
            update_rate_hz: f64::INFINITY,
            ..LighthouseTracker::new(0)
        };
        let p = t.track(0.0, &truth());
        assert_eq!(p.center, truth().center);
        assert_eq!(p.yaw_deg, 45.0);
        assert_eq!(p.receiver_position(), truth().receiver_position());
    }

    #[test]
    fn noise_is_millimetric() {
        let mut t = LighthouseTracker::new(3);
        let mut worst = 0.0f64;
        for i in 0..1000 {
            let p = t.track(i as f64 * 0.004, &truth());
            worst = worst.max(p.center.distance(truth().center));
        }
        assert!(worst > 0.0, "noise must exist");
        assert!(worst < 0.01, "worst error {worst} m should stay sub-cm");
    }

    #[test]
    fn holds_estimate_between_ticks() {
        let mut t = LighthouseTracker::new(4);
        let a = t.track(0.0, &truth());
        // 1 ms later — under the 4 ms period — same estimate.
        let b = t.track(0.001, &truth());
        assert_eq!(a, b);
        // 5 ms later — new estimate.
        let c = t.track(0.005, &truth());
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = LighthouseTracker::new(9);
        let mut b = LighthouseTracker::new(9);
        for i in 0..20 {
            let t = i as f64 * 0.01;
            assert_eq!(a.track(t, &truth()), b.track(t, &truth()));
        }
    }

    #[test]
    fn yaw_noise_bounded() {
        let mut t = LighthouseTracker::new(5);
        for i in 0..500 {
            let p = t.track(i as f64 * 0.004, &truth());
            assert!((p.yaw_deg - 45.0).abs() < 2.0);
        }
    }
}
