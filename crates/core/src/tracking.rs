//! Predictive beam tracking — the paper's §6 future work, implemented.
//!
//! "Our future work will focus on designing a fast beam-tracking
//! algorithm that leverages this [VR tracking] information."
//!
//! The control channel adds ~7.5 ms between deciding a beam and the
//! reflector applying it; a player walking at 1 m/s moves ~8 mm in that
//! time and a head turning at 200°/s moves 1.5° — enough to land a
//! freshly-commanded beam off-centre. [`BeamPredictor`] keeps a short
//! history of tracked poses, estimates linear and angular velocity, and
//! extrapolates the pose to the instant the command will take effect, so
//! the beam is aimed at where the player *will be*.

use movr_math::{wrap_deg_180, Vec2};
use movr_motion::TrackedPose;
use std::collections::VecDeque;

/// Short-horizon pose predictor fed by tracker observations.
#[derive(Debug, Clone)]
pub struct BeamPredictor {
    /// Observation history `(t_s, pose)`, newest last.
    history: VecDeque<(f64, TrackedPose)>,
    /// Maximum observations retained.
    depth: usize,
    /// Horizon beyond which extrapolation is clamped (predictions far
    /// past the data are worse than holding the last pose), seconds.
    max_horizon_s: f64,
}

impl Default for BeamPredictor {
    fn default() -> Self {
        BeamPredictor {
            history: VecDeque::new(),
            depth: 4,
            max_horizon_s: 0.05,
        }
    }
}

impl BeamPredictor {
    /// A predictor with the default depth and horizon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one tracker observation. Out-of-order observations are
    /// ignored (the tracker is monotonic; a replay would corrupt the
    /// velocity estimate).
    pub fn observe(&mut self, t_s: f64, pose: TrackedPose) {
        if let Some(&(last_t, _)) = self.history.back() {
            if t_s <= last_t {
                return;
            }
        }
        self.history.push_back((t_s, pose));
        while self.history.len() > self.depth {
            self.history.pop_front();
        }
    }

    /// Estimated linear velocity (m/s) and yaw rate (deg/s) from the
    /// oldest-to-newest span of the history. `None` with fewer than two
    /// observations.
    pub fn velocity(&self) -> Option<(Vec2, f64)> {
        if self.history.len() < 2 {
            return None;
        }
        let &(t0, p0) = self.history.front().expect("len >= 2");
        let &(t1, p1) = self.history.back().expect("len >= 2");
        let dt = t1 - t0;
        if dt <= 1e-9 {
            return None;
        }
        let v = (p1.center - p0.center) / dt;
        let w = wrap_deg_180(p1.yaw_deg - p0.yaw_deg) / dt;
        Some((v, w))
    }

    /// Predicts the pose at `t_s` by linear extrapolation from the
    /// newest observation, clamped to the horizon. Falls back to the
    /// latest pose when velocity cannot be estimated. `None` when no
    /// observation has been fed yet.
    pub fn predict(&self, t_s: f64) -> Option<TrackedPose> {
        let &(t_last, last) = self.history.back()?;
        let Some((v, w)) = self.velocity() else {
            return Some(last);
        };
        let dt = (t_s - t_last).clamp(0.0, self.max_horizon_s);
        Some(TrackedPose {
            center: last.center + v * dt,
            yaw_deg: last.yaw_deg + w * dt,
        })
    }

    /// Predicted bearing (degrees) from `origin` to the receiver at
    /// `t_s` — what a reflector's transmit beam should be commanded to.
    pub fn predict_bearing_from(&self, origin: Vec2, t_s: f64) -> Option<f64> {
        self.predict(t_s)
            .map(|p| origin.bearing_deg_to(p.receiver_position()))
    }

    /// The retained observation history, oldest first, for checkpointing.
    /// Depth and horizon are construction parameters, not state.
    pub fn history(&self) -> Vec<(f64, TrackedPose)> {
        self.history.iter().copied().collect()
    }

    /// Restores the history captured by [`BeamPredictor::history`].
    /// Entries beyond the retention depth are dropped from the oldest
    /// end, exactly as [`BeamPredictor::observe`] would have retained.
    pub fn restore_history(&mut self, entries: Vec<(f64, TrackedPose)>) {
        self.history.clear();
        self.history.extend(entries);
        while self.history.len() > self.depth {
            self.history.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pose(x: f64, y: f64, yaw: f64) -> TrackedPose {
        TrackedPose {
            center: Vec2::new(x, y),
            yaw_deg: yaw,
        }
    }

    #[test]
    fn empty_predictor_has_nothing() {
        let p = BeamPredictor::new();
        assert!(p.predict(1.0).is_none());
        assert!(p.velocity().is_none());
        assert!(p.history().is_empty());
    }

    #[test]
    fn single_observation_predicts_itself() {
        let mut p = BeamPredictor::new();
        p.observe(0.0, pose(1.0, 2.0, 30.0));
        let pred = p.predict(0.02).unwrap();
        assert_eq!(pred.center, Vec2::new(1.0, 2.0));
        assert_eq!(pred.yaw_deg, 30.0);
    }

    #[test]
    fn constant_velocity_extrapolates() {
        let mut p = BeamPredictor::new();
        // Walking +x at 1 m/s, turning at 100°/s.
        for k in 0..4 {
            let t = k as f64 * 0.01;
            p.observe(t, pose(1.0 + t, 2.0, 10.0 + 100.0 * t));
        }
        let (v, w) = p.velocity().unwrap();
        assert!((v.x - 1.0).abs() < 1e-9);
        assert!((v.y - 0.0).abs() < 1e-9);
        assert!((w - 100.0).abs() < 1e-9);
        // Predict 10 ms past the last observation (t=0.03).
        let pred = p.predict(0.04).unwrap();
        assert!((pred.center.x - 1.04).abs() < 1e-9);
        assert!((pred.yaw_deg - 14.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_clamps_wild_extrapolation() {
        let mut p = BeamPredictor::new();
        p.observe(0.0, pose(1.0, 2.0, 0.0));
        p.observe(0.01, pose(1.01, 2.0, 0.0)); // 1 m/s
        // Asking 10 s ahead only extrapolates the 50 ms horizon.
        let pred = p.predict(10.0).unwrap();
        assert!((pred.center.x - (1.01 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn yaw_wraps_correctly() {
        let mut p = BeamPredictor::new();
        p.observe(0.0, pose(0.0, 0.0, 179.0));
        p.observe(0.01, pose(0.0, 0.0, -179.0)); // +2° through the wrap
        let (_, w) = p.velocity().unwrap();
        assert!((w - 200.0).abs() < 1e-6, "w={w}");
    }

    #[test]
    fn out_of_order_observations_ignored() {
        let mut p = BeamPredictor::new();
        p.observe(0.02, pose(1.0, 0.0, 0.0));
        p.observe(0.01, pose(9.0, 9.0, 90.0)); // stale: dropped
        assert_eq!(p.history(), [(0.02, pose(1.0, 0.0, 0.0))]);
    }

    #[test]
    fn history_depth_bounded() {
        let mut p = BeamPredictor::new();
        for k in 0..20 {
            p.observe(k as f64 * 0.01, pose(k as f64, 0.0, 0.0));
        }
        assert_eq!(p.history().len(), 4);
        // Velocity uses the retained window only (still 100 m/s here).
        let (v, _) = p.velocity().unwrap();
        assert!((v.x - 100.0).abs() < 1e-6);
    }

    #[test]
    fn predicted_bearing_leads_the_motion() {
        let mut p = BeamPredictor::new();
        // Player crossing in front of a reflector at the origin.
        p.observe(0.0, pose(2.0, -2.0, 90.0));
        p.observe(0.01, pose(2.0 + 0.02, -2.0, 90.0)); // 2 m/s in +x
        let origin = Vec2::ZERO;
        let now = p.predict_bearing_from(origin, 0.01).unwrap();
        let future = p.predict_bearing_from(origin, 0.05).unwrap();
        // Moving +x below the origin: the bearing (≈ -45°) rotates
        // toward -x ... i.e. decreases toward -90? No: receiver at
        // (2+,  -2+0.18). Moving +x makes atan2 less negative? Check
        // by magnitude: bearing angle should change in the direction of
        // motion.
        assert_ne!(now, future);
        let moved = wrap_deg_180(future - now);
        assert!(moved.abs() > 0.2, "prediction must lead: {moved}");
    }

    #[test]
    fn history_round_trip_restores_predictions() {
        let mut p = BeamPredictor::new();
        for k in 0..4 {
            let t = k as f64 * 0.01;
            p.observe(t, pose(1.0 + t, 2.0, 10.0 + 100.0 * t));
        }
        let mut q = BeamPredictor::new();
        q.restore_history(p.history());
        assert_eq!(q.history(), p.history());
        assert_eq!(q.velocity(), p.velocity());
        let a = p.predict(0.05).unwrap();
        let b = q.predict(0.05).unwrap();
        assert_eq!(a.center, b.center);
        assert_eq!(a.yaw_deg, b.yaw_deg);
        // Over-deep restore input is trimmed from the oldest end.
        let mut long: Vec<_> = (0..9).map(|k| (k as f64, pose(k as f64, 0.0, 0.0))).collect();
        let mut r = BeamPredictor::new();
        r.restore_history(std::mem::take(&mut long));
        let h = r.history();
        assert_eq!(h.len(), 4);
        assert_eq!(h[3].1.center, Vec2::new(8.0, 0.0));
    }
}
