//! The paper's evaluation as library functions, plus shared scaffolding
//! for the figure and ablation regenerators.
//!
//! [`paper`] holds one function per experiment of the paper's evaluation
//! (Figures 3, 7, 8 and 9, §6 battery and latency). Each returns the report
//! its bin prints and the claims evaluated on that report's data; `repro_all`
//! tabulates the claims and `tests/figure_shapes.rs` asserts them. The
//! experiments and the ablation and extension bins share the canonical
//! deployment geometry and the output helpers below, so every printed
//! series is uniform and diff-able across runs (everything is seeded).

use std::fmt::Write as _;

use movr_math::{Cdf, SimRng, Vec2};

pub mod paper;

/// Where the AP sits (beside the PC), on the west wall of the paper's
/// 5 m × 5 m office, facing 20°.
pub fn ap_position() -> Vec2 {
    Vec2::new(0.5, 2.5)
}

/// Where the canonical reflector is mounted, on the north wall facing
/// −70°: AP, reflector and play area are mutually within the arrays'
/// electronic scan ranges (see `MovrSystem::paper_setup`).
pub fn reflector_position() -> Vec2 {
    Vec2::new(1.0, 4.75)
}

/// A random headset placement in the play area with the AP inside the
/// receiver's scan: position in the east half of the room, gaze within
/// ±35° of the AP bearing (a player looks roughly at the scene).
pub fn random_headset_pose(rng: &mut SimRng) -> (Vec2, f64) {
    let pos = Vec2::new(rng.uniform(2.0, 4.5), rng.uniform(0.8, 4.2));
    let yaw = pos.bearing_deg_to(ap_position()) + rng.uniform(-35.0, 35.0);
    (pos, yaw)
}

/// A figure header in a stable format.
pub fn figure_header(id: &str, caption: &str) -> String {
    let rule = "=".repeat(58);
    format!("{rule}\n{id}: {caption}\n{rule}\n")
}

/// One named series of (x, y) points.
pub(crate) fn series(name: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("\nseries: {name}\n");
    for (x, y) in points {
        let _ = writeln!(out, "  {x:10.3} {y:10.3}");
    }
    out
}

/// A CDF as the paper plots it (value on x, cumulative fraction on y),
/// downsampled to at most `max_points` rows.
pub(crate) fn cdf_series(name: &str, cdf: &Cdf, max_points: usize) -> String {
    let mut out = format!("\nseries: {name} (CDF)\n");
    let pts: Vec<(f64, f64)> = cdf.points().collect();
    let step = (pts.len() / max_points.max(1)).max(1);
    for (i, (v, f)) in pts.iter().enumerate() {
        if i % step == 0 || i == pts.len() - 1 {
            let _ = writeln!(out, "  {v:10.3} {f:8.3}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr::reflector::MovrReflector;
    use movr_radio::RadioEndpoint;

    #[test]
    fn canonical_mounts_are_mutually_visible() {
        let ap = RadioEndpoint::paper_radio(ap_position(), 20.0);
        let reflector = MovrReflector::wall_mounted(reflector_position(), -70.0, movr::system::PAPER_DEVICE_SEED);
        // AP can steer at the reflector and vice versa.
        let ap_to_r = ap_position().bearing_deg_to(reflector_position());
        assert!(ap.array().can_steer_to(ap_to_r));
        let r_to_ap = reflector_position().bearing_deg_to(ap_position());
        assert!(reflector.rx_array().can_steer_to(r_to_ap));
    }

    #[test]
    fn random_poses_keep_ap_in_scan() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let (pos, yaw) = random_headset_pose(&mut rng);
            let hs = RadioEndpoint::paper_radio(pos, yaw);
            assert!(hs.array().can_steer_to(pos.bearing_deg_to(ap_position())));
        }
    }
}
