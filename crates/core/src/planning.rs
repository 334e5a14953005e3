//! Multi-reflector deployment planning.
//!
//! "One or more MoVR reflectors can be installed in a room by sticking
//! them to the walls" (§4) — but *where*? A reflector only helps poses
//! from which (a) its own arrays can see both the AP and the player, and
//! (b) the player's receiver can see it. This module turns that into a
//! planning tool: enumerate candidate wall mounts, score deployments by
//! the fraction of sample poses served at VR grade, and greedily pick
//! mounts until the coverage target (or budget) is met.

use crate::reflector::MovrReflector;
use crate::system::{MovrSystem, SystemConfig};
use movr_math::convert::{usize_to_f64, usize_to_u64};
use movr_math::{SimRng, Vec2};
use movr_motion::{PlayerState, WorldState};
use movr_radio::{RadioEndpoint, RateTable};
use movr_rfsim::{Room, Scene};

/// A candidate wall mount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mount {
    /// Mount position on a wall, metres.
    pub position: Vec2,
    /// Array boresight bearing (into the room), degrees.
    pub boresight_deg: f64,
}

/// Enumerates candidate mounts along all four walls at roughly
/// `spacing_m` intervals, each oriented toward the room centre (the
/// natural installation that keeps both the AP side and the play area in
/// scan for a centre-facing panel).
pub fn candidate_wall_mounts(room: &Room, spacing_m: f64) -> Vec<Mount> {
    assert!(spacing_m > 0.0, "spacing must be positive");
    let centre = Vec2::new(room.width() / 2.0, room.depth() / 2.0);
    let inset = 0.25;
    let mut mounts = Vec::new();
    let mut push = |pos: Vec2| {
        mounts.push(Mount {
            position: pos,
            boresight_deg: pos.bearing_deg_to(centre),
        });
    };
    let mut x = spacing_m;
    while x < room.width() - spacing_m / 2.0 {
        push(Vec2::new(x, inset)); // south wall
        push(Vec2::new(x, room.depth() - inset)); // north wall
        x += spacing_m;
    }
    let mut y = spacing_m;
    while y < room.depth() - spacing_m / 2.0 {
        push(Vec2::new(inset, y)); // west wall
        push(Vec2::new(room.width() - inset, y)); // east wall
        y += spacing_m;
    }
    mounts
}

/// Sample poses over the play area: positions on a grid, several gaze
/// headings each (uniform over the circle — players look everywhere).
pub fn sample_poses(room: &Room, grid_step_m: f64, headings: usize, rng: &mut SimRng) -> Vec<PlayerState> {
    assert!(headings >= 1);
    let margin = 0.8;
    let mut poses = Vec::new();
    let mut x = margin;
    while x <= room.width() - margin {
        let mut y = margin;
        while y <= room.depth() - margin {
            for h in 0..headings {
                let yaw = -180.0 + 360.0 * usize_to_f64(h) / usize_to_f64(headings)
                    + rng.uniform(-5.0, 5.0);
                poses.push(PlayerState::standing(Vec2::new(x, y), yaw));
            }
            y += grid_step_m;
        }
        x += grid_step_m;
    }
    poses
}

/// Builds a system with the AP plus the given mounts installed.
fn build_system(ap: &RadioEndpoint, mounts: &[Mount], config: SystemConfig) -> MovrSystem {
    let mut sys = MovrSystem::new(Scene::paper_office(), *ap, config);
    for (k, m) in mounts.iter().enumerate() {
        sys.add_reflector(MovrReflector::wall_mounted(
            m.position,
            m.boresight_deg,
            usize_to_u64(k) + 1,
        ));
    }
    sys
}

/// Fraction of `poses` served at VR grade by the deployment.
pub fn coverage(ap: &RadioEndpoint, mounts: &[Mount], poses: &[PlayerState]) -> f64 {
    if poses.is_empty() {
        return 0.0;
    }
    let rate = RateTable;
    let mut sys = build_system(ap, mounts, SystemConfig::default());
    let ok = poses
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            // Distinct, well-spaced evaluation instants: the tracker
            // holds its estimate between its update ticks, so evaluating
            // every pose at t = 0 would serve them all the *first*
            // pose's tracked position.
            let d = sys.evaluate_at(usize_to_f64(*i), &WorldState::player_only(**p));
            rate.supports_vr(d.snr_db)
        })
        .count();
    usize_to_f64(ok) / usize_to_f64(poses.len())
}

/// A greedy deployment plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Chosen mounts, in selection order.
    pub mounts: Vec<Mount>,
    /// Coverage after each selection (index 0 = AP alone).
    pub coverage_curve: Vec<f64>,
}

/// Greedily selects up to `k` mounts from `candidates`, each step adding
/// the mount that maximises pose coverage. Stops early when no candidate
/// improves coverage.
pub fn greedy_plan(
    ap: &RadioEndpoint,
    candidates: &[Mount],
    poses: &[PlayerState],
    k: usize,
) -> Plan {
    let mut chosen: Vec<Mount> = Vec::new();
    let mut curve = vec![coverage(ap, &[], poses)];
    let mut remaining: Vec<Mount> = candidates.to_vec();

    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (idx, cand) in remaining.iter().enumerate() {
            let mut trial = chosen.clone();
            trial.push(*cand);
            let c = coverage(ap, &trial, poses);
            if best.is_none_or(|(_, b)| c > b) {
                best = Some((idx, c));
            }
        }
        match best {
            Some((idx, c)) if c > *curve.last().expect("non-empty") + 1e-9 => {
                chosen.push(remaining.remove(idx));
                curve.push(c);
            }
            _ => break,
        }
    }
    Plan {
        mounts: chosen,
        coverage_curve: curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> RadioEndpoint {
        RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0)
    }

    #[test]
    fn candidates_line_the_walls() {
        let room = Room::paper_office();
        let mounts = candidate_wall_mounts(&room, 1.5);
        assert!(mounts.len() >= 8, "got {}", mounts.len());
        for m in &mounts {
            // On (near) a wall...
            let near_wall = m.position.x < 0.5
                || m.position.x > 4.5
                || m.position.y < 0.5
                || m.position.y > 4.5;
            assert!(near_wall, "{:?}", m.position);
            // ...facing the room.
            let centre_dir = m.position.bearing_deg_to(Vec2::new(2.5, 2.5));
            assert!((m.boresight_deg - centre_dir).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn zero_spacing_rejected() {
        candidate_wall_mounts(&Room::paper_office(), 0.0);
    }

    #[test]
    fn sample_poses_cover_headings() {
        let room = Room::paper_office();
        let mut rng = SimRng::seed_from_u64(1);
        let poses = sample_poses(&room, 2.0, 4, &mut rng);
        assert!(!poses.is_empty());
        // Four headings per grid point.
        assert_eq!(poses.len() % 4, 0);
    }

    #[test]
    fn one_good_mount_beats_none() {
        // Small, fast instance: poses facing a spread of directions; the
        // canonical north-wall mount must add coverage over AP-only.
        let mut rng = SimRng::seed_from_u64(2);
        let poses: Vec<PlayerState> = (0..8)
            .map(|k| {
                PlayerState::standing(
                    Vec2::new(3.5 + rng.uniform(-0.3, 0.3), 2.0 + rng.uniform(-0.3, 0.3)),
                    -180.0 + k as f64 * 45.0,
                )
            })
            .collect();
        let base = coverage(&ap(), &[], &poses);
        let with = coverage(
            &ap(),
            &[Mount {
                position: Vec2::new(1.0, 4.75),
                boresight_deg: -70.0,
            }],
            &poses,
        );
        assert!(with > base, "with={with} base={base}");
    }

    #[test]
    fn greedy_curve_is_monotone() {
        let room = Room::paper_office();
        let mut rng = SimRng::seed_from_u64(3);
        // Tiny instance to keep the test quick.
        let poses = sample_poses(&room, 2.4, 3, &mut rng);
        let candidates = candidate_wall_mounts(&room, 2.4);
        let plan = greedy_plan(&ap(), &candidates, &poses, 2);
        assert!(!plan.coverage_curve.is_empty());
        for w in plan.coverage_curve.windows(2) {
            assert!(w[1] > w[0], "greedy step must improve coverage");
        }
        assert_eq!(plan.mounts.len() + 1, plan.coverage_curve.len());
    }
}
