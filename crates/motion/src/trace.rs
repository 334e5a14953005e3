//! Motion traces: the world as a function of time.
//!
//! A [`MotionTrace`] maps an instant (seconds from scenario start) to a
//! [`WorldState`]. Scripted traces reproduce the paper's §3 experiments
//! (hand raise, head turn, person walking through); [`RandomWalk`]
//! generates long, seeded sessions for end-to-end evaluation.

use crate::pose::{PlayerState, WorldState};
use movr_math::convert::{f64_to_usize, usize_to_f64};
use movr_math::{SimRng, Vec2};
use movr_rfsim::{BodyPart, Obstacle, Room};

/// The world as a function of time.
pub trait MotionTrace {
    /// Scenario length, seconds.
    fn duration_s(&self) -> f64;

    /// The world at `t_s` seconds. Implementations clamp `t_s` into
    /// `[0, duration]`.
    fn world_at(&self, t_s: f64) -> WorldState;
}

/// A frozen scene: nothing moves.
#[derive(Debug, Clone)]
pub struct StaticScene {
    /// The frozen world.
    pub world: WorldState,
    /// How long the scene lasts, seconds.
    pub duration_s: f64,
}

impl StaticScene {
    /// A static player-only scene.
    pub fn new(player: PlayerState, duration_s: f64) -> Self {
        StaticScene {
            world: WorldState::player_only(player),
            duration_s,
        }
    }
}

impl MotionTrace for StaticScene {
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
    fn world_at(&self, _t_s: f64) -> WorldState {
        self.world.clone()
    }
}

/// The player turns her head at a constant rate — §3's "user rotated her
/// head" scenario. Typical fast human head rotation is ~200–300°/s.
#[derive(Debug, Clone)]
pub struct HeadTurn {
    /// Player state before the turn starts.
    pub base: PlayerState,
    /// When the turn starts, seconds.
    pub start_s: f64,
    /// Turn rate, degrees per second (sign = direction).
    pub rate_dps: f64,
    /// Total rotation, degrees.
    pub total_deg: f64,
    /// Scenario length, seconds.
    pub duration_s: f64,
}

impl MotionTrace for HeadTurn {
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
    fn world_at(&self, t_s: f64) -> WorldState {
        let t = t_s.clamp(0.0, self.duration_s);
        let elapsed = (t - self.start_s).max(0.0);
        let turned = (elapsed * self.rate_dps.abs()).min(self.total_deg.abs());
        let yaw = self.base.yaw_deg + turned * self.rate_dps.signum() * self.total_deg.signum();
        WorldState::player_only(self.base.with_yaw(yaw))
    }
}

/// The player raises a hand in front of the headset for an interval —
/// §3's "user raised her hand" scenario.
#[derive(Debug, Clone)]
pub struct HandRaise {
    /// Player state throughout (only the hand flag changes).
    pub base: PlayerState,
    /// Hand goes up at this time, seconds.
    pub raise_at_s: f64,
    /// Hand comes down at this time, seconds.
    pub lower_at_s: f64,
    /// Scenario length, seconds.
    pub duration_s: f64,
}

impl MotionTrace for HandRaise {
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
    fn world_at(&self, t_s: f64) -> WorldState {
        let t = t_s.clamp(0.0, self.duration_s);
        let raised = t >= self.raise_at_s && t < self.lower_at_s;
        WorldState::player_only(self.base.with_hand(raised))
    }
}

/// Another person walks in a straight line at constant speed — §3's
/// "another person walks between headset and transmitter" scenario.
#[derive(Debug, Clone)]
pub struct WalkerCrossing {
    /// The (stationary) tracked player.
    pub player: PlayerState,
    /// Walker start point, metres.
    pub from: Vec2,
    /// Walker end point, metres.
    pub to: Vec2,
    /// Walk begins at this time, seconds.
    pub start_s: f64,
    /// Walking speed, m/s (typical indoor: ~1.2 m/s).
    pub speed_mps: f64,
    /// Scenario length, seconds.
    pub duration_s: f64,
}

impl WalkerCrossing {
    /// Where the walker is at `t_s` (before the start: at `from`; after
    /// arrival: at `to`).
    pub fn walker_position(&self, t_s: f64) -> Vec2 {
        let total = self.from.distance(self.to);
        if total < 1e-9 {
            return self.from;
        }
        let walked = ((t_s - self.start_s).max(0.0) * self.speed_mps).min(total);
        self.from.lerp(self.to, walked / total)
    }
}

impl MotionTrace for WalkerCrossing {
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
    fn world_at(&self, t_s: f64) -> WorldState {
        let t = t_s.clamp(0.0, self.duration_s);
        let mut w = WorldState::player_only(self.player);
        w.others
            .push(Obstacle::new(BodyPart::Torso, self.walker_position(t)));
        w
    }
}

/// A seeded random session: the player wanders between waypoints, turns
/// toward her walking direction, and occasionally raises a hand. Sampled
/// deterministically: the full trajectory is computed at construction at
/// a fixed tick, and `world_at` interpolates.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    tick_s: f64,
    duration_s: f64,
    states: Vec<PlayerState>,
}

impl RandomWalk {
    /// Builds a random session inside `room` (with 0.5 m wall margins).
    /// The player looks where she walks.
    ///
    /// # Panics
    /// Panics on non-positive duration.
    pub fn new(room: &Room, seed: u64, duration_s: f64) -> Self {
        Self::build(room, seed, duration_s, None)
    }

    /// Like [`RandomWalk::new`], but the player's gaze stays on `focus`
    /// (the game scene / AP side of the room) while she strafes between
    /// waypoints — the posture of an actual VR player.
    pub fn with_gaze(room: &Room, seed: u64, duration_s: f64, focus: Vec2) -> Self {
        Self::build(room, seed, duration_s, Some(focus))
    }

    fn build(room: &Room, seed: u64, duration_s: f64, gaze_focus: Option<Vec2>) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        let mut rng = SimRng::seed_from_u64(seed);
        let tick_s = 0.02; // 50 Hz trajectory sampling
        let margin = 0.5;
        let speed = 0.8; // m/s wandering speed
        let n = f64_to_usize((duration_s / tick_s).ceil()) + 1;

        let mut states = Vec::with_capacity(n);
        let mut pos = Vec2::new(
            rng.uniform(margin, room.width() - margin),
            rng.uniform(margin, room.depth() - margin),
        );
        let mut waypoint = pos;
        let mut yaw = rng.uniform(-180.0, 180.0);
        let mut hand_until = 0.0f64;

        for i in 0..n {
            let t = usize_to_f64(i) * tick_s;
            if pos.distance(waypoint) < 0.1 {
                waypoint = Vec2::new(
                    rng.uniform(margin, room.width() - margin),
                    rng.uniform(margin, room.depth() - margin),
                );
            }
            let to_wp = waypoint - pos;
            // Gaze: at the focus if one is set, else along the walk.
            let target_yaw = match gaze_focus {
                Some(f) => pos.bearing_deg_to(f),
                None => to_wp.angle_deg(),
            };
            // Turn toward the target at a bounded rate, then walk (strafe
            // toward the waypoint when the gaze is pinned on a focus).
            let dyaw = movr_math::wrap_deg_180(target_yaw - yaw);
            let max_turn = 180.0 * tick_s; // 180°/s
            yaw += dyaw.clamp(-max_turn, max_turn);
            let step_dir = to_wp.normalized();
            pos += step_dir * (speed * tick_s).min(to_wp.norm());
            pos = room.clamp_inside(pos, margin);

            // Occasionally raise the hand for ~0.8 s (controller gesture).
            if t >= hand_until && rng.chance(0.004) {
                hand_until = t + 0.8;
            }
            states.push(PlayerState {
                center: pos,
                yaw_deg: movr_math::wrap_deg_180(yaw),
                hand_raised: t < hand_until,
            });
        }
        RandomWalk {
            tick_s,
            duration_s,
            states,
        }
    }
}

impl MotionTrace for RandomWalk {
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
    fn world_at(&self, t_s: f64) -> WorldState {
        let t = t_s.clamp(0.0, self.duration_s);
        let idx = f64_to_usize(t / self.tick_s).min(self.states.len() - 1);
        WorldState::player_only(self.states[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PlayerState {
        PlayerState::standing(Vec2::new(2.5, 2.5), 0.0)
    }

    #[test]
    fn static_scene_never_changes() {
        let s = StaticScene::new(base(), 10.0);
        assert_eq!(s.world_at(0.0), s.world_at(7.3));
        assert_eq!(s.duration_s(), 10.0);
    }

    #[test]
    fn head_turn_progresses_and_saturates() {
        let t = HeadTurn {
            base: base(),
            start_s: 1.0,
            rate_dps: 200.0,
            total_deg: 180.0,
            duration_s: 5.0,
        };
        assert_eq!(t.world_at(0.5).player.yaw_deg, 0.0);
        let mid = t.world_at(1.45).player.yaw_deg;
        assert!((mid - 90.0).abs() < 1.0, "mid={mid}");
        // After 1.9 s of turning the 180° budget is exhausted.
        assert_eq!(t.world_at(3.0).player.yaw_deg, 180.0);
        assert_eq!(t.world_at(100.0).player.yaw_deg, 180.0);
    }

    #[test]
    fn head_turn_negative_direction() {
        let t = HeadTurn {
            base: base(),
            start_s: 0.0,
            rate_dps: -100.0,
            total_deg: 90.0,
            duration_s: 5.0,
        };
        let yaw = t.world_at(0.5).player.yaw_deg;
        assert!((yaw - (-50.0)).abs() < 1.0, "yaw={yaw}");
    }

    #[test]
    fn hand_raise_window() {
        let t = HandRaise {
            base: base(),
            raise_at_s: 2.0,
            lower_at_s: 3.0,
            duration_s: 5.0,
        };
        assert!(!t.world_at(1.9).player.hand_raised);
        assert!(t.world_at(2.0).player.hand_raised);
        assert!(t.world_at(2.9).player.hand_raised);
        assert!(!t.world_at(3.0).player.hand_raised);
    }

    #[test]
    fn walker_crosses_at_constant_speed() {
        let w = WalkerCrossing {
            player: base(),
            from: Vec2::new(0.5, 0.5),
            to: Vec2::new(4.5, 0.5),
            start_s: 1.0,
            speed_mps: 1.0,
            duration_s: 10.0,
        };
        assert_eq!(w.walker_position(0.0), Vec2::new(0.5, 0.5));
        assert_eq!(w.walker_position(1.0), Vec2::new(0.5, 0.5));
        let p = w.walker_position(3.0);
        assert!((p.x - 2.5).abs() < 1e-9);
        // Arrived and stays.
        assert_eq!(w.walker_position(100.0), Vec2::new(4.5, 0.5));
        // The world carries the torso obstacle.
        let world = w.world_at(3.0);
        assert_eq!(world.others.len(), 1);
        assert_eq!(world.others[0].kind, BodyPart::Torso);
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let room = Room::paper_office();
        let a = RandomWalk::new(&room, 5, 10.0);
        let b = RandomWalk::new(&room, 5, 10.0);
        let c = RandomWalk::new(&room, 6, 10.0);
        for t in [0.0, 2.5, 7.9] {
            assert_eq!(a.world_at(t), b.world_at(t));
        }
        assert_ne!(
            a.world_at(5.0).player.center,
            c.world_at(5.0).player.center
        );
    }

    #[test]
    fn random_walk_stays_in_room() {
        let room = Room::paper_office();
        let w = RandomWalk::new(&room, 42, 30.0);
        let mut t = 0.0;
        while t < 30.0 {
            let p = w.world_at(t).player.center;
            assert!(room.contains(p), "t={t} p={p}");
            t += 0.1;
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let room = Room::paper_office();
        let w = RandomWalk::new(&room, 7, 20.0);
        let start = w.world_at(0.0).player.center;
        let moved = (0..200)
            .map(|i| w.world_at(i as f64 * 0.1).player.center.distance(start))
            .fold(0.0, f64::max);
        assert!(moved > 1.0, "player should wander: max displacement {moved}");
    }

    #[test]
    fn gaze_walk_faces_the_focus() {
        let room = Room::paper_office();
        let focus = Vec2::new(0.5, 2.5);
        let w = RandomWalk::with_gaze(&room, 11, 20.0, focus);
        // After the initial turn-in, the player's yaw tracks the bearing
        // to the focus within a few degrees.
        let mut t = 2.0;
        while t < 20.0 {
            let p = w.world_at(t).player;
            let want = p.center.bearing_deg_to(focus);
            let err = movr_math::wrap_deg_180(p.yaw_deg - want).abs();
            assert!(err < 10.0, "t={t} yaw err {err}");
            t += 0.5;
        }
    }

    #[test]
    fn out_of_range_times_clamp() {
        let t = HandRaise {
            base: base(),
            raise_at_s: 0.0,
            lower_at_s: 10.0,
            duration_s: 5.0,
        };
        // Negative and past-the-end times are clamped, not panics.
        let _ = t.world_at(-3.0);
        let _ = t.world_at(99.0);
    }
}
