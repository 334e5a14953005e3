//! Obstacles: human body parts and furniture that shadow mmWave paths.
//!
//! The paper's §3 blockage scenarios — the player's hand, the player's
//! head, another person walking through — are modelled as circles in the
//! horizontal plane. A path segment passing through a circle picks up the
//! body part's shadowing loss; a near-graze picks up a reduced, distance-
//! tapered loss standing in for knife-edge diffraction around the edge.

use crate::geometry::Segment;
use crate::material::Material;
use movr_math::Vec2;

/// The kind of blocker, with per-kind shadowing characteristics.
///
/// Shadowing losses are calibrated to the paper's Fig. 3: hand blockage
/// degrades SNR by "more than 14 dB", head and body by more, and all of
/// them take the link below the VR requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BodyPart {
    /// The player's raised hand — small but sufficient to kill the link.
    Hand,
    /// The player's head (after a head turn puts it in the beam).
    Head,
    /// A full torso: the player's own or another person walking through.
    Torso,
    /// Wooden furniture (desk, shelf).
    Furniture,
    /// Metal cabinet / whiteboard.
    MetalFurniture,
}

impl BodyPart {
    /// Physical radius of the blocking cross-section, metres.
    pub fn radius_m(self) -> f64 {
        match self {
            BodyPart::Hand => 0.06,
            BodyPart::Head => 0.10,
            BodyPart::Torso => 0.22,
            BodyPart::Furniture => 0.40,
            BodyPart::MetalFurniture => 0.40,
        }
    }

    /// Shadowing loss when the path passes through the centre region, dB.
    pub fn shadow_loss_db(self) -> f64 {
        match self {
            BodyPart::Hand => 17.0,
            BodyPart::Head => 22.0,
            BodyPart::Torso => 30.0,
            BodyPart::Furniture => Material::Wood.penetration_loss_db(),
            BodyPart::MetalFurniture => Material::Metal.penetration_loss_db(),
        }
    }
}

/// A circular obstacle at a position in the room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// What the obstacle is (sets radius and shadow loss).
    pub kind: BodyPart,
    /// Centre position in room coordinates, metres.
    pub center: Vec2,
}

/// Fraction of the radius beyond which the diffraction taper begins: a ray
/// within `CORE_FRACTION·r` of the centre takes the full shadow loss.
const CORE_FRACTION: f64 = 1.0;

/// The taper extends out to `TAPER_FRACTION·r`; beyond that the obstacle
/// contributes nothing. This models energy leaking around the edge
/// (knife-edge diffraction) without a full Fresnel computation.
const TAPER_FRACTION: f64 = 1.6;

impl Obstacle {
    /// Creates an obstacle of the given kind at `center`.
    pub fn new(kind: BodyPart, center: Vec2) -> Self {
        Obstacle { kind, center }
    }

    /// Shadowing loss (dB) this obstacle inflicts on a path segment.
    ///
    /// * Ray passes within the physical radius → full shadow loss.
    /// * Ray grazes within the taper band → linearly reduced loss.
    /// * Ray clears the taper band → 0 dB.
    pub fn shadow_loss_on(&self, seg: &Segment) -> f64 {
        let r = self.kind.radius_m();
        let (dist, _t) = seg.distance_to_point(self.center);
        let core = CORE_FRACTION * r;
        let edge = TAPER_FRACTION * r;
        if dist <= core {
            self.kind.shadow_loss_db()
        } else if dist < edge {
            let frac = (edge - dist) / (edge - core);
            self.kind.shadow_loss_db() * frac
        } else {
            0.0
        }
    }

    /// Moves the obstacle to a new position (used by motion traces).
    pub fn moved_to(&self, center: Vec2) -> Obstacle {
        Obstacle {
            kind: self.kind,
            center,
        }
    }
}

/// Total shadowing loss (dB) a set of obstacles inflicts on a segment.
/// Losses add in dB: each body the ray penetrates attenuates what is left.
pub fn total_shadow_loss_db(obstacles: &[Obstacle], seg: &Segment) -> f64 {
    obstacles.iter().map(|o| o.shadow_loss_on(seg)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Vec2::new(ax, ay), Vec2::new(bx, by))
    }

    #[test]
    fn dead_centre_hit_takes_full_loss() {
        let hand = Obstacle::new(BodyPart::Hand, Vec2::new(1.0, 0.0));
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(hand.shadow_loss_on(&s), BodyPart::Hand.shadow_loss_db());
    }

    #[test]
    fn clear_miss_costs_nothing() {
        let hand = Obstacle::new(BodyPart::Hand, Vec2::new(1.0, 1.0));
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(hand.shadow_loss_on(&s), 0.0);
    }

    #[test]
    fn graze_takes_partial_loss() {
        let hand = Obstacle::new(BodyPart::Hand, Vec2::new(1.0, 0.08));
        // 0.08 m is between radius (0.06) and taper edge (0.096).
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let loss = hand.shadow_loss_on(&s);
        assert!(loss > 0.0 && loss < BodyPart::Hand.shadow_loss_db());
    }

    #[test]
    fn taper_is_monotone_in_distance() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let y = i as f64 * 0.01;
            let o = Obstacle::new(BodyPart::Head, Vec2::new(1.0, y));
            let loss = o.shadow_loss_on(&s);
            assert!(loss <= prev + 1e-12, "loss must not grow with distance");
            prev = loss;
        }
    }

    #[test]
    fn bigger_parts_block_more() {
        assert!(BodyPart::Torso.shadow_loss_db() > BodyPart::Head.shadow_loss_db());
        assert!(BodyPart::Head.shadow_loss_db() > BodyPart::Hand.shadow_loss_db());
        assert!(BodyPart::Torso.radius_m() > BodyPart::Hand.radius_m());
    }

    #[test]
    fn hand_loss_matches_paper() {
        // §3: hand blockage degrades SNR by more than 14 dB.
        assert!(BodyPart::Hand.shadow_loss_db() > 14.0);
    }

    #[test]
    fn losses_accumulate_across_obstacles() {
        let s = seg(0.0, 0.0, 4.0, 0.0);
        let obs = vec![
            Obstacle::new(BodyPart::Hand, Vec2::new(1.0, 0.0)),
            Obstacle::new(BodyPart::Torso, Vec2::new(3.0, 0.0)),
        ];
        let total = total_shadow_loss_db(&obs, &s);
        let expect = BodyPart::Hand.shadow_loss_db() + BodyPart::Torso.shadow_loss_db();
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn obstacle_off_segment_extension_does_not_block() {
        // The obstacle sits on the line's extension beyond the endpoint —
        // the *segment* is clear.
        let o = Obstacle::new(BodyPart::Torso, Vec2::new(5.0, 0.0));
        let s = seg(0.0, 0.0, 2.0, 0.0);
        assert_eq!(o.shadow_loss_on(&s), 0.0);
    }

    #[test]
    fn moved_obstacle_keeps_kind() {
        let o = Obstacle::new(BodyPart::Head, Vec2::ZERO).moved_to(Vec2::new(1.0, 1.0));
        assert_eq!(o.kind, BodyPart::Head);
        assert_eq!(o.center, Vec2::new(1.0, 1.0));
    }
}
