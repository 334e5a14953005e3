//! Planar vectors.
//!
//! The MoVR evaluation geometry is planar: the 5 m × 5 m room, the beam
//! angles swept in the paper's figures (40°–140°) and the blockage scenarios
//! all live in the horizontal plane at headset height. [`Vec2`] is used for
//! both positions (points) and directions.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point with `f64` components, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East–west coordinate / component, metres.
    pub x: f64,
    /// North–south coordinate / component, metres.
    pub y: f64,
}

impl Vec2 {
    /// The origin / zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// A unit vector pointing at `angle_deg` degrees counter-clockwise from
    /// the +x axis — the convention used for all beam angles in this
    /// workspace.
    pub fn unit_from_deg(angle_deg: f64) -> Self {
        let r = angle_deg.to_radians();
        Vec2::new(r.cos(), r.sin())
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// The z-component of the 3-D cross product — positive when `rhs` is
    /// counter-clockwise of `self`.
    pub fn cross(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared length (avoids the square root for comparisons).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (other - self).norm()
    }

    /// Unit vector in the same direction. Returns [`Vec2::ZERO`] for the
    /// zero vector (callers treat that as "no direction").
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= 0.0 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Angle of this vector in degrees, counter-clockwise from +x, in
    /// `(-180, 180]`.
    pub fn angle_deg(self) -> f64 {
        self.y.atan2(self.x).to_degrees()
    }

    /// The direction (degrees) from this point toward `target`.
    pub fn bearing_deg_to(self, target: Vec2) -> f64 {
        (target - self).angle_deg()
    }

    /// A vector perpendicular to this one (rotated +90°).
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t == 0`, `other` at `t == 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert!(close(v.norm(), 5.0));
        assert!(close(v.norm_sq(), 25.0));
        assert!(close(Vec2::ZERO.distance(v), 5.0));
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(10.0, 0.0).normalized();
        assert!(close(v.x, 1.0) && close(v.y, 0.0));
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn unit_from_deg_convention() {
        assert!(close(Vec2::unit_from_deg(0.0).x, 1.0));
        assert!(close(Vec2::unit_from_deg(90.0).y, 1.0));
        assert!(close(Vec2::unit_from_deg(180.0).x, -1.0));
    }

    #[test]
    fn angle_roundtrip() {
        for deg in [-170.0, -45.0, 0.0, 30.0, 90.0, 179.0] {
            let v = Vec2::unit_from_deg(deg);
            assert!(close(v.angle_deg(), deg), "deg={deg}");
        }
    }

    #[test]
    fn bearing() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 1.0);
        assert!(close(a.bearing_deg_to(b), 45.0));
        assert!(close(b.bearing_deg_to(a), -135.0));
    }

    #[test]
    fn perp_rotates_a_quarter_turn() {
        let v = Vec2::new(1.0, 0.0);
        assert_eq!(v.perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert!(close(a.dot(b), 0.0));
        assert!(close(a.cross(b), 1.0));
        assert!(close(b.cross(a), -1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }
}
