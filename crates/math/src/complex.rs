//! Complex numbers for baseband signal arithmetic.
//!
//! The RF simulator represents narrowband signals as complex phasors: a path
//! with amplitude gain `a` and phase `φ` multiplies the transmitted phasor by
//! `a·e^{jφ}`. [`C64`] is a minimal `f64` complex type with exactly the
//! operations that use case needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    /// Creates a complex number from rectangular components.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a complex number from polar form: `r·e^{jθ}` (θ in radians).
    pub fn from_polar(r: f64, theta: f64) -> Self {
        C64::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{jθ}` — a unit phasor at angle θ radians.
    pub fn exp_j(theta: f64) -> Self {
        C64::from_polar(1.0, theta)
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` — the instantaneous power of a phasor.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        C64::new(self.re * k, self.im * k)
    }

    /// Multiplicative inverse `1/z`. Returns [`C64::ZERO`] for `z == 0` so
    /// that degenerate channel coefficients collapse to "no signal" rather
    /// than NaN-poisoning downstream sums.
    pub fn recip(self) -> Self {
        let d = self.norm_sq();
        if d <= 0.0 {
            C64::ZERO
        } else {
            C64::new(self.re / d, -self.im / d)
        }
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div for C64 {
    type Output = C64;
    // Division via the reciprocal: multiply is the correct operator here.
    #[allow(clippy::suspicious_arithmetic_impl)] // lint: division via reciprocal — `*` is the right operator in Div
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    fn div(self, rhs: f64) -> C64 {
        C64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, Add::add)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> C64 {
        C64::new(re, 0.0)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(C64::new(1.0, 2.0).re, 1.0);
        assert_eq!(C64::new(1.0, 2.0).im, 2.0);
        let (one, j) = (C64::new(1.0, 0.0), C64::new(0.0, 1.0));
        assert_eq!(C64::ZERO + one, one);
        assert_eq!(j * j, -one);
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.5, 0.7);
        assert!(close(z.abs(), 2.5));
        assert!(close(z.arg(), 0.7));
    }

    #[test]
    fn exp_j_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * PI / 8.0;
            assert!(close(C64::exp_j(theta).abs(), 1.0));
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(3.0, -4.0);
        let b = C64::new(-1.5, 2.0);
        assert_eq!(a + b - b, a);
        assert!(((a * b) / b - a).abs() < 1e-12);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn conjugate_multiplication_gives_power() {
        let z = C64::new(3.0, 4.0);
        let p = z * C64::new(3.0, -4.0);
        assert!(close(p.re, 25.0));
        assert!(close(p.im, 0.0));
        assert!(close(z.norm_sq(), 25.0));
    }

    #[test]
    fn rotation_by_j_is_quarter_turn() {
        let z = C64::new(1.0, 0.0);
        let r = z * C64::exp_j(FRAC_PI_2);
        assert!(close(r.re, 0.0));
        assert!(close(r.im, 1.0));
    }

    #[test]
    fn recip_of_zero_is_zero() {
        assert_eq!(C64::ZERO.recip(), C64::ZERO);
        assert_eq!(C64::new(1.0, 0.0) / C64::ZERO, C64::ZERO);
    }

    #[test]
    fn sum_of_phasors() {
        // Two opposite unit phasors cancel.
        let s: C64 = [C64::exp_j(0.0), C64::exp_j(PI)].into_iter().sum();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn scalar_ops() {
        let z = C64::new(1.0, -2.0);
        assert_eq!(z * 2.0, C64::new(2.0, -4.0));
        assert_eq!(2.0 * z, z * 2.0);
        assert_eq!(z / 2.0, C64::new(0.5, -1.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, 1.0)), "1.000000+1.000000j");
        assert_eq!(format!("{}", C64::new(1.0, -1.0)), "1.000000-1.000000j");
    }
}
