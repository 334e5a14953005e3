//! Angle bookkeeping in degrees.
//!
//! Beam angles in this workspace follow the paper's convention: degrees,
//! swept over ranges like 40°–140° (Fig. 7, Fig. 8). Angular *differences*
//! must be computed modulo 360° with the shortest-arc rule — a naive
//! subtraction would report a 358° error between 359° and 1°.

/// Wraps an angle into `(-180, 180]` degrees.
pub fn wrap_deg_180(deg: f64) -> f64 {
    let mut a = deg % 360.0;
    if a <= -180.0 {
        a += 360.0;
    } else if a > 180.0 {
        a -= 360.0;
    }
    a
}

/// Wraps an angle into `[0, 360)` degrees.
pub fn wrap_deg_360(deg: f64) -> f64 {
    let a = deg % 360.0;
    if a < 0.0 {
        a + 360.0
    } else {
        a
    }
}

/// Inclusive sweep of angles from `start` to `end` with the given step,
/// mirroring the paper's "1 degree increments" exhaustive beam sweeps.
///
/// Always yields `start`; yields `end` when the span is an exact multiple
/// of `step` (within floating-point slack).
pub fn sweep_deg(start: f64, end: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "sweep step must be positive"); // lint: sweep bounds are experiment constants, not decoded input
    assert!(end >= start, "sweep end must not precede start"); // lint: sweep bounds are experiment constants, not decoded input
    let n = ((end - start) / step + 1e-9).floor() as usize;
    (0..=n).map(|i| start + i as f64 * step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_180_range() {
        assert_eq!(wrap_deg_180(0.0), 0.0);
        assert_eq!(wrap_deg_180(180.0), 180.0);
        assert_eq!(wrap_deg_180(-180.0), 180.0);
        assert_eq!(wrap_deg_180(190.0), -170.0);
        assert_eq!(wrap_deg_180(-190.0), 170.0);
        assert_eq!(wrap_deg_180(720.0), 0.0);
        assert_eq!(wrap_deg_180(361.0), 1.0);
    }

    #[test]
    fn wrap_360_range() {
        assert_eq!(wrap_deg_360(-1.0), 359.0);
        assert_eq!(wrap_deg_360(360.0), 0.0);
        assert_eq!(wrap_deg_360(725.0), 5.0);
    }

    #[test]
    fn sweep_inclusive() {
        let s = sweep_deg(40.0, 140.0, 1.0);
        assert_eq!(s.len(), 101);
        assert_eq!(s[0], 40.0);
        assert_eq!(*s.last().unwrap(), 140.0);
    }

    #[test]
    fn sweep_fractional_step() {
        let s = sweep_deg(0.0, 1.0, 0.25);
        assert_eq!(s.len(), 5);
        assert!((s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_single_point() {
        assert_eq!(sweep_deg(5.0, 5.0, 1.0), vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn sweep_rejects_zero_step() {
        sweep_deg(0.0, 10.0, 0.0);
    }
}
