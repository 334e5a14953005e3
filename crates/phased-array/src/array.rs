//! Uniform linear arrays and steered instances.
//!
//! The array factor of an N-element ULA with element spacing `d` steered
//! to angle θ₀ (off broadside) and observed at θ is
//!
//! ```text
//! AF(θ) = (1/N) · Σₙ exp(j·n·k·d·(sin θ − sin θ₀) + j·εₙ)
//! ```
//!
//! where εₙ is the per-element phase-quantisation error introduced by the
//! control DAC. Total gain is `10·log10(N) + G_element(θ) + 20·log10|AF|`:
//! a 10-element λ/2 array peaks near 15 dBi with a ~10° half-power beam,
//! matching the paper's prototype.

use crate::element::PatchElement;
use crate::shifter::PhaseShifter;
use movr_math::{amplitude_to_db, convert, linear_to_db, wrap_deg_180, C64};
use std::f64::consts::PI;

/// Electronic beam-steering settle time, seconds. The paper (§6) notes the
/// analog phase shifters driven by a high-speed DAC reconfigure in
/// sub-microsecond time frames.
pub const STEERING_LATENCY_S: f64 = 0.5e-6;

/// Hard cap on array size so a precomputed [`SteeringVector`] fits in
/// fixed (`Copy`) storage. The paper's prototype uses 10 elements; 32
/// leaves ample room for ablations.
pub const MAX_ELEMENTS: usize = 32;

/// The per-element state of one steering command, precomputed:
/// DAC-quantised applied phases and the aperture directivity term. These
/// depend only on the steer command, not the observation angle, so a
/// beam sweep computes them once and every subsequent
/// [`SteeringVector::gain_dbi`] query is a single pass over the elements
/// with no re-quantisation.
///
/// Evaluation reproduces [`UniformLinearArray::array_factor`] and
/// [`UniformLinearArray::gain_dbi`] with the exact same floating-point
/// operation order, so cached and uncached gains are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct SteeringVector {
    n: usize,
    /// Per-element observation phase slope `i·k·d` (radians per sin θ).
    slope: [f64; MAX_ELEMENTS],
    /// Per-element applied (DAC-quantised) phase, radians.
    applied_rad: [f64; MAX_ELEMENTS],
    /// `10·log10(n)`, the aperture directivity term.
    directivity_db: f64,
    element: PatchElement,
}

impl SteeringVector {
    /// Normalised complex array factor at `theta_deg` off broadside.
    /// Bit-identical to [`UniformLinearArray::array_factor`] at the
    /// cached steer command.
    pub fn array_factor(&self, theta_deg: f64) -> C64 {
        let sin_t = theta_deg.to_radians().sin();
        let mut sum = C64::ZERO;
        for i in 0..self.n {
            let phase = self.slope[i] * sin_t + self.applied_rad[i];
            sum += C64::exp_j(phase);
        }
        sum / convert::usize_to_f64(self.n)
    }

    /// True when every field [`SteeringVector::gain_dbi`] reads is equal
    /// bit for bit: the element count, each live element's slope and
    /// applied phase, the directivity and the element parameters.
    fn same_bits(&self, other: &SteeringVector) -> bool {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        self.n == other.n
            && same(&self.slope[..self.n], &other.slope[..self.n])
            && same(&self.applied_rad[..self.n], &other.applied_rad[..self.n])
            && self.directivity_db.to_bits() == other.directivity_db.to_bits()
            && self.element.same_bits(&other.element)
    }

    /// Total array gain (dBi) toward `theta_deg` off broadside.
    /// Bit-identical to [`UniformLinearArray::gain_dbi`] at the cached
    /// steer command.
    pub fn gain_dbi(&self, theta_deg: f64) -> f64 {
        let theta = wrap_deg_180(theta_deg);
        if theta.abs() >= 90.0 {
            // Behind the ground plane: element back lobe only.
            return self.element.gain_dbi(theta);
        }
        let af = self.array_factor(theta).abs();
        self.directivity_db + self.element.gain_dbi(theta) + amplitude_to_db(af)
    }
}

/// An N-element uniform linear array of patch elements.
#[derive(Debug, Clone, Copy)]
pub struct UniformLinearArray {
    n: usize,
    spacing_wavelengths: f64,
    element: PatchElement,
    shifter: PhaseShifter,
}

impl UniformLinearArray {
    /// Creates an array.
    ///
    /// # Panics
    /// Panics if `n == 0` or spacing is not positive.
    pub fn new(
        n: usize,
        spacing_wavelengths: f64,
        element: PatchElement,
        shifter: PhaseShifter,
    ) -> Self {
        assert!(n >= 1, "array needs at least one element"); // documented constructor contract on deployment constants
        assert!( // documented constructor contract on deployment constants
            n <= MAX_ELEMENTS,
            "array capped at {MAX_ELEMENTS} elements"
        );
        assert!(spacing_wavelengths > 0.0, "element spacing must be positive"); // documented constructor contract on deployment constants
        UniformLinearArray {
            n,
            spacing_wavelengths,
            element,
            shifter,
        }
    }

    /// The paper's array: 10 patch elements at λ/2 with 8-bit phase
    /// control — ~15 dBi peak, ~10° half-power beamwidth.
    pub fn paper_array() -> Self {
        UniformLinearArray::new(
            crate::PAPER_ARRAY_ELEMENTS,
            0.5,
            PatchElement::default(),
            PhaseShifter::default(),
        )
    }

    /// The phase shifter model used for steering.
    pub fn shifter(&self) -> &PhaseShifter {
        &self.shifter
    }

    /// Precomputes the per-element state for one steer command: the
    /// DAC-quantised applied phases and the aperture directivity term.
    /// This is the expensive part of a gain query; sweeps compute it once
    /// per beam and reuse it per observation.
    pub fn steering_vector(&self, steer_deg: f64) -> SteeringVector {
        let kd = 2.0 * PI * self.spacing_wavelengths;
        let sin_s = steer_deg.to_radians().sin();
        let mut slope = [0.0; MAX_ELEMENTS];
        let mut applied_rad = [0.0; MAX_ELEMENTS];
        let per_element = slope.iter_mut().zip(applied_rad.iter_mut());
        for (i, (sl, ar)) in per_element.enumerate().take(self.n) {
            let fi = convert::usize_to_f64(i);
            // Commanded per-element phase, quantised by the control DAC.
            let ideal_deg = (-fi * kd * sin_s).to_degrees();
            let applied_deg = self.shifter.apply(ideal_deg);
            *sl = fi * kd;
            *ar = applied_deg.to_radians();
        }
        SteeringVector {
            n: self.n,
            slope,
            applied_rad,
            directivity_db: linear_to_db(convert::usize_to_f64(self.n)),
            element: self.element,
        }
    }

    /// Normalised complex array factor at `theta_deg` off broadside when
    /// steered to `steer_deg` off broadside. |AF| ≤ 1, = 1 at the steered
    /// angle with ideal (unquantised) phases.
    pub fn array_factor(&self, steer_deg: f64, theta_deg: f64) -> C64 {
        self.steering_vector(steer_deg).array_factor(theta_deg)
    }

    /// Total array gain (dBi) toward `theta_deg` off broadside when
    /// steered to `steer_deg` off broadside.
    pub fn gain_dbi(&self, steer_deg: f64, theta_deg: f64) -> f64 {
        self.steering_vector(steer_deg).gain_dbi(theta_deg)
    }

    /// Peak gain (dBi) when steered to `steer_deg`: the gain toward the
    /// steered direction itself.
    pub fn peak_gain_dbi(&self, steer_deg: f64) -> f64 {
        self.gain_dbi(steer_deg, steer_deg)
    }

    /// Measures the half-power (−3 dB) beamwidth around a steering angle
    /// by bisecting the −3 dB crossing on each flank of the main lobe
    /// (monotone off-peak), reusing one cached steering vector for every
    /// probe.
    pub fn half_power_beamwidth_deg(&self, steer_deg: f64) -> f64 {
        let sv = self.steering_vector(steer_deg);
        let peak = sv.gain_dbi(steer_deg);
        let target = peak - 3.0;
        let upper = hpbw_flank_offset(&sv, steer_deg, target, 1.0);
        let lower = hpbw_flank_offset(&sv, steer_deg, target, -1.0);
        upper + lower
    }
}

/// Offset (degrees, ≥ 0) from the steer angle to the −3 dB crossing on
/// one flank (`dir` = ±1). A coarse 0.5° march brackets the first
/// crossing (the narrowest lobe of a [`MAX_ELEMENTS`]-element array is
/// several degrees wide), then bisection refines it well below the old
/// 0.05° scan resolution.
fn hpbw_flank_offset(sv: &SteeringVector, steer_deg: f64, target_db: f64, dir: f64) -> f64 {
    const COARSE_STEP: f64 = 0.5;
    let mut off = 0.0;
    loop {
        let next = off + COARSE_STEP;
        if next >= 90.0 {
            // Never dipped 3 dB below the peak inside the hemisphere
            // (pathologically wide pattern): report the scan bound, as
            // the linear scan did.
            return 90.0;
        }
        if sv.gain_dbi(steer_deg + dir * next) <= target_db {
            let (mut lo, mut hi) = (off, next);
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if sv.gain_dbi(steer_deg + dir * mid) > target_db {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return 0.5 * (lo + hi);
        }
        off = next;
    }
}

/// A ULA mounted in the room: a position-independent pattern oriented with
/// its broadside toward `boresight_deg` (absolute room bearing), holding a
/// current electronic steering command.
///
/// ```
/// use movr_phased_array::SteeredArray;
///
/// let mut array = SteeredArray::paper_array(90.0); // facing north
/// array.steer_to(110.0);
/// // ~15 dBi toward the steered bearing, sidelobes well down.
/// assert!(array.gain_dbi(110.0) > 13.0);
/// assert!(array.gain_dbi(110.0) - array.gain_dbi(60.0) > 10.0);
/// ```
///
/// Steering commands are expressed as absolute room bearings and clamped
/// to the physical scan range (±`max_steer_deg` off broadside) — a patch
/// array cannot look behind its own ground plane.
#[derive(Debug, Clone, Copy)]
pub struct SteeredArray {
    array: UniformLinearArray,
    boresight_deg: f64,
    steer_local_deg: f64,
    max_steer_deg: f64,
    /// Precomputed per-element state for the current steer command, so
    /// repeated gain queries (every path of every link evaluation) skip
    /// the DAC re-quantisation. Rebuilt on every steering change.
    vector: SteeringVector,
}

impl SteeredArray {
    /// Mounts `array` with broadside facing `boresight_deg`.
    pub fn new(array: UniformLinearArray, boresight_deg: f64) -> Self {
        SteeredArray {
            array,
            boresight_deg,
            steer_local_deg: 0.0,
            // Analog phase shifters can command wide scans; the element
            // pattern's cosine rolloff (≈ −9 dB at 70°) is the real
            // limit, and it is modelled, so the hard clamp sits out at
            // the edge of usefulness rather than artificially tight.
            max_steer_deg: 70.0,
            vector: array.steering_vector(0.0),
        }
    }

    /// The paper's array mounted facing `boresight_deg`.
    pub fn paper_array(boresight_deg: f64) -> Self {
        SteeredArray::new(UniformLinearArray::paper_array(), boresight_deg)
    }

    /// The mounting boresight (absolute bearing, degrees).
    pub fn boresight_deg(&self) -> f64 {
        self.boresight_deg
    }

    /// The underlying array.
    pub fn array(&self) -> &UniformLinearArray {
        &self.array
    }

    /// Maximum electronic scan off broadside, degrees.
    pub fn max_steer_deg(&self) -> f64 {
        self.max_steer_deg
    }

    /// Current steering as an absolute room bearing, degrees.
    pub fn steering_deg(&self) -> f64 {
        wrap_deg_180(self.boresight_deg + self.steer_local_deg)
    }

    /// Current steering in local (off-broadside) terms, degrees. This is
    /// the clamped command the phase shifters actually hold.
    pub fn steer_local_deg(&self) -> f64 {
        self.steer_local_deg
    }

    /// Steers the beam toward an absolute room bearing. The command is
    /// clamped to the scan range; returns the bearing actually applied.
    pub fn steer_to(&mut self, absolute_deg: f64) -> f64 {
        let local = wrap_deg_180(absolute_deg - self.boresight_deg);
        self.steer_local_deg = local.clamp(-self.max_steer_deg, self.max_steer_deg);
        self.vector = self.array.steering_vector(self.steer_local_deg);
        self.steering_deg()
    }

    /// True if `absolute_deg` lies within the electronic scan range.
    pub fn can_steer_to(&self, absolute_deg: f64) -> bool {
        wrap_deg_180(absolute_deg - self.boresight_deg).abs() <= self.max_steer_deg
    }

    /// True when `self` and `other` give the same [`SteeredArray::gain_dbi`]
    /// toward every bearing, because everything it reads is equal bit for
    /// bit (`f64::to_bits`, so −0.0 and +0.0 differ): the boresight, the
    /// element count, each element's phase slope and DAC-quantised
    /// applied phase, the directivity and the element parameters. Two
    /// steer commands that quantise to the same phases compare equal;
    /// the commanded angle itself is not read.
    pub fn same_pattern(&self, other: &SteeredArray) -> bool {
        self.boresight_deg.to_bits() == other.boresight_deg.to_bits()
            && self.vector.same_bits(&other.vector)
    }

    /// Gain (dBi) toward an absolute room bearing under the current
    /// steering. A single pass over the cached steering vector —
    /// bit-identical to `array().gain_dbi(steer_local_deg(), local)`.
    pub fn gain_dbi(&self, absolute_deg: f64) -> f64 {
        let local = wrap_deg_180(absolute_deg - self.boresight_deg);
        self.vector.gain_dbi(local)
    }

    /// Batch form of [`SteeredArray::gain_dbi`]: gains toward a whole
    /// slice of absolute room bearings under the current steering, one
    /// scalar query per bearing.
    ///
    /// # Panics
    /// Panics if `out.len() != absolute_deg.len()`.
    pub fn gain_dbi_batch_into(&self, absolute_deg: &[f64], out: &mut [f64]) {
        assert_eq!(
            absolute_deg.len(),
            out.len(),
            "batch output length must match the input"
        );
        for (o, &b) in out.iter_mut().zip(absolute_deg) {
            *o = self.gain_dbi(b);
        }
    }

    /// Batch form of [`SteeredArray::gain_dbi`], allocating the output.
    pub fn gain_dbi_batch(&self, absolute_deg: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; absolute_deg.len()];
        self.gain_dbi_batch_into(absolute_deg, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-cache implementations, kept as the reference the
    /// steering-vector fast path must reproduce bit-for-bit.
    fn reference_array_factor(arr: &UniformLinearArray, steer_deg: f64, theta_deg: f64) -> C64 {
        let kd = 2.0 * PI * arr.spacing_wavelengths;
        let sin_t = theta_deg.to_radians().sin();
        let sin_s = steer_deg.to_radians().sin();
        let mut sum = C64::ZERO;
        for i in 0..arr.n {
            let ideal_deg = (-convert::usize_to_f64(i) * kd * sin_s).to_degrees();
            let applied_deg = arr.shifter.apply(ideal_deg);
            let phase = convert::usize_to_f64(i) * kd * sin_t + applied_deg.to_radians();
            sum += C64::exp_j(phase);
        }
        sum / convert::usize_to_f64(arr.n)
    }

    fn reference_gain_dbi(arr: &UniformLinearArray, steer_deg: f64, theta_deg: f64) -> f64 {
        let theta = wrap_deg_180(theta_deg);
        if theta.abs() >= 90.0 {
            return arr.element.gain_dbi(theta);
        }
        let af = reference_array_factor(arr, steer_deg, theta).abs();
        linear_to_db(convert::usize_to_f64(arr.n))
            + arr.element.gain_dbi(theta)
            + amplitude_to_db(af)
    }

    /// The old 0.05°-step linear beamwidth scan, kept as the reference
    /// the bisection must agree with to within one step per flank.
    fn reference_beamwidth_deg(arr: &UniformLinearArray, steer_deg: f64) -> f64 {
        let peak = reference_gain_dbi(arr, steer_deg, steer_deg);
        let target = peak - 3.0;
        let step = 0.05;
        let mut upper = steer_deg;
        while upper < steer_deg + 90.0 && reference_gain_dbi(arr, steer_deg, upper) > target {
            upper += step;
        }
        let mut lower = steer_deg;
        while lower > steer_deg - 90.0 && reference_gain_dbi(arr, steer_deg, lower) > target {
            lower -= step;
        }
        upper - lower
    }

    #[test]
    fn steering_vector_is_bit_identical_to_reference() {
        let arrays = [
            UniformLinearArray::paper_array(),
            UniformLinearArray::new(3, 0.5, PatchElement::default(), PhaseShifter::with_bits(2)),
            UniformLinearArray::new(32, 0.5, PatchElement::default(), PhaseShifter::with_bits(4)),
            UniformLinearArray::new(1, 0.5, PatchElement::default(), PhaseShifter::default()),
        ];
        for arr in &arrays {
            for steer in [-61.3, -30.0, 0.0, 17.7, 45.0, 70.0] {
                let sv = arr.steering_vector(steer);
                // Past ±180° too: both sides wrap the bearing themselves.
                let mut theta = -250.0;
                while theta <= 250.0 {
                    let a = sv.array_factor(theta);
                    let b = reference_array_factor(arr, steer, theta);
                    assert_eq!(a.re, b.re, "steer={steer} theta={theta}");
                    assert_eq!(a.im, b.im, "steer={steer} theta={theta}");
                    assert_eq!(
                        sv.gain_dbi(theta),
                        reference_gain_dbi(arr, steer, theta),
                        "steer={steer} theta={theta}"
                    );
                    theta += 3.7;
                }
            }
        }
    }

    #[test]
    fn steered_array_gain_rides_the_cached_vector() {
        let mut sa = SteeredArray::paper_array(90.0);
        sa.steer_to(117.0);
        let mut abs = -180.0;
        while abs <= 180.0 {
            let local = wrap_deg_180(abs - sa.boresight_deg());
            assert_eq!(
                sa.gain_dbi(abs),
                reference_gain_dbi(sa.array(), sa.steer_local_deg(), local),
                "abs={abs}"
            );
            abs += 4.3;
        }
    }

    #[test]
    fn bisected_beamwidth_matches_linear_scan_within_one_step() {
        let arrays = [
            UniformLinearArray::paper_array(),
            UniformLinearArray::new(3, 0.5, PatchElement::default(), PhaseShifter::with_bits(2)),
            UniformLinearArray::new(6, 0.5, PatchElement::default(), PhaseShifter::default()),
            UniformLinearArray::new(20, 0.5, PatchElement::default(), PhaseShifter::default()),
        ];
        for arr in &arrays {
            for steer in [-40.0, 0.0, 25.0] {
                let new = arr.half_power_beamwidth_deg(steer);
                let old = reference_beamwidth_deg(arr, steer);
                // The scan overshoots each flank by at most one 0.05°
                // step; bisection lands on the true crossing.
                assert!(
                    (new - old).abs() <= 0.1 + 1e-9,
                    "n={} steer={steer}: bisected {new} vs scanned {old}",
                    arr.n
                );
            }
        }
    }

    #[test]
    fn steered_array_batch_matches_scalar_queries() {
        // Boresights whose offsets push bearings past ±180°, and empty,
        // short and sweep-sized rows.
        for boresight in [90.0, -70.0, 179.5, -0.0] {
            let mut sa = SteeredArray::paper_array(boresight);
            sa.steer_to(boresight + 27.0);
            for len in [0usize, 1, 2, 3, 4, 97] {
                let bearings: Vec<f64> =
                    (0..len).map(|k| -190.0 + convert::usize_to_f64(k) * 4.1).collect();
                let batch = sa.gain_dbi_batch(&bearings);
                for (&b, g) in bearings.iter().zip(&batch) {
                    assert_eq!(g.to_bits(), sa.gain_dbi(b).to_bits(), "{boresight}: bearing={b}");
                }
            }
        }
    }

    /// Gains toward 361 whole-degree bearings, by their bits.
    fn gain_bits(sa: &SteeredArray) -> Vec<u64> {
        (-180..=180)
            .map(|b| sa.gain_dbi(f64::from(b)).to_bits())
            .collect()
    }

    #[test]
    fn same_pattern_holds_for_the_same_applied_phases() {
        let mut a = SteeredArray::paper_array(90.0);
        a.steer_to(117.0);
        let mut b = SteeredArray::paper_array(90.0);
        b.steer_to(117.0);
        assert!(a.same_pattern(&b), "the same steer");
        // 1.5 mm of tracker noise seen from 3.5 m is about 0.025°. This
        // re-steer, a fifth of that, moves the command but quantises to
        // the same phases (at 117° every phase holds from −0.005° to
        // +0.007°).
        b.steer_to(117.005);
        assert_ne!(a.steer_local_deg().to_bits(), b.steer_local_deg().to_bits());
        assert!(a.same_pattern(&b), "a re-steer onto the same phases");
        assert_eq!(gain_bits(&a), gain_bits(&b));
    }

    #[test]
    fn same_pattern_fails_on_one_ulp_of_boresight_or_one_moved_phase() {
        let mut a = SteeredArray::paper_array(90.0);
        a.steer_to(117.0);
        let mut tilted = SteeredArray::paper_array(f64::from_bits(90.0f64.to_bits() + 1));
        tilted.steer_to(117.0);
        assert!(!a.same_pattern(&tilted), "boresight one ulp off");

        // The smallest re-steer on a 0.001° grid that moves exactly one
        // element's applied phase.
        let moved_one = |b: &SteeredArray| {
            let n = a.vector.n;
            let pairs = a.vector.applied_rad[..n]
                .iter()
                .zip(&b.vector.applied_rad[..n]);
            pairs.filter(|(x, y)| x.to_bits() != y.to_bits()).count() == 1
        };
        let b = (1..1000)
            .map(|k| {
                let mut b = a;
                b.steer_to(117.0 + 0.001 * f64::from(k));
                b
            })
            .find(|b| moved_one(b))
            .expect("some re-steer within 1° moves exactly one phase");
        assert!(!a.same_pattern(&b), "one applied phase moved");
        assert_ne!(gain_bits(&a), gain_bits(&b));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn batch_length_mismatch_rejected() {
        let mut out = [0.0; 3];
        SteeredArray::paper_array(0.0).gain_dbi_batch_into(&[1.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "capped at")]
    fn oversized_array_rejected() {
        UniformLinearArray::new(
            MAX_ELEMENTS + 1,
            0.5,
            PatchElement::default(),
            PhaseShifter::default(),
        );
    }

    #[test]
    fn broadside_peak_gain() {
        let arr = UniformLinearArray::paper_array();
        let peak = arr.peak_gain_dbi(0.0);
        // 10·log10(10) + 5 dBi element = 15 dBi.
        assert!((peak - 15.0).abs() < 0.3, "peak={peak}");
    }

    #[test]
    fn af_is_unity_at_steered_angle_without_quantisation() {
        // A 16-bit shifter is effectively continuous.
        let arr = UniformLinearArray::new(
            8,
            0.5,
            PatchElement::default(),
            PhaseShifter::with_bits(16),
        );
        for steer in [-40.0, 0.0, 25.0] {
            let af = arr.array_factor(steer, steer).abs();
            assert!((af - 1.0).abs() < 1e-3, "steer={steer} af={af}");
        }
    }

    /// Physics oracle: with ideal phases an N-element ULA's normalised
    /// array factor has the closed form |sin(Nψ/2) / (N·sin(ψ/2))|, with
    /// ψ = 2π·d·(sin θ − sin θ₀). Each DAC-quantised phase is off by at
    /// most half a control step, so |AF| may differ from the closed form
    /// by at most that many radians: π/2¹⁶ ≈ 4.8e-5 at 16 bits.
    #[test]
    fn array_factor_matches_the_closed_form_ula_pattern() {
        let shifter = PhaseShifter::with_bits(16);
        let half_step_rad = 0.5 * shifter.step_deg().to_radians();
        for n in 1..=MAX_ELEMENTS {
            let big_n = convert::usize_to_f64(n);
            for spacing in [0.25, 0.5, 0.7, 1.0] {
                let arr = UniformLinearArray::new(n, spacing, PatchElement::default(), shifter);
                for steer in (-4..=4).map(|k| 17.5 * f64::from(k)) {
                    for theta in (-89..=89).map(f64::from) {
                        let psi = 2.0 * PI * spacing
                            * (theta.to_radians().sin() - steer.to_radians().sin());
                        let den = big_n * (psi / 2.0).sin();
                        let closed = if den.abs() < 1e-12 {
                            1.0
                        } else {
                            ((big_n * psi / 2.0).sin() / den).abs()
                        };
                        let af = arr.array_factor(steer, theta).abs();
                        assert!(
                            (af - closed).abs() <= half_step_rad,
                            "n={n} d={spacing} steer={steer} theta={theta}: |AF| {af} vs closed form {closed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn af_bounded_by_one() {
        let arr = UniformLinearArray::paper_array();
        for steer in [-30.0, 0.0, 45.0] {
            let mut t = -90.0;
            while t <= 90.0 {
                assert!(arr.array_factor(steer, t).abs() <= 1.0 + 1e-9);
                t += 1.0;
            }
        }
    }

    #[test]
    fn steering_moves_the_peak() {
        let arr = UniformLinearArray::paper_array();
        for steer in [-30.0, -10.0, 20.0, 40.0] {
            // The gain at the steered angle must be within a dB of the best
            // gain anywhere (beam squint/quantisation allow small offsets).
            let at_steer = arr.gain_dbi(steer, steer);
            let mut best = f64::NEG_INFINITY;
            let mut t = -89.0;
            while t < 90.0 {
                best = best.max(arr.gain_dbi(steer, t));
                t += 0.1;
            }
            assert!(best - at_steer < 1.0, "steer={steer}");
        }
    }

    #[test]
    fn sidelobes_are_down() {
        let arr = UniformLinearArray::paper_array();
        let peak = arr.gain_dbi(0.0, 0.0);
        // First ULA sidelobe is ≈13 dB down; far angles much more.
        assert!(peak - arr.gain_dbi(0.0, 30.0) > 10.0);
        assert!(peak - arr.gain_dbi(0.0, 60.0) > 10.0);
    }

    #[test]
    fn back_hemisphere_floored() {
        let arr = UniformLinearArray::paper_array();
        let g = arr.gain_dbi(0.0, 150.0);
        assert_eq!(g, PatchElement::default().back_lobe_dbi);
    }

    #[test]
    fn beamwidth_shrinks_with_elements() {
        let small = UniformLinearArray::new(
            6,
            0.5,
            PatchElement::default(),
            PhaseShifter::default(),
        );
        let large = UniformLinearArray::new(
            20,
            0.5,
            PatchElement::default(),
            PhaseShifter::default(),
        );
        assert!(large.half_power_beamwidth_deg(0.0) < small.half_power_beamwidth_deg(0.0));
    }

    #[test]
    fn steered_array_absolute_bearings() {
        let mut sa = SteeredArray::paper_array(90.0);
        assert_eq!(sa.steering_deg(), 90.0);
        let applied = sa.steer_to(110.0);
        assert!((applied - 110.0).abs() < 1e-9);
        // Peak gain toward the steered absolute bearing.
        let g_at = sa.gain_dbi(110.0);
        let g_off = sa.gain_dbi(60.0);
        assert!(g_at > g_off + 10.0);
    }

    #[test]
    fn steer_clamps_to_scan_range() {
        let mut sa = SteeredArray::paper_array(90.0);
        let applied = sa.steer_to(200.0);
        assert!((applied - 160.0).abs() < 1e-9, "applied={applied}");
        assert!(sa.can_steer_to(45.0));
        assert!(!sa.can_steer_to(170.1));
        assert!(!sa.can_steer_to(-90.0));
    }

    #[test]
    fn quantisation_costs_little_gain() {
        let coarse = UniformLinearArray::new(
            10,
            0.5,
            PatchElement::default(),
            PhaseShifter::with_bits(4),
        );
        let fine = UniformLinearArray::new(
            10,
            0.5,
            PatchElement::default(),
            PhaseShifter::with_bits(16),
        );
        // 4-bit control loses well under 1 dB at a steered angle.
        let loss = fine.peak_gain_dbi(33.0) - coarse.peak_gain_dbi(33.0);
        assert!(loss < 1.0, "loss={loss}");
        assert!(loss > -0.5);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_array_rejected() {
        UniformLinearArray::new(0, 0.5, PatchElement::default(), PhaseShifter::default());
    }

    #[test]
    fn steering_latency_is_sub_microsecond() {
        const { assert!(STEERING_LATENCY_S < 1e-6) };
    }
}
