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
//!
//! The array holds what its build fixes: the element count, spacing,
//! element and shifter, the slopes `i·k·d` and `10·log10(N)`. A steer
//! command adds only the DAC-quantised phases. Every gain query takes the
//! bearing's steering-free terms, then folds the array factor over the
//! slopes and one command's phases.
//!
//! A sweep that only needs to know which cells cannot win reads a closed
//! form instead of the fold ([`crate::PatternTable::amplitude_bounds`]).
//! Each quantised phase is the ideal one plus an error of at most half a
//! DAC step Δ, so by the triangle inequality
//!
//! ```text
//! |AF(θ)| ≤ min(1, |sin(Nψ/2)| / (N·|sin(ψ/2)|) + Δ/2),   ψ = k·d·(sin θ − sin θ₀)
//! ```

use crate::element::PatchElement;
use crate::shifter::PhaseShifter;
use movr_math::{amplitude_to_db, convert, db_to_amplitude, linear_to_db, wrap_deg_180, C64};
use std::f64::consts::PI;

/// Electronic beam-steering settle time, seconds. The paper (§6) notes the
/// analog phase shifters driven by a high-speed DAC reconfigure in
/// sub-microsecond time frames.
pub const STEERING_LATENCY_S: f64 = 0.5e-6;

/// Hard cap on array size so an array's slopes and a command's phases fit
/// in fixed (`Copy`) storage. The paper's prototype uses 10 elements; 32
/// leaves ample room for ablations.
pub const MAX_ELEMENTS: usize = 32;

/// Maximum electronic scan off broadside, degrees. Analog phase shifters
/// can command wide scans; the element pattern's cosine rolloff (≈ −9 dB
/// at 70°) is the real limit, and it is modelled, so the hard clamp sits
/// out at the edge of usefulness rather than artificially tight.
const MAX_STEER_DEG: f64 = 70.0;

/// One steer command's DAC-quantised per-element phases, radians.
type Phases = [f64; MAX_ELEMENTS];

/// The steering-free part of one gain query: what a query computes from
/// the bearing alone ([`UniformLinearArray::terms`]). Every steer command
/// of one mounted array shares these terms, so a page computes them once
/// per bearing and folds them against each entry's phases
/// ([`UniformLinearArray::fold`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BearingTerms {
    /// In front of the ground plane, the directivity plus the element
    /// gain; behind it, the element's back lobe, which is the whole gain.
    base_db: f64,
    /// `sin θ` of the wrapped local bearing, or `None` behind the ground
    /// plane, where the array factor is not summed.
    sin_t: Option<f64>,
}

/// One side of the half phase ψ/2 = k·d·(sin θ − sin θ₀)/2 of an
/// amplitude bound: the side's term `k·d·sin x / 2` with the sine and
/// cosine of it and of N times it, so that a cell's sines of ψ/2 and
/// Nψ/2 are angle differences of two sides' values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfPhase {
    half: f64,
    one: (f64, f64),
    n: (f64, f64),
}

/// What an amplitude bound reads of one bearing
/// ([`UniformLinearArray::bearing_bound`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BearingBound {
    /// `10^(base/20)`: the whole amplitude behind the ground plane, and in
    /// front of it the amplitude the array factor scales.
    amplitude: f64,
    /// The bearing's side of ψ/2, or `None` behind the ground plane.
    half: Option<HalfPhase>,
}

/// Where `|sin(ψ/2)|` is at most this share of `1 + |k·d·sin θ/2| +
/// |k·d·sin θ₀/2|`, the array-factor bound is taken as 1. That covers
/// `sin(ψ/2) = 0`, and it keeps the ratio's rounding under about
/// `9·1024·ε` elsewhere (DESIGN.md, "§4.1 sweeps skip the probes that
/// cannot win"). Near a main or grating lobe, where it applies, the
/// ratio is close to 1 anyway.
const NEAR_LOBE: f64 = 1.0 / 1024.0;

/// Added to the array-factor bound for rounding: the ratio's (about
/// 2e-12), the phases' and slopes' (about 1e-13) and the fold's own.
const BOUND_ROUNDING: f64 = 1e-9;

/// An N-element uniform linear array of patch elements.
#[derive(Debug, Clone, Copy)]
pub struct UniformLinearArray {
    n: usize,
    spacing_wavelengths: f64,
    element: PatchElement,
    shifter: PhaseShifter,
    /// Per-element observation phase slope `i·k·d` (radians per sin θ).
    slope: [f64; MAX_ELEMENTS],
    /// `10·log10(n)`, the aperture directivity term.
    directivity_db: f64,
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
        let kd = 2.0 * PI * spacing_wavelengths;
        let mut slope = [0.0; MAX_ELEMENTS];
        for (i, sl) in slope.iter_mut().enumerate().take(n) {
            *sl = convert::usize_to_f64(i) * kd;
        }
        UniformLinearArray {
            n,
            spacing_wavelengths,
            element,
            shifter,
            slope,
            directivity_db: linear_to_db(convert::usize_to_f64(n)),
        }
    }

    /// The paper's array: 10 patch elements at λ/2 with 8-bit phase
    /// control — ~15 dBi peak, ~10° half-power beamwidth.
    #[inline]
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

    /// The DAC-quantised per-element phases of the command `steer_deg`
    /// off broadside. They depend only on the command, not on the
    /// observation angle, so a steered array computes them once per
    /// command and every query reuses them.
    #[inline]
    fn phases(&self, steer_deg: f64) -> Phases {
        let kd = 2.0 * PI * self.spacing_wavelengths;
        let sin_s = steer_deg.to_radians().sin();
        let mut phases = [0.0; MAX_ELEMENTS];
        for (i, ph) in phases.iter_mut().enumerate().take(self.n) {
            // Commanded per-element phase, quantised by the control DAC.
            let ideal_deg = (-convert::usize_to_f64(i) * kd * sin_s).to_degrees();
            *ph = self.shifter.apply(ideal_deg).to_radians();
        }
        phases
    }

    /// The steering-free terms toward `theta` off broadside, already
    /// wrapped into (−180°, 180°]. They read the element, the directivity
    /// and nothing of the steer command.
    #[inline]
    pub(crate) fn terms(&self, theta: f64) -> BearingTerms {
        let element_db = self.element.gain_at(theta);
        if theta.abs() >= 90.0 {
            // Behind the ground plane: element back lobe only.
            return BearingTerms {
                base_db: element_db,
                sin_t: None,
            };
        }
        BearingTerms {
            base_db: self.directivity_db + element_db,
            sin_t: Some(theta.to_radians().sin()),
        }
    }

    /// The gain toward a bearing from its terms under `phases`: the base
    /// alone behind the ground plane, else the base plus the array factor
    /// in dB.
    #[inline]
    pub(crate) fn fold(&self, phases: &Phases, terms: &BearingTerms) -> f64 {
        match terms.sin_t {
            None => terms.base_db,
            Some(sin_t) => {
                terms.base_db + amplitude_to_db(self.array_factor_at(phases, sin_t).abs())
            }
        }
    }

    /// The array factor under `phases` toward the bearing whose sine is
    /// `sin_t`.
    #[inline]
    fn array_factor_at(&self, phases: &Phases, sin_t: f64) -> C64 {
        let mut sum = C64::ZERO;
        for (slope, applied) in self.slope[..self.n].iter().zip(&phases[..self.n]) {
            sum += C64::exp_j(slope * sin_t + applied);
        }
        sum / convert::usize_to_f64(self.n)
    }

    /// The side of ψ/2 toward the sine `sin_x`.
    #[inline]
    fn half_phase(&self, sin_x: f64) -> HalfPhase {
        let half = PI * self.spacing_wavelengths * sin_x;
        HalfPhase {
            half,
            one: half.sin_cos(),
            n: (convert::usize_to_f64(self.n) * half).sin_cos(),
        }
    }

    /// The side of ψ/2 of the (clamped) command `steer_deg` off
    /// broadside.
    pub(crate) fn steer_half_phase(&self, steer_deg: f64) -> HalfPhase {
        self.half_phase(steer_deg.to_radians().sin())
    }

    /// What [`UniformLinearArray::amplitude_bound`] reads of a bearing,
    /// from its terms: one `powf` per bearing.
    pub(crate) fn bearing_bound(&self, terms: &BearingTerms) -> BearingBound {
        BearingBound {
            amplitude: db_to_amplitude(terms.base_db),
            half: terms.sin_t.map(|sin_t| self.half_phase(sin_t)),
        }
    }

    /// An upper bound on the field amplitude `10^(g/20)` of the gain
    /// [`UniformLinearArray::fold`] gives toward `bearing` under the
    /// command whose side of ψ/2 is `steer`. Behind the ground plane it is
    /// the exact amplitude. In front of it, it is `10^(base/20)` times
    /// `min(1, |sin(Nψ/2)| / (N·|sin(ψ/2)|) + Δ/2)` plus
    /// [`BOUND_ROUNDING`], for the DAC step Δ in radians (module docs).
    /// No sine is taken per cell: ψ/2's sines are angle differences.
    #[inline]
    pub(crate) fn amplitude_bound(&self, steer: &HalfPhase, bearing: &BearingBound) -> f64 {
        let Some(side) = &bearing.half else {
            return bearing.amplitude;
        };
        let sin_half = side.one.0 * steer.one.1 - side.one.1 * steer.one.0;
        let sin_n_half = side.n.0 * steer.n.1 - side.n.1 * steer.n.0;
        let af = if sin_half.abs() <= (1.0 + side.half.abs() + steer.half.abs()) * NEAR_LOBE {
            1.0
        } else {
            let dirichlet = (sin_n_half / (convert::usize_to_f64(self.n) * sin_half)).abs();
            let half_step = 0.5 * self.shifter.step_deg().to_radians();
            (dirichlet + half_step).min(1.0)
        };
        bearing.amplitude * (af + BOUND_ROUNDING)
    }

    /// Normalised complex array factor at `theta_deg` off broadside when
    /// steered to `steer_deg` off broadside. |AF| ≤ 1, = 1 at the steered
    /// angle with ideal (unquantised) phases.
    pub fn array_factor(&self, steer_deg: f64, theta_deg: f64) -> C64 {
        self.array_factor_at(&self.phases(steer_deg), theta_deg.to_radians().sin())
    }

    /// Total array gain (dBi) toward `theta_deg` off broadside when
    /// steered to `steer_deg` off broadside.
    pub fn gain_dbi(&self, steer_deg: f64, theta_deg: f64) -> f64 {
        self.fold(
            &self.phases(steer_deg),
            &self.terms(wrap_deg_180(theta_deg)),
        )
    }

    /// Peak gain (dBi) when steered to `steer_deg`: the gain toward the
    /// steered direction itself.
    pub fn peak_gain_dbi(&self, steer_deg: f64) -> f64 {
        self.gain_dbi(steer_deg, steer_deg)
    }

    /// Measures the half-power (−3 dB) beamwidth around a steering angle
    /// by bisecting the −3 dB crossing on each flank of the main lobe
    /// (monotone off-peak), computing the command's phases once for
    /// every probe.
    pub fn half_power_beamwidth_deg(&self, steer_deg: f64) -> f64 {
        let phases = self.phases(steer_deg);
        let gain = |theta: f64| self.fold(&phases, &self.terms(wrap_deg_180(theta)));
        let target = gain(steer_deg) - 3.0;
        let upper = hpbw_flank_offset(&gain, steer_deg, target, 1.0);
        let lower = hpbw_flank_offset(&gain, steer_deg, target, -1.0);
        upper + lower
    }
}

/// Offset (degrees, ≥ 0) from the steer angle to the −3 dB crossing on
/// one flank (`dir` = ±1). A coarse 0.5° march brackets the first
/// crossing (the narrowest lobe of a [`MAX_ELEMENTS`]-element array is
/// several degrees wide), then bisection refines it well below the old
/// 0.05° scan resolution.
fn hpbw_flank_offset(gain: &impl Fn(f64) -> f64, steer_deg: f64, target_db: f64, dir: f64) -> f64 {
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
        if gain(steer_deg + dir * next) <= target_db {
            let (mut lo, mut hi) = (off, next);
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if gain(steer_deg + dir * mid) > target_db {
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
/// to the physical scan range (±70° off broadside) — a patch array cannot
/// look behind its own ground plane.
#[derive(Debug, Clone, Copy)]
pub struct SteeredArray {
    array: UniformLinearArray,
    boresight_deg: f64,
    steer_local_deg: f64,
    /// The current command's phases, so repeated gain queries (every path
    /// of every link evaluation) skip the DAC re-quantisation. Recomputed
    /// whenever the clamped command changes.
    phases: Phases,
}

impl SteeredArray {
    /// Mounts `array` with broadside facing `boresight_deg`.
    // `#[inline]` here and down the chain through
    // `UniformLinearArray::phases` to `PhaseShifter::apply` lets the
    // optimiser fold a mount's broadside phases to a constant. Computed at
    // run time, they make a mount about 15x as costly (microbench row
    // `array_mount_300`).
    #[inline]
    pub fn new(array: UniformLinearArray, boresight_deg: f64) -> Self {
        SteeredArray {
            array,
            boresight_deg,
            steer_local_deg: 0.0,
            phases: array.phases(0.0),
        }
    }

    /// The paper's array mounted facing `boresight_deg`.
    #[inline]
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
    /// A clamped command equal to the held one bit for bit keeps the held
    /// phases, which are a function of the command alone.
    pub fn steer_to(&mut self, absolute_deg: f64) -> f64 {
        let local =
            wrap_deg_180(absolute_deg - self.boresight_deg).clamp(-MAX_STEER_DEG, MAX_STEER_DEG);
        if local.to_bits() != self.steer_local_deg.to_bits() {
            self.steer_local_deg = local;
            self.phases = self.array.phases(local);
        }
        self.steering_deg()
    }

    /// True if `absolute_deg` lies within the electronic scan range.
    pub fn can_steer_to(&self, absolute_deg: f64) -> bool {
        wrap_deg_180(absolute_deg - self.boresight_deg).abs() <= MAX_STEER_DEG
    }

    /// True when `self` and `other` give the same [`SteeredArray::gain_dbi`]
    /// toward every bearing, because everything it reads is equal bit for
    /// bit (`f64::to_bits`, so −0.0 and +0.0 differ): the boresight, the
    /// element count, each element's phase slope and DAC-quantised
    /// applied phase, the directivity and the element parameters. Two
    /// steer commands that quantise to the same phases compare equal;
    /// the commanded angle itself is not read, nor is the spacing beyond
    /// the slopes it gives.
    pub fn same_pattern(&self, other: &SteeredArray) -> bool {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let (a, b) = (&self.array, &other.array);
        let n = a.n;
        self.boresight_deg.to_bits() == other.boresight_deg.to_bits()
            && n == b.n
            && same(&a.slope[..n], &b.slope[..n])
            && same(&self.phases[..n], &other.phases[..n])
            && a.directivity_db.to_bits() == b.directivity_db.to_bits()
            && a.element.same_bits(&b.element)
    }

    /// Gain (dBi) toward an absolute room bearing under the current
    /// steering: the bearing's terms, then the fold over the held phases
    /// — bit-identical to `array().gain_dbi(steer_local_deg(), local)`.
    pub fn gain_dbi(&self, absolute_deg: f64) -> f64 {
        self.fold(&self.terms(absolute_deg))
    }

    /// The steering-free terms toward an absolute room bearing, shared by
    /// every steer command of this mounted array.
    #[inline]
    pub(crate) fn terms(&self, absolute_deg: f64) -> BearingTerms {
        self.array
            .terms(wrap_deg_180(absolute_deg - self.boresight_deg))
    }

    /// The gain toward a bearing from its [`SteeredArray::terms`] under
    /// the current steering.
    #[inline]
    pub(crate) fn fold(&self, terms: &BearingTerms) -> f64 {
        self.array.fold(&self.phases, terms)
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
    /// slope-table and cached-phase fast path must reproduce bit-for-bit.
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
    fn array_queries_are_bit_identical_to_reference() {
        let arrays = [
            UniformLinearArray::paper_array(),
            UniformLinearArray::new(3, 0.5, PatchElement::default(), PhaseShifter::with_bits(2)),
            UniformLinearArray::new(32, 0.5, PatchElement::default(), PhaseShifter::with_bits(4)),
            UniformLinearArray::new(1, 0.5, PatchElement::default(), PhaseShifter::default()),
        ];
        for arr in &arrays {
            for steer in [-61.3, -30.0, 0.0, 17.7, 45.0, 70.0] {
                // Past ±180° too: both sides wrap the bearing themselves.
                let mut theta = -250.0;
                while theta <= 250.0 {
                    let a = arr.array_factor(steer, theta);
                    let b = reference_array_factor(arr, steer, theta);
                    assert_eq!(a.re, b.re, "steer={steer} theta={theta}");
                    assert_eq!(a.im, b.im, "steer={steer} theta={theta}");
                    assert_eq!(
                        arr.gain_dbi(steer, theta),
                        reference_gain_dbi(arr, steer, theta),
                        "steer={steer} theta={theta}"
                    );
                    theta += 3.7;
                }
                // The beamwidth bisects the same kernel's gains as a
                // broadside mount holding the command.
                let mut mount = SteeredArray::new(*arr, 0.0);
                mount.steer_to(steer);
                let gain = |theta: f64| mount.gain_dbi(theta);
                let target = gain(steer) - 3.0;
                let width = hpbw_flank_offset(&gain, steer, target, 1.0)
                    + hpbw_flank_offset(&gain, steer, target, -1.0);
                let bisected = arr.half_power_beamwidth_deg(steer);
                assert_eq!(bisected.to_bits(), width.to_bits(), "steer={steer}");
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
        // The spacing reaches the pattern only through the slopes, and a
        // 1-element array's one slope is 0 at every spacing.
        let single = |spacing| {
            let element = PatchElement::default();
            let array = UniformLinearArray::new(1, spacing, element, PhaseShifter::default());
            let mut s = SteeredArray::new(array, 90.0);
            s.steer_to(117.0);
            s
        };
        let (narrow, wide) = (single(0.5), single(0.8));
        assert!(narrow.same_pattern(&wide), "one element at two spacings");
        assert_eq!(gain_bits(&narrow), gain_bits(&wide));
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
            let n = a.array.n;
            let pairs = a.phases[..n].iter().zip(&b.phases[..n]);
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
    fn a_repeated_command_keeps_the_phases_a_fresh_mount_computes() {
        // Each command in turn on one array, which keeps its phases when
        // the clamped command repeats bit for bit, against a fresh mount
        // steered once. The boresight is 0°, so each command is its own
        // local command. The phases of +0.0 are all −0.0 and those of
        // −0.0 all +0.0, so a command compared by value rather than by
        // bits keeps the wrong ones.
        let one_ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        let commands = [
            27.0,
            27.0,
            one_ulp(27.0),
            one_ulp(27.0),
            27.0,
            0.0,
            -0.0,
            -0.0,
            0.0,
            0.0,
        ];
        let bits = |sa: &SteeredArray| {
            let phases = sa.phases[..sa.array.n].iter().map(|p| p.to_bits());
            (
                sa.steer_local_deg.to_bits(),
                phases.collect::<Vec<_>>(),
                gain_bits(sa),
            )
        };
        let mut live = SteeredArray::paper_array(0.0);
        for (k, &command) in commands.iter().enumerate() {
            live.steer_to(command);
            let mut fresh = SteeredArray::paper_array(0.0);
            fresh.steer_to(command);
            assert_eq!(bits(&live), bits(&fresh), "command {k}: {command:?}");
        }
        let zero = |command: f64| {
            let mut sa = SteeredArray::paper_array(0.0);
            sa.steer_to(command);
            sa.phases
        };
        let n = live.array.n;
        assert!(zero(0.0)[..n]
            .iter()
            .all(|p| p.to_bits() == (-0.0f64).to_bits()));
        assert!(zero(-0.0)[..n]
            .iter()
            .all(|p| p.to_bits() == 0.0f64.to_bits()));
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
