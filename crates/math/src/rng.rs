//! Deterministic randomness for reproducible experiments.
//!
//! Every stochastic element of the simulator (fading ripple, measurement
//! noise, random headset placements) draws from a [`SimRng`] seeded
//! explicitly, so a figure regenerated twice prints identical rows. Derived
//! streams (`fork`) let independent subsystems consume randomness without
//! perturbing each other's sequences when call orders change.
//!
//! The generator is implemented in-tree (no external crates) so the whole
//! workspace builds and tests offline, and so the bit-exact sequence is
//! owned by this repository rather than by a dependency's minor version:
//!
//! * **Core generator:** xoshiro256\*\* (Blackman & Vigna, 2018), a
//!   public-domain 256-bit-state generator with period 2^256 − 1 that
//!   passes BigCrush. `next_u64` is the reference algorithm verbatim.
//! * **Seeding:** the four 64-bit state words are filled from successive
//!   outputs of a SplitMix64 stream started at the user seed, the
//!   expansion recommended by the xoshiro authors. Every `u64` seed —
//!   including 0 — yields a well-mixed, non-degenerate state.
//! * **Forking:** `fork(label)` consumes one draw from the parent and
//!   mixes it with the label through a SplitMix64 finalizer, producing a
//!   child seed that is a pure function of (parent position, label).

/// SplitMix64 step: advances `state` and returns the next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 finalizer: a stateless 64-bit mixing function.
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable, forkable random stream (xoshiro256\*\* core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        // The all-zero state is the one fixed point of xoshiro; SplitMix64
        // expansion cannot realistically produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15; // lint: index 0 of a [u64; 4] literal — cannot be out of bounds
        }
        SimRng { s }
    }

    /// The raw xoshiro256\*\* state words, for checkpointing. Feeding the
    /// returned array to [`SimRng::from_state`] reproduces a stream that
    /// continues the exact draw sequence from this point.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a stream from state words captured by [`SimRng::state`].
    ///
    /// The all-zero state is the one fixed point of xoshiro (it only
    /// produces zeros); it is unreachable from any seeded stream, so
    /// encountering it means the words were corrupted — it is remapped to
    /// the same guard state `seed_from_u64` uses rather than propagating a
    /// degenerate generator.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            SimRng {
                s: [0x9E37_79B9_7F4A_7C15, 0, 0, 0],
            }
        } else {
            SimRng { s }
        }
    }

    /// Next raw 64-bit draw (xoshiro256\*\* reference algorithm).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Next raw 32-bit draw (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derives an independent child stream. The child is a pure function of
    /// (parent seed position, `label`), so two forks with different labels
    /// never correlate and adding a new fork does not shift existing ones
    /// if callers fork up-front.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        let z = mix64(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SimRng::seed_from_u64(z)
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        if hi == lo {
            return lo;
        }
        let v = lo + (hi - lo) * self.unit_f64();
        // Floating rounding can land exactly on `hi` when the span is
        // enormous; fold that measure-zero edge back to `lo`.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive, bias-free via rejection.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(hi >= lo);
        let span = (hi - lo) as u64;
        if span == u64::MAX {
            return self.next_u64() as usize;
        }
        let span = span + 1;
        // Reject draws from the incomplete top interval so every value in
        // [0, span) is equally likely.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let r = self.next_u64();
            if r < zone {
                return lo + (r % span) as usize;
            }
        }
    }

    /// No [`SimRng::std_normal`] draw exceeds this in magnitude. Its u1 is
    /// at least 2⁻⁵³, so √(−2 ln u1) ≤ √(106 ln 2) ≈ 8.571674, and
    /// |cos| ≤ 1; rounding up to 8.5717 also covers the rounding in `ln`,
    /// `sqrt`, `cos` and any later multiplication by a standard deviation.
    pub const STD_NORMAL_MAX: f64 = 8.5717;

    /// Standard normal sample via Box–Muller. Two `next_u64` draws; the
    /// result never exceeds [`SimRng::STD_NORMAL_MAX`] in magnitude.
    pub fn std_normal(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - self.unit_f64();
        let u2: f64 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Advances the stream past one [`SimRng::std_normal`] draw without
    /// computing it: the same two `next_u64` draws, no `ln`, `sqrt` or
    /// `cos`.
    #[inline]
    pub fn skip_std_normal(&mut self) {
        self.next_u64();
        self.next_u64();
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit_f64() < p
    }

    /// Random phase in `[0, 2π)` radians.
    pub fn phase(&mut self) -> f64 {
        self.uniform(0.0, 2.0 * std::f64::consts::PI)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn golden_first_eight_draws_of_seed_42() {
        // Pins the exact output sequence: any change to the generator,
        // the seeding expansion, or the state layout trips this test.
        let mut r = SimRng::seed_from_u64(42);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let golden: [u64; 8] = [
            1546998764402558742,
            6990951692964543102,
            12544586762248559009,
            17057574109182124193,
            18295552978065317476,
            14199186830065750584,
            13267978908934200754,
            15679888225317814407,
        ];
        assert_eq!(draws, golden);
        // Cross-check the literals against an independent in-test
        // reimplementation so they are not self-referential.
        assert_eq!(draws, expected_seed42_prefix());
    }

    /// Recomputes the first 8 draws of seed 42 from first principles
    /// (independent SplitMix64 + xoshiro256** implementations), so the
    /// golden values above are cross-checked rather than self-referential.
    fn expected_seed42_prefix() -> Vec<u64> {
        let mut sm = 42u64;
        let mut s = [0u64; 4];
        for w in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        (0..8)
            .map(|_| {
                let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
                let t = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= t;
                s[3] = s[3].rotate_left(45);
                out
            })
            .collect()
    }

    #[test]
    fn state_round_trip_resumes_mid_stream() {
        // Checkpoint contract: capture `state()` anywhere in a stream and
        // `from_state` continues with bit-identical draws.
        let mut r = SimRng::seed_from_u64(42);
        for _ in 0..17 {
            r.next_u64();
        }
        let saved = r.state();
        let tail: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        let mut resumed = SimRng::from_state(saved);
        let resumed_tail: Vec<u64> = (0..64).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
        // Restoring is lossless: the captured words come back verbatim.
        assert_eq!(SimRng::from_state(saved).state(), saved);
        // And both streams now sit at the same point.
        assert_eq!(r.state(), resumed.state());
    }

    #[test]
    fn forked_stream_state_round_trips() {
        // Forks are ordinary streams: their state captures and restores
        // independently of the parent, and restoring a fork must not
        // disturb what the parent draws next.
        let mut parent = SimRng::seed_from_u64(7);
        let mut fork = parent.fork(3);
        fork.next_u64();
        let fork_state = fork.state();
        let parent_state = parent.state();

        let fork_tail: Vec<u64> = (0..32).map(|_| fork.next_u64()).collect();
        let parent_tail: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();

        let mut fork2 = SimRng::from_state(fork_state);
        let mut parent2 = SimRng::from_state(parent_state);
        assert_eq!(fork_tail, (0..32).map(|_| fork2.next_u64()).collect::<Vec<_>>());
        assert_eq!(
            parent_tail,
            (0..32).map(|_| parent2.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_zero_state_is_remapped_not_propagated() {
        // [0,0,0,0] is xoshiro's fixed point; from_state must substitute
        // the same guard state seeding uses instead of a stuck stream.
        let mut r = SimRng::from_state([0, 0, 0, 0]);
        let a = r.next_u64();
        let b = r.next_u64();
        assert!(a != 0 || b != 0, "all-zero state produced a stuck stream");
        assert_ne!(r.state(), [0, 0, 0, 0]);
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut f1a = parent1.fork(1);
        let mut f1b = parent2.fork(1);
        assert_eq!(f1a.next_u64(), f1b.next_u64());

        let mut parent3 = SimRng::seed_from_u64(7);
        let mut parent4 = SimRng::seed_from_u64(7);
        let mut fa = parent3.fork(1);
        let mut fb = parent4.fork(2);
        assert_ne!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn fork_streams_uncorrelated() {
        // Pearson correlation between sibling fork streams stays near 0.
        let mut parent = SimRng::seed_from_u64(99);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let n = 10_000;
        let xs: Vec<f64> = (0..n).map(|_| a.unit_f64()).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.unit_f64()).collect();
        let mx = xs.iter().sum::<f64>() / n as f64;
        let my = ys.iter().sum::<f64>() / n as f64;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n as f64;
        let vx = xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>() / n as f64;
        let vy = ys.iter().map(|y| (y - my).powi(2)).sum::<f64>() / n as f64;
        let corr = cov / (vx * vy).sqrt();
        assert!(corr.abs() < 0.03, "corr={corr}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v));
        }
        assert_eq!(r.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn uniform_mean_and_variance() {
        // A uniform on [0,1) has mean 1/2 and variance 1/12.
        let mut r = SimRng::seed_from_u64(23);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.unit_f64()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.003, "var={var}");
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        // Third central moment (skew) of a normal is 0.
        let skew: f64 = samples.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
        assert!(skew.abs() < 0.05, "skew={skew}");
    }

    #[test]
    fn std_normal_max_bounds_the_largest_box_muller_radius() {
        // The smallest u1 `std_normal` can draw is 1 − (1 − 2⁻⁵³) = 2⁻⁵³.
        let u1_min = 1.0 - (u64::MAX >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        assert_eq!(u1_min, 2f64.powi(-53));
        assert!(SimRng::STD_NORMAL_MAX >= (-2.0 * 2f64.powi(-53).ln()).sqrt());
        let mut r = SimRng::seed_from_u64(5);
        assert!((0..10_000).all(|_| r.std_normal().abs() <= SimRng::STD_NORMAL_MAX));
    }

    #[test]
    fn skip_std_normal_leaves_the_state_std_normal_leaves() {
        let mut drawn = SimRng::seed_from_u64(31);
        let mut skipped = drawn.clone();
        for _ in 0..100 {
            drawn.std_normal();
            skipped.skip_std_normal();
            assert_eq!(drawn.state(), skipped.state());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(13);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        // Out-of-range p is clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn phase_in_range() {
        let mut r = SimRng::seed_from_u64(17);
        for _ in 0..100 {
            let p = r.phase();
            assert!((0.0..2.0 * std::f64::consts::PI).contains(&p));
        }
    }

    #[test]
    fn uniform_usize_inclusive() {
        let mut r = SimRng::seed_from_u64(19);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..200 {
            let v = r.uniform_usize(0, 3);
            assert!(v <= 3);
            seen_lo |= v == 0;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn state_round_trip_continues_sequence() {
        let mut r = SimRng::seed_from_u64(42);
        for _ in 0..57 {
            r.next_u64();
        }
        let saved = r.state();
        let expected: Vec<u64> = (0..100).map(|_| r.next_u64()).collect();
        let mut restored = SimRng::from_state(saved);
        let got: Vec<u64> = (0..100).map(|_| restored.next_u64()).collect();
        assert_eq!(got, expected, "restored stream must continue bit-exactly");
        assert_eq!(restored, r, "states converge after identical draws");
    }

    #[test]
    fn state_round_trip_of_forked_stream() {
        // A fork captured mid-flight must also resume bit-exactly, and
        // restoring the parent must not disturb the child (and vice versa).
        let mut parent = SimRng::seed_from_u64(7);
        parent.next_u64();
        let mut child = parent.fork(0xBEEF);
        child.next_u64();
        child.next_u64();

        let parent_state = parent.state();
        let child_state = child.state();

        let parent_expected: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        let child_expected: Vec<u64> = (0..32).map(|_| child.next_u64()).collect();

        let mut parent_r = SimRng::from_state(parent_state);
        let mut child_r = SimRng::from_state(child_state);
        // Interleave the restored draws to show the streams are independent.
        let mut parent_got = Vec::new();
        let mut child_got = Vec::new();
        for _ in 0..32 {
            parent_got.push(parent_r.next_u64());
            child_got.push(child_r.next_u64());
        }
        assert_eq!(parent_got, parent_expected);
        assert_eq!(child_got, child_expected);
    }

    #[test]
    fn restored_stream_forks_identically() {
        // fork() is part of the stream contract: a restored stream must
        // produce the same children the original would have.
        let mut a = SimRng::seed_from_u64(99);
        a.next_u64();
        let mut b = SimRng::from_state(a.state());
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        assert_eq!(fa.next_u64(), fb.next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn all_zero_state_is_remapped_not_degenerate() {
        let mut r = SimRng::from_state([0, 0, 0, 0]);
        // The xoshiro fixed point would emit only zeros forever.
        assert!((0..8).any(|_| r.next_u64() != 0));
    }
}
