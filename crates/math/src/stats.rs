//! Summary statistics and empirical CDFs.
//!
//! The paper reports means ("the SNR drops by 16 dB on average"), extremes
//! ("as much as 27 dB") and CDFs (Fig. 9). [`Summary`] and [`Cdf`] produce
//! exactly those views from raw per-run samples.

/// One-pass summary of a sample set: count, mean, variance, extremes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation (Welford's online update).
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another summary into this one (Chan et al.'s parallel
    /// combine of Welford state): the result is exactly the summary of
    /// the concatenated sample sets.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw Welford accumulator `(count, mean, m2, min, max)`, for
    /// checkpointing. `m2` is the running sum of squared deviations that
    /// backs [`Summary::variance`]; exposing it (rather than the derived
    /// variance) lets [`Summary::from_welford_state`] rebuild a summary
    /// whose future updates are bit-identical to the original's.
    pub fn welford_state(&self) -> (usize, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds a summary from a [`Summary::welford_state`] tuple. The
    /// fields are restored verbatim — including the empty-summary
    /// sentinels `min = +inf` / `max = -inf` — so capture → restore is the
    /// identity on the accumulator state.
    pub fn from_welford_state(state: (usize, f64, f64, f64, f64)) -> Self {
        let (count, mean, m2, min, max) = state;
        Summary {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// An empirical cumulative distribution function over f64 samples.
///
/// Construction sorts the samples; queries are then O(log n). NaN samples
/// are rejected at construction (they have no place in an ordering).
///
/// ```
/// use movr_math::Cdf;
///
/// // SNR improvements from four runs, as Fig. 9 would plot them.
/// let cdf = Cdf::new(vec![-17.0, 2.5, -1.0, 4.0]);
/// assert_eq!(cdf.fraction_leq(0.0), 0.5);
/// assert_eq!(cdf.min(), -17.0);
/// assert!((cdf.median() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds an empirical CDF from samples.
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`, in `[0, 1]`. Returns 0 for an empty CDF.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank interpolation.
    ///
    /// # Panics
    /// Panics on an empty CDF or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty CDF") // lint: precondition — callers build the CDF from at least one sample
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty CDF") // lint: precondition — callers build the CDF from at least one sample
    }

    /// Iterates the CDF as `(value, cumulative_fraction)` points — one per
    /// sample, suitable for printing a figure series.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_and_single() {
        let e = Summary::new();
        assert_eq!(e.count(), 0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.variance(), 0.0);
        let mut s = Summary::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn summary_matches_two_pass() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let s = Summary::from_slice(&vals);
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        let var: f64 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_matches_concatenation() {
        let a_vals: Vec<f64> = (0..40).map(|i| (i as f64 * 0.91).cos() * 3.0).collect();
        let b_vals: Vec<f64> = (0..25).map(|i| (i as f64 * 0.37).sin() * 10.0 + 1.0).collect();
        let mut merged = Summary::from_slice(&a_vals);
        merged.merge(&Summary::from_slice(&b_vals));
        let all: Vec<f64> = a_vals.iter().chain(&b_vals).copied().collect();
        let direct = Summary::from_slice(&all);
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean() - direct.mean()).abs() < 1e-9);
        assert!((merged.variance() - direct.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), direct.min());
        assert_eq!(merged.max(), direct.max());
        // Merging an empty summary either way is the identity.
        let mut e = Summary::new();
        e.merge(&direct);
        assert_eq!(e.count(), direct.count());
        let mut d2 = direct;
        d2.merge(&Summary::new());
        assert_eq!(d2.count(), direct.count());
    }

    #[test]
    fn welford_state_round_trip_is_bit_identical() {
        let mut a = Summary::from_slice(&[1.0, 2.5, -3.0, 0.125]);
        let mut b = Summary::from_welford_state(a.welford_state());
        // Identical future updates stay bit-identical, not just close.
        for v in [7.0, -0.5, 1e9, 3.25] {
            a.push(v);
            b.push(v);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
        assert_eq!(a.min().to_bits(), b.min().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
        // Empty-summary sentinels survive the round trip too.
        let e = Summary::from_welford_state(Summary::new().welford_state());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), f64::INFINITY);
        assert_eq!(e.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.fraction_leq(0.0), 0.0);
        assert_eq!(c.fraction_leq(2.0), 0.5);
        assert_eq!(c.fraction_leq(10.0), 1.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
        assert!((c.median() - 2.5).abs() < 1e-12);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 4.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let c = Cdf::new(vec![5.0, -2.0, 0.5, 0.5, 9.0]);
        let pts: Vec<_> = c.points().collect();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Cdf::new(vec![]).quantile(0.5);
    }
}
