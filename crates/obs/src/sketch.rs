//! Mergeable percentile sketches.
//!
//! A [`Sketch`] is a fixed-bucket [`Histogram`] plus quantile
//! estimation, sized up front and never growing: folding a million
//! observations costs the same memory as folding ten. Two sketches with
//! the same [`SketchSpec`] merge exactly (bucket counts add), which is
//! what lets the fleet reducer fan out over files and combine partial
//! rollups without changing a single output bit.
//!
//! ## Error bounds
//!
//! Quantile estimates interpolate inside the bucket containing the
//! requested order statistic, so for an observation inside `[lo, hi)`:
//!
//! * **linear** spacing: absolute error ≤ one bucket width,
//!   `(hi − lo) / buckets`;
//! * **log** spacing: relative error ≤ one bucket ratio,
//!   `(hi / lo)^(1/buckets)`.
//!
//! Observations outside `[lo, hi)` land in the underflow/overflow
//! buckets; estimates there are clamped to the exact observed min/max,
//! so the bound degrades gracefully instead of silently lying. The
//! property tests in `crates/obs/tests` check these bounds against
//! exact order statistics on random data.

use crate::metrics::{write_json_f64, Histogram, MergeError};
use movr_math::convert::u64_to_f64;
use std::fmt::Write as _;

/// Bucket spacing of a [`Sketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spacing {
    /// Equal-width buckets — for values already in a log domain (dB).
    Linear,
    /// Geometrically spaced buckets — for raw magnitudes spanning
    /// decades (nanoseconds).
    Log,
}

impl Spacing {
    fn name(self) -> &'static str {
        match self {
            Spacing::Linear => "linear",
            Spacing::Log => "log",
        }
    }
}

/// The immutable layout of a [`Sketch`]: range, bucket count, spacing.
/// Two sketches merge iff their specs are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSpec {
    /// Lowest interior edge.
    pub lo: f64,
    /// Highest interior edge (observations ≥ `hi` overflow).
    pub hi: f64,
    /// Number of interior buckets.
    pub buckets: usize,
    /// Bucket spacing.
    pub spacing: Spacing,
}

impl SketchSpec {
    /// Equal-width buckets over `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, buckets: usize) -> Self {
        SketchSpec {
            lo,
            hi,
            buckets,
            spacing: Spacing::Linear,
        }
    }

    /// Geometrically spaced buckets over `[lo, hi)`, `lo > 0`.
    pub fn log(lo: f64, hi: f64, buckets: usize) -> Self {
        SketchSpec {
            lo,
            hi,
            buckets,
            spacing: Spacing::Log,
        }
    }
}

/// A bounded-memory quantile sketch (see module docs).
#[derive(Debug, Clone)]
pub struct Sketch {
    spec: SketchSpec,
    hist: Histogram,
}

impl Sketch {
    /// An empty sketch with the given layout.
    pub fn new(spec: SketchSpec) -> Self {
        let hist = match spec.spacing {
            Spacing::Linear => Histogram::linear(spec.lo, spec.hi, spec.buckets),
            Spacing::Log => Histogram::log_spaced(spec.lo, spec.hi, spec.buckets),
        };
        Sketch { spec, hist }
    }

    /// The sketch's layout.
    pub fn spec(&self) -> &SketchSpec {
        &self.spec
    }

    /// The underlying histogram (counts, edges, exact summary).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Records one observation (NaN ignored, ±∞ to the edge buckets).
    pub fn observe(&mut self, v: f64) {
        self.hist.observe(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Merges `other` into `self`; errors (leaving `self` untouched)
    /// when the layouts differ.
    pub fn try_merge(&mut self, other: &Sketch) -> Result<(), MergeError> {
        if self.spec != other.spec {
            return Err(MergeError::new(self.hist.edges(), other.hist.edges()));
        }
        self.hist.try_merge(&other.hist)
    }

    /// The `[lo, hi]` value range bucket `idx` estimates over. Underflow
    /// and overflow extend to the exact observed min/max when finite.
    fn bucket_bounds(&self, idx: usize) -> (f64, f64) {
        let edges = self.hist.edges();
        let s = self.hist.summary();
        let last = edges.len() - 1;
        if idx == 0 {
            let lo = if s.count() > 0 && s.min() < edges[0] {
                s.min()
            } else {
                edges[0]
            };
            (lo, edges[0])
        } else if idx > last {
            let hi = if s.count() > 0 && s.max() > edges[last] {
                s.max()
            } else {
                edges[last]
            };
            (edges[last], hi)
        } else {
            (edges[idx - 1], edges[idx])
        }
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) of everything
    /// observed, `None` when empty. The estimate lies inside the bucket
    /// holding the ⌈q·(n−1)⌉-th order statistic — see the module docs
    /// for the resulting error bounds.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.hist.count();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * u64_to_f64(total - 1);
        let mut cum: u64 = 0;
        for (i, &c) in self.hist.bucket_counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= u64_to_f64(cum + c - 1) {
                let (lo, hi) = self.bucket_bounds(i);
                let frac = ((rank - u64_to_f64(cum) + 0.5) / u64_to_f64(c)).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            cum += c;
        }
        unreachable!("total > 0 guarantees some bucket holds the rank");
    }

    /// Serialises the sketch summary as one JSON object with
    /// alphabetically sorted keys (layout, exact summary, standard
    /// quantiles). Non-finite and absent values encode as `null`.
    pub fn write_json(&self, out: &mut String) {
        let s = self.hist.summary();
        let empty = s.count() == 0;
        let _ = write!(out, "{{\"buckets\":{},\"count\":{}", self.spec.buckets, self.count());
        out.push_str(",\"hi\":");
        write_json_f64(out, self.spec.hi);
        out.push_str(",\"lo\":");
        write_json_f64(out, self.spec.lo);
        out.push_str(",\"max\":");
        write_json_f64(out, if empty { f64::NAN } else { s.max() });
        out.push_str(",\"mean\":");
        write_json_f64(out, if empty { f64::NAN } else { s.mean() });
        out.push_str(",\"min\":");
        write_json_f64(out, if empty { f64::NAN } else { s.min() });
        let _ = write!(out, ",\"overflow\":{}", self.hist.overflow());
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            let _ = write!(out, ",\"{name}\":");
            write_json_f64(out, self.quantile(q).unwrap_or(f64::NAN));
        }
        let _ = write!(
            out,
            ",\"spacing\":\"{}\",\"underflow\":{}}}",
            self.spec.spacing.name(),
            self.hist.underflow()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_uniform_ramp_are_within_one_bucket() {
        let mut s = Sketch::new(SketchSpec::linear(0.0, 100.0, 50));
        for i in 0..1000 {
            s.observe(f64::from(i) * 0.1); // 0.0, 0.1, …, 99.9
        }
        let width = 2.0;
        for (q, exact) in [(0.0, 0.0), (0.5, 49.95), (0.9, 89.91), (1.0, 99.9)] {
            let est = s.quantile(q).expect("non-empty");
            assert!(
                (est - exact).abs() <= width + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn log_sketch_quantile_relative_error_bounded() {
        let spec = SketchSpec::log(1.0, 1e9, 90);
        let ratio = (1e9_f64).powf(1.0 / 90.0);
        let mut s = Sketch::new(spec);
        let mut values: Vec<f64> = (0..500).map(|i| 1.5_f64 * 1.04_f64.powi(i)).collect();
        for &v in &values {
            s.observe(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.99] {
            let est = s.quantile(q).expect("non-empty");
            let rank = q * 499.0;
            let exact = values[rank.ceil() as usize];
            let rel = if est > exact { est / exact } else { exact / est };
            assert!(rel <= ratio + 1e-9, "q={q}: est {est} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn out_of_range_estimates_clamp_to_observed_extremes() {
        let mut s = Sketch::new(SketchSpec::linear(0.0, 10.0, 10));
        s.observe(-50.0);
        s.observe(5.0);
        s.observe(999.0);
        assert_eq!(s.quantile(0.0), Some(-50.0 + (0.0 - -50.0) * 0.5)); // mid of [-50, 0]
        let p100 = s.quantile(1.0).expect("non-empty");
        assert!((10.0..=999.0).contains(&p100), "{p100}");
    }

    #[test]
    fn empty_sketch_has_no_quantiles_and_serialises_nulls() {
        let s = Sketch::new(SketchSpec::log(1.0, 1e6, 12));
        assert_eq!(s.quantile(0.5), None);
        let mut json = String::new();
        s.write_json(&mut json);
        assert!(json.contains("\"count\":0"));
        assert!(json.contains("\"p50\":null"));
        assert!(json.contains("\"mean\":null"));
        assert!(json.contains("\"spacing\":\"log\""));
        movr_math::json::Json::parse(&json).expect("sketch JSON must parse");
    }

    #[test]
    fn merge_preserves_counts_and_quantiles_exactly() {
        // Counts and quantiles are pure integer arithmetic, so merging
        // two halves must reproduce the single-pass sketch exactly.
        // (The exact running *mean* is float-order dependent — merged
        // streams agree only to rounding — which is why deterministic
        // reducers must always fold per-stream and merge in a fixed
        // order rather than mixing the two shapes.)
        let spec = SketchSpec::linear(-10.0, 50.0, 120);
        let mut whole = Sketch::new(spec);
        let mut a = Sketch::new(spec);
        let mut b = Sketch::new(spec);
        for i in 0..2000 {
            let v = f64::from(i).mul_add(0.037, -12.0);
            whole.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.try_merge(&b).expect("same spec");
        assert_eq!(a.histogram().bucket_counts(), whole.histogram().bucket_counts());
        assert_eq!(a.histogram().underflow(), whole.histogram().underflow());
        assert_eq!(a.histogram().overflow(), whole.histogram().overflow());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
        let (ma, mw) = (a.histogram().summary().mean(), whole.histogram().summary().mean());
        assert!((ma - mw).abs() < 1e-9, "{ma} vs {mw}");
    }

    #[test]
    fn mismatched_specs_refuse_to_merge() {
        let mut a = Sketch::new(SketchSpec::linear(0.0, 1.0, 4));
        let b = Sketch::new(SketchSpec::linear(0.0, 1.0, 5));
        let err = a.try_merge(&b).expect_err("layouts differ");
        assert_eq!(err.self_edges, 5);
        assert_eq!(err.other_edges, 6);
    }
}
