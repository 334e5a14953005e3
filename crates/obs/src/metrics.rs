//! Metrics: fixed-bucket histograms and named metric snapshots.
//!
//! Events answer "what happened when"; metrics answer "how much, how
//! often, how spread". A [`MetricsSnapshot`] is a name-sorted set of
//! counters, gauges, and histograms that its producer builds on demand
//! from its own typed accounting, so it serialises identically across
//! same-seed runs and can be diffed by future perf PRs.
//!
//! [`Histogram`] is fixed-bucket: the bucket edges are chosen up front
//! (linear spacing for quantities already in a log domain like dB,
//! geometric spacing for raw magnitudes like nanoseconds), plus explicit
//! underflow and overflow buckets so no observation is ever dropped. A
//! [`movr_math::Summary`] rides along for exact mean/min/max.

use movr_math::convert::{usize_to_f64, usize_to_i32, usize_to_u64};
use movr_math::json::{write_f64, write_str};
use movr_math::Summary;
use std::fmt::Write as _;

/// A fixed-bucket histogram with underflow/overflow buckets and an exact
/// running summary.
///
/// For `n` interior buckets there are `n + 1` edges `e₀ < e₁ < … < eₙ`
/// and `n + 2` counts: `counts[0]` holds `v < e₀` (underflow),
/// `counts[k]` holds `eₖ₋₁ ≤ v < eₖ`, and `counts[n + 1]` holds
/// `v ≥ eₙ` (overflow). NaN observations are ignored (they order
/// nowhere); ±∞ land in overflow/underflow.
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    summary: Summary,
}

impl Histogram {
    fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least one interior bucket"); // private constructor; both callers pass compile-time bucket layouts
        assert!( // private constructor; both callers pass compile-time bucket layouts
            edges.windows(2).all(|w| w[0] < w[1]), // windows(2) slices always hold two elements
            "bucket edges must be strictly increasing"
        );
        let counts = vec![0; edges.len() + 1];
        Histogram {
            edges,
            counts,
            total: 0,
            summary: Summary::new(),
        }
    }

    /// `n_buckets` equal-width buckets spanning `[lo, hi)` — the right
    /// spacing for values already in a log domain (dB).
    pub fn linear(lo: f64, hi: f64, n_buckets: usize) -> Self {
        assert!(n_buckets >= 1, "need at least one bucket"); // constructor contract on a caller constant, not runtime input
        assert!(lo < hi, "lo must be below hi"); // constructor contract on a caller constant, not runtime input
        let w = (hi - lo) / usize_to_f64(n_buckets);
        Histogram::from_edges((0..=n_buckets).map(|i| lo + w * usize_to_f64(i)).collect())
    }

    /// `n_buckets` geometrically spaced buckets spanning `[lo, hi)` with
    /// `lo > 0` — the right spacing for raw magnitudes covering decades
    /// (durations in nanoseconds).
    pub fn log_spaced(lo: f64, hi: f64, n_buckets: usize) -> Self {
        assert!(n_buckets >= 1, "need at least one bucket"); // constructor contract on a caller constant, not runtime input
        assert!(lo > 0.0 && lo < hi, "log spacing needs 0 < lo < hi"); // constructor contract on a caller constant, not runtime input
        let ratio = (hi / lo).powf(1.0 / usize_to_f64(n_buckets));
        Histogram::from_edges(
            (0..=n_buckets).map(|i| lo * ratio.powi(usize_to_i32(i))).collect(),
        )
    }

    /// Rebuilds a histogram from checkpointed parts, re-validating every
    /// invariant among them — the parts come from external bytes, so a bad
    /// layout or count must surface as an error, not a later panic or misbin.
    pub fn from_parts(
        edges: Vec<f64>,
        counts: Vec<u64>,
        total: u64,
        summary: Summary,
    ) -> Result<Self, InvalidHistogram> {
        if edges.len() < 2 {
            return Err(InvalidHistogram {
                what: "fewer than two bucket edges",
            });
        }
        if !edges.windows(2).all(|w| w[0] < w[1]) { // windows(2) slices always hold two elements
            return Err(InvalidHistogram {
                what: "bucket edges not strictly increasing",
            });
        }
        if counts.len() != edges.len() + 1 {
            return Err(InvalidHistogram {
                what: "bucket count list does not match edge count",
            });
        }
        if counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) != Some(total) {
            return Err(InvalidHistogram {
                what: "total does not equal the sum of bucket counts",
            });
        }
        // Every finite observation also lands in a bucket.
        if usize_to_u64(summary.count()) > total {
            return Err(InvalidHistogram {
                what: "summary holds more observations than the buckets",
            });
        }
        Ok(Histogram {
            edges,
            counts,
            total,
            summary,
        })
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.edges.partition_point(|&e| e <= v);
        self.counts[idx] += 1;
        self.total += 1;
        if v.is_finite() {
            self.summary.push(v);
        }
    }

    /// Total observations recorded (equals the sum of all bucket counts,
    /// underflow and overflow included).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// All bucket counts: `[underflow, interior…, overflow]`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the lowest edge.
    pub fn underflow(&self) -> u64 {
        self.counts[0]
    }

    /// Observations at or above the highest edge.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts never empty")
    }

    /// Exact summary (mean/min/max/variance) of the finite observations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Merges `other` into `self`: adds its counts and summary, or
    /// returns a structured [`MergeError`] when the bucket layouts differ
    /// (merging histograms with different edges would silently misbin).
    /// On error `self` is untouched.
    pub fn try_merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.edges != other.edges {
            return Err(MergeError::new(&self.edges, &other.edges));
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.summary.merge(&other.summary);
        Ok(())
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        let _ = write!(out, "{}", self.total);
        out.push_str(",\"mean\":");
        write_json_f64(out, if self.summary.count() == 0 { f64::NAN } else { self.summary.mean() });
        out.push_str(",\"min\":");
        write_json_f64(out, self.summary.min());
        out.push_str(",\"max\":");
        write_json_f64(out, self.summary.max());
        out.push_str(",\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_f64(out, *e);
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]}");
    }
}

/// Error from [`Histogram::from_parts`]: the checkpointed parts violate a
/// histogram layout invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidHistogram {
    /// Which invariant failed.
    pub what: &'static str,
}

impl std::fmt::Display for InvalidHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid histogram parts: {}", self.what)
    }
}

impl std::error::Error for InvalidHistogram {}

/// Error from [`Histogram::try_merge`]: the two histograms have
/// different bucket layouts, so their counts cannot be combined without
/// misbinning. Carries a compact description of both layouts for the
/// report that surfaces it.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeError {
    /// Interior-edge count of the merge target.
    pub self_edges: usize,
    /// Interior-edge count of the histogram being merged in.
    pub other_edges: usize,
    /// `[first, last]` edge of the merge target.
    pub self_span: [f64; 2],
    /// `[first, last]` edge of the histogram being merged in.
    pub other_span: [f64; 2],
}

impl MergeError {
    pub(crate) fn new(self_edges: &[f64], other_edges: &[f64]) -> Self {
        let span = |e: &[f64]| match (e.first(), e.last()) {
            (Some(&a), Some(&b)) => [a, b],
            _ => [f64::NAN, f64::NAN],
        };
        MergeError {
            self_edges: self_edges.len(),
            other_edges: other_edges.len(),
            self_span: span(self_edges),
            other_span: span(other_edges),
        }
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bucket layouts differ: {} edges spanning [{}, {}] vs {} edges spanning [{}, {}]",
            self.self_edges,
            self.self_span[0],
            self.self_span[1],
            self.other_edges,
            self.other_span[0],
            self.other_span[1],
        )
    }
}

impl std::error::Error for MergeError {}

/// Appends `x` as Display prints it, or `null` when it is not finite.
pub(crate) fn write_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        write_f64(out, x);
    } else {
        out.push_str("null");
    }
}

/// Named counters, gauges, and histograms, each list sorted by name —
/// attachable to results (e.g. `SessionOutcome::metrics`) and
/// serialisable deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, ascending by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// One deterministic JSON object holding the whole snapshot. Names
    /// are spelled through [`write_str`], so any name reads back.
    pub fn to_json(&self) -> String {
        fn name(out: &mut String, i: usize, k: &str) {
            if i > 0 {
                out.push(',');
            }
            write_str(out, k);
            out.push(':');
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            name(&mut out, i, k);
            let _ = write!(out, "{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            name(&mut out, i, k);
            write_json_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            name(&mut out, i, k);
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// A human-readable metrics table (fixed-width, one metric per line).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<28} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<28} {v:>12.3}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for (k, h) in &self.histograms {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "  {k:<28} n={:<8} mean={:<12.3} min={:<12.3} max={:<12.3} under={} over={}",
                    h.count(),
                    s.mean(),
                    if s.count() == 0 { f64::NAN } else { s.min() },
                    if s.count() == 0 { f64::NAN } else { s.max() },
                    h.underflow(),
                    h.overflow(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucket_boundaries() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        assert_eq!(h.edges(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        // Left-closed, right-open interior buckets.
        h.observe(0.0); // [0,2)
        h.observe(1.999); // [0,2)
        h.observe(2.0); // [2,4)
        h.observe(9.999); // [8,10)
        h.observe(10.0); // overflow (v >= last edge)
        h.observe(-0.001); // underflow
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 0, 0, 1, 1]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn log_spaced_bucket_boundaries() {
        let h = Histogram::log_spaced(1.0, 1000.0, 3);
        let e = h.edges();
        assert_eq!(e.len(), 4);
        assert!((e[0] - 1.0).abs() < 1e-9);
        assert!((e[1] - 10.0).abs() < 1e-9);
        assert!((e[2] - 100.0).abs() < 1e-9);
        assert!((e[3] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn underflow_overflow_and_nonfinite() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.observe(-5.0);
        h.observe(f64::NEG_INFINITY);
        h.observe(7.0);
        h.observe(f64::INFINITY);
        h.observe(f64::NAN); // ignored entirely
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 4);
        // Summary only saw the finite observations.
        assert_eq!(h.summary().count(), 2);
        assert_eq!(h.summary().min(), -5.0);
        assert_eq!(h.summary().max(), 7.0);
    }

    #[test]
    fn count_equals_bucket_sum() {
        let mut h = Histogram::log_spaced(1.0, 1e6, 12);
        for i in 0..500 {
            h.observe((i as f64 * 37.7).abs() % 2e6);
        }
        assert_eq!(h.count(), h.bucket_counts().iter().sum::<u64>());
    }

    #[test]
    fn merge_adds_counts_and_summary() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        let mut b = Histogram::linear(0.0, 10.0, 5);
        for v in [1.0, 3.0, 11.0] {
            a.observe(v);
        }
        for v in [-2.0, 5.0, 5.5, 9.0] {
            b.observe(v);
        }
        a.try_merge(&b).expect("same layout");
        assert_eq!(a.count(), 7);
        assert_eq!(a.count(), a.bucket_counts().iter().sum::<u64>());
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.summary().count(), 7);
        assert_eq!(a.summary().min(), -2.0);
        assert_eq!(a.summary().max(), 11.0);
    }

    #[test]
    fn try_merge_reports_mismatch_without_panicking() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        a.observe(3.0);
        let before = a.bucket_counts().to_vec();
        let err = a.try_merge(&Histogram::linear(0.0, 12.0, 4)).unwrap_err();
        assert_eq!(err.self_edges, 6);
        assert_eq!(err.other_edges, 5);
        assert_eq!(err.self_span, [0.0, 10.0]);
        assert_eq!(err.other_span, [0.0, 12.0]);
        let msg = err.to_string();
        assert!(msg.contains("6 edges") && msg.contains("[0, 12]"), "{msg}");
        // The failed merge left the target untouched.
        assert_eq!(a.bucket_counts(), &before[..]);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn try_merge_succeeds_on_matching_layout() {
        let mut a = Histogram::log_spaced(1.0, 1e6, 12);
        let mut b = Histogram::log_spaced(1.0, 1e6, 12);
        a.observe(10.0);
        b.observe(1e5);
        assert!(a.try_merge(&b).is_ok());
        assert_eq!(a.count(), 2);
        assert_eq!(a.summary().max(), 1e5);
    }

    #[test]
    fn from_parts_rebuilds_a_valid_histogram() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        for v in [0.2, 0.7, 5.0, f64::INFINITY] {
            h.observe(v);
        }
        let back = Histogram::from_parts(
            h.edges().to_vec(),
            h.bucket_counts().to_vec(),
            h.count(),
            *h.summary(),
        )
        .expect("a live histogram's parts are valid");
        assert_eq!(back.bucket_counts(), h.bucket_counts());
        assert_eq!(back.count(), 4);
        assert_eq!(back.summary().count(), 3);
    }

    /// `from_parts` on the parts of `Histogram::linear(0.0, 1.0, 2)` with
    /// one observation in each bucket, after `tweak` damages them.
    fn rejected_parts(
        tweak: impl FnOnce(&mut Vec<f64>, &mut Vec<u64>, &mut u64, &mut Summary),
    ) -> &'static str {
        let mut edges = vec![0.0, 0.5, 1.0];
        let mut counts = vec![1, 1, 1, 1];
        let mut total = 4;
        let mut summary = Summary::from_slice(&[-1.0, 0.2, 0.7, 2.0]);
        tweak(&mut edges, &mut counts, &mut total, &mut summary);
        match Histogram::from_parts(edges, counts, total, summary) {
            Ok(_) => panic!("damaged parts were accepted"),
            Err(e) => e.what,
        }
    }

    #[test]
    fn from_parts_rejects_fewer_than_two_edges() {
        let what = rejected_parts(|e, c, t, _| {
            *e = vec![0.0];
            *c = vec![1, 1];
            *t = 2;
        });
        assert_eq!(what, "fewer than two bucket edges");
    }

    #[test]
    fn from_parts_rejects_non_increasing_edges() {
        assert_eq!(
            rejected_parts(|e, _, _, _| e[1] = 0.0),
            "bucket edges not strictly increasing"
        );
        assert_eq!(
            rejected_parts(|e, _, _, _| e[2] = f64::NAN),
            "bucket edges not strictly increasing"
        );
    }

    #[test]
    fn from_parts_rejects_a_count_list_that_misses_the_layout() {
        assert_eq!(
            rejected_parts(|_, c, t, _| {
                c.pop();
                *t = 3;
            }),
            "bucket count list does not match edge count"
        );
    }

    #[test]
    fn from_parts_rejects_a_total_that_is_not_the_bucket_sum() {
        let what = "total does not equal the sum of bucket counts";
        assert_eq!(rejected_parts(|_, _, t, _| *t = 5), what);
        // A sum that overflows u64 is rejected, not wrapped or panicked on.
        assert_eq!(
            rejected_parts(|_, c, t, _| {
                c[0] = u64::MAX;
                *t = u64::MAX;
            }),
            what
        );
    }

    #[test]
    fn from_parts_rejects_a_summary_larger_than_the_buckets() {
        assert_eq!(
            rejected_parts(|_, _, _, s| s.push(0.3)),
            "summary holds more observations than the buckets"
        );
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.observe(0.4);
        let m = MetricsSnapshot {
            counters: vec![("alpha".to_string(), 1), ("zeta".to_string(), 1)],
            gauges: vec![("g".to_string(), 1.5)],
            histograms: vec![("h".to_string(), h)],
        };
        let a = m.to_json();
        assert_eq!(a, m.clone().to_json());
        assert_eq!(
            a,
            "{\"counters\":{\"alpha\":1,\"zeta\":1},\"gauges\":{\"g\":1.5},\
             \"histograms\":{\"h\":{\"count\":1,\"mean\":0.4,\"min\":0.4,\"max\":0.4,\
             \"edges\":[0,0.5,1],\"counts\":[0,1,0,0]}}}"
        );
        assert_eq!(m.counter("zeta"), Some(1));
        assert_eq!(m.histogram("h").map(Histogram::count), Some(1));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn snapshot_json_escapes_names_and_reads_back() {
        use movr_math::json::Json;
        let names = [
            "say \"hi\"",
            "back\\slash",
            "tab\there",
            "nul\u{0}",
            "plain",
        ];
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.observe(0.25);
        let m = MetricsSnapshot {
            counters: names.iter().map(|n| (n.to_string(), 3)).collect(),
            gauges: names.iter().map(|n| (n.to_string(), 0.75)).collect(),
            histograms: names.iter().map(|n| (n.to_string(), h.clone())).collect(),
        };
        let json = m.to_json();
        let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{e} in {json}"));
        let read = |group: &str, name: &str, field: Option<&str>| {
            let v = doc.get(group).and_then(|g| g.get(name));
            field
                .map_or(v, |f| v.and_then(|h| h.get(f)))
                .and_then(Json::as_f64)
        };
        for name in names {
            assert_eq!(read("counters", name, None), Some(3.0), "{name:?}");
            assert_eq!(read("gauges", name, None), Some(0.75), "{name:?}");
            let hist = |field| read("histograms", name, Some(field));
            assert_eq!(hist("count"), Some(1.0), "{name:?}");
            assert_eq!(hist("mean"), Some(0.25), "{name:?}");
        }
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let mut h = Histogram::log_spaced(1e3, 1e9, 10);
        h.observe(2e6);
        let m = MetricsSnapshot {
            counters: vec![("frames_total".to_string(), 1)],
            gauges: vec![("mean_snr_db".to_string(), 21.0)],
            histograms: vec![("airtime_ns".to_string(), h)],
        };
        let t = m.render_table();
        assert!(t.contains("frames_total"));
        assert!(t.contains("mean_snr_db"));
        assert!(t.contains("airtime_ns"));
    }
}
