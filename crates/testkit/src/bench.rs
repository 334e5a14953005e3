//! Micro-benchmark timing: warmup + sampled iterations, median/p95
//! statistics, JSON-line output.
//!
//! This replaces `criterion` for the workspace's perf benches. It is a
//! measurement harness, not a statistics engine: each bench runs a warmup,
//! auto-calibrates how many iterations fit in one sample window, times a
//! fixed number of samples with a monotonic [`Timer`], and reports
//! per-iteration nanoseconds. One JSON object per line keeps the output
//! trivially machine-parsable (`cargo bench … | grep '^{'`).

use movr_math::convert::{f64_to_usize, u64_to_f64, usize_to_f64};
use movr_math::json::write_str;
use std::hint::black_box;

pub use timer::Timer;

mod timer {
    #![expect(
        clippy::disallowed_types,
        reason = "the bench timer measures host time by design; simulation code runs on SimTime"
    )]
    use std::time::Instant;

    /// A monotonic stopwatch: the workspace's one wall-clock reader.
    #[derive(Debug, Clone, Copy)]
    pub struct Timer {
        start: Instant,
    }

    impl Timer {
        /// Starts timing now.
        pub fn start() -> Self {
            Timer {
                start: Instant::now(),
            }
        }

        /// Nanoseconds elapsed since [`Timer::start`] (saturating at `u64::MAX`).
        pub fn elapsed_ns(&self) -> u64 {
            let nanos = self.start.elapsed().as_nanos();
            u64::try_from(nanos).unwrap_or(u64::MAX)
        }

        /// Seconds elapsed since [`Timer::start`].
        pub fn elapsed_secs_f64(&self) -> f64 {
            self.start.elapsed().as_secs_f64()
        }
    }
}

/// How much measuring to do per bench.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Un-timed iterations before measurement (cache/branch warmup).
    pub warmup_iters: u64,
    /// Timed samples; statistics are computed across these.
    pub samples: usize,
    /// Target wall-clock per sample, used to calibrate iterations/sample.
    pub target_sample_ns: u64,
    /// Hard cap on iterations per sample (guards against ~zero-cost bodies).
    pub max_iters_per_sample: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            warmup_iters: 10,
            samples: 30,
            target_sample_ns: 10_000_000, // 10 ms
            max_iters_per_sample: 100_000,
        }
    }
}

impl BenchOptions {
    /// A fast smoke-test profile (used by `--quick`): fewer samples and a
    /// much smaller per-sample budget, so a full suite runs in seconds.
    pub fn quick() -> Self {
        BenchOptions {
            warmup_iters: 2,
            samples: 8,
            target_sample_ns: 1_000_000, // 1 ms
            max_iters_per_sample: 2_000,
        }
    }

    /// Picks the profile from CLI args: `--quick` selects
    /// [`BenchOptions::quick`], anything else the default. Unrecognised
    /// flags (e.g. the `--bench` cargo appends) are ignored.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        if args.into_iter().any(|a| a == "--quick") {
            BenchOptions::quick()
        } else {
            BenchOptions::default()
        }
    }
}

/// Measured result of one bench.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Bench name as printed.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
}

impl BenchReport {
    fn from_samples(name: &str, mut per_iter_ns: Vec<f64>, iters_per_sample: u64) -> Self {
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / usize_to_f64(n);
        BenchReport {
            name: name.to_string(),
            median_ns: quantile_sorted(&per_iter_ns, 0.5),
            p95_ns: quantile_sorted(&per_iter_ns, 0.95),
            mean_ns: mean,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            samples: n,
            iters_per_sample,
        }
    }

    /// One self-contained JSON object, no trailing newline.
    pub fn json_line(&self) -> String {
        let mut name = String::new();
        write_str(&mut name, &self.name);
        format!(
            "{{\"name\":{name},\"median_ns\":{:.1},\"p95_ns\":{:.1},\"mean_ns\":{:.1},\
             \"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            self.median_ns,
            self.p95_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters_per_sample
        )
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * usize_to_f64(sorted.len() - 1);
    let lo = f64_to_usize(pos.floor());
    let hi = f64_to_usize(pos.ceil());
    let frac = pos - usize_to_f64(lo);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Times `f` (no per-iteration setup): warmup, calibrate, then
/// `opts.samples` timed samples. Returns per-iteration statistics.
pub fn bench_fn<R>(name: &str, opts: &BenchOptions, mut f: impl FnMut() -> R) -> BenchReport {
    for _ in 0..opts.warmup_iters {
        black_box(f());
    }
    // Calibrate: how long does one iteration take, roughly?
    let t = Timer::start();
    black_box(f());
    let once_ns = t.elapsed_ns().max(1);
    let iters = (opts.target_sample_ns / once_ns).clamp(1, opts.max_iters_per_sample);

    let mut per_iter_ns = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let t = Timer::start();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_ns.push(u64_to_f64(t.elapsed_ns()) / u64_to_f64(iters));
    }
    BenchReport::from_samples(name, per_iter_ns, iters)
}

/// Times `routine` with a fresh un-timed `setup()` value per iteration
/// (the replacement for criterion's `iter_batched`): only the routine is
/// inside the timed region, so mutation-heavy bodies measure honestly.
pub fn bench_with_setup<T, R>(
    name: &str,
    opts: &BenchOptions,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T) -> R,
) -> BenchReport {
    for _ in 0..opts.warmup_iters {
        black_box(routine(setup()));
    }
    let input = setup();
    let t = Timer::start();
    black_box(routine(input));
    let once_ns = t.elapsed_ns().max(1);
    let iters = (opts.target_sample_ns / once_ns).clamp(1, opts.max_iters_per_sample);

    let mut per_iter_ns = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let mut timed_ns = 0u64;
        for _ in 0..iters {
            let input = setup();
            let t = Timer::start();
            black_box(routine(input));
            timed_ns += t.elapsed_ns();
        }
        per_iter_ns.push(u64_to_f64(timed_ns) / u64_to_f64(iters));
    }
    BenchReport::from_samples(name, per_iter_ns, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotonic() {
        let t = Timer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
        assert!(t.elapsed_secs_f64() >= 0.0);
    }

    #[test]
    fn bench_fn_produces_sane_statistics() {
        let opts = BenchOptions {
            warmup_iters: 2,
            samples: 10,
            target_sample_ns: 100_000,
            max_iters_per_sample: 1_000,
        };
        let report = bench_fn("sum_1k", &opts, || (0..1000u64).sum::<u64>());
        assert_eq!(report.samples, 10);
        assert!(report.iters_per_sample >= 1);
        assert!(report.min_ns > 0.0);
        assert!(report.min_ns <= report.median_ns);
        assert!(report.median_ns <= report.p95_ns + 1e-9);
        assert!(report.p95_ns <= report.max_ns + 1e-9);
    }

    #[test]
    fn bench_with_setup_excludes_setup_cost() {
        let opts = BenchOptions {
            warmup_iters: 1,
            samples: 6,
            target_sample_ns: 50_000,
            max_iters_per_sample: 200,
        };
        let report = bench_with_setup(
            "vec_pop",
            &opts,
            || vec![1u64; 64],
            |mut v| {
                while v.pop().is_some() {}
            },
        );
        assert!(report.median_ns >= 0.0);
        assert_eq!(report.samples, 6);
    }

    #[test]
    fn json_line_is_well_formed() {
        let r = BenchReport {
            name: "a \"quoted\" name".into(),
            median_ns: 12.5,
            p95_ns: 20.0,
            mean_ns: 13.0,
            min_ns: 10.0,
            max_ns: 21.0,
            samples: 30,
            iters_per_sample: 100,
        };
        let line = r.json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.contains("\"median_ns\":12.5"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert!((quantile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn options_from_args_picks_quick() {
        let q = BenchOptions::from_args(vec!["--quick".to_string()]);
        assert_eq!(q.samples, BenchOptions::quick().samples);
        let d = BenchOptions::from_args(vec!["--bench".to_string()]);
        assert_eq!(d.samples, BenchOptions::default().samples);
    }
}
