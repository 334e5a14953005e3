//! Micro-benchmark timing: warmup + sampled iterations, median/p95
//! statistics, JSON-line output.
//!
//! This replaces `criterion` for the workspace's perf benches. It is a
//! measurement harness, not a statistics engine: each bench runs a warmup,
//! auto-calibrates how many iterations fit in one sample window, times a
//! fixed number of samples with a monotonic [`Timer`], and reports
//! per-iteration nanoseconds. Each sample is also divided by the mean
//! time of the frozen [`calibration_ns`] kernel, run for as long as a
//! sample just before it; the median of those quotients is the row's
//! `kernel_ratio`, the figure the perf ratchet pins. One JSON object per
//! line keeps the output trivially machine-parsable
//! (`cargo bench … | grep '^{'`).

use movr_math::convert::{f64_to_usize, u64_to_f64, usize_to_f64};
use movr_math::json::{write_f64_bytes, write_str_bytes};
use std::fmt::Write as _;
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
    /// Median over the samples of the sample's ns/iter divided by the
    /// mean [`calibration_ns`] over a window as long as the sample, run
    /// just before it: the row's time in units of the frozen kernel,
    /// which a slower or busier host moves far less than it moves the
    /// raw figures above.
    pub kernel_ratio: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
}

impl BenchReport {
    fn from_samples(
        name: &str,
        mut per_iter_ns: Vec<f64>,
        mut ratios: Vec<f64>,
        iters_per_sample: u64,
    ) -> Self {
        per_iter_ns.sort_by(f64::total_cmp);
        ratios.sort_by(f64::total_cmp);
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / usize_to_f64(n);
        BenchReport {
            name: name.to_string(),
            median_ns: quantile_sorted(&per_iter_ns, 0.5),
            p95_ns: quantile_sorted(&per_iter_ns, 0.95),
            mean_ns: mean,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            kernel_ratio: quantile_sorted(&ratios, 0.5),
            samples: n,
            iters_per_sample,
        }
    }

    /// One self-contained JSON object, no trailing newline.
    pub fn json_line(&self) -> String {
        let mut head = b"{\"name\":".to_vec();
        write_str_bytes(&mut head, &self.name);
        head.extend_from_slice(b",\"kernel_ratio\":");
        write_f64_bytes(&mut head, self.kernel_ratio);
        let mut line = String::from_utf8(head).expect("the JSON writers write UTF-8");
        let _ = write!(
            line,
            ",\"median_ns\":{:.1},\"p95_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\
             \"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            self.median_ns,
            self.p95_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters_per_sample
        );
        line
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

/// Iterations of the floating-point and integer halves of the
/// calibration kernel: about 80% and 20% of its time.
const CAL_FP_ITERS: usize = 30_000;
const CAL_INT_ITERS: usize = 60_000;

/// Host time of one run of the calibration kernel, ns.
///
/// The kernel is frozen code — dB-style `powf`, `sqrt`, `log10` and
/// trigonometry folded into a complex sum, then an integer table walk —
/// so a simulator change does not move it, while a slower or contended
/// machine slows it about as much as it slows the benches. It is the
/// kernel perfbench calibrates its workloads with, so both harnesses
/// share one definition of host speed. It calls only `std`: its `powf`
/// is not [`movr_math::db::db_to_linear`], so a change to the library's
/// dB helpers cannot rescale the kernel, and every pin with it.
pub fn calibration_ns() -> f64 {
    let clock = Timer::start();
    black_box(fp_kernel(black_box(CAL_FP_ITERS)));
    black_box(int_kernel(black_box(CAL_INT_ITERS)));
    u64_to_f64(clock.elapsed_ns())
}

#[expect(clippy::as_conversions, reason = "perfbench's kernel, copied unchanged: its casts are frozen with it")]
fn fp_kernel(n: usize) -> f64 {
    let (mut acc, mut re, mut im) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..n {
        let gain_db = (i % 97) as f64 * 0.37 - 12.0;
        // The exponent is named so movr-lint's raw-db-arithmetic rule,
        // which routes the simulator's conversions through movr_math::db,
        // does not read this timing workload as one.
        let exponent = gain_db / 10.0;
        let amp = 10f64.powf(exponent).sqrt();
        let phase = (i % 13) as f64 * 0.41;
        re += amp * phase.cos();
        im += amp * phase.sin();
        if i % 8 == 7 {
            acc += (re * re + im * im + 1e-30).log10();
            re = 0.0;
            im = 0.0;
        }
    }
    acc
}

#[expect(clippy::as_conversions, reason = "perfbench's kernel, copied unchanged: its casts are frozen with it")]
fn int_kernel(n: usize) -> u64 {
    let mut table = [0u64; 4096];
    for (i, t) in table.iter_mut().enumerate() {
        *t = i as u64;
    }
    let mut h = 0u64;
    for i in 0..n {
        let j = (h as usize ^ i) & 4095;
        table[j] = table[j]
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(h);
        h ^= table[j] >> 7;
    }
    h
}

/// Warms up on `timed_once` (one call, returning its ns) and sizes a
/// sample: how many iterations fit in `opts.target_sample_ns`, and about
/// how long they take.
fn sample_size(opts: &BenchOptions, mut timed_once: impl FnMut() -> u64) -> (u64, u64) {
    for _ in 0..opts.warmup_iters {
        timed_once();
    }
    let once_ns = timed_once().max(1);
    let iters = (opts.target_sample_ns / once_ns).clamp(1, opts.max_iters_per_sample);
    (iters, once_ns.saturating_mul(iters))
}

/// Mean host time of the calibration kernel over back-to-back runs that
/// last at least `window_ns` (one run at least). A window as long as the
/// sample after it sees the same share of a core that another process or
/// the host time-slices; one 2 ms run fits inside a single slice and
/// would not.
fn kernel_ns_over(window_ns: u64) -> f64 {
    let t = Timer::start();
    let mut runs = 0u64;
    while runs == 0 || t.elapsed_ns() < window_ns {
        black_box(calibration_ns());
        runs += 1;
    }
    u64_to_f64(t.elapsed_ns()) / u64_to_f64(runs)
}

/// Takes `opts.samples` samples, each `sample()`'s ns/iter right after a
/// calibration window of `sample_ns`, and reports both.
fn sampled(
    name: &str,
    opts: &BenchOptions,
    iters: u64,
    sample_ns: u64,
    mut sample: impl FnMut() -> f64,
) -> BenchReport {
    let mut per_iter_ns = Vec::with_capacity(opts.samples);
    let mut ratios = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let kernel_ns = kernel_ns_over(sample_ns);
        let ns = sample();
        per_iter_ns.push(ns);
        ratios.push(ns / kernel_ns);
    }
    BenchReport::from_samples(name, per_iter_ns, ratios, iters)
}

/// Times `f` (no per-iteration setup): warmup, calibrate, then
/// `opts.samples` timed samples. Returns per-iteration statistics.
pub fn bench_fn<R>(name: &str, opts: &BenchOptions, mut f: impl FnMut() -> R) -> BenchReport {
    let (iters, sample_ns) = sample_size(opts, || {
        let t = Timer::start();
        black_box(f());
        t.elapsed_ns()
    });
    sampled(name, opts, iters, sample_ns, || {
        let t = Timer::start();
        for _ in 0..iters {
            black_box(f());
        }
        u64_to_f64(t.elapsed_ns()) / u64_to_f64(iters)
    })
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
    let mut timed_once = || {
        let input = setup();
        let t = Timer::start();
        black_box(routine(input));
        t.elapsed_ns()
    };
    let (iters, sample_ns) = sample_size(opts, &mut timed_once);
    sampled(name, opts, iters, sample_ns, || {
        let timed_ns: u64 = (0..iters).map(|_| timed_once()).sum();
        u64_to_f64(timed_ns) / u64_to_f64(iters)
    })
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
        assert!(report.kernel_ratio > 0.0 && report.kernel_ratio.is_finite());
    }

    #[test]
    fn calibration_kernel_takes_host_time() {
        assert!(calibration_ns() > 0.0);
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
            kernel_ratio: 0.25,
            samples: 30,
            iters_per_sample: 100,
        };
        let line = r.json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.contains("\"median_ns\":12.5"));
        assert!(line.contains("\"kernel_ratio\":0.25"));
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
