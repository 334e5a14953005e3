//! Order statistics, the output digest, the calibration kernel and the
//! process's memory high-water mark.

use movr_testkit::Timer;
use std::hint::black_box;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile (as a quantile) that still has at least ten
/// samples above it, capped at 0.99: a tail estimate that is not one
/// lucky sample.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.99)
}

/// FNV-1a over a stream of words: the digest every workload keeps over
/// its simulated outputs. Order-sensitive by design.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds the exact bit pattern of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Iterations of the floating-point and integer halves of the
/// calibration kernel: about 80% and 20% of its time.
const CAL_FP_ITERS: usize = 30_000;
const CAL_INT_ITERS: usize = 60_000;

/// The calibration kernel's reference duration, ns: its median on the
/// 2-vCPU Xeon VM the bounds were set on, in an uncontended phase. A
/// calibrated throughput reads as the raw one would on that machine.
pub const CALIBRATION_REF_NS: f64 = 1.3e6;

/// Host time of one run of the calibration kernel, ns.
///
/// The kernel is the benchmark's own frozen code — dB-style `powf`,
/// `sqrt`, `log10` and trigonometry folded into a complex sum, then an
/// integer table walk — so no change to the simulator moves it, while a
/// slower or contended machine slows it about as much as it slows the
/// workloads (README.md, "Calibration", gives the evidence).
pub fn calibration_ns() -> f64 {
    let clock = Timer::start();
    black_box(fp_kernel(black_box(CAL_FP_ITERS)));
    black_box(int_kernel(black_box(CAL_INT_ITERS)));
    clock.elapsed_ns() as f64
}

fn fp_kernel(n: usize) -> f64 {
    let (mut acc, mut re, mut im) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..n {
        let gain_db = (i % 97) as f64 * 0.37 - 12.0;
        let amp = 10f64.powf(gain_db / 10.0).sqrt();
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

/// The process's resident-memory high-water mark in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5), 0.5);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(100_000), 0.99);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
