//! The MoVR simulator's benchmark.
//!
//! Three closed-loop workloads drive the simulator through its public
//! API, each generated from one seed in a single process:
//!
//! * [`align`] — reflector installs (the §4.1 101×101 backscatter sweep
//!   plus the §4.2 gain ramp) followed by a reflection-angle search;
//! * [`session`] — 90 fps frames from a seeded mix of motion scenarios,
//!   checkpointed and restored every simulated second;
//! * [`fleet`] — recorded fleet sessions fanned out over the worker
//!   pool, then reduced from their JSONL streams.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]). A
//! traced run repeats every operation with spans around each layer's
//! public entry points and reports the per-layer metrics
//! ([`PER_LAYER`]), reconciled against the untraced operation time.
//! README.md beside this crate documents every workload and metric.

pub mod align;
pub mod fleet;
mod frame;
pub mod session;
mod spans;
mod stats;

use movr_math::SimRng;
use movr_testkit::Timer;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, by the names the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reflector installs plus reflection-angle searches.
    Align,
    /// Checkpointed 90 fps session frames.
    Session,
    /// Recorded fleet sessions and their reduction.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Align, Workload::Session, Workload::Fleet];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Align => "align",
            Workload::Session => "session",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Every input is derived from this seed.
    pub seed: u64,
    /// Host seconds to measure for, after set-up and warm-up. Zero runs
    /// only the warm-up, which still yields the digest and, when traced,
    /// every layer the workload crosses.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Pool workers for the fleet workload.
    pub workers: usize,
    /// Where a traced run writes its spans at exit (`None`: keep them
    /// in memory only).
    pub spans_out: Option<PathBuf>,
}

impl Options {
    /// Options for `seed` and `seconds`, untraced, with one fleet worker
    /// per available core.
    pub fn new(seed: u64, seconds: f64) -> Self {
        Options {
            seed,
            seconds,
            trace: false,
            workers: movr_sim::available_threads(),
            spans_out: None,
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (align: installs plus searches; session:
    /// frames; fleet: recorded sessions).
    pub attempted: u64,
    /// Operations that broke a check any correct build passes.
    pub failed: u64,
    /// Digest over the warm-up's simulated outputs (see the workload).
    pub digest: u64,
    /// Exact simulated statistics of the warm-up: identical for a seed
    /// on every run and every build that simulates the same physics.
    pub stats: Vec<Metric>,
    /// The result metrics: [`END_TO_END`] when untraced, [`PER_LAYER`]
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Untraced runs: the workload's end-to-end metrics under the names
    /// README.md's metric table uses.
    pub named: Vec<Metric>,
    /// Human-readable remarks: sample counts, reconciliation, probes.
    pub notes: Vec<String>,
}

/// The end-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("main_per_s", "1/s"),
    ("aux_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`.
/// Names are `module.quantity`; `sim.*.w<i>` cover the first two pool
/// workers.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("alignment.op_ms_p50", "ms"),
    ("alignment.op_ms_p99", "ms"),
    ("alignment.op_samples", "count"),
    ("alignment.probes_per_op", "count"),
    ("alignment.within_2deg_share", "share"),
    ("alignment.report_noise_row_us", "us"),
    ("relay.round_trip_row_us", "us"),
    ("relay.end_snr_row_us", "us"),
    ("relay.link_on_us", "us"),
    ("phased-array.fill_page_us", "us"),
    ("phased-array.gain_row_us", "us"),
    ("phased-array.steer_us", "us"),
    ("radio.tone_measure_ns", "ns"),
    ("radio.evaluate_link_us", "us"),
    ("control.command_us", "us"),
    ("gain_control.ramp_us", "us"),
    ("gain_control.steps_per_ramp", "count"),
    ("rfsim.trace_link_us", "us"),
    ("rfsim.links_per_op", "count"),
    ("system.direct_frame_us", "us"),
    ("system.reflector_frame_us", "us"),
    ("motion.world_at_ns", "ns"),
    ("motion.trace_build_ms", "ms"),
    ("session.step_us_p50", "us"),
    ("session.step_us_p99", "us"),
    ("session.self_us", "us"),
    ("session.reflector_frame_share", "share"),
    ("session.repeat_world_share", "share"),
    ("session.realigns", "count"),
    ("snapshot.capture_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("obs.record_ns", "ns"),
    ("obs.events_per_frame", "count"),
    ("obs.parse_ns", "ns"),
    ("obs.fold_ns", "ns"),
    ("obs.merge_us", "us"),
    ("fleet.events", "count"),
    ("sim.busy_share.w0", "share"),
    ("sim.busy_share.w1", "share"),
    ("sim.items.w0", "count"),
    ("sim.items.w1", "count"),
    ("sim.idle_share", "share"),
    ("sim.imbalance", "ratio"),
    ("sim.dispatch_us", "us"),
    ("sim.pool_spawn_ms", "ms"),
    ("align.layer_sum_ratio", "ratio"),
    ("align.trace_overhead", "ratio"),
    ("session.layer_sum_ratio", "ratio"),
    ("session.trace_overhead", "ratio"),
    ("fleet.layer_sum_ratio", "ratio"),
    ("fleet.trace_overhead", "ratio"),
];

/// A traced run stops starting new operations once it holds this many
/// spans, which bounds its memory and the spans file it writes.
pub(crate) const MAX_SPANS: usize = 100_000;

/// Set-up repetitions per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 41;

/// Calibration runs before a workload's set-up repetitions.
const SETUP_CALIBRATIONS: usize = 9;

/// Host times of a workload's repeated set-up, and of the calibration
/// runs made just before them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetupTimes {
    raw_ns: Vec<f64>,
    calibration_ns: Vec<f64>,
}

impl SetupTimes {
    /// Median set-up time in host seconds.
    pub(crate) fn raw_s(&self) -> f64 {
        stats::median(&self.raw_ns) * 1e-9
    }

    /// Median set-up time scaled by the run's median calibration (see
    /// README.md, "Calibration").
    pub(crate) fn calibrated_s(&self) -> f64 {
        self.raw_s() * stats::CALIBRATION_REF_NS / stats::median(&self.calibration_ns)
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the times of all of them.
pub(crate) fn time_setup<T>(mut setup: impl FnMut() -> T) -> (T, SetupTimes) {
    let mut times = SetupTimes {
        raw_ns: Vec::with_capacity(SETUP_REPS),
        calibration_ns: (0..SETUP_CALIBRATIONS)
            .map(|_| stats::calibration_ns())
            .collect(),
    };
    // The repetitions run back to back: a pause before each one lets an
    // idle vCPU fall asleep, and waking it dominates a thread spawn.
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Tearing the previous repetition down (freeing memory, stopping
        // pool threads) is not set-up work.
        drop(last.take());
        let clock = Timer::start();
        let value = setup();
        times.raw_ns.push(clock.elapsed_ns() as f64);
        last = Some(value);
    }
    (last.expect("SETUP_REPS is positive"), times)
}

/// A measuring budget in host seconds, started when the warm-up ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    clock: Timer,
    seconds: f64,
}

impl Budget {
    /// Starts spending `seconds` now.
    pub(crate) fn start(seconds: f64) -> Self {
        Budget {
            clock: Timer::start(),
            seconds,
        }
    }

    /// True once the budget is used up.
    pub(crate) fn spent(&self) -> bool {
        self.clock.elapsed_secs_f64() >= self.seconds
    }
}

/// The RNG stream for item `index` of input stream `stream` under
/// `seed`: every workload input is drawn from one of these.
pub(crate) fn rng_for(seed: u64, stream: u64, index: u64) -> SimRng {
    let mut root = SimRng::seed_from_u64(seed);
    let mut inputs = root.fork(stream);
    inputs.fork(index)
}

/// Runs one workload.
///
/// A traced run reports every [`PER_LAYER`] metric. The layers its own
/// workload does not cross come from a warm-up-only traced probe of the
/// workload that does, on the same seed; the notes name each one.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    let mut out = run_one(workload, opts);
    if let Some(rss) = out.metrics.iter().find(|m| m.name == "peak_rss_mb") {
        out.named.insert(1, rss.clone());
    }
    if opts.trace {
        let have: BTreeMap<String, Metric> = out
            .metrics
            .drain(..)
            .chain(out.stats.iter().cloned())
            .map(|m| (m.name.clone(), m))
            .collect();
        let mut probed: BTreeMap<String, Metric> = BTreeMap::new();
        let mut probe_notes = Vec::new();
        for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
            let probe_opts = Options {
                seconds: 0.0,
                spans_out: None,
                ..opts.clone()
            };
            let probe = run_one(other, &probe_opts);
            let mut names = Vec::new();
            for m in probe.metrics.into_iter().chain(probe.stats) {
                if !have.contains_key(&m.name) && !probed.contains_key(&m.name) {
                    names.push(m.name.clone());
                    probed.insert(m.name.clone(), m);
                }
            }
            if probe.failed > 0 {
                probe_notes.push(format!(
                    "probe {}: {} of {} operations failed their checks",
                    other.name(),
                    probe.failed,
                    probe.attempted
                ));
            }
            if !names.is_empty() {
                probe_notes.push(format!(
                    "probed on a warm-up run of {} (not on the {} path): {}",
                    other.name(),
                    workload.name(),
                    names.join(", ")
                ));
            }
        }
        out.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                have.get(name)
                    .or_else(|| probed.get(name))
                    .cloned()
                    .unwrap_or_else(|| {
                        probe_notes.push(format!("{name}: no run measured it"));
                        Metric::new(name, 0.0, unit)
                    })
            })
            .collect();
        out.notes.extend(probe_notes);
    }
    out
}

/// Ends a traced run: its per-layer metrics, its reconciliation line,
/// and the spans file when one was asked for.
fn finish_traced(
    out: &mut Outcome,
    opts: &Options,
    tracer: &Tracer,
    metrics: Vec<Metric>,
    line: String,
) {
    out.metrics = metrics;
    out.notes.push(line);
    if let Some(path) = &opts.spans_out {
        if let Err(e) = tracer.write_jsonl(path) {
            out.notes
                .push(format!("spans not written to {}: {e}", path.display()));
        }
    }
}

fn run_one(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::Align => align::run(opts),
        Workload::Session => session::run(opts),
        Workload::Fleet => fleet::run(opts),
    }
}

/// The end-to-end metric list of an untraced run: set-up, memory, and
/// the workload's two throughputs.
pub(crate) fn end_to_end(setup_s: f64, main_per_s: f64, aux_per_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "peak_rss_mb",
            stats::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
        Metric::new("main_per_s", main_per_s, "1/s"),
        Metric::new("aux_per_s", aux_per_s, "1/s"),
    ]
}

/// The human-readable calibration remark of an untraced run.
pub(crate) fn calibration_note(calibrations: &[f64]) -> String {
    let m = stats::median(calibrations);
    format!(
        "calibration kernel: median {:.0} ns over {} runs, reference {:.0} ns; machine factor {:.3}",
        m,
        calibrations.len(),
        stats::CALIBRATION_REF_NS,
        m / stats::CALIBRATION_REF_NS
    )
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0 && out.metrics.iter().all(|m| m.value.is_finite()),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives; non-finite values (never expected)
/// print as 0 and make the result incorrect via [`result_json`].
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The human-readable report printed before the result line.
pub fn report_lines(workload: Workload, opts: &Options, out: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "perfbench {} seed={} seconds={} trace={} workers={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.workers
    )];
    let shown = if opts.trace { &out.metrics } else { &out.stats };
    for m in out.named.iter().chain(shown) {
        lines.push(format!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit));
    }
    lines.push(format!(
        "  attempted {} failed {} digest {:016x}",
        out.attempted, out.failed, out.digest
    ));
    lines.extend(out.notes.iter().map(|n| format!("  {n}")));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            ..Outcome::default()
        };
        let line = result_json(&out);
        let doc = movr_obs::Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .fields()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("correct").and_then(movr_obs::Json::as_bool),
            Some(true)
        );
    }
}
