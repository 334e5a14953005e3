//! # movr-obs — sim-time-aware observability
//!
//! Structured tracing and metrics for the MoVR simulator. Every question
//! the paper's evaluation asks — *when* did the hand block the line of
//! sight, *how long* did the §4.1 backscatter sweep take to converge, how
//! close did the §4.2 gain controller ride the saturation knee, *why* did
//! a frame miss its motion-to-photon budget — needs per-event visibility
//! into the 90 Hz loop, not just an aggregate outcome. This crate
//! provides it with three pieces:
//!
//! * **Events** ([`Event`], [`Kind`], [`Key`], [`Value`]) — structured
//!   timeline rows stamped with [`movr_sim::SimTime`], never wall-clock,
//!   so recorded streams are bit-deterministic per seed. Kinds and keys
//!   form one closed vocabulary, and an event holds its fields inline,
//!   so building, tagging, writing and dropping one never allocates.
//! * **Recorders** ([`Recorder`], [`NullRecorder`], [`MemoryRecorder`],
//!   [`JsonlWriter`]) — pluggable sinks. The instrumented hot paths hold
//!   a `&mut dyn Recorder` and guard event construction with
//!   [`Recorder::enabled`], so observability is nearly free when off.
//!   Sim-time *spans* ([`Recorder::start_span`] / [`Recorder::end_span`])
//!   make durations (alignment sweeps, gain ramps, realignment stalls)
//!   first-class.
//! * **Metrics** ([`Histogram`], [`MetricsSnapshot`]) — fixed-bucket
//!   histograms (linear spacing for dB, log spacing for nanoseconds) and
//!   the name-sorted snapshot of counters, gauges, and histograms that a
//!   producer builds from its own typed accounting and attaches to
//!   results.
//!
//! The crate depends only on `movr-sim` (for `SimTime`) and `movr-math`
//! (for `Summary` and the JSON and TOML readers) — no external
//! dependencies, no I/O beyond the caller-supplied `io::Write` sink.
//!
//! ## Example
//!
//! ```
//! use movr_obs::{Event, Histogram, Key, Kind, MemoryRecorder, MetricsSnapshot, Recorder};
//! use movr_sim::SimTime;
//!
//! let mut rec = MemoryRecorder::new();
//! let now = SimTime::from_millis(180);
//! let ramp = rec.start_span(now, "gain_ramp");
//! if rec.enabled() {
//!     rec.record(
//!         Event::new(now, Kind::GainStep)
//!             .with(Key::GainDb, 20.0)
//!             .with(Key::CurrentA, 0.21),
//!     );
//! }
//! rec.end_span(now, "gain_ramp", ramp);
//! assert_eq!(rec.spans()[0].0, "gain_ramp");
//! assert_eq!(
//!     rec.events()[1].json_line(),
//!     r#"{"t_ns":180000000,"kind":"gain_step","gain_db":20,"current_a":0.21}"#
//! );
//!
//! let mut snr = Histogram::linear(-10.0, 50.0, 60);
//! snr.observe(21.5);
//! let metrics = MetricsSnapshot {
//!     counters: vec![("frames_total".to_string(), 1)],
//!     gauges: Vec::new(),
//!     histograms: vec![("frame_snr_db".to_string(), snr)],
//! };
//! assert_eq!(metrics.counter("frames_total"), Some(1));
//! assert_eq!(metrics.histogram("frame_snr_db").map(Histogram::count), Some(1));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod event;
mod metrics;
mod ratchet;
mod recorder;
mod reduce;
mod rollup;
mod sketch;

pub use event::{Event, Key, Kind, Value, MAX_FIELDS};
pub use metrics::{Histogram, InvalidHistogram, MergeError, MetricsSnapshot};
// The JSON reader lives in movr-math; re-exported for the callers
// that read rollups and bench lines through `movr_obs::Json`.
pub use movr_math::json::{Json, JsonError, JsonStr};
pub use recorder::{
    JsonlSinkError, JsonlWriter, MemoryRecorder, NullRecorder, Recorder, SessionTagged, SpanId,
};
pub use ratchet::{check, parse_baseline, BenchBaseline, BenchPin, CheckOutcome, RatchetError, SpeedupPin};
pub use reduce::{reduce_lines, reduce_one_stream, reduce_streams, ReduceError};
pub use rollup::{diff_json, DiffEntry, Rollup, SessionRollup, FLEET_SKETCHES};
pub use sketch::{Sketch, SketchSpec, Spacing};
