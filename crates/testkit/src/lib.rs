//! Hermetic, deterministic test toolkit for the MoVR workspace.
//!
//! The tier-1 gate (`cargo build --release && cargo test -q`) must pass
//! with no network access, so this crate supplies — with zero external
//! dependencies — the two things the workspace previously pulled from
//! crates.io:
//!
//! * a **property-based testing harness** ([`for_all`], the [`property!`]
//!   macro, the [`gen`] combinators): seeded case generation on top of
//!   [`movr_math::SimRng`], a configurable case count, and greedy input
//!   shrinking on failure, replacing `proptest`;
//! * a **micro-benchmark runner** ([`bench::bench_fn`], [`bench::Timer`]):
//!   warmup + N timed samples, median/p95 statistics and each row's
//!   ratio to a frozen calibration kernel ([`bench::calibration_ns`]),
//!   JSON-line output, replacing `criterion`.
//!
//! Both are deliberately small: deterministic by construction (every run
//! derives from an explicit seed, overridable via `MOVR_TESTKIT_SEED`),
//! and honest about what they are — a reproducibility harness, not a
//! statistics research project.

#![deny(missing_docs)]

pub mod bench;
pub mod gen;
pub mod runner;

pub use bench::{bench_fn, bench_with_setup, calibration_ns, BenchOptions, BenchReport, Timer};
pub use gen::{
    angle_deg, choice, f64_range, just, u64_range, usize_range, vec2_in, vec_of, Gen,
};
pub use runner::{check, for_all, for_all_with, CheckReport, Config, Failure, PropError};

/// Outcome of one property-case evaluation: `Ok(())` passes, or the case
/// either failed an assertion or asked to be discarded (`prop_assume!`).
pub type PropResult = Result<(), PropError>;
