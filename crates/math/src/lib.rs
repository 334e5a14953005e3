#![warn(missing_docs)]

//! Math substrate for the MoVR simulator.
//!
//! This crate deliberately implements the small amount of numerics the
//! simulator needs — complex baseband arithmetic, planar geometry, decibel
//! conversions, angle bookkeeping and summary statistics — rather than
//! pulling in a general-purpose linear-algebra stack. Everything is plain
//! `f64`, allocation-free where possible, and documented in the units used
//! throughout the workspace:
//!
//! * power in **dBm** or **watts**, gains/losses in **dB**,
//! * angles in **degrees** at API boundaries (the paper's figures are in
//!   degrees), radians internally where trigonometry happens,
//! * distances in **metres**, frequencies in **Hz**.
//!
//! It also holds the workspace's data codecs: [`wire`] for checkpoints,
//! and the one JSON ([`json`]) and TOML-subset ([`toml`]) reader.

pub mod angle;
pub mod complex;
pub mod convert;
pub mod db;
pub mod json;
pub mod rng;
pub mod stats;
pub mod toml;
pub mod vec2;
pub mod wire;

pub use angle::{wrap_deg_180, wrap_deg_360};
pub use complex::C64;
pub use db::{amplitude_to_db, db_to_amplitude, db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm};
pub use rng::SimRng;
pub use stats::{Cdf, Summary};
pub use vec2::Vec2;
pub use wire::{fnv1a64, WireError, WireReader, WireWriter};
