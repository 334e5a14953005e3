//! VR headset models: traffic, latency, glitches, battery.
//!
//! The paper's motivation is all here: a PC-based headset needs multiple
//! Gb/s delivered inside a ~10 ms motion-to-photon budget, cannot tolerate
//! compression latency, and — if the cable goes — needs a battery (§1,
//! §6). These models close the loop from link SNR to what the player
//! actually experiences:
//!
//! * [`traffic`] — the 90 Hz frame source and its bit-rate.
//! * [`latency`] — the motion-to-photon budget and where a wireless link
//!   spends it.
//! * [`glitch`] — frame-delivery accounting: loss rate, glitch events,
//!   longest stall.
//! * [`battery`] — §6's battery-life arithmetic for cutting the USB
//!   power cable too.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod battery;
pub mod glitch;
pub mod latency;
pub mod quality;
pub mod traffic;

pub use battery::Battery;
pub use glitch::{GlitchReport, GlitchTracker};
pub use latency::LatencyBudget;
pub use quality::{QualityGrade, QualityModel};
pub use traffic::VrTrafficModel;
