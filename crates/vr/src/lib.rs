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
//! * [`quality`] — the player-facing grade of a glitch report.
//!
//! The Vive's frame size, the 10 ms budget and the grade thresholds
//! describe the one headset the paper evaluates, so they are constants;
//! only the refresh rate is a setting.
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
pub use quality::QualityGrade;
pub use traffic::VrTrafficModel;
