//! mmWave propagation simulator.
//!
//! This crate is the physical substrate the MoVR paper evaluated on in
//! hardware: a 5 m × 5 m furnished office with a 24 GHz link between an AP,
//! a reflector and a headset. It models:
//!
//! * **Geometry** — a rectangular room with walls ([`geometry`]), circular
//!   obstacles for furniture and human body parts ([`obstacle`]).
//! * **Propagation** — free-space path loss (Friis), specular wall
//!   reflections found with the image method up to second order
//!   ([`raytrace`]), per-material reflection and penetration losses
//!   ([`material`]).
//! * **Blockage** — body parts intersecting a path segment attenuate it by
//!   the material's penetration loss; this is what turns a 25 dB LOS link
//!   into an undecodable one when the player raises a hand (paper §3).
//! * **Channel** — each surviving path contributes a complex gain
//!   (amplitude from the loss budget, phase from the electrical length);
//!   paths combine coherently at the receiver, evaluated at the carrier
//!   ([`channel`]).
//! * **Noise** — thermal floor plus receiver noise figure ([`noise`]).
//! * **Reuse** — a traced link keeps its paths and taps so beam sweeps
//!   and unchanged frames reweight instead of re-tracing ([`cache`]), and
//!   whole gain rows fold in one pass ([`batch`]).
//!
//! The crate is purely geometric/electromagnetic: it knows nothing about
//! phased arrays, modulation or protocols. Antenna directivity enters
//! through the [`Pattern`] trait so higher layers can plug in anything from
//! an isotropic probe to a steered array.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod batch;
pub mod cache;
pub mod channel;
pub mod geometry;
pub mod material;
pub mod noise;
pub mod obstacle;
pub mod pattern;
pub mod raytrace;
pub mod scene;

pub use batch::LinkBatch;
pub use cache::{LinkMemo, TracedLink};
pub use channel::{Channel, PathGain};
pub use geometry::{Room, Segment, Surface, Wall};
pub use material::Material;
pub use noise::NoiseModel;
pub use obstacle::{BodyPart, Obstacle};
pub use pattern::{IsotropicPattern, Pattern, SectorPattern};
pub use raytrace::{trace_paths, Path, PathKind, TraceConfig, Vertices, MAX_PATH_VERTICES};
pub use scene::{LinkBudget, LinkEval, Scene};

/// Speed of light in vacuum (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Wavelength (metres) at a carrier frequency (Hz).
pub fn wavelength_m(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

/// Free-space path loss in dB at distance `d_m` metres and frequency
/// `freq_hz` (Friis): `20·log10(4π·d / λ)`.
///
/// Clamps distances below one wavelength to one wavelength — the far-field
/// formula is meaningless closer than that and would report a gain.
pub fn fspl_db(d_m: f64, freq_hz: f64) -> f64 {
    let lambda = wavelength_m(freq_hz);
    let d = d_m.max(lambda);
    movr_math::db::amplitude_to_db(4.0 * std::f64::consts::PI * d / lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_at_24ghz() {
        let l = wavelength_m(24.0e9);
        assert!((l - 0.01249).abs() < 1e-4, "λ={l}");
    }

    #[test]
    fn fspl_known_values() {
        // 24 GHz at 1 m ≈ 60.1 dB; each distance doubling adds ~6 dB.
        let l1 = fspl_db(1.0, 24.0e9);
        assert!((l1 - 60.08).abs() < 0.1, "l1={l1}");
        let l2 = fspl_db(2.0, 24.0e9);
        assert!((l2 - l1 - 6.02).abs() < 0.01);
        // 60 GHz at 1 m ≈ 68.0 dB.
        let l60 = fspl_db(1.0, 60.0e9);
        assert!((l60 - 68.0).abs() < 0.1, "l60={l60}");
    }

    #[test]
    fn fspl_never_negative() {
        // Inside one wavelength the loss clamps instead of turning into gain.
        assert!(fspl_db(1e-6, 24.0e9) >= 0.0);
        assert_eq!(fspl_db(0.0, 24.0e9), fspl_db(wavelength_m(24.0e9), 24.0e9));
    }
}
