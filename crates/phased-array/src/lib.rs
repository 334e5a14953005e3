//! Phased-array antenna model.
//!
//! The paper's reflector and radios each use a patch phased array "half the
//! size of a credit card": N patch elements on PCB, each behind a Hittite
//! HMC-933 analog phase shifter, steered electronically in sub-microseconds
//! (§4, §6). This crate models that stack:
//!
//! * [`element`] — the single patch element's broad cosine pattern.
//! * [`shifter`] — phase shifters, including control-DAC quantisation.
//! * [`array`](mod@array) — the uniformly fed linear array: array factor,
//!   steering, gain.
//! * [`codebook`] — finite beam books for sweep protocols.
//! * [`table`] — pre-steered pattern tables at codebook resolution.
//!
//! A 10-element λ/2 array reproduces the paper's ~10° half-power beamwidth.
//! The model is planar (azimuth only), matching the paper's evaluation
//! geometry, and returns gains in dBi toward absolute room bearings so the
//! propagation layer can weight multipath components.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod array;
pub mod codebook;
pub mod element;
pub mod shifter;
pub mod table;

pub use array::{SteeredArray, SteeringVector, UniformLinearArray, MAX_ELEMENTS};
pub use codebook::Codebook;
pub use table::{GainPage, PatternTable};
pub use element::PatchElement;
pub use shifter::PhaseShifter;

/// Number of elements that yields the paper's ~10° beamwidth at λ/2
/// spacing (half-power beamwidth ≈ 101.5°/N for a broadside ULA).
pub const PAPER_ARRAY_ELEMENTS: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_array_has_ten_degree_beam() {
        let arr = UniformLinearArray::paper_array();
        let bw = arr.half_power_beamwidth_deg(0.0);
        assert!(
            (bw - 10.0).abs() < 2.0,
            "expected ≈10° beamwidth, got {bw}"
        );
    }
}
