//! 802.11ad-class mmWave radio models.
//!
//! The paper attaches a mmWave radio to the VR PC (the "AP") and another to
//! the headset, and converts measured SNRs to data rates "by substituting
//! the SNR measurements into standard rate tables based on the 802.11ad
//! modulation and code rates" (§3). This crate supplies those pieces:
//!
//! * [`mcs`] — the 802.11ad rate ladder: SNR thresholds → PHY rate, up to
//!   6.76 Gb/s, with the paper's §5.2 anchor that the top rate needs
//!   ~20 dB of SNR.
//! * [`per`] — a packet-error-rate model around each MCS threshold, used
//!   by the end-to-end VR session simulation for glitch accounting.
//! * [`frame`] — PPDU framing: the airtime a video frame's bits take at
//!   an MCS once preamble and header overheads are paid.
//! * [`adaptation`] — MCS selection from noisy SNR reports: one
//!   [`RateAdapter`] running an oracle, threshold or hysteresis
//!   [`RatePolicy`].
//! * [`endpoint`] — a radio bolted to a steerable phased array at a
//!   position in the room, and link-budget evaluation between two of them
//!   through an `movr-rfsim` scene.
//! * [`tone`] — the backscatter probe: a transmitted sinewave at f₁, the
//!   reflector's on/off modulation at f₂, and the AP-side filter that
//!   separates the f₁+f₂ sideband from the AP's own TX→RX leakage (§4.1).

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![expect(
    unused_crate_dependencies,
    reason = "radio keeps movr-obs as a Cargo dependency, which perfbench's lockfile records, \
              but names nothing from it: the rate adapter's events come from the session. \
              Naming an obs item leaves this expectation unfulfilled, which fails clippy"
)]

pub mod adaptation;
pub mod endpoint;
pub mod frame;
pub mod mcs;
pub mod per;
pub mod tone;

pub use adaptation::{BadMcsIndex, RateAdapter, RatePolicy, SNR_REPORT_SIGMA_DB};
pub use endpoint::{evaluate_link, ArrayPattern, RadioEndpoint};
pub use mcs::{McsEntry, RateTable, VR_REQUIRED_RATE_MBPS, VR_REQUIRED_SNR_DB};
pub use tone::{ToneMeasurement, ToneMeter, ToneProbe};
