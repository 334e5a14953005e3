//! # MoVR — a programmable mmWave reflector for untethered VR
//!
//! Reproduction of *"Cutting the Cord in Virtual Reality"* (Abari,
//! Bharadia, Duffield, Katabi — HotNets-XV, 2016) as a simulation-backed
//! Rust library.
//!
//! High-quality VR headsets need multiple Gb/s inside a ~10 ms latency
//! budget — too much for WiFi, fine for 60 GHz-class mmWave, except that
//! mmWave beams die the moment the player's hand, head, or a bystander
//! blocks the line of sight. MoVR fixes this with a wall-mounted
//! *programmable mirror*: two phased arrays joined by a variable-gain
//! amplifier, no baseband chains at all, that catches the AP's beam and
//! re-launches it toward the headset from a different angle.
//!
//! This crate implements the paper's two algorithms and the system around
//! them:
//!
//! * [`reflector`] — the MoVR device itself.
//! * [`relay`] — physics of the AP → reflector → headset two-hop link,
//!   including amplifier saturation through the leakage feedback loop.
//! * [`alignment`] — §4.1's backscatter beam alignment: the reflector can
//!   neither transmit nor receive, so the AP sweeps both beams while the
//!   reflector on/off-modulates its amplifier at f₂, and a filter at
//!   f₁+f₂ separates the reflection from the AP's own leakage.
//! * [`gain_control`] — §4.2's current-sensing gain control: step the
//!   gain up while watching the amplifier's DC supply current and back
//!   off at the saturation knee, keeping `G_dB < L_dB` without ever
//!   measuring L.
//! * [`system`] — the full link manager: blockage detection from SNR
//!   reports, direct-vs-reflector switchover, and §6's tracking-assisted
//!   fast realignment.
//! * [`baselines`] — the comparison points of Figs. 3 and 9: static LOS
//!   (WHDI-like), and exhaustive-sweep best-NLOS.
//! * [`session`] — end-to-end VR sessions over a motion trace with
//!   frame-by-frame glitch accounting.
//!
//! ## Quick start
//!
//! ```
//! use movr::system::{MovrSystem, SystemConfig};
//! use movr_math::Vec2;
//!
//! // A 5m×5m office with a wall-mounted AP and one MoVR reflector, as
//! // in the paper's §5.2 experiments.
//! let mut sys = MovrSystem::paper_setup(SystemConfig::default());
//!
//! // Put the player in the play area, facing the AP, and evaluate.
//! use movr_motion::PlayerState;
//! let player = PlayerState::standing(Vec2::new(4.0, 2.5), 180.0);
//! let decision = sys.evaluate(&movr_motion::WorldState::player_only(player));
//! assert!(decision.snr_db > 15.0, "clear LOS should be VR-grade");
//! ```

pub mod alignment;
pub mod baselines;
pub mod gain_control;
pub mod install;
pub mod planning;
pub mod reflector;
pub mod relay;
pub mod session;
pub mod snapshot;
pub mod system;
pub mod tracking;

pub use alignment::{AlignmentConfig, AlignmentResult};
pub use gain_control::{GainControlConfig, GainControlResult};
pub use reflector::MovrReflector;
pub use relay::{relay_link_on, RelayBudget};
pub use session::{
    run_session, run_session_on, run_session_on_recorded, run_session_recorded, RatePolicy,
    Session, SessionConfig, SessionOutcome, Strategy,
};
pub use snapshot::{config_fingerprint, Snapshot, SnapshotError, FORMAT_VERSION};
pub use system::{LinkDecision, LinkMode, MovrSystem, SystemConfig};
