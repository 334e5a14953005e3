//! The MoVR control plane.
//!
//! "MoVR has a bluetooth link with the AP to exchange control information.
//! Our prototype uses an Arduino to run its control protocol" (§4). The
//! data plane is pure analog RF; everything coordinated — beam commands
//! during alignment sweeps, modulation on/off, SNR degradation reports
//! from the headset — crosses this low-rate side channel.
//!
//! * [`message`] — the protocol vocabulary.
//! * [`channel`] — a Bluetooth-LE-class delivery model: per-message
//!   latency with jitter and occasional loss, deterministic per seed.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![expect(
    unused_crate_dependencies,
    reason = "control keeps movr-obs as a Cargo dependency, which perfbench's lockfile records, \
              but names nothing from it: the control plane records no events. \
              Naming an obs item leaves this expectation unfulfilled, which fails clippy"
)]

pub mod channel;
pub mod message;
pub mod protocol;

pub use channel::{ControlChannel, BLE_LATENCY};
pub use message::ControlMessage;
pub use protocol::{CommandSession, SessionStats, SessionStatus};
