//! VR player motion and tracking.
//!
//! The paper's blockage scenarios (§3) are *motions*: the player raises a
//! hand, turns her head, or another person walks between the AP and the
//! headset. This crate turns those into simulator inputs:
//!
//! * [`pose`] — the player's pose and the obstacles her own body
//!   contributes. Blockage by the player's head is *emergent*: the
//!   headset receiver sits on the front of the head, so turning away from
//!   the AP swings the head into the line of sight.
//! * [`trace`] — scripted and stochastic motion traces producing a
//!   [`WorldState`] (player pose + third-party obstacles) at any instant.
//! * [`tracking`] — a lighthouse-style 6-DoF tracker: the VR system knows
//!   the headset pose to millimetres at high rate, which is exactly the
//!   side information §6 proposes for fast beam re-alignment.

pub mod pose;
pub mod trace;
pub mod tracking;

pub use pose::{PlayerState, WorldState, FACE_OFFSET_M};
pub use trace::{HandRaise, HeadTurn, MotionTrace, RandomWalk, StaticScene, WalkerCrossing};
pub use tracking::{LighthouseTracker, TrackedPose};
