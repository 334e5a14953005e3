//! Workspace façade for the MoVR simulator.
//!
//! Re-exports every crate in the workspace under one roof so the
//! repository-level examples and integration tests can reach the whole
//! stack through a single dependency. Library users should depend on the
//! individual crates (`movr`, `movr-rfsim`, …) instead.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use movr;
pub use movr_analog as analog;
pub use movr_control as control;
pub use movr_math as math;
pub use movr_motion as motion;
pub use movr_obs as obs;
pub use movr_phased_array as phased_array;
pub use movr_radio as radio;
pub use movr_rfsim as rfsim;
pub use movr_sim as sim;
pub use movr_vr as vr;

pub mod fleet;
