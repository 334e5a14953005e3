#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

//! Simulation foundations: the simulated clock and the parallel map.
//!
//! End-to-end MoVR experiments (a VR session with a moving player, frame
//! deadlines every 11.1 ms, beam re-alignment stalls) run on a monotonic
//! simulated clock ([`SimTime`], integer nanoseconds), never the wall
//! clock. A session advances it one frame interval at a time; the caller
//! owns the loop, so all state lives in ordinary structs with no
//! interior mutability or callbacks. Independent simulations (a fleet of
//! sessions, a batch of sweeps) fan out with [`pool_map`], whose threads
//! all end before it returns.

pub mod pool;
pub mod time;

pub use pool::{available_threads, pool_map, WorkerPool};
pub use time::SimTime;
