#![warn(missing_docs)]

//! Discrete-event simulation engine.
//!
//! End-to-end MoVR experiments (a VR session with a moving player, frame
//! deadlines every 11.1 ms, blockage events, beam re-alignment) are driven
//! by a classic discrete-event loop: a monotonic simulated clock
//! ([`SimTime`]) and a priority queue of typed events ([`EventQueue`]).
//!
//! Following the event-driven style of the networking guides (smoltcp
//! rather than an async runtime — this is CPU-bound simulation, not I/O),
//! the engine is deliberately callback-free: the caller pops events and
//! dispatches them itself, so all state lives in ordinary structs with no
//! interior mutability or `dyn FnOnce` gymnastics.

pub mod pool;
pub mod queue;
pub mod time;

pub use pool::{available_threads, global_pool, pool_map, WorkerPool};
pub use queue::{EventQueue, PastEventError};
pub use time::SimTime;
