//! # pi2-simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the PI2 reproduction: a minimal,
//! dependency-free discrete-event core providing
//!
//! * [`Time`] / [`Duration`] — virtual time as integer nanoseconds, so the
//!   event queue never compares floats and runs are bit-reproducible;
//! * [`EventQueue`] — a monotonic priority queue of timestamped events with
//!   deterministic FIFO tie-breaking, implemented as a hierarchical
//!   timing wheel (`O(1)` push/pop; see [`wheel`]) and cross-checked
//!   against the reference [`HeapEventQueue`];
//! * [`Rng`] — a self-contained xoshiro256++ PRNG seeded from a single
//!   `u64`, so every experiment is exactly reproducible from its seed
//!   regardless of external crate versions.
//!
//! The engine is intentionally synchronous and single-threaded: an AQM
//! control loop is a small CPU-bound state machine, and virtual time gives
//! strictly more control (and reproducibility) than wall-clock async.

pub mod ckpt;
pub mod event;
pub mod progress;
pub mod rng;
pub mod time;
pub mod wheel;

pub use ckpt::{Ckpt, CkptError, CkptReader, CkptWriter, SchemaHasher};
pub use event::{EventEntry, HeapEventQueue};
pub use progress::{progress, ProgressReport};
pub use wheel::EventQueue;
pub use rng::Rng;
pub use time::{Duration, Time};
