//! # pi2-aqm — the PI2 AQM and its baselines
//!
//! This crate is the paper's primary contribution plus everything it is
//! compared against:
//!
//! * [`PiCore`] — the textbook Proportional-Integral controller of eq. (4),
//!   shared by every controller here; its step, the Table 1 gains, PIE's
//!   tune table and the output laws are `pi2_fluid::law`'s, the one copy
//!   the fluid engines evaluate too;
//! * [`PiAqm`] — that loop on the queue delay with an output law; the
//!   paper's three PI controllers are this one type, named after their
//!   configurations: [`Pi`] (`Direct`: the oscillating `pi` curve of
//!   Figure 6, and `scal pi` for Scalable-only traffic), [`Pi2`]
//!   (`Squared`: the contribution, `p'` squared at the drop/mark decision,
//!   Figure 8, with constant gains 2.5× PIE's) and [`CoupledPi2`]
//!   (`Squared` with a Scalable class: Figure 9's single queue, `p'` for
//!   Scalable and `(p'/k)²` for Classic traffic, k = 2);
//! * [`Pie`] — the Linux/RFC 8033 PIE baseline with the stepwise "tune"
//!   auto-scaling of Figure 5 and its heuristics behind one switch (off =
//!   the paper's "bare-PIE");
//! * [`DualPi2`] — the two-queue DualQ Coupled extension (the paper's
//!   Section 7 destination, the RFC 9332 direction): near-priority
//!   L queue with native ramp marking, C queue under PI2's law;
//! * baselines and comparators: [`CurvyRed`] (the DualQ draft's example
//!   AQM), [`FqDrr`] per-flow queuing,
//!   [`StepMark`] (the original DCTCP step threshold, for the
//!   eq. (11)/(12) exponent demonstration), and [`FixedProb`] for
//!   steady-state law validation.
//!
//! Single-queue policies implement [`pi2_netsim::Aqm`] and attach to the
//! FIFO bottleneck; structured schemes ([`DualPi2`], [`FqDrr`])
//! implement [`pi2_netsim::Qdisc`] and replace the queue outright, built
//! from the same [`pi2_netsim::Fifo`] and [`pi2_netsim::Link`] as the
//! FIFO. Conformance suites (`tests/conformance.rs`,
//! `tests/qdisc_conformance.rs`) hold every policy to the same
//! behavioural contracts.

pub mod coupled;
pub mod curvy;
pub mod dualq;
pub mod fixed;
pub mod fq;
pub mod estimator;
pub mod pi;
pub mod pi2;
pub mod pie;
pub mod step;

pub use coupled::{CoupledPi2, CoupledPi2Config};
pub use curvy::{CurvyRed, CurvyRedConfig};
pub use dualq::{DualPi2, DualPi2Config};
pub use estimator::{DelayEstimator, RateEstimator};
pub use fixed::FixedProb;
pub use fq::{FqConfig, FqDrr};
pub use pi::{Pi, PiAqm, PiConfig, PiCore};
pub use pi2::{Pi2, Pi2Config, SquareMode};
pub use pie::{Pie, PieConfig};
pub use step::{StepMark, StepMarkConfig};
