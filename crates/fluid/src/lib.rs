//! # pi2-fluid — fluid model and control-theoretic analysis
//!
//! Appendix B of the paper analyses the TCP/AQM loop with the fluid model
//! of Misra et al. and Hollot et al.: linearized transfer functions for
//! Reno on `p`, Reno on `p'²` and a scalable control on `p'`, closed with
//! the PI controller. This crate reproduces that analysis:
//!
//! * [`law`] — the one control law every engine evaluates: the Table 1
//!   gains, the step of eq. (4), PIE's tune table and the output law with
//!   its Classic cap; the packet AQMs in `pi2-aqm` import it from here;
//! * [`complex`] — minimal complex arithmetic (no external dependency);
//! * [`tf`] — the loop transfer functions (35)–(37) with their operating
//!   points, plus PIE's tune-scaled gains;
//! * [`bode`] — gain/phase margins on a log-frequency sweep (Figures 4
//!   and 7);
//! * [`ode`] — a nonlinear delay-ODE integrator for eqs. (15)–(26), the
//!   fast cross-check of the packet-level simulator;
//! * [`flow`] — the flow-level *execution backend*: max-min-fair
//!   bottleneck sharing over arbitrary class mixes with no per-packet
//!   events, plus the hybrid-mode external-signal coupling.

pub mod bode;
pub mod complex;
pub mod flow;
pub mod law;
pub mod nyquist;
pub mod ode;
pub mod tf;

pub use bode::{margins, Margins};
pub use complex::Complex;
pub use flow::{
    max_min_allocation, max_min_weighted, FlowClass, FlowLevelConfig, FlowLevelSample,
    FlowLevelSim,
};
pub use nyquist::{nyquist, winding_number, Stability};
pub use law::{OutputLaw, PiGains};
pub use ode::{FluidConfig, FluidControllerKind, FluidSim, FluidTcpKind};
pub use tf::{LoopKind, LoopTf};
