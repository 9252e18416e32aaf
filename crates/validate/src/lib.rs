//! # pi2-validate — model-agreement and metamorphic validation
//!
//! The packet-level simulator (`pi2-netsim` + `pi2-aqm` + `pi2-transport`)
//! is the ground truth, and the reproduction has three cheaper models of
//! the same system: the Appendix B delay-ODE (`pi2-fluid::ode`), the
//! flow-level engine (`pi2-fluid::flow`) and hybrid mode (a packet
//! foreground over a fluid background). Each can be wrong on its own; it
//! is much harder for one to be wrong *in the same way* as the packet
//! engine. This crate turns that observation into an executable
//! cross-check with one judge:
//!
//! * [`differential`] — one grid of cells (AQM × traffic class at a
//!   shared operating point), each run once on the packet engine and
//!   compared with every model listed for it on steady-state
//!   congestion-signal probability, mean queue delay, per-flow rate
//!   fairness and utilization under the one [`bands`] table, reported as
//!   one table (`pi2fig validate_grid`).
//! * [`metamorphic`] — properties that relate *runs to other runs* rather
//!   than to fixed numbers: summary metrics are seed-invariant within a
//!   band, jointly scaling link rate and packet size is a symmetry, and
//!   the coupled AQM's Classic/Scalable probabilities obey the paper's
//!   `p_C = (p_S / k)²` coupling law. The generators here are reused by
//!   both the deterministic tier-1 tests and the feature-gated
//!   `proptests` suite.
//!
//! The third validation layer — the always-on runtime invariant auditor —
//! lives in `pi2_netsim::audit` so it can observe the event stream
//! in-process; this crate's tests exercise it end to end.

pub mod differential;
pub mod metamorphic;

pub use differential::{
    bands, grid, run_cell, run_grid, Cell, CellReport, GridReport, MetricReport, Model,
    PairReport, Tol, Tolerances,
};
pub use metamorphic::{coupling_scenario, run_summary, standard_scenario, SummaryMetrics};
