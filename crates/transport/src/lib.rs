//! # pi2-transport — TCP machinery and congestion controls
//!
//! The paper's experiments drive the AQMs with unmodified Linux TCP
//! variants: Reno, Cubic (which falls back to a Reno-like mode, "CReno",
//! at small BDPs), ECN-Cubic, and DCTCP (modified only to set ECT(1)).
//! This crate reimplements that sender/receiver machinery on top of
//! `pi2-netsim`:
//!
//! * [`tcp::TcpSource`] — an ACK-clocked sliding-window sender and its
//!   receiver in one [`pi2_netsim::Source`], with slow start, SACK fast
//!   retransmit/recovery, RFC 6298 RTO estimation, and ECN feedback;
//! * [`cc`] — the pluggable congestion-control algorithms, each carrying
//!   its steady-state window law from Appendix A so tests can check the
//!   packet-level behaviour against the closed form.

pub mod cc;
pub mod rangeset;
pub mod seqset;
pub mod tcp;

pub use cc::{CcKind, CongestionControl, Cubic, Dctcp, Reno};
pub use rangeset::RangeSet;
pub use tcp::{EcnSetting, TcpConfig, TcpSource};
