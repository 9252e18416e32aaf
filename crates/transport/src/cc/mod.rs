//! Congestion-control algorithms.
//!
//! Section 2 of the paper classifies congestion controls by the exponent
//! `B` in their steady-state window law `W ∝ 1/p^B` (Appendix A):
//!
//! | control | law | B | scalable? |
//! |---|---|---|---|
//! | Reno | `W = 1.22/√p` | 1/2 | no |
//! | CReno (Cubic's Reno mode) | `W = 1.68/√p` | 1/2 | no |
//! | pure Cubic | `W = 1.17 R^¾/p^¾` | 3/4 | no |
//! | DCTCP, probabilistic marking | `W = 2/p` | 1 | yes |
//!
//! A control is *scalable* iff `B ≥ 1`: only then does the number of
//! congestion signals per RTT, `c = pW ∝ W^(1−1/B)`, not dwindle as the
//! rate scales. Each implementation here exposes its closed-form law via
//! `steady_state_window`, which integration tests compare against measured
//! packet-level behaviour.

mod cubic;
mod dctcp;
mod reno;
mod scalable;

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use reno::Reno;
use scalable::Scalable;

use pi2_simcore::{Ckpt, Duration, Time};

/// A pluggable congestion-control algorithm driven by the TCP machinery in
/// [`crate::tcp::TcpSource`].
///
/// The machinery enforces the once-per-RTT gating of Classic congestion
/// events (loss and classic-ECN ECE), so `on_loss`/`on_ecn` fire at most
/// once per round trip. DCTCP-style controls instead consume the per-ACK
/// mark counts passed to [`CongestionControl::on_ack`].
///
/// Its [`Ckpt`] layout is all mutable controller state; a control with no
/// state declares an empty one, so a stateful one cannot forget it.
pub trait CongestionControl: Ckpt {
    /// Current congestion window in packets (fractional).
    fn cwnd(&self) -> f64;

    /// Slow-start threshold in packets.
    fn ssthresh(&self) -> f64;

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// New data has been cumulatively acknowledged.
    ///
    /// * `acked` — packets newly acknowledged;
    /// * `marked` — of the data packets newly seen by the receiver, how
    ///   many carried CE (from the ACK's cumulative counters);
    /// * `received` — data packets newly seen by the receiver (marked or
    ///   not), the denominator for the DCTCP fraction;
    /// * `rtt` — latest smoothed RTT estimate;
    /// * `now` — current virtual time.
    fn on_ack(&mut self, acked: u64, marked: u64, received: u64, rtt: Duration, now: Time);

    /// A packet loss was detected by fast retransmit (at most once per RTT).
    fn on_loss(&mut self, now: Time);

    /// A classic-ECN congestion echo was received (at most once per RTT).
    /// RFC 3168 requires the same response as to loss; that is the default.
    fn on_ecn(&mut self, now: Time) {
        self.on_loss(now);
    }

    /// The retransmission timer expired: collapse to one packet.
    fn on_rto(&mut self, now: Time);

    /// Algorithm name for experiment tables.
    fn name(&self) -> &'static str;

    /// The closed-form steady-state window (packets) at signal probability
    /// `p` and round-trip time `rtt` (Appendix A of the paper), used by
    /// validation tests. Returns `None` if the control has no simple law.
    fn steady_state_window(&self, p: f64, rtt: Duration) -> Option<f64>;
}

/// Which congestion control to instantiate, together with the Appendix A
/// scaling exponent it is classified under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcKind {
    /// TCP Reno: AIMD(1, 1/2).
    Reno,
    /// TCP Cubic (RFC 8312) with its CReno TCP-friendly region, as in
    /// Linux (β = 0.7).
    Cubic,
    /// DCTCP: α-EWMA of the marked fraction, `W ← W(1−α/2)` once per RTT.
    Dctcp,
    /// The idealized scalable control of Appendix B: half-packet window
    /// reduction per mark. Simplest member of the Scalable family.
    ScalableHalfPkt,
    /// Relentless TCP: one segment lost per mark/loss, `W = 1/p` (named
    /// in the paper's Section 5 list of Scalable controls).
    Relentless,
    /// Scalable TCP (Kelly): MIMD(0.01, 1/8), `W = 0.08/p` (the other
    /// Section 5 family member).
    ScalableTcp,
}

impl CcKind {
    /// Build a fresh instance with the given initial window.
    pub fn build(self, initial_cwnd: f64) -> Box<dyn CongestionControl> {
        match self {
            CcKind::Reno => Box::new(Reno::new(initial_cwnd)),
            CcKind::Cubic => Box::new(Cubic::new(initial_cwnd)),
            CcKind::Dctcp => Box::new(Dctcp::new(initial_cwnd)),
            CcKind::ScalableHalfPkt => Box::new(Scalable::new(&scalable::HALF_PKT, initial_cwnd)),
            CcKind::Relentless => Box::new(Scalable::new(&scalable::RELENTLESS, initial_cwnd)),
            CcKind::ScalableTcp => Box::new(Scalable::new(&scalable::STCP, initial_cwnd)),
        }
    }

    /// The exponent `B` in `W ∝ 1/p^B` (Appendix A). Cubic reports its
    /// pure-Cubic exponent; in its Reno mode it behaves as 1/2.
    pub fn scaling_exponent(self) -> f64 {
        match self {
            CcKind::Reno => 0.5,
            CcKind::Cubic => 0.75,
            CcKind::Dctcp => 1.0,
            CcKind::ScalableHalfPkt => 1.0,
            CcKind::Relentless => 1.0,
            CcKind::ScalableTcp => 1.0,
        }
    }

    /// Section 2's criterion: scalable iff `B ≥ 1`.
    pub fn is_scalable(self) -> bool {
        self.scaling_exponent() >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalability_classification_matches_section_2() {
        assert!(!CcKind::Reno.is_scalable());
        assert!(!CcKind::Cubic.is_scalable());
        assert!(CcKind::Dctcp.is_scalable());
        assert!(CcKind::ScalableHalfPkt.is_scalable());
    }

    #[test]
    fn build_produces_matching_names() {
        assert_eq!(CcKind::Reno.build(10.0).name(), "reno");
        assert_eq!(CcKind::Cubic.build(10.0).name(), "cubic");
        assert_eq!(CcKind::Dctcp.build(10.0).name(), "dctcp");
        assert_eq!(CcKind::ScalableHalfPkt.build(10.0).name(), "scal");
    }

    #[test]
    fn signals_per_rtt_shrink_only_for_unscalable() {
        // c ∝ W^(1-1/B): growing W must shrink c for B<1, keep it for B=1.
        for kind in [CcKind::Reno, CcKind::Cubic] {
            let e = 1.0 - 1.0 / kind.scaling_exponent();
            assert!(e < 0.0, "{kind:?} should lose signal density");
        }
        let e = 1.0 - 1.0 / CcKind::Dctcp.scaling_exponent();
        assert_eq!(e, 0.0, "DCTCP keeps constant signals per RTT");
    }
}
