//! TCP Reno: AIMD(1, ½).
//!
//! The canonical Classic control. One segment of additive increase per
//! round trip, multiplicative decrease by half on a congestion signal,
//! giving the Mathis law `W = 1.22/√p` (paper eq. (5)) — the √p that PI2's
//! output squaring is designed to counterbalance.

use super::CongestionControl;
use pi2_simcore::{ckpt_fields, Duration, Time};

/// Minimum congestion window after a decrease, in packets.
const MIN_CWND: f64 = 2.0;

/// Multiplicative-decrease factor on a congestion signal.
const BETA: f64 = 0.5;

/// TCP Reno congestion control.
#[derive(Clone, Debug)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Reno {
    /// Standard Reno, AIMD(1, ½).
    pub fn new(initial_cwnd: f64) -> Self {
        assert!(initial_cwnd >= 1.0, "initial cwnd must be at least 1");
        Reno {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
        }
    }

    fn decrease(&mut self) {
        self.ssthresh = (self.cwnd * BETA).max(MIN_CWND);
        self.cwnd = self.ssthresh;
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, acked: u64, _marked: u64, _received: u64, _rtt: Duration, _now: Time) {
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start: double per RTT
            } else {
                self.cwnd += 1.0 / self.cwnd; // CA: +1 segment per RTT
            }
        }
    }

    fn on_loss(&mut self, _now: Time) {
        self.decrease();
    }

    fn on_rto(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = 1.0;
    }

    fn name(&self) -> &'static str {
        "reno"
    }

    fn steady_state_window(&self, p: f64, _rtt: Duration) -> Option<f64> {
        // Paper eq. (5): W = 1.22 / p^(1/2).
        Some(1.22 / p.sqrt())
    }
}

ckpt_fields!(Reno { cwnd, ssthresh });

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Time {
        Time::ZERO
    }
    fn r() -> Duration {
        Duration::from_millis(100)
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(10.0);
        assert!(cc.in_slow_start());
        // One RTT worth of ACKs (10 packets) doubles the window.
        cc.on_ack(10, 0, 10, r(), t());
        assert_eq!(cc.cwnd(), 20.0);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut cc = Reno::new(10.0);
        cc.on_loss(t()); // exit slow start at 10 -> cwnd 5
        let w0 = cc.cwnd();
        assert_eq!(w0, 5.0);
        // One RTT of ACKs: five increments of 1/cwnd ≈ +1 total.
        cc.on_ack(5, 0, 5, r(), t());
        assert!((cc.cwnd() - (w0 + 1.0)).abs() < 0.12, "cwnd {}", cc.cwnd());
    }

    #[test]
    fn loss_halves_window() {
        let mut cc = Reno::new(40.0);
        cc.on_loss(t());
        assert_eq!(cc.cwnd(), 20.0);
        assert_eq!(cc.ssthresh(), 20.0);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn ecn_response_equals_loss_response() {
        let mut a = Reno::new(40.0);
        let mut b = Reno::new(40.0);
        a.on_loss(t());
        b.on_ecn(t());
        assert_eq!(a.cwnd(), b.cwnd());
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut cc = Reno::new(40.0);
        cc.on_rto(t());
        assert_eq!(cc.cwnd(), 1.0);
        assert_eq!(cc.ssthresh(), 20.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn window_never_below_minimum_after_decrease() {
        let mut cc = Reno::new(2.0);
        for _ in 0..10 {
            cc.on_loss(t());
        }
        assert!(cc.cwnd() >= MIN_CWND);
    }

    #[test]
    fn steady_state_law_is_mathis() {
        let cc = Reno::new(10.0);
        let w = cc.steady_state_window(0.01, r()).unwrap();
        assert!((w - 12.2).abs() < 1e-9);
    }

    /// AIMD fixed point: simulate the deterministic sawtooth at drop
    /// probability p and check the mean window tracks 1.22/√p within the
    /// sawtooth's own variation.
    #[test]
    fn sawtooth_mean_matches_law() {
        let p: f64 = 0.004;
        let mut cc = Reno::new(2.0);
        cc.on_loss(t()); // force CA
        let mut acked_since_loss = 0.0;
        let mut sum = 0.0;
        let mut n = 0u64;
        let mut next_loss = 1.0 / p;
        for _ in 0..2_000_000 {
            cc.on_ack(1, 0, 1, r(), t());
            acked_since_loss += 1.0;
            if acked_since_loss >= next_loss {
                cc.on_loss(t());
                acked_since_loss = 0.0;
                next_loss = 1.0 / p;
            }
            sum += cc.cwnd();
            n += 1;
        }
        let mean = sum / n as f64;
        let law = cc.steady_state_window(p, r()).unwrap();
        let err = (mean - law).abs() / law;
        assert!(err < 0.10, "mean {mean:.2} vs law {law:.2} (err {err:.3})");
    }

    /// Appendix A shape: Reno's response is W ∝ 1/p^B with B = 1/2, so
    /// the log–log slope of the law is exactly −0.5 across decades of p.
    #[test]
    fn window_response_exponent_is_minus_half() {
        let cc = Reno::new(10.0);
        let ps = [1e-4, 1e-3, 1e-2, 1e-1];
        for pair in ps.windows(2) {
            let w0 = cc.steady_state_window(pair[0], r()).unwrap();
            let w1 = cc.steady_state_window(pair[1], r()).unwrap();
            let slope = (w1.ln() - w0.ln()) / (pair[1].ln() - pair[0].ln());
            assert!(
                (slope + 0.5).abs() < 1e-12,
                "slope {slope} over p in {pair:?}"
            );
        }
    }
}
