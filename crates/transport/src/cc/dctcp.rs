//! DCTCP (Alizadeh et al., SIGCOMM 2010), as modified by the paper.
//!
//! DCTCP keeps an EWMA `α` of the fraction of packets CE-marked each round
//! trip (gain g = 1/16) and reduces its window once per RTT by `α/2` when
//! marks occurred. Under the *probabilistic* marking of a PI-controlled
//! AQM (rather than the on-off step threshold of the original data-centre
//! deployment) its steady-state window is `W = 2/p` (paper eq. (11), not
//! the `2/p²` of the step-marking analysis, eq. (12)) — exactly linear in
//! the signal, which is what lets PI2 apply the controller output `p'`
//! without squaring.
//!
//! Per the paper's Section 5, the sender sets ECT(1) instead of ECT(0) so
//! the AQM can classify it as Scalable.

use super::CongestionControl;
use pi2_simcore::{ckpt_fields, Duration, Time};

/// EWMA gain for the marked fraction (the DCTCP paper's g = 1/16).
const G: f64 = 1.0 / 16.0;
/// Minimum congestion window after a decrease, in packets.
const MIN_CWND: f64 = 2.0;

/// DCTCP congestion control.
#[derive(Clone, Debug)]
pub struct Dctcp {
    cwnd: f64,
    ssthresh: f64,
    /// The smoothed marked fraction; public for observability in tests
    /// and experiment logging.
    pub alpha: f64,
    marked_acc: u64,
    received_acc: u64,
    window_end: Option<Time>,
}

impl Dctcp {
    /// A fresh DCTCP sender. `alpha` starts at 1 as in Linux, so the first
    /// congestion experience is conservative (halving).
    pub fn new(initial_cwnd: f64) -> Self {
        assert!(initial_cwnd >= 1.0, "initial cwnd must be at least 1");
        Dctcp {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
            alpha: 1.0,
            marked_acc: 0,
            received_acc: 0,
            window_end: None,
        }
    }

    fn end_of_window(&mut self, rtt: Duration, now: Time) {
        let f = if self.received_acc > 0 {
            self.marked_acc as f64 / self.received_acc as f64
        } else {
            0.0
        };
        self.alpha = (1.0 - G) * self.alpha + G * f;
        if self.marked_acc > 0 {
            self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(MIN_CWND);
            self.ssthresh = self.cwnd;
        }
        self.marked_acc = 0;
        self.received_acc = 0;
        self.window_end = Some(now + rtt);
    }
}

impl CongestionControl for Dctcp {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, acked: u64, marked: u64, received: u64, rtt: Duration, now: Time) {
        // Window growth is Reno's (the DCTCP paper changes only the
        // decrease law).
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
        self.marked_acc += marked;
        self.received_acc += received;
        // A mark during slow start ends it immediately (Linux dctcp relies
        // on the standard ECE slow-start exit; we fold it in here since the
        // machinery does not gate Scalable signals).
        if marked > 0 && self.cwnd < self.ssthresh {
            self.ssthresh = self.cwnd;
        }
        match self.window_end {
            None => self.window_end = Some(now + rtt),
            Some(end) if now >= end => self.end_of_window(rtt, now),
            _ => {}
        }
    }

    fn on_loss(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = self.ssthresh;
    }

    fn on_ecn(&mut self, _now: Time) {
        // Scalable controls consume marks via on_ack counters; the classic
        // once-per-RTT ECE path must not double-count.
    }

    fn on_rto(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = 1.0;
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn steady_state_window(&self, p: f64, _rtt: Duration) -> Option<f64> {
        // Paper eq. (11): probabilistic marking gives W = 2/p.
        Some(2.0 / p)
    }
}

ckpt_fields!(Dctcp { cwnd, ssthresh, alpha, marked_acc, received_acc, window_end });

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Duration {
        Duration::from_millis(10)
    }

    /// Drive one RTT of ACK feedback with a given mark fraction.
    fn run_rtt(cc: &mut Dctcp, now: &mut Time, frac: f64) {
        let w = cc.cwnd().round() as u64;
        let marked = (w as f64 * frac).round() as u64;
        // Deliver the whole window's feedback in one cumulative call.
        cc.on_ack(w, marked, w, r(), *now);
        *now += r();
        // Cross the window boundary.
        cc.on_ack(0, 0, 0, r(), *now);
    }

    #[test]
    fn alpha_converges_to_mark_fraction() {
        let mut cc = Dctcp::new(10.0);
        cc.ssthresh = 10.0; // start in CA
        let mut now = Time::ZERO;
        for _ in 0..300 {
            run_rtt(&mut cc, &mut now, 0.2);
        }
        assert!((cc.alpha - 0.2).abs() < 0.05, "alpha {}", cc.alpha);
    }

    #[test]
    fn no_marks_decays_alpha_and_keeps_growing() {
        let mut cc = Dctcp::new(10.0);
        cc.ssthresh = 10.0;
        let mut now = Time::ZERO;
        let w0 = cc.cwnd();
        for _ in 0..50 {
            run_rtt(&mut cc, &mut now, 0.0);
        }
        assert!(cc.alpha < 0.1, "alpha should decay, got {}", cc.alpha);
        assert!(cc.cwnd() > w0, "window should grow without marks");
    }

    #[test]
    fn reduction_is_alpha_over_two() {
        let mut cc = Dctcp::new(100.0);
        cc.ssthresh = 100.0;
        cc.alpha = 0.5;
        let mut now = Time::ZERO;
        // One RTT with marks: growth +1, then reduction by factor (1-α'/2)
        // where α' is the post-update EWMA.
        cc.on_ack(100, 100, 100, r(), now);
        now += r();
        let before = cc.cwnd(); // 101 after growth
        cc.on_ack(0, 0, 0, r(), now);
        let expected_alpha = (1.0 - G) * 0.5 + G * 1.0;
        let expected = before * (1.0 - expected_alpha / 2.0);
        assert!((cc.cwnd() - expected).abs() < 1e-9, "{} vs {expected}", cc.cwnd());
    }

    #[test]
    fn mark_in_slow_start_exits_slow_start() {
        let mut cc = Dctcp::new(10.0);
        assert!(cc.in_slow_start());
        cc.on_ack(1, 1, 1, r(), Time::ZERO);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn loss_halves_like_reno() {
        let mut cc = Dctcp::new(50.0);
        cc.on_loss(Time::ZERO);
        assert_eq!(cc.cwnd(), 25.0);
    }

    #[test]
    fn classic_ecn_path_is_inert() {
        let mut cc = Dctcp::new(50.0);
        cc.on_ecn(Time::ZERO);
        assert_eq!(cc.cwnd(), 50.0);
    }

    /// Steady-state check: with a constant probabilistic mark rate p, the
    /// average window should settle near 2/p (paper eq. (11)).
    #[test]
    fn steady_state_window_near_2_over_p() {
        let p = 0.05;
        let mut cc = Dctcp::new(10.0);
        cc.ssthresh = 10.0;
        let mut now = Time::ZERO;
        let mut rng = pi2_simcore::Rng::new(42);
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..20_000 {
            let w = cc.cwnd().round().max(1.0) as u64;
            let mut marked = 0;
            for _ in 0..w {
                if rng.chance(p) {
                    marked += 1;
                }
            }
            cc.on_ack(w, marked, w, r(), now);
            now += r();
            cc.on_ack(0, 0, 0, r(), now);
            if i > 5000 {
                sum += cc.cwnd();
                n += 1;
            }
        }
        let mean = sum / n as f64;
        let law = 2.0 / p;
        let err = (mean - law).abs() / law;
        assert!(err < 0.2, "mean {mean:.1} vs 2/p {law:.1} (err {err:.3})");
    }

    /// The alpha estimator is exactly the EWMA recurrence
    /// α ← (1−g)·α + g·F with g = 1/16, where F is the window's realized
    /// mark fraction — tracked here against a hand-iterated model over a
    /// varied drive sequence, to full floating-point precision.
    #[test]
    fn alpha_follows_the_ewma_recurrence_exactly() {
        let mut cc = Dctcp::new(10.0);
        cc.ssthresh = 10.0; // start in CA
        let mut now = Time::ZERO;
        let mut expected = cc.alpha;
        assert_eq!(expected, 1.0, "alpha starts pessimistic");
        let g = 1.0 / 16.0;
        let drive = [0.0, 0.5, 0.25, 0.0, 1.0, 0.125, 0.0, 0.0, 0.3, 0.75];
        for &frac in drive.iter().cycle().take(60) {
            // Mirror run_rtt's feedback quantization before driving it.
            let w = cc.cwnd().round() as u64;
            let f = (w as f64 * frac).round() / w as f64;
            run_rtt(&mut cc, &mut now, frac);
            expected = (1.0 - g) * expected + g * f;
            assert!(
                (cc.alpha - expected).abs() < 1e-12,
                "alpha {} diverged from recurrence {expected}",
                cc.alpha
            );
        }
        assert!((0.0..=1.0).contains(&cc.alpha));
    }
}
