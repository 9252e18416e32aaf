//! TCP Cubic (RFC 8312) with the Linux CReno fallback.
//!
//! The paper's Classic experiments use Linux Cubic, which at small
//! bandwidth-delay products operates in its "TCP-friendly" Reno mode
//! (CReno, multiplicative decrease β = 0.7, steady state `W = 1.68/√p`,
//! paper eq. (7)) and only above the switch-over of eq. (8)
//! (`W·R^(3/2) ≥ 3.5`) in its pure cubic mode (`W = 1.17·R^¾/p^¾`,
//! eq. (6)).

use super::CongestionControl;
use pi2_simcore::{ckpt_fields, Duration, Time};

/// Cubic's aggressiveness constant (RFC 8312 §5).
const C: f64 = 0.4;
/// Multiplicative-decrease factor (RFC 8312 / Linux).
const BETA: f64 = 0.7;
/// Minimum congestion window after a decrease, in packets.
const MIN_CWND: f64 = 2.0;

/// TCP Cubic congestion control.
#[derive(Clone, Debug)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    k: f64,
    epoch_start: Option<Time>,
}

impl Cubic {
    /// Standard Linux-flavoured Cubic.
    pub fn new(initial_cwnd: f64) -> Self {
        assert!(initial_cwnd >= 1.0, "initial cwnd must be at least 1");
        Cubic {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
        }
    }

    fn begin_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        if self.w_max > self.cwnd {
            self.k = ((self.w_max - self.cwnd) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
    }

    /// The cubic window function W_cubic(t) = C(t−K)³ + W_max.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    /// The TCP-friendly (CReno) estimate W_est(t).
    ///
    /// RFC 8312 specifies slope `3(1−β)/(1+β)` per RTT, which would equal
    /// Reno's *throughput*. The paper instead models Linux's observed
    /// behaviour as AIMD(1, 0.7) — "falls back to TCP Reno with a
    /// different decrease factor" — giving the higher constant of eq. (7),
    /// `W = 1.68/√p`. That constant is load-bearing for the coexistence
    /// coupling (eq. (14) derives k = 1.19 from it), so we use slope 1.
    fn w_est(&self, t: f64, rtt: f64) -> f64 {
        self.w_max * BETA + t / rtt
    }

    fn decrease(&mut self, now: Time) {
        let _ = now;
        // RFC 8312 §4.6 fast convergence (on in Linux): a flow that lost
        // before regaining its last maximum releases bandwidth sooner.
        if self.cwnd < self.w_max {
            self.w_max = self.cwnd * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.ssthresh = (self.cwnd * BETA).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.epoch_start = None;
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, acked: u64, _marked: u64, _received: u64, rtt: Duration, now: Time) {
        let rtt_s = rtt.as_secs_f64().max(1e-6);
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
                continue;
            }
            if self.epoch_start.is_none() {
                self.begin_epoch(now);
            }
            let elapsed = (now - self.epoch_start.unwrap()).as_secs_f64().max(0.0);
            // RFC 8312: the target is the cubic window one RTT in the future.
            let target = self.w_cubic(elapsed + rtt_s);
            let w_est = self.w_est(elapsed, rtt_s);
            if target < w_est {
                // TCP-friendly (CReno) region: RFC 8312 §4.2 sets cwnd to
                // the Reno estimate directly.
                self.cwnd = self.cwnd.max(w_est);
            } else if target > self.cwnd {
                self.cwnd += (target - self.cwnd) / self.cwnd;
            } else {
                // Very slow growth in the plateau (RFC 8312 §4.4).
                self.cwnd += 0.01 / self.cwnd;
            }
        }
    }

    fn on_loss(&mut self, now: Time) {
        self.decrease(now);
    }

    fn on_rto(&mut self, now: Time) {
        self.decrease(now);
        self.cwnd = 1.0;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn steady_state_window(&self, p: f64, rtt: Duration) -> Option<f64> {
        let r = rtt.as_secs_f64();
        // CReno law, eq. (7).
        let creno = 1.68 / p.sqrt();
        // Switch-over, eq. (8): CReno while W·R^(3/2) < 3.5.
        if creno * r.powf(1.5) < 3.5 {
            Some(creno)
        } else {
            // Pure cubic law, eq. (6).
            Some(1.17 * r.powf(0.75) / p.powf(0.75))
        }
    }
}

ckpt_fields!(Cubic { cwnd, ssthresh, w_max, k, epoch_start });

#[cfg(test)]
mod tests {
    use super::*;

    fn r100() -> Duration {
        Duration::from_millis(100)
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let mut cc = Cubic::new(10.0);
        cc.on_ack(10, 0, 10, r100(), Time::ZERO);
        assert_eq!(cc.cwnd(), 20.0);
    }

    #[test]
    fn loss_scales_by_beta() {
        let mut cc = Cubic::new(100.0);
        cc.on_loss(Time::ZERO);
        assert!((cc.cwnd() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn a_loss_below_w_max_lowers_it_further() {
        let mut cc = Cubic::new(100.0);
        cc.on_loss(Time::ZERO); // w_max = 100, cwnd = 70
        cc.on_loss(Time::ZERO); // cwnd(70) < w_max(100): w_max = 70*0.85 = 59.5
        assert!((cc.w_max - 59.5).abs() < 1e-9);
    }

    #[test]
    fn cubic_window_recovers_to_w_max_at_k() {
        let mut cc = Cubic::new(100.0);
        cc.on_loss(Time::ZERO);
        cc.begin_epoch(Time::ZERO);
        // At t = K the cubic function returns exactly W_max.
        let w = cc.w_cubic(cc.k);
        assert!((w - cc.w_max).abs() < 1e-9);
        // Concave before K, convex after.
        assert!(cc.w_cubic(cc.k - 0.1) < w);
        assert!(cc.w_cubic(cc.k + 0.1) > w);
    }

    #[test]
    fn growth_follows_cubic_target_after_loss() {
        let mut cc = Cubic::new(100.0);
        cc.on_loss(Time::ZERO);
        let w_after_loss = cc.cwnd();
        // Feed ACKs over simulated time; window must grow back toward w_max
        // and eventually exceed it (probing).
        let mut now = Time::ZERO;
        for _ in 0..100 {
            now += r100();
            cc.on_ack(cc.cwnd() as u64, 0, cc.cwnd() as u64, r100(), now);
        }
        assert!(cc.cwnd() > w_after_loss);
        assert!(cc.cwnd() > 100.0, "should probe beyond old w_max, got {}", cc.cwnd());
    }

    #[test]
    fn rto_collapses_window() {
        let mut cc = Cubic::new(50.0);
        cc.on_rto(Time::ZERO);
        assert_eq!(cc.cwnd(), 1.0);
    }

    #[test]
    fn steady_state_switches_between_creno_and_cubic() {
        let cc = Cubic::new(10.0);
        // Small p, long RTT: pure cubic; creno = 1.68/sqrt(1e-4) = 168,
        // 168 * 0.1^1.5 = 5.3 >= 3.5 -> cubic law.
        let w = cc.steady_state_window(1e-4, Duration::from_millis(100)).unwrap();
        let cubic_law = 1.17 * 0.1f64.powf(0.75) / 1e-4f64.powf(0.75);
        assert!((w - cubic_law).abs() < 1e-9);
        // Large p, short RTT: CReno; creno = 1.68/sqrt(0.01) = 16.8,
        // 16.8 * 0.005^1.5 = 0.006 < 3.5 -> creno law.
        let w2 = cc.steady_state_window(0.01, Duration::from_millis(5)).unwrap();
        assert!((w2 - 16.8).abs() < 1e-9);
    }

    /// CReno-mode sawtooth fixed point: deterministic loss every 1/p acks
    /// should produce a mean window near 1.68/√p.
    #[test]
    fn creno_sawtooth_mean_matches_law() {
        let p: f64 = 0.01;
        let rtt = Duration::from_millis(5); // small BDP keeps Cubic in CReno mode
        let mut cc = Cubic::new(2.0);
        let mut now = Time::ZERO;
        cc.on_loss(now);
        let mut acks_since_loss = 0.0;
        let mut sum = 0.0;
        let mut n = 0u64;
        // Advance virtual time by one RTT per cwnd ACKs.
        let mut acks_this_rtt = 0.0;
        for _ in 0..1_000_000 {
            cc.on_ack(1, 0, 1, rtt, now);
            acks_this_rtt += 1.0;
            if acks_this_rtt >= cc.cwnd() {
                now += rtt;
                acks_this_rtt = 0.0;
            }
            acks_since_loss += 1.0;
            if acks_since_loss >= 1.0 / p {
                cc.on_loss(now);
                acks_since_loss = 0.0;
            }
            sum += cc.cwnd();
            n += 1;
        }
        let mean = sum / n as f64;
        let law = 1.68 / p.sqrt();
        let err = (mean - law).abs() / law;
        assert!(err < 0.15, "mean {mean:.2} vs law {law:.2} (err {err:.3})");
    }

    /// Appendix A shape: the response exponent switches at eq. (8)'s
    /// boundary — B = 1/2 in the CReno region (short RTT / high p),
    /// B = 3/4 in the pure-cubic region (long RTT / tiny p).
    #[test]
    fn window_response_exponent_switches_at_the_creno_boundary() {
        let cc = Cubic::new(10.0);
        let slope = |p0: f64, p1: f64, rtt: Duration| {
            let w0 = cc.steady_state_window(p0, rtt).unwrap();
            let w1 = cc.steady_state_window(p1, rtt).unwrap();
            (w1.ln() - w0.ln()) / (p1.ln() - p0.ln())
        };
        // 10 ms RTT: creno·r^1.5 < 3.5 for every p here, so CReno.
        let short = Duration::from_millis(10);
        for pair in [(1e-3, 1e-2), (1e-2, 1e-1)] {
            let s = slope(pair.0, pair.1, short);
            assert!((s + 0.5).abs() < 1e-12, "CReno slope {s} at p {pair:?}");
        }
        // 400 ms RTT and tiny p: the boundary flips, pure-cubic law.
        let long = Duration::from_millis(400);
        for pair in [(1e-6, 1e-5), (1e-5, 1e-4)] {
            let s = slope(pair.0, pair.1, long);
            assert!((s + 0.75).abs() < 1e-12, "cubic slope {s} at p {pair:?}");
        }
    }
}
