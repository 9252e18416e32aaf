//! The Scalable family of the paper's Section 5: controls whose window
//! law is `W = c/p` (response exponent B = 1).
//!
//! One struct, one [`Law`] row per member:
//!
//! | `CcKind`          | name         | per ACK (CA) | per mark | per loss | `W`      |
//! |-------------------|--------------|--------------|----------|----------|----------|
//! | `ScalableHalfPkt` | `scal`       | `+1/W`       | `−½`     | `×½`     | `2/p`    |
//! | `Relentless`      | `relentless` | `+1/W`       | `−1`     | `−1`     | `1/p`    |
//! | `ScalableTcp`     | `stcp`       | `+0.01`      | `×⅞`     | `×⅞`     | `0.08/p` |
//!
//! The half-packet control is the idealized one of Appendix B: the
//! stability analysis models "a congestion control that reduces its
//! window by half a packet per mark" (eq. (22)) — a good approximation of
//! DCTCP under probabilistic marking, minus DCTCP's extra EWMA smoothing.
//! Balance per RTT: `+1` additive increase against `p·W·½` decrease gives
//! the same `W = 2/p` law as eq. (11); it is the cleanest experimental
//! subject for the `scal pi` Bode plots of Figure 7. Relentless TCP
//! (Mathis) loses exactly one segment per lost/marked packet: `1 = p·W·1`
//! gives `W = 1/p`. Scalable TCP (Kelly) is MIMD with per-ACK increase
//! `a = 0.01` and decrease `b = 1/8` per congestion event; events arrive
//! at rate `p·W` per RTT, so `a·W = p·W·b·W` gives `W = a/(b·p)`.

use super::CongestionControl;
use pi2_simcore::{ckpt_fields, Duration, Time};

/// Minimum congestion window, in packets.
const MIN_CWND: f64 = 2.0;

/// A window reduction.
#[derive(Clone, Copy, Debug)]
enum Cut {
    /// Lose this many packets per event, all events of an ACK at once.
    Packets(f64),
    /// Lose this fraction of the window per event, one event at a time.
    Fraction(f64),
}

impl Cut {
    fn apply(self, cwnd: f64, events: u64) -> f64 {
        match self {
            Cut::Packets(d) => (cwnd - d * events as f64).max(MIN_CWND),
            Cut::Fraction(b) => (0..events).fold(cwnd, |w, _| (w * (1.0 - b)).max(MIN_CWND)),
        }
    }
}

/// What tells one member of the family from another.
#[derive(Debug)]
pub(crate) struct Law {
    name: &'static str,
    /// Congestion-avoidance increase per ACK: `Some(a)` is a flat `+a`,
    /// `None` the standard `+1/W` (one packet per RTT).
    per_ack: Option<f64>,
    per_mark: Cut,
    per_loss: Cut,
    /// `W = c/p`.
    c: f64,
}

/// −½ packet per mark, +1 packet per RTT.
pub(crate) const HALF_PKT: Law = Law {
    name: "scal",
    per_ack: None,
    per_mark: Cut::Packets(0.5),
    per_loss: Cut::Fraction(0.5),
    c: 2.0,
};

/// Losses and marks cost exactly their own count, not a multiplicative
/// collapse.
pub(crate) const RELENTLESS: Law = Law {
    name: "relentless",
    per_ack: None,
    per_mark: Cut::Packets(1.0),
    per_loss: Cut::Packets(1.0),
    c: 1.0,
};

/// MIMD(0.01, 1/8).
pub(crate) const STCP: Law = Law {
    name: "stcp",
    per_ack: Some(0.01),
    per_mark: Cut::Fraction(0.125),
    per_loss: Cut::Fraction(0.125),
    c: 0.01 / 0.125,
};

/// A Scalable control following one [`Law`].
#[derive(Clone, Debug)]
pub(crate) struct Scalable {
    law: &'static Law,
    cwnd: f64,
    ssthresh: f64,
}

impl Scalable {
    /// A fresh instance starting in slow start.
    pub(crate) fn new(law: &'static Law, initial_cwnd: f64) -> Self {
        assert!(initial_cwnd >= 1.0, "initial cwnd must be at least 1");
        Scalable {
            law,
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
        }
    }
}

impl CongestionControl for Scalable {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self, acked: u64, marked: u64, _received: u64, _rtt: Duration, _now: Time) {
        for _ in 0..acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += self.law.per_ack.unwrap_or(1.0 / self.cwnd);
            }
        }
        if marked > 0 {
            self.cwnd = self.law.per_mark.apply(self.cwnd, marked);
            // End slow start at the *reduced* window: leaving ssthresh
            // above cwnd would let slow-start growth (+1/ACK) outrun the
            // per-mark decrease — a runaway.
            self.ssthresh = self.ssthresh.min(self.cwnd);
        }
    }

    fn on_loss(&mut self, _now: Time) {
        self.cwnd = self.law.per_loss.apply(self.cwnd, 1);
        self.ssthresh = self.cwnd;
    }

    fn on_ecn(&mut self, _now: Time) {
        // Marks are consumed in on_ack; nothing to do here.
    }

    fn on_rto(&mut self, _now: Time) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = 1.0;
    }

    fn name(&self) -> &'static str {
        self.law.name
    }

    fn steady_state_window(&self, p: f64, _rtt: Duration) -> Option<f64> {
        Some(self.law.c / p)
    }
}

ckpt_fields!(Scalable { cwnd, ssthresh });

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Duration {
        Duration::from_millis(10)
    }

    #[test]
    fn half_packet_per_mark() {
        let mut cc = Scalable::new(&HALF_PKT, 20.0);
        cc.ssthresh = 20.0;
        cc.on_ack(0, 4, 4, r(), Time::ZERO);
        assert_eq!(cc.cwnd(), 18.0);
    }

    #[test]
    fn growth_is_one_per_rtt_in_ca() {
        let mut cc = Scalable::new(&HALF_PKT, 10.0);
        cc.ssthresh = 10.0;
        cc.on_ack(10, 0, 10, r(), Time::ZERO);
        assert!((cc.cwnd() - 11.0).abs() < 0.06);
    }

    #[test]
    fn floor_at_min_cwnd() {
        let mut cc = Scalable::new(&HALF_PKT, 2.0);
        cc.ssthresh = 2.0;
        cc.on_ack(0, 100, 100, r(), Time::ZERO);
        assert_eq!(cc.cwnd(), MIN_CWND);
    }

    #[test]
    fn relentless_loses_exactly_its_losses() {
        let mut cc = Scalable::new(&RELENTLESS, 50.0);
        cc.ssthresh = 50.0;
        cc.on_ack(0, 3, 3, r(), Time::ZERO);
        assert_eq!(cc.cwnd(), 47.0);
        cc.on_loss(Time::ZERO);
        assert_eq!(cc.cwnd(), 46.0);
    }

    #[test]
    fn relentless_steady_state_is_1_over_p() {
        let p = 0.05;
        let mut cc = Scalable::new(&RELENTLESS, 10.0);
        cc.ssthresh = 10.0;
        let mut rng = pi2_simcore::Rng::new(11);
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..200_000 {
            let marked = u64::from(rng.chance(p));
            cc.on_ack(1, marked, 1, r(), Time::ZERO);
            if i > 50_000 {
                sum += cc.cwnd();
                n += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() / 20.0 < 0.15, "mean {mean:.1} vs 1/p = 20");
    }

    #[test]
    fn stcp_mimd_parameters() {
        let mut cc = Scalable::new(&STCP, 100.0);
        cc.ssthresh = 100.0;
        cc.on_ack(1, 0, 1, r(), Time::ZERO);
        assert!((cc.cwnd() - 100.01).abs() < 1e-12);
        cc.on_ack(0, 1, 1, r(), Time::ZERO);
        assert!((cc.cwnd() - 100.01 * 0.875).abs() < 1e-9);
    }

    #[test]
    fn stcp_steady_state_is_a_over_bp() {
        let p = 0.01;
        let mut cc = Scalable::new(&STCP, 8.0);
        cc.ssthresh = 8.0;
        let mut rng = pi2_simcore::Rng::new(13);
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..400_000 {
            let marked = u64::from(rng.chance(p));
            cc.on_ack(1, marked, 1, r(), Time::ZERO);
            if i > 100_000 {
                sum += cc.cwnd();
                n += 1;
            }
        }
        let mean = sum / n as f64;
        let law = 0.08 / p;
        // MIMD under random marking is skewed: the drift balance holds at
        // the geometric mean, so the arithmetic mean sits above a/(b·p).
        assert!((mean - law).abs() / law < 0.40, "mean {mean:.1} vs {law:.1}");
        assert!(mean > law * 0.9, "must not undershoot the law");
    }

    /// Fixed point: per-packet marking with probability p must settle the
    /// window near 2/p.
    #[test]
    fn steady_state_is_2_over_p() {
        let p = 0.1;
        let mut cc = Scalable::new(&HALF_PKT, 10.0);
        cc.ssthresh = 10.0;
        let mut rng = pi2_simcore::Rng::new(7);
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..200_000 {
            let marked = u64::from(rng.chance(p));
            cc.on_ack(1, marked, 1, r(), Time::ZERO);
            if i > 50_000 {
                sum += cc.cwnd();
                n += 1;
            }
        }
        let mean = sum / n as f64;
        let law = 2.0 / p;
        assert!((mean - law).abs() / law < 0.15, "mean {mean:.1} vs {law:.1}");
    }

    /// Appendix A shape: every scalable control has response exponent
    /// B = 1 — the log–log slope of each law is exactly −1, which is
    /// what makes their rate response RTT- and rate-independent.
    #[test]
    fn window_response_exponent_is_minus_one_for_all_scalable_controls() {
        let ccs: [Box<dyn CongestionControl>; 3] = [
            Box::new(Scalable::new(&HALF_PKT, 10.0)),
            Box::new(Scalable::new(&RELENTLESS, 10.0)),
            Box::new(Scalable::new(&STCP, 10.0)),
        ];
        let ps = [1e-4, 1e-3, 1e-2, 1e-1];
        for cc in &ccs {
            for pair in ps.windows(2) {
                let w0 = cc.steady_state_window(pair[0], r()).unwrap();
                let w1 = cc.steady_state_window(pair[1], r()).unwrap();
                let slope = (w1.ln() - w0.ln()) / (pair[1].ln() - pair[0].ln());
                assert!(
                    (slope + 1.0).abs() < 1e-12,
                    "{}: slope {slope} over p in {pair:?}",
                    cc.name()
                );
            }
        }
    }
}
