//! Curvy RED — the example coupled AQM of the DualQ draft the paper cites
//! (Section 3: the IETF dual-queue specification "is written sufficiently
//! generically that it covers the PI2 approach, but the example AQM it
//! gives is based on a RED-like AQM called Curvy RED").
//!
//! Where PI2 *controls* a linear variable and squares it, Curvy RED reads
//! the probability directly off the queue: `p' = (τ/range)` clipped to
//! [0, 1], applied with exponent `u` ("curviness") for Classic traffic —
//! `p = (τ/range)^u`, u = 2 giving the same square relationship without a
//! controller. The comparison quantifies what the PI core buys: Curvy RED
//! pushes back against load with *delay* (its operating point slides up
//! the curve as load grows — RED's original sin, per Hollot et al.),
//! while PI2 holds delay at the target and moves only `p`.

use pi2_netsim::{Aqm, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// Curvy RED configuration.
#[derive(Clone, Copy, Debug)]
pub struct CurvyRedConfig {
    /// Queue delay at which the pseudo-probability reaches 1.
    pub range: Duration,
    /// Curviness exponent `u` for Classic traffic (2 = PI2's square).
    pub curviness: i32,
    /// EWMA weight for smoothing the delay estimate (per decision).
    pub wq: f64,
}

impl Default for CurvyRedConfig {
    fn default() -> Self {
        CurvyRedConfig {
            range: Duration::from_millis(64),
            curviness: 2,
            wq: 0.05,
        }
    }
}

/// The Curvy RED AQM (single-queue form: Scalable packets get the linear
/// probability, Classic packets the curved one).
#[derive(Clone, Copy, Debug)]
pub struct CurvyRed {
    cfg: CurvyRedConfig,
    avg_delay_s: f64,
}

impl CurvyRed {
    /// Build a Curvy RED instance.
    pub fn new(cfg: CurvyRedConfig) -> Self {
        assert!(cfg.curviness >= 1);
        assert!((0.0..=1.0).contains(&cfg.wq));
        CurvyRed {
            cfg,
            avg_delay_s: 0.0,
        }
    }

    /// The linear (Scalable) probability for the smoothed delay.
    pub fn linear_prob(&self) -> f64 {
        (self.avg_delay_s / self.cfg.range.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// The curved (Classic) probability.
    pub fn classic_prob(&self) -> f64 {
        self.linear_prob().powi(self.cfg.curviness)
    }
}

impl Aqm for CurvyRed {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        let inst = snap.delay_from_qlen().as_secs_f64();
        self.avg_delay_s = (1.0 - self.cfg.wq) * self.avg_delay_s + self.cfg.wq * inst;
        if snap.qlen_pkts <= 2 {
            return Decision::pass(self.classic_prob());
        }
        if pkt.ecn.is_scalable() {
            let p = self.linear_prob();
            if rng.chance(p) {
                Decision::mark(p)
            } else {
                Decision::pass(p)
            }
        } else {
            let p = self.classic_prob();
            if rng.chance(p) {
                if pkt.ecn.is_ect() {
                    Decision::mark(p)
                } else {
                    Decision::drop(p)
                }
            } else {
                Decision::pass(p)
            }
        }
    }

    fn name(&self) -> &'static str {
        "curvy-red"
    }
}

ckpt_fields!(CurvyRed { avg_delay_s });

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Ecn, FlowId};

    fn snap(delay_ms: u64) -> QueueSnapshot {
        let bytes = (delay_ms * 1250) as usize; // 10 Mb/s
        QueueSnapshot {
            qlen_bytes: bytes,
            qlen_pkts: (bytes / 1500).max(3),
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn settle(c: &mut CurvyRed, delay_ms: u64) {
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        for _ in 0..500 {
            c.on_enqueue(&pkt, &snap(delay_ms), Time::ZERO, &mut rng);
        }
    }

    #[test]
    fn classic_probability_is_square_of_linear() {
        let mut c = CurvyRed::new(CurvyRedConfig::default());
        settle(&mut c, 32); // half the 64 ms range
        assert!((c.linear_prob() - 0.5).abs() < 0.02, "{}", c.linear_prob());
        assert!((c.classic_prob() - 0.25).abs() < 0.02, "{}", c.classic_prob());
    }

    #[test]
    fn probability_saturates_at_range() {
        let mut c = CurvyRed::new(CurvyRedConfig::default());
        settle(&mut c, 200);
        assert_eq!(c.linear_prob(), 1.0);
        assert_eq!(c.classic_prob(), 1.0);
    }

    #[test]
    fn scalable_marked_at_linear_rate() {
        let mut c = CurvyRed::new(CurvyRedConfig::default());
        settle(&mut c, 32);
        let mut rng = Rng::new(3);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        let n = 100_000;
        let marks = (0..n)
            .filter(|_| {
                c.on_enqueue(&pkt, &snap(32), Time::ZERO, &mut rng).action == Action::Mark
            })
            .count();
        let f = marks as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02, "mark rate {f}");
    }

    /// The structural difference from PI2: Curvy RED's delay *must* rise
    /// with load (p comes from the curve), while PI2's integral action
    /// pins delay at the target. Verified end-to-end in
    /// tests/aqm_control.rs; here, verify the curve monotonicity.
    #[test]
    fn probability_is_monotone_in_delay() {
        let mut prev = 0.0;
        for d in [4u64, 8, 16, 32, 48, 64] {
            let mut c = CurvyRed::new(CurvyRedConfig::default());
            settle(&mut c, d);
            assert!(c.classic_prob() >= prev);
            prev = c.classic_prob();
        }
    }
}
