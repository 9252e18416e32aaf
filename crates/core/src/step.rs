//! Step-threshold ECN marking — the original data-centre DCTCP marker.
//!
//! Appendix A of the paper distinguishes two DCTCP window laws: under a
//! *step threshold* ("mark every packet while the queue exceeds K") the
//! DCTCP paper derives `W = 2/p²` (eq. (12)), because marking arrives in
//! on-off trains of RTT length; under the *probabilistic* marking of a
//! PI-controlled AQM the law is `W = 2/p` (eq. (11)) — the linearity PI2
//! exploits, and "the same phenomenon found empirically in Irteza et al
//! when comparing a step threshold with a RED ramp".
//!
//! This marker exists to demonstrate exactly that exponent change (see
//! `appendix_a::step_vs_probabilistic`).

use pi2_netsim::{Aqm, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// Step-threshold marking configuration.
#[derive(Clone, Copy, Debug)]
pub struct StepMarkConfig {
    /// Queue-delay threshold K: ECT packets arriving while the backlog
    /// exceeds it are CE-marked.
    pub threshold: Duration,
}

impl Default for StepMarkConfig {
    fn default() -> Self {
        // The DCTCP deployment guideline: K ≈ RTT/7 for 10 GbE; for our
        // WAN-scale experiments a 5 ms step works as the data-centre
        // equivalent at megabit rates.
        StepMarkConfig {
            threshold: Duration::from_millis(5),
        }
    }
}

/// The step marker (drops nothing; Not-ECT packets pass untouched and
/// rely on the buffer limit). It keeps no run state: each decision reads
/// only the backlog it is handed.
#[derive(Clone, Copy, Debug)]
pub struct StepMark {
    cfg: StepMarkConfig,
}

impl StepMark {
    /// Build a step marker.
    pub fn new(cfg: StepMarkConfig) -> Self {
        StepMark { cfg }
    }
}

impl Aqm for StepMark {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        _now: Time,
        _rng: &mut Rng,
    ) -> Decision {
        let above = snap.delay_from_qlen() > self.cfg.threshold;
        if above && pkt.ecn.is_ect() {
            Decision::mark(1.0)
        } else {
            Decision::pass(0.0)
        }
    }

    fn name(&self) -> &'static str {
        "step-mark"
    }
}

ckpt_fields!(StepMark {});

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Ecn, FlowId};

    fn snap(delay_ms: u64) -> QueueSnapshot {
        let bytes = (delay_ms * 1250) as usize; // 10 Mb/s
        QueueSnapshot {
            qlen_bytes: bytes,
            qlen_pkts: (bytes / 1500).max(1),
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    #[test]
    fn marks_all_ect_above_threshold_none_below() {
        let mut m = StepMark::new(StepMarkConfig::default());
        let mut rng = Rng::new(1);
        let ect = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        let mut actions = Vec::new();
        for _ in 0..100 {
            for delay_ms in [10, 2] {
                actions.push(m.on_enqueue(&ect, &snap(delay_ms), Time::ZERO, &mut rng).action);
            }
        }
        for pair in actions.chunks(2) {
            assert_eq!(pair, [Action::Mark, Action::Pass]);
        }
        let marked = actions.iter().filter(|&&a| a == Action::Mark).count();
        assert_eq!(2 * marked, actions.len(), "half the offers are marked");
    }

    #[test]
    fn not_ect_never_touched() {
        let mut m = StepMark::new(StepMarkConfig::default());
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let d = m.on_enqueue(&pkt, &snap(50), Time::ZERO, &mut rng);
        assert_eq!(d.action, Action::Pass);
    }
}
