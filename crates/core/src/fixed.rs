//! A fixed-probability dropper/marker — not an AQM from the paper but the
//! instrument used to validate the Appendix A steady-state window laws:
//! hold `p` constant, measure the window the congestion control settles
//! at, compare with `W(p)`.

use pi2_netsim::{Aqm, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Rng, Time};

/// Applies a constant signal probability to every packet (mark if
/// ECN-capable, drop otherwise).
#[derive(Clone, Copy, Debug)]
pub struct FixedProb {
    /// The constant probability.
    pub p: f64,
}

impl FixedProb {
    /// A fixed-probability signaller.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        FixedProb { p }
    }
}

impl Aqm for FixedProb {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        _snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        if rng.chance(self.p) {
            if pkt.ecn.is_ect() {
                Decision::mark(self.p)
            } else {
                Decision::drop(self.p)
            }
        } else {
            Decision::pass(self.p)
        }
    }

    fn name(&self) -> &'static str {
        "fixed-prob"
    }
}

// `p` is configuration; there is no state to carry.
ckpt_fields!(FixedProb {});

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Ecn, FlowId};

    #[test]
    fn signals_at_the_configured_rate() {
        let mut aqm = FixedProb::new(0.2);
        let mut rng = Rng::new(1);
        let snap = QueueSnapshot {
            qlen_bytes: 0,
            qlen_pkts: 0,
            link_rate_bps: 1,
            last_sojourn: None,
        };
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let n = 100_000;
        let drops = (0..n)
            .filter(|_| aqm.on_enqueue(&pkt, &snap, Time::ZERO, &mut rng).action == Action::Drop)
            .count();
        let f = drops as f64 / n as f64;
        assert!((f - 0.2).abs() < 0.01, "{f}");
    }
}
