//! CoDel (Nichols & Jacobson, ACM Queue 2012) — the AQM that taught PIE
//! to measure the queue in units of time (paper Section 3: "Using units
//! of time for the queue was taught by the CoDel algorithm the year
//! before"). Included as a context baseline.
//!
//! CoDel works at *dequeue*: when every packet over an `interval` has
//! left with sojourn above `target`, it enters a dropping state and drops
//! at intervals shrinking with `interval/√count` (the control law that
//! pressures Reno-like flows harder the longer the queue stays bad).
//!
//! Because the simulator applies AQM verdicts at enqueue, this
//! implementation makes the drop decision for the *arriving* packet using
//! the sojourn state observed at dequeue — the standard adaptation for
//! enqueue-side frameworks (e.g. DPDK's). The control law and state
//! machine follow the CoDel pseudocode.

use pi2_netsim::{Aqm, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// CoDel configuration.
#[derive(Clone, Copy, Debug)]
pub struct CodelConfig {
    /// Sojourn target (CoDel default 5 ms; set 20 ms to compare against
    /// the paper's AQMs at equal targets).
    pub target: Duration,
    /// Sliding window over which the sojourn must stay above target
    /// before dropping starts (default 100 ms ≈ a worst-case RTT).
    pub interval: Duration,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(100),
        }
    }
}

/// The CoDel AQM.
#[derive(Clone, Copy, Debug)]
pub struct Codel {
    cfg: CodelConfig,
    /// Deadline by which the sojourn must dip below target, once armed.
    first_above_time: Option<Time>,
    dropping: bool,
    drop_next: Time,
    count: u32,
    /// Count value when the previous dropping state ended, for the
    /// re-entry heuristic.
    last_count: u32,
    /// Latest sojourn observation.
    sojourn: Duration,
}

impl Codel {
    /// Build a CoDel instance.
    pub fn new(cfg: CodelConfig) -> Self {
        Codel {
            cfg,
            first_above_time: None,
            dropping: false,
            drop_next: Time::ZERO,
            count: 0,
            last_count: 0,
            sojourn: Duration::ZERO,
        }
    }

    /// `interval / √count` — the CoDel control law.
    fn control_law(&self, t: Time) -> Time {
        let step = self.cfg.interval.as_secs_f64() / (self.count.max(1) as f64).sqrt();
        t + Duration::from_secs_f64(step)
    }

    /// Update the should-drop state machine with a sojourn observation.
    fn observe(&mut self, sojourn: Duration, now: Time) -> bool {
        self.sojourn = sojourn;
        if sojourn < self.cfg.target {
            self.first_above_time = None;
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + self.cfg.interval);
                false
            }
            Some(deadline) => now >= deadline,
        }
    }
}

impl Aqm for Codel {
    fn on_enqueue(
        &mut self,
        _pkt: &Packet,
        snap: &QueueSnapshot,
        now: Time,
        _rng: &mut Rng,
    ) -> Decision {
        // Estimate how this AQM reports probability: the inverse of the
        // current drop spacing, normalized per packet (monitoring only).
        let prob = if self.dropping {
            (self.count as f64).sqrt() / 100.0
        } else {
            0.0
        };
        if snap.qlen_pkts <= 2 {
            return Decision::pass(prob);
        }
        let ok_to_drop = {
            // Use the instantaneous backlog delay as the arriving packet's
            // expected sojourn.
            let sojourn = snap.delay_from_qlen();
            self.observe(sojourn, now)
        };
        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                return Decision::pass(prob);
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next = self.control_law(self.drop_next);
                return Decision::drop(prob);
            }
            Decision::pass(prob)
        } else if ok_to_drop {
            self.dropping = true;
            // Re-entry heuristic: resume near the previous drop rate if
            // the queue went bad again quickly.
            self.count = if self.count > 2 && self.count - self.last_count < self.count / 2 {
                self.count - self.last_count
            } else {
                1
            };
            self.last_count = self.count;
            self.drop_next = self.control_law(now);
            Decision::drop(prob)
        } else {
            Decision::pass(prob)
        }
    }

    fn on_dequeue(&mut self, _pkt: &Packet, sojourn: Duration, _snap: &QueueSnapshot, _now: Time) {
        self.sojourn = sojourn;
    }

    fn control_variable(&self) -> f64 {
        self.count as f64
    }

    fn name(&self) -> &'static str {
        "codel"
    }
}

ckpt_fields!(Codel { first_above_time, dropping, drop_next, count, last_count, sojourn });

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Ecn, FlowId};

    fn snap(delay_ms: u64) -> QueueSnapshot {
        // 10 Mb/s: delay_ms maps to 1250*delay_ms bytes.
        let bytes = (delay_ms * 1250) as usize;
        QueueSnapshot {
            qlen_bytes: bytes,
            qlen_pkts: (bytes / 1500).max(3),
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn pkt() -> Packet {
        Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO)
    }

    #[test]
    fn no_drops_while_sojourn_below_target() {
        let mut c = Codel::new(CodelConfig::default());
        let mut rng = Rng::new(1);
        for i in 0..1000 {
            let d = c.on_enqueue(&pkt(), &snap(2), Time::from_millis(i), &mut rng);
            assert_eq!(d.action, Action::Pass);
        }
    }

    #[test]
    fn dropping_starts_after_one_interval_above_target() {
        let mut c = Codel::new(CodelConfig::default());
        let mut rng = Rng::new(1);
        // Sojourn 20 ms > 5 ms target, sustained.
        let d0 = c.on_enqueue(&pkt(), &snap(20), Time::from_millis(0), &mut rng);
        assert_eq!(d0.action, Action::Pass, "must wait a full interval first");
        let d1 = c.on_enqueue(&pkt(), &snap(20), Time::from_millis(50), &mut rng);
        assert_eq!(d1.action, Action::Pass);
        let d2 = c.on_enqueue(&pkt(), &snap(20), Time::from_millis(101), &mut rng);
        assert_eq!(d2.action, Action::Drop, "interval elapsed: drop");
        assert!(c.dropping);
    }

    #[test]
    fn drop_spacing_shrinks_with_count() {
        let mut c = Codel::new(CodelConfig::default());
        let mut rng = Rng::new(1);
        // Enter dropping state.
        c.on_enqueue(&pkt(), &snap(20), Time::from_millis(0), &mut rng);
        c.on_enqueue(&pkt(), &snap(20), Time::from_millis(101), &mut rng);
        let mut drops = Vec::new();
        for i in 102..2000u64 {
            let d = c.on_enqueue(&pkt(), &snap(20), Time::from_millis(i), &mut rng);
            if d.action == Action::Drop {
                drops.push(i);
            }
        }
        assert!(drops.len() >= 3, "sustained badness keeps dropping");
        // Gaps between successive drops shrink (interval/sqrt(count)).
        let gaps: Vec<u64> = drops.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] <= w[0] + 1),
            "gaps must be non-increasing: {gaps:?}"
        );
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut c = Codel::new(CodelConfig::default());
        let mut rng = Rng::new(1);
        c.on_enqueue(&pkt(), &snap(20), Time::from_millis(0), &mut rng);
        c.on_enqueue(&pkt(), &snap(20), Time::from_millis(101), &mut rng);
        assert!(c.dropping);
        let d = c.on_enqueue(&pkt(), &snap(1), Time::from_millis(150), &mut rng);
        assert_eq!(d.action, Action::Pass);
        assert!(!c.dropping);
    }

}
