//! Random Early Detection (Floyd & Jacobson 1993), the baseline the PI
//! lineage reacted against.
//!
//! Hollot et al.'s control-theoretic analysis of RED is where the PI AQM
//! story starts (Section 3): RED couples queue delay to loss, pushing back
//! against higher load with *both* higher delay and higher loss. It is
//! included here as a context baseline and for the Curvy-RED-flavoured
//! comparisons in the ablation benches.

use pi2_netsim::{Aqm, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// RED configuration (byte-based thresholds).
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Lower threshold on the average queue (bytes): below it, no drops.
    pub min_th_bytes: f64,
    /// Upper threshold (bytes): above it, drop probability ramps from
    /// `max_p` to 1 at `2·max_th` (gentle RED).
    pub max_th_bytes: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub wq: f64,
}

impl Default for RedConfig {
    fn default() -> Self {
        // Tuned for a 10 Mb/s link with ~20 ms nominal delay: thresholds at
        // 12.5 kB (10 ms) and 62.5 kB (50 ms).
        RedConfig {
            min_th_bytes: 12_500.0,
            max_th_bytes: 62_500.0,
            max_p: 0.1,
            wq: 0.002,
        }
    }
}

impl RedConfig {
    /// Derive thresholds from delay targets at a given link rate, the
    /// configuration style recommended for delay-oriented comparisons.
    pub fn for_link(rate_bps: u64, min_th: Duration, max_th: Duration) -> Self {
        let bytes_per_sec = rate_bps as f64 / 8.0;
        RedConfig {
            min_th_bytes: min_th.as_secs_f64() * bytes_per_sec,
            max_th_bytes: max_th.as_secs_f64() * bytes_per_sec,
            ..RedConfig::default()
        }
    }
}

/// The RED AQM.
#[derive(Clone, Copy, Debug)]
pub struct Red {
    cfg: RedConfig,
    avg: f64,
    /// Packets since the last drop, for the uniformization correction.
    count: i64,
}

impl Red {
    /// Build a RED instance.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.min_th_bytes < cfg.max_th_bytes, "min_th must be below max_th");
        assert!((0.0..=1.0).contains(&cfg.max_p));
        Red {
            cfg,
            avg: 0.0,
            count: -1,
        }
    }

    fn base_prob(&self) -> f64 {
        let c = &self.cfg;
        if self.avg < c.min_th_bytes {
            0.0
        } else if self.avg < c.max_th_bytes {
            c.max_p * (self.avg - c.min_th_bytes) / (c.max_th_bytes - c.min_th_bytes)
        } else if self.avg < 2.0 * c.max_th_bytes {
            c.max_p + (1.0 - c.max_p) * (self.avg - c.max_th_bytes) / c.max_th_bytes
        } else {
            1.0
        }
    }
}

impl Aqm for Red {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        self.avg = (1.0 - self.cfg.wq) * self.avg + self.cfg.wq * snap.qlen_bytes as f64;
        let pb = self.base_prob();
        if pb <= 0.0 {
            self.count = -1;
            return Decision::pass(0.0);
        }
        if pb >= 1.0 {
            self.count = 0;
            return Decision::drop(1.0);
        }
        // Uniformization: spread drops evenly across the interval (the
        // original paper's count correction).
        self.count += 1;
        let pa = (pb / (1.0 - (self.count as f64) * pb).max(1e-9)).clamp(0.0, 1.0);
        if rng.chance(pa) {
            self.count = 0;
            if pkt.ecn.is_ect() {
                Decision::mark(pb)
            } else {
                Decision::drop(pb)
            }
        } else {
            Decision::pass(pb)
        }
    }

    fn control_variable(&self) -> f64 {
        self.base_prob()
    }

    fn name(&self) -> &'static str {
        "red"
    }
}

ckpt_fields!(Red { avg, count });

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Ecn, FlowId};

    fn snap(qlen: usize) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes: qlen,
            qlen_pkts: qlen / 1500,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn pkt() -> Packet {
        Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO)
    }

    #[test]
    fn no_drops_below_min_threshold() {
        let mut red = Red::new(RedConfig::default());
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let d = red.on_enqueue(&pkt(), &snap(5_000), Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Pass);
        }
    }

    #[test]
    fn average_converges_to_queue_length() {
        let mut red = Red::new(RedConfig::default());
        let mut rng = Rng::new(1);
        for _ in 0..5000 {
            red.on_enqueue(&pkt(), &snap(40_000), Time::ZERO, &mut rng);
        }
        assert!((red.avg - 40_000.0).abs() < 1_000.0, "avg {}", red.avg);
    }

    #[test]
    fn drop_rate_ramps_between_thresholds() {
        let mut red = Red::new(RedConfig {
            wq: 1.0, // track instantaneous queue for a crisp test
            ..RedConfig::default()
        });
        let mut rng = Rng::new(2);
        // Midpoint: base prob = max_p/2 = 0.05.
        let n = 100_000;
        let drops = (0..n)
            .filter(|_| {
                red.on_enqueue(&pkt(), &snap(37_500), Time::ZERO, &mut rng).action == Action::Drop
            })
            .count();
        let f = drops as f64 / n as f64;
        // The count correction makes the realized rate a bit higher than
        // pb; accept a broad band around 0.05.
        assert!((0.03..0.12).contains(&f), "drop rate {f}");
    }

    #[test]
    fn hard_drop_above_gentle_region() {
        let mut red = Red::new(RedConfig {
            wq: 1.0,
            ..RedConfig::default()
        });
        let mut rng = Rng::new(3);
        let d = red.on_enqueue(&pkt(), &snap(200_000), Time::ZERO, &mut rng);
        assert_eq!(d.action, Action::Drop);
        assert_eq!(d.prob, 1.0);
    }

    #[test]
    fn ect_marked_in_ramp_region() {
        let mut red = Red::new(RedConfig {
            wq: 1.0,
            max_p: 1.0,
            ..RedConfig::default()
        });
        let mut rng = Rng::new(4);
        let ect = Packet::data(FlowId(0), 0, 1500, Ecn::Ect0, Time::ZERO);
        let mut marks = 0;
        for _ in 0..1000 {
            if red.on_enqueue(&ect, &snap(60_000), Time::ZERO, &mut rng).action == Action::Mark {
                marks += 1;
            }
        }
        assert!(marks > 0);
    }

    #[test]
    fn for_link_derives_byte_thresholds() {
        let cfg = RedConfig::for_link(
            10_000_000,
            Duration::from_millis(10),
            Duration::from_millis(50),
        );
        assert!((cfg.min_th_bytes - 12_500.0).abs() < 1e-9);
        assert!((cfg.max_th_bytes - 62_500.0).abs() < 1e-9);
    }
}
