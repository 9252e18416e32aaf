//! The PIE AQM (Pan et al. 2013; RFC 8033; Linux `sch_pie`).
//!
//! PIE runs the PI core of eq. (4) directly on the drop probability `p`
//! and compensates for the non-linear sensitivity of `p` at low load by
//! scaling Δp with a stepwise "tune" lookup table (the one copy,
//! [`pi2_fluid::law::tune_factor`]) — the table Figure 5 shows tracking
//! `√(2p)`. On top of that the Linux implementation carries the
//! heuristics listed in Section 5 of the paper. The four that full and
//! bare PIE differ in — the burst allowance, no signal under light load,
//! the 2 % cap on Δp at high `p` and the fixed 2 % step above 250 ms —
//! are one switch here, [`PieConfig::heuristics`], because every caller
//! sets them together (the tune table and the idle decay of `p` are
//! always on):
//!
//! * [`PieConfig::paper_default`] — full Linux PIE with its drop-ECN-above-
//!   10 % rule reworked away, as in the paper's evaluation: an ECT packet
//!   is always marked;
//! * [`PieConfig::bare`] — "bare-PIE": tune only, all heuristics off.

use crate::estimator::DelayEstimator;
use crate::pi::PiCore;
use pi2_fluid::law::{tune_factor, PiGains};
use pi2_netsim::{Aqm, AqmState, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// The burst allowance (Table 1: 100 ms): after a quiet spell, PIE passes
/// every packet until this much time has gone by.
pub const MAX_BURST: Duration = Duration::from_millis(100);

/// PIE configuration. Field defaults follow the paper's Table 1 where the
/// paper specifies a value, and RFC 8033 / Linux otherwise.
#[derive(Clone, Copy, Debug)]
pub struct PieConfig {
    /// Delay target τ₀ (Table 1: 20 ms).
    pub target: Duration,
    /// Update interval T (paper: 32 ms).
    pub t_update: Duration,
    /// Integral gain α (Table 1: 2/16 Hz).
    pub alpha_hz: f64,
    /// Proportional gain β (Table 1: 20/16 Hz).
    pub beta_hz: f64,
    /// The Linux heuristics: a [`MAX_BURST`] allowance after a quiet
    /// spell; no drop/mark while `p < 20 %` and the delay estimate is
    /// below half the target; Δp capped at 2 % while `p ≥ 10 %`; Δp forced
    /// to 2 % when the delay estimate exceeds 250 ms.
    pub heuristics: bool,
    /// Queue-delay estimation strategy (Linux PIE: departure-rate).
    pub estimator: DelayEstimator,
}

impl PieConfig {
    /// The PIE variant the paper evaluates, with its Table 1 parameters:
    /// full Linux heuristics, but the "drop ECN above 10 %" rule removed
    /// so ECT packets are always marked (avoiding the discontinuity in the
    /// Classic/Scalable rate ratio).
    pub fn paper_default() -> Self {
        let gains = PiGains::pie();
        PieConfig {
            target: Duration::from_millis(20),
            t_update: Duration::from_millis(32),
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            heuristics: true,
            estimator: DelayEstimator::linux_default(),
        }
    }

    /// "bare-PIE": the tune table (which is PIE's essence) with every
    /// extra heuristic disabled. The paper reports bare-PIE and full PIE
    /// were indistinguishable in all its experiments.
    pub fn bare() -> Self {
        PieConfig {
            heuristics: false,
            ..PieConfig::paper_default()
        }
    }
}

impl Default for PieConfig {
    fn default() -> Self {
        PieConfig::paper_default()
    }
}

/// The PIE AQM.
#[derive(Clone, Copy, Debug)]
pub struct Pie {
    cfg: PieConfig,
    core: PiCore,
    estimator: DelayEstimator,
    burst_allowance: Duration,
}

impl Pie {
    /// Build a PIE instance.
    pub fn new(cfg: PieConfig) -> Self {
        Pie {
            cfg,
            core: PiCore::new(cfg.alpha_hz, cfg.beta_hz, cfg.target, cfg.t_update),
            estimator: cfg.estimator,
            burst_allowance: if cfg.heuristics { MAX_BURST } else { Duration::ZERO },
        }
    }

    /// Current drop probability.
    pub fn prob(&self) -> f64 {
        self.core.p()
    }
}

impl Aqm for Pie {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        let p = self.core.p();
        // RFC 8033 §4.1 safeguards.
        if self.burst_allowance > Duration::ZERO {
            return Decision::pass(p);
        }
        if self.cfg.heuristics && p < 0.2 && self.core.prev_qdelay() < self.cfg.target / 2 {
            return Decision::pass(p);
        }
        // Never drop when the queue holds no more than a couple of packets
        // (protects tiny windows; present in both Linux PIE and PI2).
        if snap.qlen_pkts <= 2 {
            return Decision::pass(p);
        }
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

    fn on_dequeue(&mut self, pkt: &Packet, _sojourn: Duration, snap: &QueueSnapshot, now: Time) {
        self.estimator.on_dequeue(pkt.size, snap.qlen_bytes, now);
    }

    fn update(&mut self, snap: &QueueSnapshot, _now: Time) {
        let qdelay = self.estimator.estimate(snap);
        let qdelay_old = self.core.prev_qdelay();
        let p = self.core.p();

        let mut delta = self.core.delta(qdelay) * tune_factor(p);
        if self.cfg.heuristics {
            if qdelay > Duration::from_millis(250) {
                delta = 0.02;
            }
            if p >= 0.1 && delta > 0.02 {
                delta = 0.02;
            }
        }
        self.core.integrate(delta, qdelay);

        // Exponential decay of `p` while the queue is idle (RFC 8033 §4.2).
        if qdelay == Duration::ZERO && qdelay_old == Duration::ZERO {
            self.core.set_p(self.core.p() * 0.98);
        }

        // Burst-allowance bookkeeping (RFC 8033 §4.2).
        if self.cfg.heuristics {
            if self.burst_allowance > Duration::ZERO {
                self.burst_allowance =
                    (self.burst_allowance - self.cfg.t_update).max(Duration::ZERO);
            }
            if self.core.p() == 0.0
                && qdelay < self.cfg.target / 2
                && qdelay_old < self.cfg.target / 2
            {
                self.burst_allowance = MAX_BURST;
            }
        }
    }

    fn update_interval(&self) -> Option<Duration> {
        Some(self.cfg.t_update)
    }

    fn probe(&self) -> AqmState {
        // PIE controls p directly: the linear variable and the output
        // probability coincide. The α/β terms are reported unscaled — the
        // tune factor is exactly what PI2 removes, so seeing the raw
        // contributions next to the integrated p is the point.
        let (alpha_term, beta_term) = self.core.last_terms();
        AqmState {
            p_prime: self.core.p(),
            prob: self.core.p(),
            alpha_term,
            beta_term,
            burst_allowance: self.burst_allowance,
            est_rate_bytes_per_sec: self.estimator.rate_estimate().unwrap_or(0.0),
            qdelay: self.core.prev_qdelay(),
            ..AqmState::default()
        }
    }

    fn name(&self) -> &'static str {
        "pie"
    }
}

ckpt_fields!(Pie { core, estimator, burst_allowance });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pi::{Pi, PiConfig};
    use pi2_netsim::{Action, Ecn, FlowId};

    fn snap(qlen_bytes: usize) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes,
            qlen_pkts: qlen_bytes / 1500,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn pie(cfg: PieConfig) -> Pie {
        Pie::new(PieConfig {
            estimator: DelayEstimator::QlenOverRate,
            ..cfg
        })
    }

    fn bare_with_p(p: f64) -> Pie {
        let mut pie = pie(PieConfig::bare());
        pie.core.set_p(p);
        pie
    }

    /// Full PIE whose burst allowance has run out: four updates at 60 ms
    /// (above half the target, so it is not refilled) drain 100 ms in
    /// 32 ms steps.
    fn full_past_its_burst_allowance() -> Pie {
        let mut pie = pie(PieConfig::paper_default());
        for _ in 0..4 {
            pie.update(&snap(75_000), Time::ZERO);
        }
        assert_eq!(pie.probe().burst_allowance, Duration::ZERO);
        pie
    }

    #[test]
    fn burst_allowance_suppresses_early_drops() {
        let mut pie = pie(PieConfig::paper_default());
        // p ≥ 20 %: the light-load rule cannot be what passes them.
        pie.core.set_p(0.9);
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        for _ in 0..100 {
            let d = pie.on_enqueue(&pkt, &snap(30_000), Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Pass, "burst allowance must suppress drops");
        }
    }

    #[test]
    fn burst_allowance_expires_after_updates() {
        let mut pie = pie(PieConfig::paper_default());
        // 100 ms / 32 ms = 4 updates to drain; keep qdelay high so it is
        // not refilled and p grows.
        for _ in 0..5 {
            pie.update(&snap(300_000), Time::ZERO);
        }
        pie.core.set_p(1.0);
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let d = pie.on_enqueue(&pkt, &snap(300_000), Time::ZERO, &mut rng);
        assert_eq!(d.action, Action::Drop);
    }

    #[test]
    fn light_load_suppression_rule() {
        let mut pie = full_past_its_burst_allowance();
        // An empty queue at the next update makes the previous delay zero
        // (< target/2); p is non-zero, so the allowance is not refilled.
        pie.update(&snap(0), Time::ZERO);
        assert_eq!(pie.probe().burst_allowance, Duration::ZERO);
        pie.core.set_p(0.19);
        // p < 0.2 and a light previous delay -> no drops at all.
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        for _ in 0..1000 {
            let d = pie.on_enqueue(&pkt, &snap(30_000), Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Pass);
        }
    }

    #[test]
    fn paper_rework_always_marks_ect() {
        let mut pie = bare_with_p(0.9);
        let mut rng = Rng::new(1);
        let ect = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        for _ in 0..1000 {
            let d = pie.on_enqueue(&ect, &snap(30_000), Time::ZERO, &mut rng);
            assert_ne!(d.action, Action::Drop, "reworked PIE never drops ECT");
        }
    }

    #[test]
    fn tiny_queue_never_dropped() {
        let mut pie = bare_with_p(1.0);
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let d = pie.on_enqueue(&pkt, &snap(3000), Time::ZERO, &mut rng); // 2 pkts
        assert_eq!(d.action, Action::Pass);
    }

    #[test]
    fn delta_clamp_limits_growth_at_high_p() {
        // 240 ms of backlog at 10 Mb/s: a large step, but under the 250 ms
        // of the fixed-step rule, so only the clamp can hold it to 2 %.
        let s = snap(300_000);
        let mut full = pie(PieConfig::paper_default());
        full.core.set_p(0.5);
        full.update(&s, Time::ZERO);
        assert!(full.prob() <= 0.52 + 1e-9, "p jumped to {}", full.prob());
        let mut bare = bare_with_p(0.5);
        bare.update(&s, Time::ZERO);
        assert!(bare.prob() > 0.52, "unclamped step was only {}", bare.prob() - 0.5);
    }

    #[test]
    fn a_delay_above_250ms_forces_two_percent_steps() {
        // Heuristic 5: when the delay estimate exceeds 250 ms, Δp is set
        // to 2% regardless of what eq. (4) would produce. p stays under
        // 10 %, so the clamp has no part in it.
        let mut pie = pie(PieConfig::paper_default());
        // 400 ms of backlog at 10 Mb/s = 500 kB.
        pie.update(&snap(500_000), Time::ZERO);
        assert!((pie.prob() - 0.02).abs() < 1e-12, "p = {}", pie.prob());
        pie.update(&snap(500_000), Time::ZERO);
        assert!((pie.prob() - 0.04).abs() < 1e-12, "p = {}", pie.prob());
        // Without the rule, the same state produces a (tuned) eq.-(4)
        // delta instead.
        let mut bare = bare_with_p(0.0);
        bare.update(&snap(500_000), Time::ZERO);
        assert!(bare.prob() != 0.02);
    }

    #[test]
    fn an_idle_queue_drains_p() {
        let mut pie = bare_with_p(0.4);
        pie.update(&snap(0), Time::ZERO); // sets prev=0
        let p1 = pie.prob();
        pie.update(&snap(0), Time::ZERO); // second idle update: decay
        let p2 = pie.prob();
        assert!(p2 < p1, "an idle queue should shrink p: {p1} -> {p2}");
    }

    #[test]
    fn auto_tune_slows_growth_at_low_p() {
        // Same queue state and gains at p≈0: PIE, and PIE with the table
        // taken out (Figure 6's `pi`).
        let mut tuned = bare_with_p(0.0);
        let mut untuned = Pi::new(PiConfig::untuned_pie_gains());
        let s = snap(75_000); // 60 ms at 10 Mb/s: well above target
        tuned.update(&s, Time::ZERO);
        untuned.update(&s, Time::ZERO);
        assert!(tuned.prob() < untuned.probe().p_prime);
        assert!(tuned.prob() > 0.0);
    }

    #[test]
    fn probe_reports_burst_allowance_and_delay() {
        let mut pie = pie(PieConfig::paper_default());
        let st = pie.probe();
        assert_eq!(st.burst_allowance, Duration::from_millis(100));
        pie.update(&snap(75_000), Time::ZERO); // 60 ms at 10 Mb/s
        let st = pie.probe();
        assert_eq!(st.burst_allowance, Duration::from_millis(68)); // −32 ms
        assert_eq!(st.qdelay, Duration::from_millis(60));
        assert_eq!(st.p_prime, st.prob, "PIE controls p directly");
        assert_eq!(st.est_rate_bytes_per_sec, 0.0, "no rate estimator here");
    }

    #[test]
    fn bare_pie_has_no_heuristics() {
        assert!(PieConfig::paper_default().heuristics);
        assert!(!PieConfig::bare().heuristics);
        assert_eq!(pie(PieConfig::bare()).probe().burst_allowance, Duration::ZERO);
    }
}
