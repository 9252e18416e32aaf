//! Figures 6 and 13: queue delay under varying traffic intensity.
//!
//! Flow count steps 10:30:50:30:10 over five 50 s phases. Figure 6 runs it
//! at 100 Mb/s / RTT 10 ms and compares the fixed-gain `pi` straw man
//! against PI2; Figure 13 runs the same steps at 10 Mb/s / RTT 100 ms and
//! compares PIE against PI2.

use crate::scenario::{AqmKind, FlowGroup, Scenario};
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// Result of one AQM's run.
#[derive(Clone, Debug)]
pub struct IntensityRun {
    /// AQM name.
    pub aqm: &'static str,
    /// `(t s, queue delay ms)` series (1 s sampling).
    pub qdelay: Vec<(f64, f64)>,
    /// Queue-delay summary over per-packet sojourns, excluding warm-up.
    pub delay: Summary,
    /// Std-dev of the sampled queue delay per steady phase (off-transient
    /// seconds only), the oscillation measure the figure shows visually.
    pub steady_phase_std_ms: f64,
}

/// Parameters of the varying-intensity experiment.
#[derive(Clone, Debug)]
pub struct IntensityConfig {
    /// Link rate in bits/s.
    pub rate_bps: u64,
    /// Base RTT.
    pub rtt: Duration,
    /// Phase length (paper: 50 s).
    pub phase: Duration,
}

impl IntensityConfig {
    /// Figure 6: 100 Mb/s, 10 ms.
    pub fn fig06() -> Self {
        IntensityConfig {
            rate_bps: 100_000_000,
            rtt: Duration::from_millis(10),
            phase: Duration::from_secs(50),
        }
    }

    /// Figure 13: 10 Mb/s, 100 ms.
    pub fn fig13() -> Self {
        IntensityConfig {
            rate_bps: 10_000_000,
            rtt: Duration::from_millis(100),
            phase: Duration::from_secs(50),
        }
    }
}

/// Build the 10:30:50:30:10 flow schedule.
fn add_intensity_flows(sc: &mut Scenario, cfg: &IntensityConfig) {
    let p = cfg.phase;
    let end = Time::ZERO + p * 5;
    // 10 flows for the whole run.
    let mut base = FlowGroup::new(10, CcKind::Reno, EcnSetting::NotEcn, "reno", cfg.rtt);
    base.stop = Some(end);
    sc.tcp.push(base);
    // +20 during phases 2-4 (50 s .. 200 s).
    sc.tcp.push(
        FlowGroup::new(20, CcKind::Reno, EcnSetting::NotEcn, "reno", cfg.rtt)
            .between(Time::ZERO + p, Time::ZERO + p * 4),
    );
    // +20 more during phase 3 (100 s .. 150 s).
    sc.tcp.push(
        FlowGroup::new(20, CcKind::Reno, EcnSetting::NotEcn, "reno", cfg.rtt)
            .between(Time::ZERO + p * 2, Time::ZERO + p * 3),
    );
}

/// Seconds considered "steady" (excluding ±5 s around each phase change).
fn steady_mask(t: f64, phase_s: f64) -> bool {
    let in_phase = t % phase_s;
    (5.0..phase_s - 1.0).contains(&in_phase)
}

/// Run the experiment for one AQM.
pub fn run_one(aqm: AqmKind, cfg: &IntensityConfig, seed: u64) -> IntensityRun {
    let mut sc = Scenario::new(aqm, cfg.rate_bps);
    add_intensity_flows(&mut sc, cfg);
    sc.duration = Time::ZERO + cfg.phase * 5;
    sc.warmup = Duration::from_secs(5);
    sc.seed = seed;
    let r = sc.run();
    let phase_s = cfg.phase.as_secs_f64();
    let steady: Vec<f64> = r
        .qdelay_series()
        .iter()
        .filter(|(t, _)| steady_mask(*t, phase_s))
        .map(|&(_, d)| d)
        .collect();
    let std = pi2_stats::stddev(&steady);
    IntensityRun {
        aqm: r.aqm,
        qdelay: r.qdelay_series().to_vec(),
        delay: r.delay_summary(),
        steady_phase_std_ms: std,
    }
}

/// Figure 6: `pi` (fixed gains, no squaring) vs `pi2`, both at `seed`.
pub fn fig06(seed: u64) -> Vec<IntensityRun> {
    let cfg = IntensityConfig::fig06();
    vec![
        run_one(AqmKind::Pi(pi2_aqm::PiConfig::untuned_pie_gains()), &cfg, seed),
        run_one(AqmKind::pi2_default(), &cfg, seed),
    ]
}

/// Figure 13: PIE vs PI2, both at `seed`.
pub fn fig13(seed: u64) -> Vec<IntensityRun> {
    let cfg = IntensityConfig::fig13();
    vec![
        run_one(AqmKind::pie_default(), &cfg, seed),
        run_one(AqmKind::pi2_default(), &cfg, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Figure 13 (10 s phases) preserving the shape claim:
    /// PI2's delay stays controlled across intensity steps.
    #[test]
    fn pi2_keeps_delay_bounded_across_steps() {
        let cfg = IntensityConfig {
            phase: Duration::from_secs(10),
            ..IntensityConfig::fig13()
        };
        let run = run_one(AqmKind::pi2_default(), &cfg, 13);
        assert!(
            run.delay.p50 < 60.0,
            "median delay {:.1} ms under stepped load",
            run.delay.p50
        );
        assert!(run.qdelay.len() >= 45);
    }

    #[test]
    fn steady_mask_excludes_transients() {
        assert!(!steady_mask(50.5, 50.0));
        assert!(!steady_mask(52.0, 50.0));
        assert!(steady_mask(30.0, 50.0));
        assert!(steady_mask(190.0, 50.0));
    }
}
