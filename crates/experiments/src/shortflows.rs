//! Web-like short-flow workloads (paper §6, "Responsiveness and
//! Stability"): mixed flow sizes over a range of loads, measuring flow
//! completion times.
//!
//! The paper reports that short-flow completion times with PIE, bare-PIE
//! and PI2 "were essentially the same" under both heavy and light
//! Web-like workloads. We reproduce the workload as a Poisson arrival
//! process of size-limited TCP flows with bounded-Pareto sizes (the
//! classic heavy-tailed web-object model) over a long-running background
//! flow that keeps the AQM active.

use crate::scenario::{AqmKind, FlowGroup, Scenario};
use pi2_simcore::{Duration, Rng, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// Web workload parameters.
#[derive(Clone, Debug)]
pub struct WebWorkload {
    /// Bottleneck rate in bits/s.
    pub rate_bps: u64,
    /// Base RTT of all flows.
    pub rtt: Duration,
    /// Mean flow arrival rate (flows per second, Poisson).
    pub arrivals_per_sec: f64,
    /// Bounded-Pareto size distribution (shape, min packets, max packets).
    pub size_dist: (f64, f64, f64),
    /// Number of long-running background flows.
    pub background: usize,
    /// Total simulated time.
    pub duration: Time,
    /// Seed for arrivals, sizes and the simulation itself.
    pub seed: u64,
}

impl WebWorkload {
    /// Light load: ~10 % of a 10 Mb/s link in short flows.
    pub fn light(seed: u64) -> Self {
        WebWorkload {
            rate_bps: 10_000_000,
            rtt: Duration::from_millis(50),
            arrivals_per_sec: 4.0,
            size_dist: (1.2, 4.0, 300.0),
            background: 1,
            duration: Time::from_secs(120),
            seed,
        }
    }

    /// Heavy load: short flows alone approach half the link.
    pub fn heavy(seed: u64) -> Self {
        WebWorkload {
            arrivals_per_sec: 16.0,
            ..WebWorkload::light(seed)
        }
    }
}

/// Flow-completion-time result for one AQM.
#[derive(Clone, Debug)]
pub struct FctResult {
    /// AQM name.
    pub aqm: &'static str,
    /// FCT summary (seconds) for short flows (≤ 20 packets).
    pub short_fct: Summary,
    /// FCT summary (seconds) for longer flows (> 20 packets).
    pub long_fct: Summary,
    /// Completed / launched flows.
    pub completed: usize,
    /// Flows launched.
    pub launched: usize,
    /// Mean queue delay (ms) during the run.
    pub qdelay_ms: f64,
}

/// The workload under one AQM: the background flows, then one
/// size-limited Cubic flow per arrival (`"short"` up to 20 packets,
/// `"long"` beyond).
pub fn scenario(aqm: AqmKind, w: &WebWorkload) -> Scenario {
    let mut sc = Scenario::new(aqm, w.rate_bps);
    sc.duration = w.duration;
    sc.warmup = Duration::from_secs(5);
    sc.seed = w.seed;
    let flow = |label| FlowGroup::new(1, CcKind::Cubic, EcnSetting::NotEcn, label, w.rtt);
    sc.tcp.push(FlowGroup {
        count: w.background,
        ..flow("bg")
    });
    // Pre-generate the Poisson arrivals and Pareto sizes so the flow set
    // is identical across AQMs (paired comparison).
    let mut gen = Rng::new(w.seed ^ 0xF10E5);
    let mut t = 0.0;
    let horizon = w.duration.as_secs_f64() - 10.0; // let late flows finish
    while t < horizon {
        t += gen.exponential(1.0 / w.arrivals_per_sec);
        if t >= horizon {
            break;
        }
        let (alpha, lo, hi) = w.size_dist;
        let pkts = gen.bounded_pareto(alpha, lo, hi).round().max(1.0) as u64;
        let mut mouse = flow(if pkts <= 20 { "short" } else { "long" });
        mouse.start = Time::from_secs_f64(t);
        mouse.tcp.data_limit = Some(pkts);
        sc.tcp.push(mouse);
    }
    sc
}

/// Run the workload under one AQM.
pub fn run_one(aqm: AqmKind, w: &WebWorkload) -> FctResult {
    let sc = scenario(aqm, w);
    let r = sc.run();
    let m = &r.monitor;
    let sojourns: Vec<f64> = m.sojourn_ms.iter().map(|&x| x as f64).collect();
    FctResult {
        aqm: r.aqm,
        short_fct: Summary::of(&m.completion_times("short")),
        long_fct: Summary::of(&m.completion_times("long")),
        completed: m.completions.len(),
        launched: sc.tcp.len() - 1,
        qdelay_ms: pi2_stats::mean(&sojourns),
    }
}

/// The full comparison: PIE, bare-PIE and PI2 under one workload.
pub fn compare(w: &WebWorkload) -> Vec<FctResult> {
    vec![
        run_one(AqmKind::Pie(pi2_aqm::PieConfig::paper_default()), w),
        run_one(AqmKind::Pie(pi2_aqm::PieConfig::bare()), w),
        run_one(AqmKind::pi2_default(), w),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> WebWorkload {
        WebWorkload {
            duration: Time::from_secs(40),
            ..WebWorkload::light(0x11eb)
        }
    }

    #[test]
    fn flows_complete_and_fcts_are_sane() {
        let r = run_one(AqmKind::pi2_default(), &quick());
        assert!(r.launched > 50, "launched {}", r.launched);
        assert!(
            r.completed as f64 > 0.9 * r.launched as f64,
            "only {}/{} completed",
            r.completed,
            r.launched
        );
        // A short flow at 50 ms RTT needs at least ~2 RTTs.
        assert!(r.short_fct.p50 > 0.05, "p50 {:.3}s", r.short_fct.p50);
        assert!(r.short_fct.p50 < 2.0, "p50 {:.3}s", r.short_fct.p50);
        // Longer flows take longer.
        assert!(r.long_fct.p50 > r.short_fct.p50);
    }

    #[test]
    fn fcts_are_essentially_the_same_across_aqms() {
        // The paper's claim, on the light workload.
        let results = compare(&quick());
        let base = results[0].short_fct.p50;
        for r in &results[1..] {
            let diff = (r.short_fct.p50 - base).abs() / base;
            assert!(
                diff < 0.4,
                "{} short-flow p50 {:.3}s deviates from PIE's {:.3}s",
                r.aqm,
                r.short_fct.p50,
                base
            );
        }
    }
}
