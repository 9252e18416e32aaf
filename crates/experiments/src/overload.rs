//! Overload behaviour (paper §5, "Fewer Heuristics").
//!
//! PIE's Linux implementation handles overload with special cases (drop
//! ECN above 10 %, Δp clamps, the 250 ms rule). PI2 replaces them with a
//! flat 25 % cap on the Classic probability: "the queue will be allowed
//! to grow over the target if it cannot be controlled with this maximum
//! drop probability. Then, if needed, tail-drop will control
//! non-responsive traffic." This sweep drives a bottleneck with rising
//! unresponsive UDP load and records exactly that hand-over.

use crate::scenario::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// One point of the overload sweep.
#[derive(Clone, Debug)]
pub struct OverloadPoint {
    /// AQM name.
    pub aqm: &'static str,
    /// Offered UDP load as a fraction of link capacity.
    pub udp_load: f64,
    /// Queue-delay summary (ms).
    pub delay: Summary,
    /// Mean applied probability on the UDP packets (%).
    pub udp_prob_pct: f64,
    /// Fraction of UDP packets lost to AQM drops.
    pub aqm_loss: f64,
    /// Fraction of UDP packets lost to buffer overflow (tail-drop).
    pub overflow_loss: f64,
    /// Remaining TCP throughput (Mb/s).
    pub tcp_mbps: f64,
}

/// One overload point: 2 Reno flows + one UDP source (flow 2) at
/// `udp_load × capacity` on a 10 Mb/s link with a *finite* buffer
/// (100 ms worth), so the tail-drop backstop is observable.
fn scenario(aqm: AqmKind, udp_load: f64, seed: u64) -> Scenario {
    let rate: u64 = 10_000_000;
    let rtt = Duration::from_millis(20);
    let mut sc = Scenario::new(aqm, rate);
    sc.buffer_bytes = (rate as f64 * 0.100 / 8.0) as usize; // 100 ms buffer
    sc.tcp.push(FlowGroup::new(
        2,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "tcp",
        rtt,
    ));
    sc.udp.push(UdpGroup {
        count: 1,
        rate_bps: (rate as f64 * udp_load) as u64,
        pkt_size: 1500,
        label: "udp".to_string(),
        rtt,
        start: Time::ZERO,
        stop: None,
        on_off: None,
    });
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(20);
    sc.seed = seed;
    sc
}

/// Run one overload point. Every loss fraction is over the post-warm-up
/// window, the window the probability samples cover.
pub fn run_point(aqm: AqmKind, udp_load: f64, seed: u64) -> OverloadPoint {
    let r = scenario(aqm, udp_load, seed).run();
    let udp = &r.monitor.flows[2];
    // Buffer-overflow drops are recorded with probability exactly 1.0 by
    // the queue, while every AQM decision here carries the controller's
    // probability (PI2 caps at 0.25; PIE never reaches 1.0 before the
    // buffer does). Filtering p < 1 isolates the AQM's own decisions.
    let probs = || r.monitor.labelled("udp").flat_map(|f| f.prob_samples.iter());
    let aqm_probs = || probs().map(|&p| p as f64).filter(|&p| p < 0.999);
    let (all, aqm) = (probs().count(), aqm_probs().count());
    let mean_p = match aqm {
        0 => 0.0,
        _ => aqm_probs().sum::<f64>() / aqm as f64,
    };
    let overflow_share = if all == 0 { 0.0 } else { (all - aqm) as f64 / all as f64 };
    let total_loss = udp.dropped_postwarm as f64 / udp.sent_pkts_postwarm.max(1) as f64;
    OverloadPoint {
        aqm: r.aqm,
        udp_load,
        delay: r.delay_summary(),
        udp_prob_pct: 100.0 * mean_p,
        aqm_loss: (total_loss - overflow_share).max(0.0),
        overflow_loss: overflow_share,
        tcp_mbps: r.tput_mbps("tcp"),
    }
}

/// The sweep: UDP offered load from 50 % to 200 % of capacity, PIE vs PI2.
pub fn sweep(seed: u64) -> Vec<OverloadPoint> {
    let mut out = Vec::new();
    for &load in &[0.5, 0.8, 1.0, 1.2, 1.5, 2.0] {
        out.push(run_point(AqmKind::pie_default(), load, seed));
        out.push(run_point(AqmKind::pi2_default(), load, seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi2_probability_saturates_at_its_cap() {
        // 2x overload: the Classic probability must sit at the 25% cap.
        let pt = run_point(AqmKind::pi2_default(), 2.0, 7);
        assert!(
            (20.0..=25.5).contains(&pt.udp_prob_pct),
            "AQM-applied probability {:.1}% should be pinned at the 25% cap",
            pt.udp_prob_pct
        );
        // ... and tail-drop supplies the rest of the loss.
        assert!(
            pt.overflow_loss > 0.1,
            "expected tail-drop share, got {:.3}",
            pt.overflow_loss
        );
        // The queue grows past target toward the buffer limit.
        assert!(
            pt.delay.p50 > 40.0,
            "queue should exceed target under overload, got {:.1} ms",
            pt.delay.p50
        );
    }

    #[test]
    fn the_two_loss_columns_split_the_post_warmup_loss() {
        // Both columns cover the window the probability samples do.
        let pt = run_point(AqmKind::pi2_default(), 2.0, 7);
        let r = scenario(AqmKind::pi2_default(), 2.0, 7).run();
        let udp = &r.monitor.flows[2];
        let loss = udp.dropped_postwarm as f64 / udp.sent_pkts_postwarm as f64;
        assert!(pt.aqm_loss > 0.0 && pt.overflow_loss > 0.0);
        assert!((pt.aqm_loss + pt.overflow_loss - loss).abs() < 1e-12, "{pt:?} vs {loss}");
    }

    #[test]
    fn moderate_load_stays_on_target() {
        let pt = run_point(AqmKind::pi2_default(), 0.5, 7);
        assert!(
            (5.0..40.0).contains(&pt.delay.p50),
            "at 50% UDP load the AQM should still hold target, got {:.1} ms",
            pt.delay.p50
        );
        assert!(pt.overflow_loss < 0.01);
        assert!(pt.tcp_mbps > 2.0, "TCP got {:.1} Mb/s", pt.tcp_mbps);
    }
}
