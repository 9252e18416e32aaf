//! Ablations of the design choices the paper calls out.
//!
//! * `k_sweep` — the coupling factor (analytic 1.19 vs empirical 2);
//! * `gain_sweep` — how far PI2's gains can be raised before the
//!   responsiveness/stability trade bites (Section 4's ×2.5 headroom);
//! * `bare_pie` — the paper's §5 claim that PIE's extra heuristics have
//!   no measurable effect;
//! * `square_mode` — `p'·p'` vs `max(Y₁,Y₂)` decision equivalence at the
//!   system level.

use crate::appendix_a::{law_scenario, mean_window, LAW_RTT};
use crate::fig11::{run_one as fig11_run, TrafficMix};
use crate::grid::{run_cell, Pair};
use crate::isolation::coexistence;
use crate::scenario::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2_aqm::{CoupledPi2Config, Pi2Config, PieConfig, SquareMode};
use pi2_fluid::PiGains;
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting, TcpConfig};

/// One coupling-factor measurement.
#[derive(Clone, Debug)]
pub struct KSweepPoint {
    /// Coupling factor.
    pub k: f64,
    /// Cubic/DCTCP per-flow rate ratio.
    pub ratio: f64,
}

/// Sweep the coupling factor k and report the Cubic/DCTCP rate balance
/// (40 Mb/s, 10 ms — the Figure 19 cell), each k at `seed + ⌊100k⌋`.
/// Points run in parallel via [`crate::runner::par_map`].
pub fn k_sweep(ks: &[f64], duration_s: u64, seed: u64) -> Vec<KSweepPoint> {
    crate::runner::par_map(ks, |&k| {
        let mut cfg = CoupledPi2Config::default();
        cfg.k = k;
        let cell = run_cell(
            AqmKind::Coupled(cfg),
            Pair::CubicVsDctcp,
            40,
            10,
            duration_s,
            seed.wrapping_add((k * 100.0) as u64),
        );
        KSweepPoint {
            k,
            ratio: cell.rate_ratio,
        }
    })
}

/// One gain-multiplier measurement.
#[derive(Clone, Debug)]
pub struct GainSweepPoint {
    /// Gain multiplier relative to PIE's gains (the paper chose 2.5).
    pub multiplier: f64,
    /// Start-up/transient peak queue delay (ms).
    pub peak_ms: f64,
    /// Post-warm-up delay summary.
    pub delay: Summary,
}

/// Sweep PI2's gain multiplier under the Figure 11(a) workload. Points
/// run in parallel via [`crate::runner::par_map`].
pub fn gain_sweep(multipliers: &[f64], seed: u64) -> Vec<GainSweepPoint> {
    crate::runner::par_map(multipliers, |&m| {
        let gains = PiGains::pie().scaled(m);
        let cfg = Pi2Config {
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            ..Pi2Config::default()
        };
        let run = fig11_run(AqmKind::Pi2(cfg), TrafficMix::Light, seed);
        GainSweepPoint {
            multiplier: m,
            peak_ms: run.peak_ms,
            delay: run.delay,
        }
    })
}

/// Bare-PIE vs full-PIE comparison over the Figure 11 mixes. Returns
/// `(mix label, full delay summary, bare delay summary)` triples.
pub fn bare_pie(seed: u64) -> Vec<(&'static str, Summary, Summary)> {
    TrafficMix::all()
        .into_iter()
        .map(|mix| {
            let full = fig11_run(AqmKind::Pie(PieConfig::paper_default()), mix, seed);
            let bare = fig11_run(AqmKind::Pie(PieConfig::bare()), mix, seed);
            (mix.label(), full.delay, bare.delay)
        })
        .collect()
}

/// The bursty cell of the bare-PIE comparison: an on-off CBR source
/// (8 Mb/s bursts, 100 ms on / 900 ms off) rides over two light TCP
/// flows behind PIE configured by `cfg`.
pub fn burst_scenario(cfg: PieConfig, seed: u64) -> Scenario {
    let rtt = Duration::from_millis(40);
    let mut sc = Scenario::new(AqmKind::Pie(cfg), 10_000_000);
    sc.tcp
        .push(FlowGroup::new(2, CcKind::Reno, EcnSetting::NotEcn, "tcp", rtt));
    sc.udp.push(UdpGroup {
        rate_bps: 8_000_000,
        pkt_size: 1000,
        label: "burst".to_string(),
        on_off: Some((Duration::from_millis(100), Duration::from_millis(900))),
        ..UdpGroup::paper_probes(1, rtt)
    });
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(5);
    sc.seed = seed;
    sc
}

/// Bursty-traffic variant of the bare-PIE comparison
/// ([`burst_scenario`]). This is the workload PIE's burst allowance was
/// written for; the paper notes the PI core's incremental probability
/// already filters such bursts, making the heuristic redundant. Returns
/// `(full-PIE burst loss fraction, bare-PIE burst loss fraction)`.
pub fn bare_pie_bursts(seed: u64) -> (f64, f64) {
    let run = |cfg: PieConfig| {
        let r = burst_scenario(cfg, seed).run();
        r.counters.flows()[2].dropped as f64 / r.monitor.flows[2].sent_pkts.max(1) as f64
    };
    (run(PieConfig::paper_default()), run(PieConfig::bare()))
}

/// The two squaring implementations under identical traffic: returns the
/// delay summaries `(multiply, two-compare)` — they must be statistically
/// indistinguishable.
pub fn square_mode(seed: u64) -> (Summary, Summary) {
    let multiply = fig11_run(
        AqmKind::Pi2(Pi2Config {
            square_mode: SquareMode::Multiply,
            ..Pi2Config::default()
        }),
        TrafficMix::Light,
        seed,
    );
    let two = fig11_run(
        AqmKind::Pi2(Pi2Config {
            square_mode: SquareMode::TwoCompare,
            ..Pi2Config::default()
        }),
        TrafficMix::Light,
        seed,
    );
    (multiply.delay, two.delay)
}

/// Measure the effective CReno constant `c` in `W = c/√p` with and
/// without delayed ACKs, at a fixed probability (over-provisioned link,
/// as in Appendix A validation).
///
/// Classically, delayed ACKs halve a per-ACK-counting sender's additive
/// increase (1.68 → 1.19 = 1.68/√2). Our congestion controls — like
/// modern Linux — count acked *packets* (appropriate byte counting,
/// RFC 3465), so the constant barely moves; the measurement demonstrates
/// that, and locates the analytic-k=1.19 vs empirical-k=2 slack in the
/// transports' dynamic response (DCTCP's EWMA lag) rather than in ACK
/// policy.
pub fn delayed_ack_constant(p: f64, delayed: bool, seed: u64) -> f64 {
    let tcp = TcpConfig {
        delayed_ack: delayed,
        ..TcpConfig::default()
    };
    let r = law_scenario(CcKind::Cubic, EcnSetting::NotEcn, tcp, p, seed).run();
    mean_window(&r, LAW_RTT.as_secs_f64()) * p.sqrt()
}

/// Coexistence balance with Linux-like delayed ACKs on the Classic side
/// (the DCTCP receiver already ACKs promptly on CE changes).
pub fn delayed_ack_balance(k: f64, duration_s: u64, seed: u64) -> f64 {
    let rtt = Duration::from_millis(10);
    let mut cfg = CoupledPi2Config::default();
    cfg.k = k;
    let dctcp = FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt);
    let mut sc = coexistence(AqmKind::Coupled(cfg), 40_000_000, dctcp, duration_s, seed);
    for g in &mut sc.tcp {
        g.tcp.delayed_ack = true;
    }
    let r = sc.run();
    r.per_flow_tput_mbps("cubic") / r.per_flow_tput_mbps("dctcp").max(1e-9)
}

/// Queue-delay estimator choice (a DESIGN decision the paper inherits
/// from Linux PIE): run the Figure 11(a) workload with PI2 under each of
/// the three estimators and compare delay summaries. They should agree —
/// the controller is robust to how τ is measured.
pub fn estimator_choice(seed: u64) -> Vec<(&'static str, Summary)> {
    use pi2_aqm::DelayEstimator;
    [
        ("qlen/rate", DelayEstimator::QlenOverRate),
        ("rate-estimator", DelayEstimator::linux_default()),
        ("sojourn", DelayEstimator::Sojourn),
    ]
    .into_iter()
    .map(|(name, est)| {
        let cfg = Pi2Config {
            estimator: est,
            ..Pi2Config::default()
        };
        let run = fig11_run(AqmKind::Pi2(cfg), TrafficMix::Light, seed);
        (name, run.delay)
    })
    .collect()
}

/// Reproduce footnote 5: the paper's testbed had a Linux bug capping the
/// bandwidth-delay product at 1 MB, which caused "anomalous results at
/// the high RTT end of the higher link rates" in Figures 15–18. We can
/// switch the artefact on by clamping the congestion window to
/// 1 MB / MSS packets.
pub fn bdp_bug(link_mbps: u64, rtt_ms: i64, clamp: bool, duration_s: u64, seed: u64) -> (f64, f64) {
    let rtt = Duration::from_millis(rtt_ms);
    let mut sc = Scenario::new(AqmKind::pie_default(), link_mbps * 1_000_000);
    let mk = |cc, ecn, label: &str| {
        let mut g = FlowGroup::new(1, cc, ecn, label, rtt);
        if clamp {
            g.tcp.max_cwnd = 1_000_000.0 / 1500.0; // the 1 MB Linux cap
        }
        g
    };
    sc.tcp.push(mk(CcKind::Cubic, EcnSetting::NotEcn, "cubic"));
    sc.tcp.push(mk(CcKind::Cubic, EcnSetting::Classic, "ecn-cubic"));
    sc.duration = Time::from_secs(duration_s);
    sc.warmup = Duration::from_secs(duration_s as i64 / 3);
    sc.seed = seed;
    let r = sc.run();
    let ratio = r.per_flow_tput_mbps("cubic") / r.per_flow_tput_mbps("ecn-cubic").max(1e-9);
    (ratio, r.util_summary().mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_clamp_starves_utilization_at_high_bdp() {
        // 200 Mb/s x 100 ms: BDP = 2.5 MB >> the 1 MB clamp, so two
        // clamped flows cannot fill the pipe (the paper's footnote 5).
        // Two clamped flows can carry at most 2 x 1 MB / 100 ms =
        // 160 Mb/s of the 200 Mb/s link, i.e. utilization pinned ≤ ~80 %.
        let (_, util_clamped) = bdp_bug(200, 100, true, 30, 0xbd);
        let (_, util_free) = bdp_bug(200, 100, false, 30, 0xbd);
        assert!(
            util_clamped < 82.0,
            "clamped utilization {util_clamped:.0}% should pin at the window limit"
        );
        assert!(
            util_free > util_clamped + 5.0,
            "unclamped {util_free:.0}% vs clamped {util_clamped:.0}%"
        );
    }

    #[test]
    fn k_sweep_ratio_increases_with_k() {
        // Bigger k means a gentler Classic signal, so Cubic takes more.
        let pts = k_sweep(&[1.0, 2.0, 4.0], 30, 0x5eed);
        assert!(
            pts[0].ratio < pts[2].ratio,
            "ratio at k=1 ({:.2}) should be below k=4 ({:.2})",
            pts[0].ratio,
            pts[2].ratio
        );
    }

    #[test]
    fn pi2_is_robust_to_the_delay_estimator() {
        let rs = estimator_choice(0xe5);
        let base = rs[0].1.mean;
        for (name, s) in &rs {
            assert!(
                (s.mean - base).abs() < 6.0,
                "{name}: mean {:.1} ms vs {:.1} ms",
                s.mean,
                base
            );
            assert!((5.0..45.0).contains(&s.p50), "{name}: p50 {:.1}", s.p50);
        }
    }

    #[test]
    fn burst_allowance_is_redundant_as_the_paper_claims() {
        let (full, bare) = bare_pie_bursts(0xb1);
        // Both variants lose few burst packets (the PI core ramps p too
        // slowly to punish a 100 ms burst), and disabling the allowance
        // changes the loss by at most a percent-scale amount.
        assert!(full < 0.05, "full PIE burst loss {full:.4}");
        assert!(bare < 0.05, "bare PIE burst loss {bare:.4}");
        assert!((full - bare).abs() < 0.02, "full {full:.4} vs bare {bare:.4}");
    }

    #[test]
    fn delayed_acks_barely_move_a_byte_counting_sender() {
        let per_pkt = delayed_ack_constant(0.02, false, 5);
        let delayed = delayed_ack_constant(0.02, true, 5);
        // Both in the CReno ballpark (stochastic loss sits a bit below
        // the deterministic-sawtooth 1.68)...
        assert!((1.2..2.1).contains(&per_pkt), "constant {per_pkt:.2}");
        assert!((1.2..2.1).contains(&delayed), "constant {delayed:.2}");
        // ...and within 15% of each other: byte counting neutralizes the
        // classic delayed-ACK growth penalty.
        let diff = (per_pkt - delayed).abs() / per_pkt;
        assert!(diff < 0.15, "{per_pkt:.2} vs {delayed:.2}");
    }

    #[test]
    fn square_modes_agree_at_system_level() {
        let (a, b) = square_mode(17);
        let diff = (a.mean - b.mean).abs() / a.mean.max(1e-9);
        assert!(
            diff < 0.35,
            "delay means diverge between square modes: {:.1} vs {:.1} ms",
            a.mean,
            b.mean
        );
    }
}
