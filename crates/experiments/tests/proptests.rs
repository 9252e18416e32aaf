//! System-level property tests: random (small) scenarios must uphold
//! global conservation and sanity invariants under every AQM.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_experiments::scenario::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2_experiments::workload::{bounded_pareto_mean, mice_arrivals, MiceWorkload};
use pi2_netsim::FlowId;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};
use proptest::prelude::*;

fn arb_aqm() -> impl Strategy<Value = AqmKind> {
    prop_oneof![
        Just(AqmKind::pi2_default()),
        Just(AqmKind::pie_default()),
        Just(AqmKind::coupled_default()),
        Just(AqmKind::Pi(pi2_aqm::PiConfig::default())),
        Just(AqmKind::TailDrop),
    ]
}

fn arb_cc() -> impl Strategy<Value = (CcKind, EcnSetting)> {
    prop_oneof![
        Just((CcKind::Reno, EcnSetting::NotEcn)),
        Just((CcKind::Cubic, EcnSetting::NotEcn)),
        Just((CcKind::Cubic, EcnSetting::Classic)),
        Just((CcKind::Dctcp, EcnSetting::Scalable)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the AQM, traffic mix and seed: packets are conserved
    /// (delivered ≤ dequeued ≤ sent per flow), utilization is physical,
    /// and the run is deterministic.
    #[test]
    fn scenario_invariants(
        aqm in arb_aqm(),
        cc in arb_cc(),
        n_flows in 1usize..6,
        rtt_ms in 5i64..120,
        mbps in 2u64..60,
        udp in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut sc = Scenario::new(aqm, mbps * 1_000_000);
        let rtt = Duration::from_millis(rtt_ms);
        sc.tcp.push(FlowGroup::new(n_flows, cc.0, cc.1, "tcp", rtt));
        if udp {
            sc.udp.push(UdpGroup {
                count: 1,
                rate_bps: mbps * 200_000, // 20% of the link
                pkt_size: 1000,
                label: "udp".to_string(),
                rtt,
                start: Time::ZERO,
                stop: None,
                on_off: None,
            });
        }
        sc.duration = Time::from_secs(8);
        sc.warmup = Duration::from_secs(2);
        sc.seed = seed;
        let r = sc.run();

        for (i, f) in r.monitor.flows.iter().enumerate() {
            let c = r.counters.flow(FlowId(i as u32));
            prop_assert!(f.delivered_pkts <= c.dequeued);
            prop_assert!(c.dequeued + c.dropped <= f.sent_pkts + 1);
            prop_assert!(c.marked + c.dropped <= f.sent_pkts);
        }
        // No physically impossible utilization samples.
        for (_, u) in r.monitor.util_series() {
            prop_assert!((0.0..=1.05).contains(&u), "utilization {u}");
        }
        // Sojourns are non-negative and finite.
        for &s in &r.monitor.sojourn_ms {
            prop_assert!(s.is_finite() && s >= 0.0);
        }
        // Determinism.
        let r2 = sc.run();
        prop_assert_eq!(
            r.monitor.flows[0].dequeued_bytes,
            r2.monitor.flows[0].dequeued_bytes
        );
    }

    /// The AQM keeps the long-run queue finite: the sampled queue delay
    /// never approaches the (huge) physical buffer when traffic is
    /// TCP-only and responsive.
    #[test]
    fn responsive_traffic_never_fills_the_buffer(
        aqm in prop_oneof![
            Just(AqmKind::pi2_default()),
            Just(AqmKind::pie_default()),
            Just(AqmKind::coupled_default()),
        ],
        n_flows in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut sc = Scenario::new(aqm, 10_000_000);
        sc.tcp.push(FlowGroup::new(
            n_flows,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "tcp",
            Duration::from_millis(40),
        ));
        sc.duration = Time::from_secs(12);
        sc.warmup = Duration::from_secs(4);
        sc.seed = seed;
        let r = sc.run();
        // The 40000-packet buffer would be 48 seconds of delay; any
        // sample beyond 2 s means the controller lost the queue.
        for (t, d) in r.qdelay_series() {
            prop_assert!(d < 2_000.0, "queue delay {d:.0} ms at t={t:.0}");
        }
    }

    /// Workload generation is a pure function of its configuration: the
    /// same config yields the same stream, and the stream is well-formed
    /// (ordered arrivals inside the window, sizes inside the bounds).
    #[test]
    fn mice_streams_are_deterministic_and_well_formed(
        rate in 1.0f64..40.0,
        alpha in 1.05f64..2.5,
        hi in 20.0f64..500.0,
        seed in any::<u64>(),
    ) {
        let w = MiceWorkload {
            arrivals_per_sec: rate,
            size_dist: (alpha, 2.0, hi),
            start: Time::from_secs(1),
            horizon: Time::from_secs(31),
            seed,
        };
        let a = mice_arrivals(&w);
        let b = mice_arrivals(&w);
        prop_assert_eq!(&a, &b, "same config must replay the same stream");
        let mut prev = w.start;
        for m in &a {
            prop_assert!(m.at >= prev && m.at < w.horizon);
            prop_assert!(m.size_pkts >= 1 && m.size_pkts <= hi.round() as u64);
            prev = m.at;
        }
    }

    /// Empirical bounded-Pareto size moments track the analytic mean
    /// within a loose tolerance (heavy tails need a wide net).
    #[test]
    fn mice_sizes_track_the_analytic_pareto_mean(
        alpha in 1.3f64..2.5,
        seed in any::<u64>(),
    ) {
        let w = MiceWorkload {
            arrivals_per_sec: 60.0,
            size_dist: (alpha, 2.0, 200.0),
            start: Time::ZERO,
            horizon: Time::from_secs(60),
            seed,
        };
        let a = mice_arrivals(&w);
        prop_assert!(a.len() > 2_000, "need a large sample, got {}", a.len());
        let emp = a.iter().map(|m| m.size_pkts as f64).sum::<f64>() / a.len() as f64;
        let exact = bounded_pareto_mean(alpha, 2.0, 200.0);
        // Rounding to whole packets biases up by at most 0.5; the rest is
        // sampling noise.
        prop_assert!(
            (emp - exact).abs() < 0.5 + 0.35 * exact,
            "empirical mean {emp:.2} vs analytic {exact:.2} (α={alpha:.2})"
        );
    }

    /// Arrival-rate scaling symmetry: doubling the rate roughly doubles
    /// the count over the same window, and counts scale linearly with
    /// the window length at a fixed rate.
    #[test]
    fn mice_arrival_counts_scale_with_rate_and_window(
        rate in 4.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let base = MiceWorkload {
            arrivals_per_sec: rate,
            size_dist: (1.2, 2.0, 200.0),
            start: Time::ZERO,
            horizon: Time::from_secs(80),
            seed,
        };
        let n1 = mice_arrivals(&base).len() as f64;
        let doubled = MiceWorkload { arrivals_per_sec: 2.0 * rate, ..base.clone() };
        let n2 = mice_arrivals(&doubled).len() as f64;
        prop_assert!(n1 > 50.0, "degenerate sample {n1}");
        let ratio = n2 / n1;
        prop_assert!(
            (1.5..2.7).contains(&ratio),
            "2x rate gave {n2}/{n1} = {ratio:.2}"
        );
        let half_window = MiceWorkload { horizon: Time::from_secs(40), ..base };
        let nh = mice_arrivals(&half_window).len() as f64;
        let wratio = n1 / nh;
        prop_assert!(
            (1.5..2.7).contains(&wratio),
            "2x window gave {n1}/{nh} = {wratio:.2}"
        );
    }
}
