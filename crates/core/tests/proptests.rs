//! Property-based tests for the AQM controllers.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_aqm::{
    CoupledPi2, CoupledPi2Config, DualPi2, DualPi2Config, Pi2, Pi2Config, PiCore, Pie, PieConfig,
    SquareMode,
};
use pi2_fluid::law::CLASSIC_CAP;
use pi2_netsim::{Aqm, Ecn, FlowId, Packet, Qdisc, QueueSnapshot};
use pi2_simcore::{Duration, Rng, Time};
use proptest::prelude::*;

fn snap(qlen_bytes: usize) -> QueueSnapshot {
    QueueSnapshot {
        qlen_bytes,
        qlen_pkts: qlen_bytes / 1500,
        link_rate_bps: 10_000_000,
        last_sojourn: None,
    }
}

proptest! {
    /// The PI core's probability stays in [0, 1] for any delay sequence.
    #[test]
    fn pi_core_probability_bounded(
        delays_ms in prop::collection::vec(0i64..5_000, 1..500),
        alpha in 0.01f64..2.0,
        beta in 0.01f64..20.0,
    ) {
        let mut core = PiCore::new(
            alpha,
            beta,
            Duration::from_millis(20),
            Duration::from_millis(32),
        );
        for d in delays_ms {
            let p = core.update(Duration::from_millis(d));
            prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    /// PI2's applied probability is the square of p', never above the
    /// Classic cap: under any run of queue delays, and at saturation.
    #[test]
    fn pi2_applied_prob_is_capped_square(delays_ms in prop::collection::vec(0i64..500, 1..50)) {
        let mut a = Pi2::new(Pi2Config::default());
        for d in delays_ms {
            a.update(&snap(d as usize * 1250), Time::ZERO); // d ms at 10 Mb/s
            let pp = a.p_prime();
            prop_assert_eq!(a.classic_prob(), (pp * pp).min(CLASSIC_CAP));
        }
        for _ in 0..2000 {
            a.update(&snap(10_000_000), Time::ZERO);
        }
        prop_assert_eq!((a.p_prime(), a.classic_prob()), (1.0, CLASSIC_CAP));
    }

    /// The two squaring implementations agree in distribution for any p'.
    #[test]
    fn square_modes_equivalent(pp in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let n = 20_000;
        let mut hits = [0usize; 2];
        for _ in 0..n {
            if SquareMode::Multiply.signal(pp, &mut rng) {
                hits[0] += 1;
            }
            if SquareMode::TwoCompare.signal(pp, &mut rng) {
                hits[1] += 1;
            }
        }
        let f0 = hits[0] as f64 / n as f64;
        let f1 = hits[1] as f64 / n as f64;
        // Both estimate pp²; allow generous sampling noise.
        prop_assert!((f0 - pp * pp).abs() < 0.03, "multiply {f0} vs {}", pp * pp);
        prop_assert!((f1 - pp * pp).abs() < 0.03, "two-compare {f1} vs {}", pp * pp);
    }

    /// The coupled AQM's two probabilities always satisfy pc ≤ (ps/k)²
    /// (equality below the caps), for any controller state.
    #[test]
    fn coupled_relation_invariant(
        delays_ms in prop::collection::vec(0i64..2_000, 1..200),
        k in 1.0f64..4.0,
    ) {
        let mut c = CoupledPi2::new(CoupledPi2Config {
            k,
            ..CoupledPi2Config::default()
        });
        for d in delays_ms {
            c.update(&snap((d as usize) * 1250), Time::ZERO);
            let ps = c.scalable_prob();
            let pc = c.classic_prob();
            prop_assert!((0.0..=1.0).contains(&ps));
            prop_assert!((0.0..=0.25).contains(&pc));
            let uncapped = (ps / k) * (ps / k);
            prop_assert!(pc <= uncapped + 1e-12);
        }
    }

    /// PIE's probability is bounded and its burst allowance never makes it
    /// negative, for arbitrary delay inputs, full or bare.
    #[test]
    fn pie_probability_bounded(
        delays_ms in prop::collection::vec(0i64..3_000, 1..300),
        heuristics in any::<bool>(),
    ) {
        let mut pie = Pie::new(PieConfig {
            heuristics,
            estimator: pi2_aqm::DelayEstimator::QlenOverRate,
            ..PieConfig::paper_default()
        });
        for d in delays_ms {
            pie.update(&snap((d as usize) * 1250), Time::ZERO);
            let p = pie.prob();
            prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    /// DualPI2 conserves packets: everything admitted is eventually
    /// popped, in a valid order, with exact byte accounting.
    #[test]
    fn dualq_conserves_packets(
        ecns in prop::collection::vec(prop_oneof![Just(Ecn::NotEct), Just(Ecn::Ect1)], 1..100),
        seed in any::<u64>(),
    ) {
        let mut q = DualPi2::new(DualPi2Config::for_link(10_000_000));
        let mut rng = Rng::new(seed);
        let mut admitted = 0usize;
        let mut t = Time::ZERO;
        for (i, ecn) in ecns.iter().enumerate() {
            t += Duration::from_micros(500);
            let d = q.offer(
                Packet::data(FlowId(0), i as u64, 1500, *ecn, t),
                t,
                &mut rng,
            );
            if d.action != pi2_netsim::Action::Drop {
                admitted += 1;
            }
        }
        prop_assert_eq!(q.len_pkts(), admitted);
        let mut popped = 0usize;
        while q.pop(t).is_some() {
            t += Duration::from_micros(100);
            popped += 1;
        }
        prop_assert_eq!(popped, admitted);
        prop_assert_eq!((q.len_bytes(), q.len_pkts()), (0, 0));
    }
}
