//! Property-based tests for the fluid-model toolkit.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_fluid::{
    margins, max_min_allocation, max_min_weighted, Complex, FlowClass, FlowLevelConfig,
    FlowLevelSim, FluidConfig, FluidSim, FluidTcpKind, LoopKind, LoopTf, PiGains,
};
use proptest::prelude::*;

fn finite(re: f64, im: f64) -> Complex {
    Complex::new(re, im)
}

/// One class of the differential test, drawn from small palettes so that
/// identical classes (tied demands), zero-count classes, binding and slack
/// rate caps and mid-run activations all turn up in most mixes.
fn palette_class(
    (rtt, count, law, (start_ms, stop_ms)): (usize, usize, u32, (u32, u32)),
) -> FlowClass {
    let tcp = [FluidTcpKind::Reno, FluidTcpKind::Scalable][(law & 1) as usize];
    let mut cl = FlowClass::new(
        [0.0, 1.0, 1.0, 2.5, 7.0][count],
        tcp,
        [0.005, 0.005, 0.02, 0.02, 0.08, 0.2][rtt],
    );
    cl.rate_cap_pps = [None, None, Some(40.0), Some(900.0)][(law >> 1) as usize];
    if start_ms >= 200 {
        cl.start = f64::from(start_ms - 200) / 1000.0;
    }
    if stop_ms >= 200 {
        cl.stop = Some(cl.start + f64::from(stop_ms - 200) / 1000.0);
    }
    cl
}

proptest! {
    /// The shares a step uses, reached by repairing the order the engine
    /// keeps, are bit for bit what `max_min_weighted` computes from scratch
    /// on the same demands — at every step, through activations and stops
    /// that scramble the order.
    #[test]
    fn kept_order_shares_equal_from_scratch_shares(
        capacity in 100.0f64..5_000.0,
        classes in prop::collection::vec(
            (0usize..6, 0usize..5, 0u32..8, (0u32..400, 0u32..400)),
            1..24,
        ),
    ) {
        let cfg = FlowLevelConfig {
            capacity_pps: capacity,
            classes: classes.into_iter().map(palette_class).collect(),
            ..FlowLevelConfig::default()
        };
        let mut sim = FlowLevelSim::new(cfg);
        for step in 0..600 {
            sim.step();
            let scratch = max_min_weighted(capacity, sim.last_demands());
            for (i, (kept, fresh)) in sim.last_shares().iter().zip(&scratch).enumerate() {
                prop_assert!(
                    kept.to_bits() == fresh.to_bits(),
                    "step {step} class {i}: kept order gave {kept}, from scratch {fresh}"
                );
            }
        }
    }

    /// Field axioms (numerically): commutativity, associativity,
    /// distributivity.
    #[test]
    fn complex_field_axioms(
        a in (-1e3f64..1e3, -1e3f64..1e3),
        b in (-1e3f64..1e3, -1e3f64..1e3),
        c in (-1e3f64..1e3, -1e3f64..1e3),
    ) {
        let (a, b, c) = (finite(a.0, a.1), finite(b.0, b.1), finite(c.0, c.1));
        let close = |x: Complex, y: Complex| (x - y).abs() < 1e-6 * (1.0 + x.abs());
        prop_assert!(close(a + b, b + a));
        prop_assert!(close(a * b, b * a));
        prop_assert!(close((a + b) + c, a + (b + c)));
        prop_assert!(close(a * (b + c), a * b + a * c));
    }

    /// |z·w| = |z|·|w| and arg is additive (mod 2π).
    #[test]
    fn complex_polar_identities(
        a in (-1e2f64..1e2, -1e2f64..1e2),
        b in (-1e2f64..1e2, -1e2f64..1e2),
    ) {
        let (z, w) = (finite(a.0, a.1), finite(b.0, b.1));
        prop_assume!(z.abs() > 1e-3 && w.abs() > 1e-3);
        let prod = z * w;
        prop_assert!((prod.abs() - z.abs() * w.abs()).abs() < 1e-6 * prod.abs().max(1.0));
        let mut darg = z.arg() + w.arg() - prod.arg();
        while darg > std::f64::consts::PI {
            darg -= std::f64::consts::TAU;
        }
        while darg < -std::f64::consts::PI {
            darg += std::f64::consts::TAU;
        }
        prop_assert!(darg.abs() < 1e-6);
    }

    /// exp(z+w) = exp(z)·exp(w).
    #[test]
    fn complex_exp_homomorphism(
        a in (-3.0f64..3.0, -3.0f64..3.0),
        b in (-3.0f64..3.0, -3.0f64..3.0),
    ) {
        let (z, w) = (finite(a.0, a.1), finite(b.0, b.1));
        let lhs = (z + w).exp();
        let rhs = z.exp() * w.exp();
        prop_assert!((lhs - rhs).abs() < 1e-6 * lhs.abs().max(1.0));
    }

    /// Loop transfer functions evaluate to finite values on the jω axis
    /// for any valid operating point.
    #[test]
    fn loop_tf_finite_everywhere(
        p_prime in 1e-4f64..1.0,
        r0 in 1e-3f64..0.5,
        w_exp in -3.0f64..3.0,
    ) {
        let w = 10f64.powf(w_exp);
        for kind in [LoopKind::RenoOnP, LoopKind::RenoOnPSquared, LoopKind::ScalableOnP] {
            let tf = LoopTf {
                kind,
                gains: PiGains::pi2(),
                r0,
                p0_prime: p_prime,
            };
            let z = tf.eval(w);
            prop_assert!(z.abs().is_finite(), "{kind:?} blew up at w={w}");
        }
    }

    /// Margins are well-defined (finite or +inf, never NaN) across the
    /// operating space.
    #[test]
    fn margins_never_nan(p_prime in 1e-3f64..1.0, r0 in 5e-3f64..0.3) {
        let m = margins(&LoopTf::pi2(p_prime, r0));
        prop_assert!(!m.gain_margin_db.is_nan());
        prop_assert!(!m.phase_margin_deg.is_nan());
    }

    /// The fluid integrator preserves its invariants (bounded p', positive
    /// window, non-negative queue) for random configurations.
    #[test]
    fn fluid_sim_invariants(
        n in 1.0f64..40.0,
        rtt_ms in 5.0f64..200.0,
        mbps in 1.0f64..100.0,
    ) {
        let cfg = FluidConfig {
            capacity_pps: mbps * 1e6 / 8.0 / 1500.0,
            base_rtt: rtt_ms / 1000.0,
            n_flows: vec![(0.0, n)],
            dt: 0.002,
            ..FluidConfig::default()
        };
        let samples = FluidSim::new(cfg).run(10.0, 0.2);
        for s in samples {
            prop_assert!((0.0..=1.0).contains(&s.p_prime));
            prop_assert!(s.w.is_finite() && s.w > 0.0);
            prop_assert!(s.qdelay >= 0.0 && s.qdelay.is_finite());
        }
    }

    /// Max-min water-filling conservation: when total demand covers the
    /// capacity the shares sum to exactly it (within float tolerance);
    /// otherwise every flow gets precisely its demand.
    #[test]
    fn max_min_shares_sum_to_capacity_or_demand(
        capacity in 1.0f64..1e6,
        demands in prop::collection::vec(0.0f64..1e5, 1..64),
    ) {
        let shares = max_min_allocation(capacity, &demands);
        let total_demand: f64 = demands.iter().sum();
        let total_share: f64 = shares.iter().sum();
        let expect = total_demand.min(capacity);
        prop_assert!(
            (total_share - expect).abs() <= 1e-9 * expect.max(1.0),
            "shares sum {total_share}, expected {expect}"
        );
    }

    /// No flow is ever allocated more than it asked for.
    #[test]
    fn max_min_never_exceeds_demand(
        capacity in 1.0f64..1e6,
        demands in prop::collection::vec(0.0f64..1e5, 1..64),
    ) {
        let shares = max_min_allocation(capacity, &demands);
        for (s, d) in shares.iter().zip(&demands) {
            prop_assert!(*s <= d * (1.0 + 1e-12) + 1e-12, "share {s} > demand {d}");
        }
    }

    /// The allocation is symmetric: permuting the demand vector permutes
    /// the shares the same way (no positional bias from the internal
    /// sort's tie-breaking).
    #[test]
    fn max_min_is_permutation_equivariant(
        capacity in 1.0f64..1e6,
        demands in prop::collection::vec(0.0f64..1e5, 2..32),
        rot in 1usize..31,
    ) {
        let rot = rot % demands.len();
        let mut rotated = demands.clone();
        rotated.rotate_left(rot);
        let shares = max_min_allocation(capacity, &demands);
        let rot_shares = max_min_allocation(capacity, &rotated);
        for i in 0..demands.len() {
            let j = (i + rot) % demands.len();
            prop_assert!(
                (shares[j] - rot_shares[i]).abs() <= 1e-9 * shares[j].max(1.0),
                "share of demand {} moved: {} vs {}",
                demands[j],
                shares[j],
                rot_shares[i]
            );
        }
    }

    /// Adding one more (unconstrained) flow never increases anyone
    /// else's share: max-min allocations are monotone under contention.
    #[test]
    fn max_min_adding_a_flow_never_helps_the_others(
        capacity in 1.0f64..1e6,
        demands in prop::collection::vec(0.0f64..1e5, 1..32),
    ) {
        let before = max_min_allocation(capacity, &demands);
        let mut more = demands.clone();
        more.push(f64::INFINITY); // unconstrained newcomer
        let after = max_min_allocation(capacity, &more);
        for i in 0..demands.len() {
            prop_assert!(
                after[i] <= before[i] * (1.0 + 1e-9) + 1e-9,
                "flow {i} grew from {} to {}",
                before[i],
                after[i]
            );
        }
    }
}
