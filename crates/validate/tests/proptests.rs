//! Randomized metamorphic properties over the generators in
//! `pi2_validate::metamorphic` — the same relations as the deterministic
//! `metamorphic.rs` suite, re-checked over random seeds and topologies.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_experiments::AqmKind;
use pi2_simcore::Duration;
use pi2_transport::{CcKind, EcnSetting};
use pi2_validate::metamorphic::{coupling_scenario, label_signal, run_summary, standard_scenario};
use proptest::prelude::*;

proptest! {
    // Every case simulates minutes of traffic; keep the default case
    // count small and let CI widen/narrow it via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two sample paths of the same physical system agree on post-warm-up
    /// summaries within the stochastic band.
    #[test]
    fn summaries_are_seed_invariant(seed_a in 0u64..1_000_000, seed_b in 0u64..1_000_000) {
        let sc = |seed| standard_scenario(
            AqmKind::pi2_default(),
            4,
            12_000_000,
            Duration::from_millis(40),
            CcKind::Reno,
            EcnSetting::NotEcn,
            1500,
            seed,
        );
        let a = run_summary(&sc(seed_a));
        let b = run_summary(&sc(seed_b));
        prop_assert!(
            (a.qdelay_ms - b.qdelay_ms).abs() <= 0.25 * a.qdelay_ms + 1.0,
            "qdelay {:.2} vs {:.2} ms (seeds {seed_a}, {seed_b})", a.qdelay_ms, b.qdelay_ms
        );
        prop_assert!(
            (a.signal - b.signal).abs() <= 0.30 * a.signal + 0.002,
            "signal {:.4} vs {:.4} (seeds {seed_a}, {seed_b})", a.signal, b.signal
        );
        prop_assert!(
            (a.tput_mbps - b.tput_mbps).abs() <= 0.10 * a.tput_mbps,
            "tput {:.2} vs {:.2} Mb/s (seeds {seed_a}, {seed_b})", a.tput_mbps, b.tput_mbps
        );
    }

    /// The k = 2 coupling law holds for any seed and any small mix of
    /// Classic and Scalable flows sharing the coupled AQM.
    #[test]
    fn coupling_law_holds_for_random_mixes(
        n_classic in 1usize..4,
        n_scal in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let sc = coupling_scenario(n_classic, n_scal, seed);
        let run = sc.run();
        let p_classic = label_signal(&sc, &run, "classic");
        let p_scal = label_signal(&sc, &run, "scal");
        prop_assume!(p_classic > 1e-4 && p_scal > 1e-3);
        let predicted = (p_scal / 2.0) * (p_scal / 2.0);
        prop_assert!(
            (p_classic - predicted).abs() <= 0.45 * predicted + 0.003,
            "p_C {p_classic:.5} vs (p_S/2)^2 {predicted:.5} \
             ({n_classic} classic, {n_scal} scal, seed {seed})"
        );
    }
}
