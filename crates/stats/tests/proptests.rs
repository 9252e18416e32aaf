//! Property-based tests for the statistics toolkit.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_stats::{jain_fairness, mean, percentile, percentile_sorted, stddev, Cdf, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// Samples drawn from eight `f32` values, so runs of duplicates and of
/// zeros of both signs are the rule; `short` 0 and 1 cut the vector to one
/// and two samples.
fn tied_samples() -> impl Strategy<Value = Vec<f32>> {
    const PALETTE: [f32; 8] = [-0.0, 0.0, 0.0, -0.0, 1.5, -3.25, 0.1, 7.0];
    (prop::collection::vec(0usize..8, 2..200), 0usize..6).prop_map(|(picks, short)| {
        let mut v: Vec<f32> = picks.into_iter().map(|i| PALETTE[i]).collect();
        if short < 2 {
            v.truncate(short + 1);
        }
        v
    })
}

/// The bit pattern of every field, so `-0.0` and `0.0` differ.
fn bits(s: &Summary) -> (usize, [u64; 6]) {
    (s.n, [s.mean, s.p1, s.p25, s.p50, s.p99, s.max].map(f64::to_bits))
}

proptest! {
    /// Percentiles are monotone in the quantile and bounded by min/max.
    #[test]
    fn percentile_monotone_and_bounded(samples in finite_samples()) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = percentile(&samples, q);
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
        prop_assert_eq!(percentile(&samples, 0.0), lo);
        prop_assert_eq!(percentile(&samples, 1.0), hi);
    }

    /// The mean lies within [min, max] and matches a direct sum.
    #[test]
    fn mean_is_bounded(samples in finite_samples()) {
        let m = mean(&samples);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    /// Standard deviation is translation-invariant and scales linearly.
    #[test]
    fn stddev_affine_properties(samples in finite_samples(), shift in -1e3f64..1e3) {
        let s0 = stddev(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        prop_assert!((stddev(&shifted) - s0).abs() < 1e-6 * (1.0 + s0));
        let doubled: Vec<f64> = samples.iter().map(|x| x * 2.0).collect();
        prop_assert!((stddev(&doubled) - 2.0 * s0).abs() < 1e-6 * (1.0 + s0));
    }

    /// Jain's index is always in [1/n, 1] for non-negative rates.
    #[test]
    fn jain_in_range(rates in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let j = jain_fairness(&rates);
        let n = rates.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9, "{j}");
        if rates.iter().any(|&r| r > 0.0) {
            prop_assert!(j >= 1.0 / n - 1e-9, "{j} < 1/{n}");
        }
    }

    /// The CDF is a valid distribution function: monotone, 0 before the
    /// minimum, 1 from the maximum on; and quantile() inverts at().
    #[test]
    fn cdf_is_a_distribution(samples in finite_samples()) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Cdf::new(samples.clone());
        prop_assert_eq!(cdf.at(lo - 1.0), 0.0);
        prop_assert_eq!(cdf.at(hi), 1.0);
        let mut prev = 0.0;
        for i in 0..=10 {
            let x = lo + (hi - lo) * i as f64 / 10.0;
            let y = cdf.at(x);
            prop_assert!(y >= prev);
            prev = y;
        }
        // Galois-ish inversion, up to interpolation slack: quantile()
        // interpolates between order statistics, so at(quantile(q)) can
        // undershoot q by at most one sample's worth of mass.
        let slack = 1.0 / samples.len() as f64;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            prop_assert!(cdf.at(cdf.quantile(q)) >= q - slack - 1e-9);
        }
    }

    /// One sort or five: `Summary::of` is, to the bit, the mean, the four
    /// `percentile` calls (each sorting a copy of its own) and the max
    /// fold it used to be made of, and `of_f32` is `of` over the widened
    /// samples — on inputs where ties and signed zeros make the order
    /// statistics depend on which equal element a sort puts where.
    #[test]
    fn summary_equals_its_per_quantile_definition(narrow in tied_samples()) {
        let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
        let want = Summary {
            n: wide.len(),
            mean: mean(&wide),
            p1: percentile(&wide, 0.01),
            p25: percentile(&wide, 0.25),
            p50: percentile(&wide, 0.50),
            p99: percentile(&wide, 0.99),
            max: wide.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        };
        prop_assert_eq!(bits(&Summary::of(&wide)), bits(&want));
        prop_assert_eq!(bits(&Summary::of_f32(&narrow)), bits(&want));
    }

    /// A CDF's quantile is the percentile of its samples, to the bit,
    /// without sorting them again.
    #[test]
    fn cdf_quantile_equals_percentile(narrow in tied_samples(), q in 0.0f64..1.0) {
        let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
        let cdf = Cdf::from_f32(&narrow);
        prop_assert_eq!(cdf.quantile(q).to_bits(), percentile(&wide, q).to_bits());
        let mut sorted = wide.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(percentile_sorted(&sorted, q).to_bits(), percentile(&wide, q).to_bits());
    }

    /// Summary percentiles are internally ordered.
    #[test]
    fn summary_percentiles_ordered(samples in finite_samples()) {
        let s = Summary::of(&samples);
        prop_assert!(s.p1 <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
    }
}
