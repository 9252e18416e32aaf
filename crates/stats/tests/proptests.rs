//! Property-based tests for the statistics toolkit.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_stats::{jain_fairness, mean, percentile, percentile_sorted, stddev, Cdf, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// Up to 5 000 samples (selection is an insertion sort below a few dozen,
/// so short columns alone would test little of it), drawn either from
/// eight `f32` values, so runs of duplicates and of zeros of both signs
/// are the rule, or from those eight plus four thousand distinct ones;
/// `short` 0 and 1 cut the vector to one and two samples.
fn tied_samples() -> impl Strategy<Value = Vec<f32>> {
    const PALETTE: [f32; 8] = [-0.0, 0.0, 0.0, -0.0, 1.5, -3.25, 0.1, 7.0];
    let picks = prop::collection::vec(0usize..4096, 2..5000);
    (picks, 0usize..6, 0usize..2).prop_map(|(picks, short, distinct)| {
        let mut v: Vec<f32> = picks
            .into_iter()
            .map(|i| match i {
                8.. if distinct == 1 => (i as f32 - 2000.0) * 0.173,
                _ => PALETTE[i % 8],
            })
            .collect();
        if short < 2 {
            v.truncate(short + 1);
        }
        v
    })
}

/// [`percentile`] as it was before it selected: a stable sort of a copy,
/// then the two lookups.
fn percentile_by_sort(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
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

    /// Selecting or sorting: `Summary::of` is, to the bit, the mean, four
    /// order statistics read off a stable sort and the max fold, `of_f32`
    /// is `of` over the widened samples, `percentile` agrees one quantile
    /// at a time, and `over` with either map the experiments pass is `of`
    /// over the mapped column — on inputs where ties and signed zeros make
    /// the order statistics depend on which equal element lands where.
    #[test]
    fn summary_equals_its_per_quantile_definition(narrow in tied_samples()) {
        let by_sort = |wide: &[f64]| Summary {
            n: wide.len(),
            mean: mean(wide),
            p1: percentile_by_sort(wide, 0.01),
            p25: percentile_by_sort(wide, 0.25),
            p50: percentile_by_sort(wide, 0.50),
            p99: percentile_by_sort(wide, 0.99),
            // The first of several equal maxima: `f64::max` may keep either
            // of `-0.0` and `0.0`.
            max: wide.iter().fold(f64::NEG_INFINITY, |max, &v| if v > max { v } else { max }),
        };
        let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
        let want = by_sort(&wide);
        prop_assert_eq!(bits(&Summary::of(&wide)), bits(&want));
        prop_assert_eq!(bits(&Summary::of_f32(&narrow[..])), bits(&want));
        for (q, p) in [(0.01, want.p1), (0.25, want.p25), (0.50, want.p50), (0.99, want.p99)] {
            prop_assert_eq!(percentile(&wide, q).to_bits(), p.to_bits());
        }
        let percent = |p: f32| p as f64 * 100.0;
        let probs: Vec<f64> = narrow.iter().map(|&p| percent(p)).collect();
        prop_assert_eq!(bits(&Summary::over([&narrow[..]], percent)), bits(&by_sort(&probs)));
        let capped = |u: f32| (u as f64 * 100.0).min(100.0);
        let utils: Vec<f64> = narrow.iter().map(|&u| capped(u)).collect();
        prop_assert_eq!(bits(&Summary::over([&narrow[..]], capped)), bits(&by_sort(&utils)));
    }

    /// A column cut into slices (empty ones included) summarizes to the
    /// bits of the whole: the monitor's per-flow columns are read one
    /// after the other, never pooled.
    #[test]
    fn a_column_in_slices_summarizes_as_the_whole(
        narrow in tied_samples(),
        cuts in prop::collection::vec(0usize..5000, 0..6),
    ) {
        let mut at: Vec<usize> = cuts.into_iter().map(|c| c % (narrow.len() + 1)).collect();
        at.sort_unstable();
        let slices: Vec<&[f32]> = [0]
            .into_iter()
            .chain(at.iter().copied())
            .zip(at.iter().copied().chain([narrow.len()]))
            .map(|(from, to)| &narrow[from..to])
            .collect();
        let percent = |p: f32| p as f64 * 100.0;
        prop_assert_eq!(
            bits(&Summary::over(slices.iter().copied(), percent)),
            bits(&Summary::over([&narrow[..]], percent))
        );
        prop_assert_eq!(
            bits(&Summary::over(slices.iter().copied(), f64::from)),
            bits(&Summary::of_f32(&narrow[..]))
        );
    }

    /// An `f64` column is selected on 64-bit keys: values an `f32` cannot
    /// hold, apart in their low mantissa bits only, with ties and zeros of
    /// both signs, give what the stable sort gives.
    #[test]
    fn an_f64_column_selects_what_the_sort_gave(
        narrow in tied_samples(),
        low in prop::collection::vec(0u64..1 << 29, 1..64),
        q in 0.0f64..1.0,
    ) {
        let wide: Vec<f64> = narrow
            .iter()
            .enumerate()
            .map(|(i, &x)| match x {
                0.0 => f64::from(x),
                _ => f64::from_bits(f64::from(x).to_bits() ^ low[i % low.len()]),
            })
            .collect();
        prop_assert_eq!(percentile(&wide, q).to_bits(), percentile_by_sort(&wide, q).to_bits());
        let s = Summary::of(&wide);
        let by_sort = [0.01, 0.25, 0.50, 0.99].map(|p| percentile_by_sort(&wide, p).to_bits());
        prop_assert_eq!([s.p1, s.p25, s.p50, s.p99].map(f64::to_bits), by_sort);
    }

    /// A CDF's quantile is the percentile of its samples, to the bit,
    /// without sorting them again.
    #[test]
    fn cdf_quantile_equals_percentile(narrow in tied_samples(), q in 0.0f64..1.0) {
        let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
        let cdf = Cdf::from_f32(&narrow);
        prop_assert_eq!(cdf.quantile(q).to_bits(), percentile(&wide, q).to_bits());
        prop_assert_eq!(percentile_by_sort(&wide, q).to_bits(), percentile(&wide, q).to_bits());
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
