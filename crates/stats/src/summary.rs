//! Means, percentiles and fairness indices.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// order statistics (the same convention as numpy's default).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(samples), q)
}

/// [`percentile`] of samples already in ascending order: two lookups, no
/// sort. What [`percentile`], [`Summary::of`] and `Cdf::quantile` share,
/// so each pays for one sort however many quantiles it reads. Takes
/// either sample width: an `f32` widens exactly, at the lookup.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo].into()
    } else {
        let frac = pos - lo as f64;
        sorted[lo].into() * (1.0 - frac) + sorted[hi].into() * frac
    }
}

/// An ascending copy of `samples`. The sort is stable under
/// `partial_cmp`, which orders `-0.0` and `0.0` as equal: which of the two
/// an order statistic lands on is then a property of the input order, not
/// of the sort algorithm.
fn sorted<T: Copy + PartialOrd>(samples: &[T]) -> Vec<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    sorted
}

/// Population variance; 0 for an empty slice.
///
/// A single sample also yields 0 — a one-point distribution genuinely has
/// no spread around its mean, but callers that need to distinguish "no
/// spread" from "not enough data to estimate spread" must check `n`
/// themselves (this is a population statistic, not the `n − 1` sample
/// estimator, which would be undefined at `n == 1`).
pub fn variance(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64
}

/// Population variance from pre-aggregated moments: the count, the sum of
/// the values and the sum of their squares. This is what streaming
/// instruments (e.g. `pi2_obs`'s histograms) keep instead of the raw
/// samples; it is algebraically `E[x²] − E[x]²`, clamped at 0 to absorb
/// the catastrophic cancellation that formula suffers for tight
/// distributions far from zero.
pub fn variance_from_moments(n: u64, sum: f64, sum_sq: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let m = sum / n as f64;
    (sum_sq / n as f64 - m * m).max(0.0)
}

/// Population standard deviation: `variance(samples).sqrt()`.
///
/// Returns 0 for an empty slice and — see [`variance`] — also for a
/// single sample.
pub fn stddev(samples: &[f64]) -> f64 {
    variance(samples).sqrt()
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1 for equal allocations,
/// `1/n` for a single flow taking everything.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sq)
    }
}

/// The five-number summary style used throughout the paper's figures.
///
/// ```
/// use pi2_stats::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
/// assert_eq!(s.n, 5);
/// assert_eq!(s.max, 100.0);
/// assert!(s.p99 > s.p50);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 1st percentile (Figure 18's lower whisker).
    pub p1: f64,
    /// 25th percentile (Figure 17's lower whisker).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile (the paper's headline tail statistic).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set (empty input gives all zeros).
    pub fn of(samples: &[f64]) -> Summary {
        Summary::over(samples)
    }

    /// The same for `f32` sample buffers (the monitor stores `f32`),
    /// sorted as `f32` and widened only where a value is read.
    pub fn of_f32(samples: &[f32]) -> Summary {
        Summary::over(samples)
    }

    /// One sort serves all four order statistics; mean and max fold over
    /// the samples in their given order, as they always have.
    fn over<T: Copy + PartialOrd + Into<f64>>(samples: &[T]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                p1: 0.0,
                p25: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let widened = || samples.iter().map(|&x| x.into());
        let sorted = sorted(samples);
        Summary {
            n: samples.len(),
            mean: widened().sum::<f64>() / samples.len() as f64,
            p1: percentile_sorted(&sorted, 0.01),
            p25: percentile_sorted(&sorted, 0.25),
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
            max: widened().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_sequence() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        // Order independence.
        let shuffled = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&shuffled, 0.5), 25.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_bad_quantile() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[2.0, 2.0, 2.0]), 0.0);
        // Var of {1,3} around mean 2 is 1.
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_agrees_with_moment_form() {
        let samples = [1.0, 3.0, 7.0, 12.0, 12.5];
        let n = samples.len() as u64;
        let sum: f64 = samples.iter().sum();
        let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
        let direct = variance(&samples);
        let moments = variance_from_moments(n, sum, sum_sq);
        assert!((direct - moments).abs() < 1e-9, "{direct} vs {moments}");
        assert!((stddev(&samples) - direct.sqrt()).abs() < 1e-12);
        // Degenerate counts are 0, and cancellation never goes negative.
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[4.2]), 0.0);
        assert_eq!(variance_from_moments(0, 0.0, 0.0), 0.0);
        assert!(variance_from_moments(3, 3e8, 3e16) >= 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        let skewed = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn summary_matches_components() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.n, 100);
        assert!((sum.mean - 50.5).abs() < 1e-12);
        assert!((sum.p50 - 50.5).abs() < 1e-9);
        assert_eq!(sum.max, 100.0);
        assert!(sum.p1 < sum.p25 && sum.p25 < sum.p99);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn summary_of_f32_matches_f64() {
        let f32s: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let a = Summary::of_f32(&f32s);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_of_a_single_sample_is_that_sample_at_every_q() {
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[42.5], q), 42.5, "n=1 q={q}");
        }
    }

    #[test]
    fn percentile_of_all_equal_samples_is_exact_at_every_q() {
        let v = vec![7.25; 64];
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&v, q), 7.25, "all-equal q={q}");
        }
    }

    #[test]
    fn percentile_interpolates_against_a_sorted_reference() {
        // Unsorted input; the linear-interpolation definition over the
        // sorted samples [10, 20, 30, 40, 50].
        let v = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        // q = 0.1 lands at position 0.4 between 10 and 20.
        assert!((percentile(&v, 0.1) - 14.0).abs() < 1e-12);
    }
}
