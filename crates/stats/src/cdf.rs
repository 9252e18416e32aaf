//! Empirical cumulative distribution functions (paper Figure 14).

/// An empirical CDF over a sample set.
///
/// ```
/// use pi2_stats::Cdf;
/// let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.at(2.0), 0.5);
/// assert_eq!(cdf.at(10.0), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are rejected).
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN in CDF input"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Build from the monitor's `f32` columns: a slice or a
    /// [`crate::RunColumn`].
    pub fn from_f32<'a>(samples: impl IntoIterator<Item = &'a f32>) -> Cdf {
        Cdf::new(samples.into_iter().map(|&x| x as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P[X ≤ x]`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // Index of the first element strictly greater than x.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile), `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::summary::percentile_sorted(&self.sorted, q)
    }

    /// Evaluate at `n` evenly spaced abscissae spanning the sample range,
    /// for plotting: returns `(x, P[X ≤ x])` pairs.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n < 2 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap();
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(10.0), 1.0);
        let mut prev = 0.0;
        for i in 0..60 {
            let x = i as f64 / 10.0;
            let y = cdf.at(x);
            assert!(y >= prev);
            assert!((0.0..=1.0).contains(&y));
            prev = y;
        }
    }

    #[test]
    fn cdf_counts_ties() {
        let cdf = Cdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.at(2.0), 0.75);
        assert_eq!(cdf.at(1.999), 0.25);
    }

    #[test]
    fn quantile_inverts() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::new(samples);
        let q90 = cdf.quantile(0.9);
        assert!((q90 - 899.1).abs() < 1e-9);
        assert!((cdf.at(q90) - 0.9).abs() < 0.01);
    }

    #[test]
    fn curve_spans_sample_range() {
        let cdf = Cdf::new(vec![10.0, 20.0, 30.0]);
        let curve = cdf.curve(5);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0].0, 10.0);
        assert_eq!(curve[4].0, 30.0);
        assert_eq!(curve[4].1, 1.0);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(1.0), 0.0);
        assert!(cdf.curve(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }
}
