//! Log-linear histograms with fixed, allocation-free storage.
//!
//! The bucketing is HdrHistogram-style: values below [`SUB_COUNT`] get an
//! exact bucket each; above that, every power-of-two octave is split into
//! [`SUB_COUNT`] linear sub-buckets, so the relative quantization error is
//! bounded by `1 / SUB_COUNT` (≈ 3 % here) across the full `u64` range.
//! The count array is allocated once at construction ([`Histogram::new`])
//! and never grows — `record` is a shift, a subtract and an increment,
//! cheap enough to sit on the simulator's per-packet hot path.
//!
//! Two histograms with the same layout merge by element-wise addition
//! ([`Histogram::merge`]), so registries of several runs combine into a
//! view that does not depend on the order the runs finished in.

use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};
use pi2_stats::variance_from_moments;

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two octave (and the linear-range size).
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_COUNT as usize;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        // Highest set bit is ≥ SUB_BITS, so `mag` never underflows.
        let mag = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> mag) - SUB_COUNT;
        ((mag as u64 + 1) * SUB_COUNT + sub) as usize
    }
}

/// Smallest value mapping to bucket `i`.
#[inline]
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        i
    } else {
        let mag = i / SUB_COUNT - 1;
        let sub = i % SUB_COUNT;
        (SUB_COUNT + sub) << mag
    }
}

/// Largest value mapping to bucket `i`.
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// A fixed-size log-linear histogram of `u64` values (typically
/// nanoseconds). See the module docs for the bucketing scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    sum_sq: f64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. This is the only allocation the instrument
    /// ever performs.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            sum_sq: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        let vf = v as f64;
        self.sum_sq += vf * vf;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping on overflow, which a run of
    /// nanosecond-scale values cannot reach in practice).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population standard deviation, from the streamed moments (see
    /// [`pi2_stats::variance_from_moments`]); 0 when empty.
    pub fn stddev(&self) -> f64 {
        variance_from_moments(self.count, self.sum as f64, self.sum_sq).sqrt()
    }

    /// The `q`-quantile (`q` ∈ [0, 1]) as the upper bound of the bucket
    /// containing the order statistic, clamped to the observed maximum.
    /// The result is therefore within one bucket width (relative error ≤
    /// `1 / SUB_COUNT`) above the exact value; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic, 1-based; q = 0 reads the minimum.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Several quantiles in one call — the batched form of
    /// [`Histogram::quantile`], used by reporting paths (FCT percentile
    /// tables) that always want a fixed P50/P95/P99-style tuple.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        qs.map(|q| self.quantile(q))
    }

    /// Element-wise accumulate `other` into `self`. Layouts are static,
    /// so any two histograms merge; merging is associative and
    /// commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The non-zero buckets as a list of `(index, count)` pairs, then the
/// moments with the stored minimum (`u64::MAX` while empty, which
/// [`Histogram::min`] masks). A bucket index past [`BUCKETS`] is corrupt.
impl Ckpt for Histogram {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.counts.iter().filter(|&&c| c != 0).count());
        for (i, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c != 0) {
            w.usize(i);
            w.u64(c);
        }
        w.u64(self.count);
        w.u64(self.sum);
        w.f64(self.sum_sq);
        w.u64(self.min);
        w.u64(self.max);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let nonzero = r.len_of(8 + 8)?;
        self.counts.fill(0);
        for _ in 0..nonzero {
            let i = r.usize()?;
            let c = r.u64()?;
            *self.counts.get_mut(i).ok_or("histogram bucket index out of range")? = c;
        }
        self.count = r.u64()?;
        self.sum = r.u64()?;
        self.sum_sq = r.f64()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trips_across_the_range() {
        // Every probe value must land in a bucket whose [low, high] range
        // contains it, and the bucket width must respect the log-linear
        // error bound.
        let probes = [
            0,
            1,
            2,
            SUB_COUNT - 1,
            SUB_COUNT,
            SUB_COUNT + 1,
            2 * SUB_COUNT - 1,
            2 * SUB_COUNT,
            63,
            64,
            65,
            1000,
            4095,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_of(v);
            let (lo, hi) = (bucket_low(i), bucket_high(i));
            assert!(lo <= v && v <= hi, "v={v} not in bucket {i} [{lo}, {hi}]");
            if v >= SUB_COUNT && i + 1 < BUCKETS {
                let width = hi - lo + 1;
                assert!(
                    width <= v / SUB_COUNT + 1,
                    "bucket width {width} too coarse for v={v}"
                );
            }
        }
        // Buckets tile the axis: each bucket starts right after the last.
        for i in 0..2000.min(BUCKETS - 1) {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "gap after bucket {i}");
        }
    }

    #[test]
    fn quantiles_stay_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for &(q, exact) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (1.0, 10_000)] {
            let got = h.quantile(q);
            let bound = exact / SUB_COUNT + 1;
            assert!(
                got >= exact && got <= exact + bound,
                "q={q}: got {got}, exact {exact}, bound +{bound}"
            );
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.stddev(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn moments_match_stats_crate() {
        let samples = [3u64, 7, 7, 20, 41];
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        assert!((h.mean() - pi2_stats::mean(&as_f64)).abs() < 1e-12);
        assert!((h.stddev() - pi2_stats::stddev(&as_f64)).abs() < 1e-9);
    }

    /// Save `h`, restore the bytes over a histogram holding other values,
    /// and return the blob and the result.
    fn save_and_restore(h: &Histogram) -> (Vec<u8>, Histogram) {
        let mut w = CkptWriter::new();
        h.save_ckpt(&mut w);
        let blob = w.into_bytes();
        let mut back = Histogram::new();
        back.record(999);
        let mut r = CkptReader::new(&blob);
        back.restore_ckpt(&mut r).unwrap();
        r.finish().unwrap();
        (blob, back)
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 700, 123_456_789] {
            h.record(v);
        }
        // An empty histogram keeps its stored minimum, u64::MAX, too.
        for h in [h, Histogram::new()] {
            let (blob, back) = save_and_restore(&h);
            assert_eq!(back, h);
            assert_eq!(save_and_restore(&back).0, blob);
        }
        assert_eq!(save_and_restore(&Histogram::new()).1.min(), 0);
    }

    #[test]
    fn a_bucket_index_past_the_last_bucket_is_corrupt() {
        let mut h = Histogram::new();
        h.record(5);
        let mut w = CkptWriter::new();
        h.save_ckpt(&mut w);
        let mut blob = w.into_bytes();
        // One non-zero bucket: its count of pairs, then its index.
        for index in [BUCKETS, BUCKETS + 1, usize::MAX >> 1] {
            blob[8..16].copy_from_slice(&(index as u64).to_le_bytes());
            assert_eq!(
                Histogram::new().restore_ckpt(&mut CkptReader::new(&blob)),
                Err(CkptError::Corrupt("histogram bucket index out of range"))
            );
        }
        blob[8..16].copy_from_slice(&((BUCKETS - 1) as u64).to_le_bytes());
        assert!(Histogram::new().restore_ckpt(&mut CkptReader::new(&blob)).is_ok());
    }

    /// The exact order statistic the histogram quantile approximates:
    /// 1-based ceil-rank selection over the sorted sample.
    fn sorted_reference(values: &[u64], q: f64) -> u64 {
        let mut s = values.to_vec();
        s.sort_unstable();
        let rank = ((q * s.len() as f64).ceil() as usize).max(1);
        s[rank - 1]
    }

    #[test]
    fn quantile_of_a_single_value_is_exact_at_every_q() {
        for v in [0u64, 1, 31, 32, 1_000, u64::MAX / 2] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "n=1 v={v} q={q}");
            }
        }
    }

    #[test]
    fn quantile_of_all_equal_values_is_exact_at_every_q() {
        for v in [3u64, 255, 1 << 20] {
            let mut h = Histogram::new();
            for _ in 0..100 {
                h.record(v);
            }
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "all-equal v={v} q={q}");
            }
        }
    }

    #[test]
    fn small_value_quantiles_match_the_sorted_reference_exactly() {
        // Values below SUB_COUNT get a bucket each, so the histogram
        // quantile must equal the exact order statistic — the regime the
        // FCT percentile path relies on for its precision statement.
        let values: Vec<u64> = (0..200).map(|i| (i * 13 + 5) % 31).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), sorted_reference(&values, q), "q={q}");
        }
    }

    #[test]
    fn large_value_quantiles_stay_within_one_sub_bucket_of_reference() {
        let values: Vec<u64> = (1..500).map(|i| i * i * 37 + 11).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99] {
            let approx = h.quantile(q) as f64;
            let exact = sorted_reference(&values, q) as f64;
            assert!(
                approx >= exact && approx <= exact * (1.0 + 1.0 / SUB_COUNT as f64),
                "q={q}: {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantiles_batches_match_single_calls() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * 7 % 499);
        }
        let [p50, p95, p99] = h.quantiles([0.5, 0.95, 0.99]);
        assert_eq!(p50, h.quantile(0.5));
        assert_eq!(p95, h.quantile(0.95));
        assert_eq!(p99, h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
