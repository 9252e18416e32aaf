//! Means, percentiles and fairness indices.

use crate::RunColumn;

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
    fold_select(ones([samples]), &|x| x, [q]).3[0]
}

/// [`percentile`] of samples already in ascending order: two lookups, no
/// sort. What `Cdf::quantile` reads (a CDF answers many queries, so it
/// keeps its samples sorted) and what selection is held to, bit for bit.
/// Takes either sample width: an `f32` widens exactly, at the lookup.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    let (lo, hi, frac) = ranks(sorted.len(), q);
    if sorted.is_empty() {
        return 0.0;
    }
    lerp(sorted[lo].into(), sorted[hi].into(), frac)
}

/// The ranks `lo <= hi <= lo + 1` of the order statistics the `q`-quantile
/// of `n` samples lies between, and how far it is from the lower one.
fn ranks(n: usize, q: f64) -> (usize, usize, f64) {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let pos = q * n.saturating_sub(1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// `frac` of the way from `lo` to `hi`; at 0 (`lo` and `hi` are then the
/// same rank) `lo` as it is, which an infinity would not survive below.
fn lerp(lo: f64, hi: f64, frac: f64) -> f64 {
    if frac == 0.0 {
        lo
    } else {
        lo * (1.0 - frac) + hi * frac
    }
}

/// A sample width summaries select in: `f32` (the monitor's columns) or
/// `f64`. `key` is an unsigned integer in the order of the values, with
/// `-0.0` and `0.0` on one key; `from_key` inverts it (a zero comes back
/// as `0.0`). A NaN gets a key too, which no order means anything by.
pub trait Sample: Copy {
    /// Bits in a key.
    const KEY_BITS: u32;
    /// The value's place in the order, as an integer.
    fn key(self) -> u64;
    /// The value whose key this is.
    fn from_key(key: u64) -> Self;
    /// Whether the value is a NaN.
    fn is_nan(self) -> bool;
}

macro_rules! sample {
    ($float:ty, $bits:ty) => {
        impl Sample for $float {
            const KEY_BITS: u32 = <$bits>::BITS;
            fn key(self) -> u64 {
                // A positive value gains the sign bit and a negative one
                // has every bit flipped, so keys compare as the values do.
                let sign: $bits = 1 << (<$bits>::BITS - 1);
                let bits = if self == 0.0 { 0 } else { self.to_bits() };
                (if bits & sign == 0 { bits | sign } else { !bits }) as u64
            }
            fn from_key(key: u64) -> Self {
                let (key, sign) = (key as $bits, 1 << (<$bits>::BITS - 1));
                <$float>::from_bits(if key & sign == 0 { !key } else { key & !sign })
            }
            fn is_nan(self) -> bool {
                <$float>::is_nan(self)
            }
        }
    };
}
sample!(f32, u32);
sample!(f64, u64);

/// Width of the first digit, which every sample is counted by.
const FIRST: u32 = 11;
/// Width of each later digit, counted per picked rank.
const NEXT: u32 = 8;
/// Distinct ranks one call can pick: `lo` and `hi` of four quantiles.
const MAX_RANKS: usize = 8;
/// Histogram cells: the first digit's `1 << FIRST`, or a later digit's
/// `1 << NEXT` per rank.
const CELLS: usize = MAX_RANKS << NEXT;
/// The `slot` of a rank whose value is found.
const FOUND: usize = usize::MAX;

/// Borrowed columns as columns of count-1 items, the form
/// [`fold_select`] reads.
fn ones<'a, T: Copy + 'a, I>(
    cols: I,
) -> impl Iterator<Item = impl Iterator<Item = (T, u32)> + 'a> + Clone + use<'a, T, I>
where
    I: IntoIterator<Item = &'a [T], IntoIter: Clone>,
{
    cols.into_iter().map(|col| col.iter().map(|&x| (x, 1)))
}

/// The sample count, the sum, the maximum and the `qs`-quantiles (`qs`
/// ascending) of `map` over the samples the items of `cols` stand for, one
/// column after another, an item `(value, count)` being `count` (at least
/// 1) copies of `value` in a row: each to the bit what a fold in input
/// order and [`percentile_sorted`] on a stable sort of the mapped samples
/// give. It reads the items where they lie, allocates nothing, and costs
/// O(items) but for the sum, which adds each copy once, as the fold over
/// the expanded samples did. A plain column is count-1 items ([`ones`]), a
/// run column one item per run. Each pass loops over the columns and, in
/// them, over the items: a plain slice's loop then has the constant count
/// folded in, which one flattened iterator of items did not (it read
/// slices 20-60 % slower). `map` must be monotone non-decreasing, so that
/// an order statistic of the mapped samples is `map` of the same one of
/// the samples, and only the picked values are mapped.
///
/// Selection is by radix on [`Sample::key`], and every histogram cell
/// also keeps the least and greatest key counted in it. The first pass
/// folds the sum (from `-0.0`, where `Iterator::sum` starts: a column of
/// `-0.0` sums to `-0.0`) and the maximum (the first of equal ones) and
/// counts the top [`FIRST`] bits of every key. A picked rank is then found
/// if the cell that holds it has one key; if not, the next pass counts
/// the [`NEXT`] bits below the cell's common prefix, over the samples in
/// the cell's key range, in a row of the histogram of its own (the ranks,
/// at most [`MAX_RANKS`], share the rows and each pass). Each pass fixes
/// at least `NEXT` more bits of an open rank's key, so an `f32` column
/// takes at most four passes and an `f64` one eight. A run's columns hold
/// few distinct values: a 1 Gb/s run's probabilities take two passes,
/// its sojourns three.
///
/// Values with equal keys have equal bits, except `-0.0` and `0.0`. A
/// stable sort leaves the zeros in input order behind the `neg` negative
/// values, so rank `k` holds the `k - neg`-th zero of the input: looked up
/// in a further pass, for a column that maps to a `-0.0` anywhere.
fn fold_select<T: Sample, C: IntoIterator<Item = (T, u32)>, const N: usize>(
    cols: impl Iterator<Item = C> + Clone,
    map: &impl Fn(T) -> f64,
    qs: [f64; N],
) -> (usize, f64, f64, [f64; N]) {
    const { assert!(2 * N <= MAX_RANKS && 1 << FIRST <= CELLS) };
    let mut count = [0u32; CELLS];
    let (mut least, mut most) = ([u64::MAX; CELLS], [0u64; CELLS]);
    let top = T::KEY_BITS - FIRST;
    let (mut sum, mut max, mut neg_zero, mut nan) = (-0.0, f64::NEG_INFINITY, false, false);
    let mut n = 0u64;
    for col in cols.clone() {
        for (x, copies) in col {
            debug_assert!(copies > 0, "an item stands for at least one sample");
            let v = map(x);
            for _ in 0..copies {
                sum += v;
            }
            max = if v > max { v } else { max };
            neg_zero |= v == 0.0 && v.is_sign_negative();
            nan |= x.is_nan();
            n += u64::from(copies);
            let k = x.key();
            let c = (k >> top) as usize;
            // Wrapping: a total past `u32::MAX` is refused below, by name.
            let counted = count[c].wrapping_add(copies);
            (count[c], least[c], most[c]) = (counted, least[c].min(k), most[c].max(k));
        }
    }
    assert!(n <= u64::from(u32::MAX), "{n} samples overflow a count");
    let n = n as usize;
    if nan && n > 1 {
        panic!("NaN in percentile input of {n} samples");
    }
    let picks = qs.map(|q| ranks(n, q));
    let mut out = [0.0; N];
    if n == 0 {
        return (n, sum, max, out);
    }
    // The distinct ranks, ascending; for each, the histogram row it is
    // looked for in (`slot`, `FOUND` once it is not), its rank among the
    // samples counted there (`rest`), and its key, once found.
    let (mut rank, mut picked) = ([0; MAX_RANKS], 0);
    for k in picks.iter().flat_map(|&(lo, hi, _)| [lo, hi]) {
        if let Err(at) = rank[..picked].binary_search(&k) {
            rank.copy_within(at..picked, at + 1);
            rank[at] = k;
            picked += 1;
        }
    }
    let (mut slot, mut rest, mut key) = ([0; MAX_RANKS], rank, [0u64; MAX_RANKS]);
    loop {
        // Each rank into the cell that holds it: found if that holds one
        // key, else the cell's key range (`lo` + `span`) is counted next,
        // from the bit below the first one its least and greatest keys
        // differ in (`shift`), in row `rows` of the histogram.
        let (mut lo, mut span, mut shift) = ([0u64; MAX_RANKS], [0u64; MAX_RANKS], [0; MAX_RANKS]);
        let (mut rows, mut cell, mut below, mut last) = (0, 0, 0, FOUND);
        for i in 0..picked {
            if slot[i] == FOUND {
                continue;
            }
            if slot[i] != last {
                (cell, below, last) = (slot[i] << NEXT, 0, slot[i]);
            }
            while below + count[cell] as usize <= rest[i] {
                below += count[cell] as usize;
                cell += 1;
            }
            rest[i] -= below;
            let (least, most) = (least[cell], most[cell]);
            if least == most {
                (key[i], slot[i]) = (least, FOUND);
                continue;
            }
            if rows == 0 || lo[rows - 1] != least {
                (lo[rows], span[rows]) = (least, most - least);
                shift[rows] = (u64::BITS - (least ^ most).leading_zeros()).saturating_sub(NEXT);
                rows += 1;
            }
            slot[i] = rows - 1;
        }
        if rows == 0 {
            break;
        }
        count[..rows << NEXT].fill(0);
        least[..rows << NEXT].fill(u64::MAX);
        most[..rows << NEXT].fill(0);
        for col in cols.clone() {
            for (x, copies) in col {
                // The ranges are disjoint: a sample is in one or in none.
                let (k, mut s) = (x.key(), rows);
                for r in 0..rows {
                    let inside = k.wrapping_sub(lo[r]) <= span[r];
                    s = if inside { r } else { s };
                }
                if s == rows {
                    continue;
                }
                let c = s << NEXT | (k >> shift[s]) as usize & ((1 << NEXT) - 1);
                (count[c], least[c], most[c]) = (count[c] + copies, least[c].min(k), most[c].max(k));
            }
        }
    }
    let value = |k: usize| T::from_key(key[rank[..picked].binary_search(&k).expect("picked")]);
    let mut zeros = [[0.0; 2]; N];
    if neg_zero {
        let mapped = || cols.clone().flatten().map(|(x, copies)| (map(x), copies as usize));
        let neg: usize = mapped().filter(|&(v, _)| v < 0.0).map(|(_, copies)| copies).sum();
        let zero_at = |k: usize| {
            let mut rest = k.wrapping_sub(neg);
            for (v, copies) in mapped().filter(|&(v, _)| v == 0.0) {
                if rest < copies {
                    return v;
                }
                rest -= copies;
            }
            0.0
        };
        zeros = picks.map(|(lo, hi, _)| [lo, hi].map(zero_at));
    }
    let read = |k: usize, zero: f64| match map(value(k)) {
        0.0 => zero, // either zero: a float pattern compares with `==`
        v => v,
    };
    for (o, ((lo, hi, frac), [zero_lo, zero_hi])) in
        out.iter_mut().zip(picks.into_iter().zip(zeros))
    {
        *o = lerp(read(lo, zero_lo), read(hi, zero_hi), frac);
    }
    (n, sum, max, out)
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

/// An `f32` column [`Summary::of_f32`] reads where it lies: a slice as
/// count-1 items ([`Summary::over`]), a [`RunColumn`] as its runs
/// ([`Summary::of_runs`]), each in its own loop.
pub trait F32Column {
    /// [`Summary::of_f32`] of the column.
    fn summary(&self) -> Summary;
}

impl F32Column for [f32] {
    fn summary(&self) -> Summary {
        Summary::over([self], f64::from)
    }
}

impl F32Column for RunColumn {
    fn summary(&self) -> Summary {
        Summary::of_runs([self.runs()], f64::from)
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
    /// Maximum; where that is a zero, the first one in the input (which of
    /// `-0.0` and `0.0` `f64::max` keeps is the compiler's choice).
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set (empty input gives all zeros).
    pub fn of(samples: &[f64]) -> Summary {
        Summary::over([samples], |x| x)
    }

    /// The same for an `f32` column (the monitor stores `f32`), a slice or
    /// a [`RunColumn`]: selected from as `f32`, widened only where a value
    /// is read.
    pub fn of_f32<C: F32Column + ?Sized>(samples: &C) -> Summary {
        samples.summary()
    }

    /// Summarize `map` over the concatenation of `cols`, read where they
    /// lie: to the bit `Summary::of` of the mapped, concatenated column,
    /// which is never built. Mean and max fold over the mapped values in
    /// input order, the four order statistics are selected by radix on the
    /// samples' keys, and nothing is allocated (see `fold_select`). `map`
    /// must be monotone non-decreasing.
    pub fn over<'a, T: Sample + 'a, I>(cols: I, map: impl Fn(T) -> f64) -> Summary
    where
        I: IntoIterator<Item = &'a [T]>,
        I::IntoIter: Clone,
    {
        Summary::of_runs(ones(cols), map)
    }

    /// [`Summary::over`] of columns given as runs, read one after another:
    /// each item `(value, count)` stands for `count` copies of `value` in a
    /// row, and the summary is to the bit that of the expanded columns.
    /// Selection costs O(runs); the mean still adds every copy, in order.
    pub fn of_runs<T: Sample, C: IntoIterator<Item = (T, u32)>>(
        cols: impl IntoIterator<Item = C, IntoIter: Clone>,
        map: impl Fn(T) -> f64,
    ) -> Summary {
        let qs = [0.01, 0.25, 0.50, 0.99];
        let (n, sum, max, [p1, p25, p50, p99]) = fold_select(cols.into_iter(), &map, qs);
        Summary {
            n,
            mean: if n == 0 { 0.0 } else { sum / n as f64 },
            p1,
            p25,
            p50,
            p99,
            max: if n == 0 { 0.0 } else { max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ascending copy of `samples`: the stable sort selection replaced,
    /// kept as what the tests hold it to. Stable under `partial_cmp`, which
    /// orders `-0.0` and `0.0` as equal: which of the two an order statistic
    /// lands on is a property of the input order, not of the algorithm.
    fn sorted<T: Copy + PartialOrd>(samples: &[T]) -> Vec<T> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        sorted
    }

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
        let a = Summary::of_f32(&f32s[..]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    /// Every field's bit pattern, so `-0.0` and `0.0` differ.
    fn bits(s: &Summary) -> (usize, [u64; 6]) {
        (
            s.n,
            [s.mean, s.p1, s.p25, s.p50, s.p99, s.max].map(f64::to_bits),
        )
    }

    /// `Summary::of` as it was before selection: one stable sort, four
    /// lookups, mean and max folded in input order.
    fn of_by_sort(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: samples.len(),
            mean: mean(samples),
            p1: percentile_sorted(&sorted, 0.01),
            p25: percentile_sorted(&sorted, 0.25),
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
            max: samples
                .iter()
                .fold(f64::NEG_INFINITY, |max, &v| if v > max { v } else { max }),
        }
    }

    /// A fixed shuffle (Fisher-Yates on an LCG), so ties and zeros meet
    /// the selection in an order that is not the sorted one.
    fn shuffled(mut v: Vec<f32>, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.swap(i, (state >> 33) as usize % (i + 1));
        }
        v
    }

    /// The sizes where a picked rank is exact (`lo == hi`: 101, 201), where
    /// one quantile's `hi` is the next one's `lo` (3), and the edges.
    const SIZES: [usize; 6] = [1, 2, 3, 100, 101, 201];

    fn assert_selects_what_the_sort_gave(narrow: &[f32]) {
        let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
        let want = of_by_sort(&wide);
        assert_eq!(bits(&Summary::of(&wide)), bits(&want), "of {narrow:?}");
        assert_eq!(
            bits(&Summary::of_f32(narrow)),
            bits(&want),
            "of_f32 {narrow:?}"
        );
        let sorted = sorted(&wide);
        for q in [0.0, 0.01, 0.25, 0.5, 0.77, 0.99, 1.0] {
            assert_eq!(
                percentile(&wide, q).to_bits(),
                percentile_sorted(&sorted, q).to_bits(),
                "q={q} of {narrow:?}"
            );
        }
    }

    /// Keys rise with the values, `-0.0` and `0.0` share one, and a key
    /// turns back into the value it was taken from (a zero into `0.0`):
    /// over `magnitudes` (descending, down to a zero) negated, then back up.
    fn assert_keys_order<T: Sample + Into<f64> + std::ops::Neg<Output = T>>(magnitudes: &[T]) {
        let negated = magnitudes.iter().map(|&x| -x);
        let ascending: Vec<T> = negated.chain(magnitudes.iter().rev().copied()).collect();
        for w in ascending.windows(2) {
            let (a, b) = (w[0].into(), w[1].into());
            assert_eq!(a == b, w[0].key() == w[1].key(), "{a} {b}");
            assert!(a == b || w[0].key() < w[1].key(), "{a} {b}");
        }
        for &x in &ascending {
            let back: f64 = T::from_key(x.key()).into();
            assert_eq!(back.to_bits(), (x.into() + 0.0).to_bits());
        }
    }

    #[test]
    fn keys_order_as_the_values_do_for_both_widths() {
        assert_keys_order(&[
            f32::INFINITY,
            f32::MAX,
            1.5,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            0.0,
        ]);
        assert_keys_order(&[
            f64::INFINITY,
            f64::MAX,
            1.5,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            0.0,
        ]);
    }

    #[test]
    fn a_column_of_negative_zeros_keeps_its_sign() {
        for n in SIZES {
            let col = vec![-0.0f32; n];
            assert_selects_what_the_sort_gave(&col);
            let s = Summary::of_f32(&col[..]);
            for v in [s.mean, s.p1, s.p50, s.p99, s.max] {
                assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "n={n}: {s:?}");
            }
        }
    }

    #[test]
    fn mixed_zeros_land_where_the_input_order_puts_them() {
        // The two orders of one pair differ in every order statistic.
        assert_eq!(percentile(&[-0.0, 0.0], 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(percentile(&[0.0, -0.0], 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(percentile(&[-0.0, 0.0], 1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(percentile(&[0.0, -0.0], 1.0).to_bits(), (-0.0f64).to_bits());
        for n in SIZES {
            for seed in 0..8 {
                // Zeros of both signs across the middle ranks, negatives
                // below them (so the zeros do not start at rank 0) and
                // positives above.
                let col: Vec<f32> = (0..n)
                    .map(|i| match (i * 5 / n, i % 2) {
                        (0, _) => -1.5 - i as f32,
                        (4, _) => 2.5,
                        (_, 0) => -0.0,
                        _ => 0.0,
                    })
                    .collect();
                let col = shuffled(col, seed);
                assert_selects_what_the_sort_gave(&col);
                let reversed: Vec<f32> = col.iter().rev().copied().collect();
                assert_selects_what_the_sort_gave(&reversed);
            }
        }
    }

    #[test]
    fn ties_straddling_every_picked_rank_select_what_the_sort_gave() {
        for n in SIZES {
            for block in [1, 2, 3, 7, 64, 1000] {
                for seed in 0..4 {
                    // Runs of `block` equal values: for block >= 2 some
                    // run covers both sides of each picked rank.
                    let col = (0..n).map(|i| (i / block) as f32 * 0.37 - 4.0).collect();
                    assert_selects_what_the_sort_gave(&shuffled(col, seed));
                }
            }
        }
    }

    #[test]
    fn over_borrowed_columns_is_of_the_mapped_column_for_both_production_maps() {
        let to_percent = |p: f32| p as f64 * 100.0;
        let to_capped_percent = |u: f32| (u as f64 * 100.0).min(100.0);
        for n in SIZES.into_iter().chain([5000]) {
            for seed in 0..4 {
                // Probabilities and utilizations: zeros of both signs, ties,
                // and samples past 1.0, which the cap folds into one value.
                let col: Vec<f32> = (0..n)
                    .map(|i| match i % 7 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => 1.25,
                        _ => (i % 50) as f32 / 47.0,
                    })
                    .collect();
                let col = shuffled(col, seed);
                let probs: Vec<f64> = col.iter().map(|&p| to_percent(p)).collect();
                assert_eq!(
                    bits(&Summary::over([&col[..]], to_percent)),
                    bits(&of_by_sort(&probs)),
                    "n={n} seed={seed}"
                );
                let utils: Vec<f64> = col.iter().map(|&u| to_capped_percent(u)).collect();
                assert_eq!(
                    bits(&Summary::over([&col[..]], to_capped_percent)),
                    bits(&of_by_sort(&utils)),
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn runs_summarise_to_the_bit_what_their_expanded_column_does() {
        let to_percent = |p: f32| p as f64 * 100.0;
        for n in SIZES.into_iter().chain([5000]) {
            for block in [1, 2, 3, 7, 64, 1000] {
                for seed in 0..4 {
                    // Runs of `block` samples (the last one cut short) in
                    // no order: zeros of both signs, and neighbours that
                    // may hold equal values, so the runs need not be
                    // maximal.
                    let values = (0..n.div_ceil(block))
                        .map(|j| match j % 5 {
                            0 => -0.0,
                            1 => 0.0,
                            _ => (j % 13) as f32 / 11.0,
                        })
                        .collect();
                    let values = shuffled(values, seed);
                    let runs: Vec<(f32, u32)> = values
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| (v, block.min(n - j * block) as u32))
                        .collect();
                    let col: Vec<f32> = runs
                        .iter()
                        .flat_map(|&(v, count)| std::iter::repeat_n(v, count as usize))
                        .collect();
                    let wide: Vec<f64> = col.iter().map(|&p| to_percent(p)).collect();
                    assert_eq!(
                        bits(&Summary::of_runs([runs.iter().copied()], to_percent)),
                        bits(&of_by_sort(&wide)),
                        "n={n} block={block} seed={seed}"
                    );
                    let mut kept = RunColumn::default();
                    col.iter().for_each(|&v| kept.push(v));
                    let (got, want) = (Summary::of_f32(&kept), Summary::of_f32(&col[..]));
                    assert_eq!(bits(&got), bits(&want), "n={n} block={block} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn a_nan_among_two_or_more_samples_panics_wherever_it_sits() {
        for n in [2, 3, 20, 21, 500] {
            for at in [0, 1, n / 2, n - 2, n - 1] {
                let mut col: Vec<f64> = (0..n).map(|i| (i * 7 % n) as f64).collect();
                col[at] = f64::NAN;
                let panic = std::panic::catch_unwind(|| Summary::of(&col))
                    .expect_err("a NaN must not be summarized");
                let message = panic.downcast_ref::<String>().expect("expect()'s message");
                assert!(message.contains("NaN in percentile input"), "{message}");
                assert!(std::panic::catch_unwind(|| percentile(&col, 0.5)).is_err());
            }
        }
        // One sample is never compared with anything, sorted or selected.
        assert!(Summary::of(&[f64::NAN]).p50.is_nan());
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
