//! Self-contained deterministic PRNG (xoshiro256++).
//!
//! The AQM drop/mark decision compares a probability against pseudo-random
//! variates (Appendix A of the paper: "comparing the probability p with a
//! pseudo-randomly generated value Y per packet"). Reproducibility of every
//! experiment from a single `u64` seed matters more here than cryptographic
//! quality, so we implement xoshiro256++ (public domain, Blackman & Vigna)
//! directly instead of depending on an external crate whose default
//! algorithm may change across versions.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// ```
/// use pi2_simcore::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

// The raw 256-bit generator state: restoring it resumes the stream
// exactly where it was.
crate::ckpt_fields!(Rng { s });

/// SplitMix64 step, used to expand a 64-bit seed into the 256-bit state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a non-zero internal state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[lo, hi)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Rejection sampling on the multiply-shift trick.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            let low = m as u64;
            if low >= span {
                return lo + (m >> 64) as u64;
            }
            // low < span: possibly biased region; check threshold.
            let threshold = span.wrapping_neg() % span;
            if low >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Exponentially distributed variate with the given mean (>0); used by
    /// Poisson arrival processes in web-like workloads.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0): next_f64 is in [0,1), so 1-u is in (0,1].
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Bounded Pareto variate (shape `alpha`, minimum `xmin`, cap `xmax`);
    /// classic heavy-tailed model for web object sizes.
    pub fn bounded_pareto(&mut self, alpha: f64, xmin: f64, xmax: f64) -> f64 {
        debug_assert!(alpha > 0.0 && xmin > 0.0 && xmax > xmin);
        let u = self.next_f64();
        let ha = xmax.powf(-alpha);
        let la = xmin.powf(-alpha);
        (-(u * (ha - la) + la)).abs().powf(-1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ckpt, CkptReader, CkptWriter};

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
            assert!(!r.chance(-0.5));
            assert!(r.chance(1.5));
        }
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = Rng::new(5);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.1)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.005, "freq {freq}");
    }

    #[test]
    fn range_u64_bounds_and_coverage() {
        let mut r = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.range_u64(5, 15);
            assert!((5..15).contains(&x));
            seen[(x - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bounded_pareto_bounds() {
        let mut r = Rng::new(17);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(1.2, 1000.0, 1_000_000.0);
            assert!(
                (1000.0..=1_000_000.0 + 1.0).contains(&x),
                "out of bounds: {x}"
            );
        }
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = Rng::new(99);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut w = CkptWriter::new();
        a.save_ckpt(&mut w);
        let mut b = Rng::new(0);
        b.restore_ckpt(&mut CkptReader::new(&w.into_bytes())).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
