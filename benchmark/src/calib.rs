//! The calibration kernel, `calib_v1`.
//!
//! This host is shared, and what it gives a guest changes from one second
//! to the next: the clock speed moves, the hypervisor takes the CPU away,
//! and a neighbour on the same core takes execution ports and cache, which
//! slows a program that keeps the core busy by half or more while a chain
//! of dependent operations does not notice. Every timed number the
//! benchmark reports is therefore divided by how long this fixed piece of
//! work took right before and right after it, and multiplied by
//! [`NOMINAL_S`], the kernel's time in the reference mode. The result
//! reads as seconds in the reference mode.
//!
//! The kernel adds 1.6 M pseudo-random values into a hash map under 16 Ki
//! pseudo-random keys. Sixteen kernels were run beside the workloads
//! through three hours of a host that was busy more often than not. Where
//! the one-thread workloads slowed by 1.56–1.77, the hash map slowed by
//! 1.70, a sort of 64 Ki words and string formatting by 1.43, boxed
//! allocation by 1.30, a binary heap, a merge sort, independent
//! multiply-add chains, loads from 32 MB and a branchy scan by 1.0–1.4, and
//! dependent multiply-adds with one dependent load, the kernel tried
//! first, by 1.16. Run in every sample of 49 runs of the workloads with one
//! seed, the hash map alone left their times spread 3.7 % (standard
//! deviation, mean over the five workloads), the sort 4.7 %,
//! read-modify-write over 64 MB 5.0 %, page-faulting 5.1 %, and every
//! mixture of them more than the hash map alone. The sample is one long
//! pass, so that it is a mean as a repetition is: a neighbour that was busy
//! for a third of the repetition cost it a third of the slowdown, and
//! should cost the sample the same.
//!
//! **Frozen.** Numbers from two commits compare only if both used the same
//! kernel. Do not edit the loop, [`OPS`], [`KEYS`] or [`NOMINAL_S`]; a
//! different kernel is `calib_v2` beside this one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Name printed with every result set.
pub const VERSION: &str = "calib_v1";

/// Map updates per sample, over [`KEYS`] distinct keys.
const OPS: u32 = 1_600_000;
const KEYS: u64 = 1 << 14;

/// Seconds one sample takes in the reference mode (the mode the host this
/// benchmark was written on ran in, undisturbed, while the first baseline
/// was taken).
pub const NOMINAL_S: f64 = 0.0215;

/// The kernel's map. Allocating it is part of harness set-up.
pub struct Calib {
    /// SipHash with fixed keys, so the table is the same in every process.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Calib {
    pub fn new() -> Self {
        Calib {
            map: HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default()),
        }
    }

    /// One sample (about 22 ms): seconds the updates took. The keys come
    /// from xorshift64 with a fixed seed, into an emptied map: the same
    /// work every time.
    pub fn sample(&mut self) -> f64 {
        self.map.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let t0 = Instant::now();
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % KEYS).or_insert(0) += x;
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(self.map.len());
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(c: &Calib) -> u64 {
        c.map.values().fold(0, |a, &v| a.wrapping_add(v))
    }

    #[test]
    fn the_work_is_the_same_every_time_and_takes_measurable_time() {
        let mut c = Calib::new();
        let s = c.sample();
        assert!(s > 0.001, "kernel finished in {s} s: optimised away?");
        // Pinned values: a change here means the kernel changed.
        assert_eq!(c.map.len(), 16_384);
        assert_eq!(sum(&c), 0xFCAE_ABE8_D737_7611);
        // The next sample starts from an empty map again.
        c.sample();
        assert_eq!(sum(&c), 0xFCAE_ABE8_D737_7611);
    }
}
