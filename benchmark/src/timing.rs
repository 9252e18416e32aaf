//! The timing rule every timed number follows.
//!
//! A repetition is bracketed by two samples of the calibration kernel and
//! by two readings of the host's stolen-time counter. Its time is rescaled
//! to the reference mode, `wall × NOMINAL_S ÷ kernel time`, and the
//! reported time is the median of the rescaled times, with the sample
//! count beside it.
//!
//! A repetition is *clean* when the hypervisor stole at most
//! [`STEAL_LIMIT`] of the CPU time it could have used and the two kernel
//! samples agree within [`CALIB_AGREE`]. The count of clean repetitions is
//! printed beside the median and says how much of the run the host left
//! alone; with fewer than [`MIN_CLEAN`] the number is marked *disturbed*.
//! Dirty repetitions stay in the median: on a day when four in five were
//! dirty, the median over all of them repeated within 5 % from run to run
//! and the median over the clean few within 27 %.

use crate::calib::{Calib, NOMINAL_S};
use crate::host;
use pi2_bench::perf::median;
use std::time::Instant;

/// Stolen CPU time allowed, as a share of wall × CPUs.
pub const STEAL_LIMIT: f64 = 0.02;
/// Largest relative distance between the two bracketing kernel samples.
pub const CALIB_AGREE: f64 = 0.10;
/// Clean repetitions below which a median is marked as disturbed.
pub const MIN_CLEAN: usize = 3;
/// A kernel sample older than this is not reused as the next "before".
const CALIB_FRESH_S: f64 = 0.05;

/// One timed repetition, as measured.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Host seconds the repetition took.
    pub wall_s: f64,
    /// Kernel sample right before it.
    pub calib_before_s: f64,
    /// Kernel sample right after it.
    pub calib_after_s: f64,
    /// CPU seconds stolen during it, summed over CPUs.
    pub steal_s: f64,
}

impl Rep {
    /// Mean of the two bracketing kernel samples.
    pub fn calib_s(&self) -> f64 {
        0.5 * (self.calib_before_s + self.calib_after_s)
    }

    /// Stolen share of the CPU time the repetition could have used.
    pub fn steal_frac(&self, cpus: usize) -> f64 {
        self.steal_s / (self.wall_s * cpus as f64).max(1e-9)
    }

    /// The clean-repetition test.
    pub fn is_clean(&self, cpus: usize) -> bool {
        let (a, b) = (self.calib_before_s, self.calib_after_s);
        self.steal_frac(cpus) <= STEAL_LIMIT && (a - b).abs() <= CALIB_AGREE * a.min(b)
    }

    /// `seconds` of this repetition rescaled to the reference mode.
    pub fn rescale(&self, seconds: f64) -> f64 {
        seconds * NOMINAL_S / self.calib_s()
    }
}

/// A median under the timing rule.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// Median over all rescaled samples.
    pub value: f64,
    /// Samples from clean repetitions.
    pub clean: usize,
    /// Samples from dirty ones.
    pub dirty: usize,
}

impl Estimate {
    /// True when the host left enough of the run alone.
    pub fn resolved(&self) -> bool {
        self.clean >= MIN_CLEAN
    }

    /// `value unit (n=samples, clean c)`, marked when disturbed.
    pub fn render(&self, unit: &str) -> String {
        format!(
            "{:.6} {unit} (n={}, clean {}){}",
            self.value,
            self.clean + self.dirty,
            self.clean,
            if self.resolved() { "" } else { " disturbed" }
        )
    }
}

/// Apply the rule to `(repetition, seconds measured inside it)` pairs.
pub fn estimate(samples: &[(Rep, f64)], cpus: usize) -> Estimate {
    let rescaled: Vec<f64> = samples.iter().map(|(r, s)| r.rescale(*s)).collect();
    let clean = samples.iter().filter(|(r, _)| r.is_clean(cpus)).count();
    Estimate {
        value: median(&rescaled),
        clean,
        dirty: samples.len() - clean,
    }
}

/// One turn of [`Timer::repeat`].
pub struct Turn<R> {
    pub rep: Rep,
    /// Host seconds `prepare` took, outside the repetition.
    pub prepare_s: f64,
    pub out: R,
}

/// Runs closures under the rule, sharing one kernel sample between two
/// repetitions that follow each other directly.
pub struct Timer {
    calib: Calib,
    last: Option<(f64, Instant)>,
    /// CPUs of the host, for the steal test.
    pub cpus: usize,
}

impl Timer {
    /// Allocate the kernel's map; part of harness set-up.
    pub fn new() -> Self {
        Timer {
            calib: Calib::new(),
            last: None,
            cpus: host::cpus(),
        }
    }

    /// Time one call of `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (Rep, R) {
        let calib_before_s = match self.last.take() {
            Some((s, at)) if at.elapsed().as_secs_f64() < CALIB_FRESH_S => s,
            _ => self.calib.sample(),
        };
        self.time_after(calib_before_s, f)
    }

    fn time_after<R>(&mut self, calib_before_s: f64, f: impl FnOnce() -> R) -> (Rep, R) {
        let steal0 = host::steal_s();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let steal_s = host::steal_s() - steal0;
        let calib_after_s = self.calib.sample();
        self.last = Some((calib_after_s, Instant::now()));
        (
            Rep {
                wall_s,
                calib_before_s,
                calib_after_s,
                steal_s,
            },
            out,
        )
    }

    /// Repeat `prepare` (timed apart) then `f` on what it made, until
    /// `seconds` have passed. Neighbouring repetitions share the kernel
    /// sample between them, whatever `prepare` takes.
    pub fn repeat<S, R>(
        &mut self,
        seconds: f64,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> Vec<Turn<R>> {
        let start = Instant::now();
        let mut turns = Vec::new();
        let mut before = self.calib.sample();
        loop {
            let t0 = Instant::now();
            let state = prepare();
            let prepare_s = t0.elapsed().as_secs_f64();
            let (rep, out) = self.time_after(before, || f(state));
            before = rep.calib_after_s;
            turns.push(Turn {
                rep,
                prepare_s,
                out,
            });
            if start.elapsed().as_secs_f64() >= seconds {
                return turns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, before: f64, after: f64, steal_s: f64) -> Rep {
        Rep {
            wall_s,
            calib_before_s: before,
            calib_after_s: after,
            steal_s,
        }
    }

    #[test]
    fn clean_needs_little_steal_and_agreeing_kernel_samples() {
        assert!(rep(1.0, 0.060, 0.063, 0.0).is_clean(2));
        // 2 % of 1 s × 2 CPUs is 0.04 s.
        assert!(rep(1.0, 0.060, 0.060, 0.04).is_clean(2));
        assert!(!rep(1.0, 0.060, 0.060, 0.05).is_clean(2));
        assert!(rep(1.0, 0.060, 0.060, 0.05).is_clean(4));
        // The clock changed mode under the repetition.
        assert!(!rep(1.0, 0.060, 0.067, 0.0).is_clean(2));
        assert!(!rep(1.0, 0.120, 0.060, 0.0).is_clean(2));
    }

    #[test]
    fn time_is_rescaled_by_the_kernel() {
        let slow = rep(2.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S, 0.0);
        assert!((slow.rescale(slow.wall_s) - 1.0).abs() < 1e-12);
        let fast = rep(1.0, NOMINAL_S, NOMINAL_S, 0.0);
        assert!((fast.rescale(fast.wall_s) - 1.0).abs() < 1e-12);
    }

    /// Each repetition paired with its own wall time.
    fn walls(reps: &[Rep]) -> Vec<(Rep, f64)> {
        reps.iter().map(|r| (*r, r.wall_s)).collect()
    }

    #[test]
    fn median_is_over_every_rescaled_sample_and_counts_both_kinds() {
        let n = NOMINAL_S;
        let reps = [
            rep(1.0, n, n, 0.0),
            rep(2.6, 2.0 * n, 2.0 * n, 1.0), // stolen from: dirty, rescaled to 1.3
            rep(1.2, n, n, 0.0),
            rep(1.1, n, n, 0.0),
            rep(2.1, n, 2.0 * n, 0.0), // the host changed under it: dirty, 1.4
        ];
        let e = estimate(&walls(&reps), 2);
        assert_eq!((e.clean, e.dirty), (3, 2));
        assert!(e.resolved());
        assert!((e.value - 1.2).abs() < 1e-12);
        assert_eq!(e.render("s"), "1.200000 s (n=5, clean 3)");
    }

    #[test]
    fn fewer_than_three_clean_samples_is_marked_disturbed() {
        let n = NOMINAL_S;
        let reps = [
            rep(1.0, n, n, 0.0),
            rep(1.2, n, n, 0.0),
            rep(9.0, n, n, 1.0),
        ];
        let e = estimate(&walls(&reps), 2);
        assert_eq!((e.clean, e.dirty), (2, 1));
        assert!(!e.resolved());
        assert_eq!(e.render("s"), "1.200000 s (n=3, clean 2) disturbed");
    }

    #[test]
    fn repeat_stops_on_time_and_hands_each_preparation_to_its_repetition() {
        let mut t = Timer::new();
        let mut prepared = 0;
        let turns = t.repeat(
            0.05,
            || {
                prepared += 1;
                prepared
            },
            |n| 10 * n,
        );
        assert!(!turns.is_empty());
        assert_eq!(turns.len(), prepared);
        assert_eq!(turns.last().map(|t| t.out), Some(10 * prepared));
        assert!(turns.iter().all(|t| t.prepare_s >= 0.0));
        // Neighbours share the kernel sample between them.
        for pair in turns.windows(2) {
            assert_eq!(pair[0].rep.calib_after_s, pair[1].rep.calib_before_s);
        }
    }
}
