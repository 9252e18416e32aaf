//! A cost number for every layer, measured from outside by timing calls
//! into the layer's public functions.
//!
//! Drivers run in groups. A group is one repetition under the timing
//! rule: two calibration samples bracket it, and its numbers are kept only
//! if the host stayed clean for the whole group (it is retried up to
//! [`ATTEMPTS`] times otherwise). Inside a group each driver takes
//! [`SAMPLES`] samples after one untimed call; the median is rescaled to
//! the reference mode by the group's calibration.

mod engine;
mod observers;
mod offline;

use crate::timing::{Estimate, Timer};
use pi2_bench::perf::median;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Samples per driver.
const SAMPLES: usize = 5;
/// Samples of a driver whose single call takes tens of milliseconds.
const HEAVY_SAMPLES: usize = 3;
/// Tries a group gets at a clean measurement.
const ATTEMPTS: usize = 3;

/// Unit multipliers for seconds.
pub const NS: f64 = 1e9;
pub const US: f64 = 1e6;
pub const MS: f64 = 1e3;

/// The drivers of one group record into this.
#[derive(Default)]
pub struct Group {
    /// Raw per-operation times, in the metric's unit, one per sample.
    timed: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts and ratios: no rescaling.
    exact: BTreeMap<&'static str, f64>,
    /// Timed metrics reported as amount per second: inverted after the
    /// rescaling.
    inverse: BTreeSet<&'static str>,
    /// Simulated seconds shrink to smoke-test size.
    pub quick: bool,
}

impl Group {
    /// Time `f`, which performs `ops` operations per call; `unit` is
    /// [`NS`], [`US`] or [`MS`].
    pub fn per_op(&mut self, name: &'static str, unit: f64, ops: u64, mut f: impl FnMut()) {
        self.per_op_with(name, unit, ops, || (), |()| f());
    }

    /// [`Group::per_op`] with untimed per-sample state from `setup`.
    pub fn per_op_with<S>(
        &mut self,
        name: &'static str,
        unit: f64,
        ops: u64,
        setup: impl FnMut() -> S,
        f: impl FnMut(S),
    ) {
        self.timed_calls(name, unit / ops as f64, SAMPLES, setup, f);
    }

    /// [`Group::per_op`] for a call of tens of milliseconds: the minimum
    /// number of samples the timing rule takes a median of.
    pub fn per_op_heavy(&mut self, name: &'static str, unit: f64, ops: u64, mut f: impl FnMut()) {
        self.timed_calls(name, unit / ops as f64, HEAVY_SAMPLES, || (), |()| f());
    }

    /// One untimed call, then `samples` timed ones, each recorded as
    /// seconds × `scale`.
    fn timed_calls<S>(
        &mut self,
        name: &'static str,
        scale: f64,
        samples: usize,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S),
    ) {
        f(setup());
        let recorded = self.timed.entry(name).or_default();
        for _ in 0..samples {
            let state = setup();
            let t0 = Instant::now();
            f(state);
            recorded.push(t0.elapsed().as_secs_f64() * scale);
        }
    }

    /// Time `f`, which moves `amount` units per call, and report units
    /// per (reference-mode) second.
    pub fn throughput_with<S>(
        &mut self,
        name: &'static str,
        amount: f64,
        setup: impl FnMut() -> S,
        f: impl FnMut(S),
    ) {
        self.inverse.insert(name);
        self.timed_calls(name, 1.0 / amount, SAMPLES, setup, f);
    }

    /// Record one sample a driver timed itself, already per operation and
    /// in the metric's unit.
    pub fn raw(&mut self, name: &'static str, value: f64) {
        self.timed.entry(name).or_default().push(value);
    }

    /// Record an exact count or a ratio.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.insert(name, value);
    }
}

/// A layer metric as measured.
#[derive(Clone, Copy, Debug)]
pub enum Measured {
    /// A reference-mode time under the timing rule.
    Timed(Estimate),
    /// An exact count or a ratio.
    Exact(f64),
}

impl Measured {
    pub fn value(&self) -> f64 {
        match self {
            Measured::Timed(e) => e.value,
            Measured::Exact(v) => *v,
        }
    }
}

/// Run one group under the timing rule and fold its numbers into `out`.
fn run_group(
    timer: &mut Timer,
    quick: bool,
    out: &mut BTreeMap<&'static str, Measured>,
    drivers: impl Fn(&mut Group),
) {
    for attempt in 1..=ATTEMPTS {
        let mut g = Group {
            quick,
            ..Group::default()
        };
        let (rep, ()) = timer.time(|| drivers(&mut g));
        let clean = rep.is_clean(timer.cpus);
        if !clean && attempt < ATTEMPTS {
            continue;
        }
        for (name, samples) in &g.timed {
            let n = samples.len();
            let seconds = rep.rescale(median(samples));
            let e = Estimate {
                value: if g.inverse.contains(name) {
                    1.0 / seconds
                } else {
                    seconds
                },
                clean: if clean { n } else { 0 },
                dirty: if clean { 0 } else { n },
            };
            out.insert(name, Measured::Timed(e));
        }
        for (name, v) in &g.exact {
            out.insert(name, Measured::Exact(*v));
        }
        return;
    }
}

/// Every workload-independent layer metric.
pub fn run_all(timer: &mut Timer, seed: u64, quick: bool) -> BTreeMap<&'static str, Measured> {
    let mut out = BTreeMap::new();
    run_group(timer, quick, &mut out, engine::wheel_and_pool);
    run_group(timer, quick, &mut out, engine::qdiscs);
    run_group(timer, quick, &mut out, engine::aqm_decisions);
    run_group(timer, quick, &mut out, engine::scoreboards);
    run_group(timer, quick, &mut out, |g| engine::tcp_ack_path(g, seed));
    run_group(timer, quick, &mut out, |g| engine::event_loop(g, seed));
    run_group(timer, quick, &mut out, |g| engine::hop_cost(g, seed));
    run_group(timer, quick, &mut out, |g| engine::checkpoint(g, seed));
    run_group(timer, quick, &mut out, observers::monitor);
    run_group(timer, quick, &mut out, observers::sinks);
    run_group(timer, quick, &mut out, |g| observers::registry(g, seed));
    run_group(timer, quick, &mut out, observers::stats);
    run_group(timer, quick, &mut out, |g| offline::set_up(g, seed));
    run_group(timer, quick, &mut out, offline::runner);
    run_group(timer, quick, &mut out, offline::fluid);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_group_reports_per_operation_medians_and_exact_counts() {
        let mut timer = Timer::new();
        let mut out = BTreeMap::new();
        run_group(&mut timer, true, &mut out, |g| {
            g.per_op("spin_ns", NS, 1000, || {
                std::hint::black_box((0..1000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
            });
            g.exact("count", 42.0);
        });
        assert_eq!(out["count"].value(), 42.0);
        match out["spin_ns"] {
            Measured::Timed(e) => {
                assert_eq!(e.clean + e.dirty, SAMPLES);
                assert!(e.value > 0.0 && e.value < 1e6, "{e:?}");
            }
            Measured::Exact(_) => panic!("timed metric recorded as exact"),
        }
    }
}
