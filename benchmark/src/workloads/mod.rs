//! The five workloads. Each is a closed-loop batch job: one repetition
//! builds its simulations from the inputs made at set-up, runs them and
//! summarises them, as a user's sweep or single run does.
//!
//! | workload | layers that do the work | layers it bypasses |
//! |---|---|---|
//! | `grid_sweep` | runner, per-cell set-up, TCP recovery, qdisc (pie, coupled), summaries | fluid, observers |
//! | `bulk_run` | TCP ACK path, wheel, pools, coupled qdisc, per-packet `Monitor` | runner, observers, fluid, hops ≥ 1 |
//! | `observed_run` | trace sinks, auditor, registry export, checkpoint codec | runner, fluid |
//! | `topo_mice` | hops ≥ 1, DualPI2, flow churn, far timers | big-window scoreboard, observers, fluid |
//! | `fluid_scale` | `fluid::flow`, `netsim::background` | the packet engine |

mod bulk_run;
mod fluid_scale;
mod grid_sweep;
mod observed_run;
mod topo_mice;

use crate::digest::Digest;
use crate::span::{SpanId, Tracer};
use pi2_experiments::{RunResult, Scenario};
use pi2_netsim::{
    Ecn, Monitor, MonitorConfig, PathConf, QueueConfig, Sim, SimConfig, TraceCounts, UdpCbrSource,
};
use pi2_transport::TcpSource;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use bulk_run::bulk_scenario;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 5] = [
    "grid_sweep",
    "bulk_run",
    "observed_run",
    "topo_mice",
    "fluid_scale",
];

/// What a repetition is told by the harness.
pub struct RepCtx<'a> {
    /// Span recorder (off in the untraced pass).
    pub tracer: &'a Tracer,
    /// The repetition's own span.
    pub parent: SpanId,
    /// Which variant of the inputs to run: 0 in the warm-up, 1, 2, … in the
    /// timed repetitions. A workload whose cost swings with its seed
    /// (`grid_sweep`) derives a fresh seed from it, so that the median over
    /// a run's repetitions is a median over seeds; the others run the same
    /// inputs every time.
    pub variant: u64,
    /// The untimed warm-up repetition: also run the cross-checks that are
    /// cheap next to the workload (the bare run of `observed_run`).
    pub warmup: bool,
    /// The traced pass's warm-up repetition: also run the cross-checks
    /// that cost as much as the workload itself (the 1-worker sweep, the
    /// audited topology cells).
    pub deep: bool,
}

impl<'a> RepCtx<'a> {
    /// The context of a timed repetition: no extra cross-checks.
    pub fn timed(tracer: &'a Tracer, parent: SpanId, variant: u64) -> Self {
        RepCtx {
            tracer,
            parent,
            variant,
            warmup: false,
            deep: false,
        }
    }
}

/// What a repetition reports back.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// FNV-1a over the simulated results.
    pub digest: u64,
    /// The variant of the inputs that was run (0 unless the workload uses
    /// [`RepCtx::variant`]): repetitions of one variant must agree on the
    /// digest.
    pub variant: u64,
    /// Operations attempted: one per simulated cell, save, restore or
    /// export step.
    pub attempted: u64,
    /// One line per failed operation, naming the seed to replay it with.
    pub failures: Vec<String>,
    /// Events the dispatch loops processed.
    pub events: u64,
    /// Packets dequeued, over every hop that counts them.
    pub pkts: u64,
    /// Packets offered to a queue (admitted or dropped).
    pub offered: u64,
    /// Packets dropped: each forces one retransmission.
    pub drops: u64,
    /// Host seconds of each cell, in cell order.
    pub cell_s: Vec<f64>,
    /// 1-worker wall ÷ (workers × n-worker wall) of the same cells; only
    /// deep repetitions of `grid_sweep` measure it.
    pub par_efficiency: Option<f64>,
}

impl Outcome {
    /// Record an operation and, if it failed, why.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// Add a finished packet run's event and packet counts.
    pub fn count_run(&mut self, events: u64, counters: &TraceCounts) {
        let t = counters.totals();
        self.events += events;
        self.pkts += t.dequeued;
        self.offered += t.enqueued + t.dropped;
        self.drops += t.dropped;
    }
}

/// A workload with its inputs made.
pub trait Workload {
    /// One repetition: build → run → summarise.
    fn run(&self, ctx: &RepCtx) -> Outcome;
}

/// Make the inputs of workload `name` from `seed`. `quick` shrinks the
/// simulated time to smoke-test size.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "grid_sweep" => Box::new(grid_sweep::GridSweep::new(seed, quick)),
        "bulk_run" => Box::new(bulk_run::BulkRun::new(seed, quick)),
        "observed_run" => Box::new(observed_run::ObservedRun::new(seed, quick)),
        "topo_mice" => Box::new(topo_mice::TopoMice::new(seed, quick)),
        "fluid_scale" => Box::new(fluid_scale::FluidScale::new(seed, quick)),
        _ => return None,
    })
}

/// A writer that keeps only the byte count: sinks are measured without a
/// disk behind them.
#[derive(Default)]
pub struct CountingWriter {
    pub bytes: u64,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run one operation, turning a panic into a failure line that names
/// `what` and the `seed` to replay it with, so one bad cell cannot hide
/// the rest.
pub fn guarded<T>(what: &str, seed: u64, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        let first = msg.lines().next().unwrap_or("");
        format!("{what} (replay with seed {seed}) panicked: {first}")
    })
}

/// `Err(msg)` unless `cond`.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Fold a finished packet run's state into `d`: counters, event total,
/// per-flow accounting and the bits of every recorded sojourn.
pub fn digest_state(d: &mut Digest, monitor: &Monitor, counters: &TraceCounts, events: u64) {
    let t = counters.totals();
    d.u64(t.enqueued)
        .u64(t.marked)
        .u64(t.dropped)
        .u64(t.dequeued);
    d.u64(counters.aqm_updates).u64(events);
    for f in &monitor.flows {
        d.u64(f.sent_pkts)
            .u64(f.dequeued_bytes)
            .u64(f.delivered_bytes);
        d.u64(f.dequeued_bytes_postwarm);
    }
    d.u64(monitor.sojourn_ms.len() as u64);
    for &s in &monitor.sojourn_ms {
        d.word(u64::from(s.to_bits()));
    }
    d.u64(monitor.completions.len() as u64);
}

/// [`digest_state`] of a [`Scenario::run`] result.
pub fn digest_run(d: &mut Digest, r: &RunResult) {
    let events = r.metrics.as_deref().map_or(0, |m| m.events_processed());
    digest_state(d, &r.monitor, &r.counters, events);
}

/// Build the simulator of a packet scenario the way `Scenario::run` does,
/// but hand it back un-run, for the drivers that must hold the `Sim`
/// between slices (observers, checkpoints, the loop profiler).
pub fn build_sim(sc: &Scenario) -> Sim {
    let queue = QueueConfig {
        rate_bps: sc.rate_bps,
        buffer_bytes: sc.buffer_bytes,
    };
    let mut sim = Sim::with_qdisc(
        SimConfig {
            queue,
            seed: sc.seed,
            monitor: MonitorConfig {
                sample_interval: sc.sample_interval,
                warmup: sc.warmup,
                ..MonitorConfig::default()
            },
        },
        sc.aqm.build_qdisc(queue),
    );
    sim.core.enable_metrics();
    let samples =
        (sc.duration.as_secs_f64() / sc.sample_interval.as_secs_f64()).ceil() as usize + 2;
    let pkts = (sc.rate_bps as f64 * sc.duration.as_secs_f64() / (8.0 * 1500.0)) as usize;
    sim.core.monitor.reserve(samples, pkts.min(1 << 21));
    for g in &sc.tcp {
        for _ in 0..g.count {
            let (cc, ecn, tcp) = (g.cc, g.ecn, g.tcp);
            sim.add_flow(PathConf::symmetric(g.rtt), &g.label, g.start, move |id| {
                Box::new(TcpSource::new(id, cc, ecn, tcp))
            });
        }
    }
    for g in &sc.udp {
        for _ in 0..g.count {
            let (rate, size) = (g.rate_bps, g.pkt_size);
            sim.add_flow(PathConf::symmetric(g.rtt), &g.label, g.start, move |id| {
                Box::new(UdpCbrSource::new(id, rate, size, Ecn::NotEct))
            });
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_becomes_one_failure_line_with_its_seed() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Result<(), String> = guarded("run_cell 3", 42, || panic!("boom\nsecond line"));
        std::panic::set_hook(prev);
        assert_eq!(
            r.unwrap_err(),
            "run_cell 3 (replay with seed 42) panicked: boom"
        );
        assert_eq!(guarded("ok", 1, || 7), Ok(7));
    }

    #[test]
    fn outcome_counts_operations_and_failures() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(ensure(false, || "cell 2: utilisation 0".to_string()));
        assert_eq!((o.attempted, o.failures.len()), (2, 1));
    }

    #[test]
    fn benchmark_built_sim_matches_scenario_run_bit_for_bit() {
        let sc = bulk_scenario(5, 1);
        let mut sim = build_sim(&sc);
        sim.run_until(sc.duration);
        let mut a = Digest::new();
        digest_state(
            &mut a,
            &sim.core.monitor,
            &sim.core.counters,
            sim.core.events.popped(),
        );
        let mut b = Digest::new();
        digest_run(&mut b, &sc.run());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn every_named_workload_builds() {
        for name in NAMES {
            assert!(build(name, 1, true).is_some(), "{name}");
        }
        assert!(build("nope", 1, true).is_none());
    }
}
