//! `observed_run`: the `bulk_run` scenario with everything a user can
//! attach to a run.
//!
//! JSONL and Perfetto sinks (into counting in-memory writers, no disk), a
//! counting sink, the invariant auditor, metrics on, the run sliced every
//! 250 simulated ms with the registry exported as JSON and Prometheus text
//! per slice (what `pi2sim --serve` does), `Sim::save` every simulated
//! second, and one `Sim::restore` into a fresh simulator that runs on to
//! the end. Same event loop as `bulk_run`, used differently: an observer
//! or codec optimisation shows here and must not move `bulk_run`, and a
//! hot-loop gain bought by pushing cost into the observer fan-out shows
//! here as a loss. The runner and the fluid engine are bypassed.

use super::{
    build_sim, bulk_scenario, digest_state, ensure, guarded, CountingWriter, Outcome, RepCtx,
    Workload,
};
use crate::digest::Digest;
use pi2_experiments::Scenario;
use pi2_netsim::{AuditSink, CountingSink, JsonlSink, PerfettoSink, Sim};
use pi2_obs::prom_lint;
use pi2_simcore::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Simulated seconds of one repetition.
const SIM_SECS: u64 = 4;
/// The same under `--quick`.
const QUICK_SIM_SECS: u64 = 2;
/// Simulated time between registry exports.
const SLICE: Duration = Duration::from_millis(250);
/// Slices between checkpoints (one per simulated second).
const SLICES_PER_SAVE: u32 = 4;

pub struct ObservedRun {
    sc: Scenario,
}

impl ObservedRun {
    pub fn new(seed: u64, quick: bool) -> Self {
        ObservedRun {
            sc: bulk_scenario(seed, if quick { QUICK_SIM_SECS } else { SIM_SECS }),
        }
    }

    fn digest_of(sim: &Sim) -> u64 {
        let mut d = Digest::new();
        digest_state(
            &mut d,
            &sim.core.monitor,
            &sim.core.counters,
            sim.core.events.popped(),
        );
        d.finish()
    }

    /// The observed run itself. Returns its digest and the checkpoint
    /// taken half way, for the restore step.
    fn observed(&self, ctx: &RepCtx, out: &mut Outcome) -> (u64, Vec<u8>) {
        let seed = self.sc.seed;
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(CountingWriter::default())));
        let perfetto = Rc::new(RefCell::new(PerfettoSink::new(CountingWriter::default())));
        let counting = Rc::new(RefCell::new(CountingSink::new()));
        let mut sim = ctx.tracer.span("build_sim", ctx.parent, None, |_| {
            let mut sim = build_sim(&self.sc);
            sim.core
                .enable_audit(AuditSink::new(seed).with_label("observed_run"));
            sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
            sim.core.add_trace_sink(Box::new(Rc::clone(&perfetto)));
            sim.core.add_trace_sink(Box::new(Rc::clone(&counting)));
            sim
        });

        let half = Time::from_nanos(self.sc.duration.as_nanos() / 2);
        let mut half_blob = Vec::new();
        let mut prom = String::new();
        let mut slice = 0u32;
        // Slice ends are counted from zero, not from the simulator's clock,
        // which stops at the last event before each end.
        let mut until = Time::ZERO;
        while until < self.sc.duration {
            slice += 1;
            until = (until + SLICE).min(self.sc.duration);
            // The auditor panics on a violated invariant.
            out.op(ctx
                .tracer
                .span("Sim::run_until", ctx.parent, Some(slice), |_| {
                    guarded("observed_run Sim::run_until", seed, || sim.run_until(until))
                }));
            let metrics = sim.core.metrics().expect("build_sim enables metrics");
            let json = ctx
                .tracer
                .span("Registry::to_json", ctx.parent, Some(slice), |_| {
                    metrics.registry().to_json()
                });
            prom = ctx
                .tracer
                .span("Registry::to_prometheus", ctx.parent, Some(slice), |_| {
                    metrics.registry().to_prometheus()
                });
            out.op(ensure(json.len() > 2, || {
                format!("slice {slice}: empty registry JSON")
            }));
            if slice.is_multiple_of(SLICES_PER_SAVE) || until == half {
                let blob = ctx
                    .tracer
                    .span("Sim::save", ctx.parent, Some(slice), |_| sim.save());
                out.op(ensure(!blob.is_empty(), || {
                    format!("slice {slice}: empty checkpoint")
                }));
                if until == half {
                    half_blob = blob;
                }
            }
        }
        out.op(sim
            .core
            .flush_trace_sinks()
            .map_err(|e| format!("observed_run seed {seed}: flush: {e}")));

        ctx.tracer.span("summarise", ctx.parent, None, |_| {
            let seen = counting.borrow().counts.clone();
            let t = seen.totals();
            let events = t.enqueued + t.marked + t.dropped + t.dequeued + seen.aqm_updates;
            let lines = jsonl.borrow().lines();
            out.op(ensure(lines == events, || {
                format!("observed_run seed {seed}: {lines} JSONL lines for {events} sink events")
            }));
            out.op(ensure(perfetto.borrow().records() > 0, || {
                format!("observed_run seed {seed}: empty Perfetto timeline")
            }));
            out.op(prom_lint(&prom).map(|_| ()).map_err(|e| {
                format!("observed_run seed {seed}: Prometheus text fails the lint: {e}")
            }));
            out.op(ensure(seen == sim.core.counters, || {
                format!("observed_run seed {seed}: sink counts differ from the core's counters")
            }));
            out.count_run(sim.core.events.popped(), &sim.core.counters);
        });
        (Self::digest_of(&sim), half_blob)
    }

    /// Restore the half-way checkpoint into a fresh simulator and run it
    /// to the end: its digest must equal the uninterrupted run's.
    fn restored(&self, ctx: &RepCtx, blob: &[u8]) -> Result<u64, String> {
        let seed = self.sc.seed;
        let mut sim = ctx
            .tracer
            .span("build_sim", ctx.parent, None, |_| build_sim(&self.sc));
        ctx.tracer
            .span("Sim::restore", ctx.parent, None, |_| sim.restore(blob))
            .map_err(|e| format!("observed_run seed {seed}: restore failed: {e:?}"))?;
        ctx.tracer.span("Sim::run_until", ctx.parent, None, |_| {
            guarded("restored Sim::run_until", seed, || {
                sim.run_until(self.sc.duration)
            })
        })?;
        Ok(Self::digest_of(&sim))
    }
}

impl Workload for ObservedRun {
    fn run(&self, ctx: &RepCtx) -> Outcome {
        let mut out = Outcome::default();
        let seed = self.sc.seed;
        let t0 = Instant::now();
        let (digest, blob) = self.observed(ctx, &mut out);
        out.cell_s.push(t0.elapsed().as_secs_f64());
        out.digest = digest;

        let t0 = Instant::now();
        let restored = self.restored(ctx, &blob);
        out.cell_s.push(t0.elapsed().as_secs_f64());
        out.op(restored.and_then(|d| {
            ensure(d == digest, || {
                format!("observed_run seed {seed}: restored digest {d:016x} ≠ uninterrupted {digest:016x}")
            })
        }));

        if ctx.warmup {
            // Observers are pure: the bare run of the same simulated
            // seconds has the same digest.
            let bare = guarded("bare Sim::run_until", seed, || {
                let mut sim = build_sim(&self.sc);
                sim.run_until(self.sc.duration);
                Self::digest_of(&sim)
            });
            out.op(bare.and_then(|d| {
                ensure(d == digest, || {
                    format!("observed_run seed {seed}: observed digest {digest:016x} ≠ unobserved {d:016x}")
                })
            }));
        }
        out
    }
}
