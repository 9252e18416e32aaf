//! `topo_mice`: multi-hop topologies under heavy-tailed short flows.
//!
//! {parking-lot-3, access-core-2} × {PI2, DualPI2} × seeds derived from
//! the base seed, 60 simulated seconds each (the family's fixed length),
//! Poisson × bounded-Pareto mice over four elephants. The hop ≥ 1 code
//! path, DualPI2 and flow churn (source set-up and teardown, pool
//! recycling, far timers, completion recording) do the work; windows stay
//! small, so the big-window scoreboard path that dominates `bulk_run` is
//! bypassed. One worker: the runner is not part of this number.

use super::{ensure, guarded, Outcome, RepCtx, Workload};
use crate::digest::Digest;
use pi2_experiments::topology::{run_one, run_one_prepared, TopologyKind, TopologyRun};
use pi2_experiments::AqmKind;
use pi2_netsim::{TraceEvent, TraceSink};
use pi2_simcore::Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Seeds per topology × AQM pair: 12 cells, about 10 M events.
const SEEDS: usize = 3;
/// The same under `--quick` (a cell's length is fixed by the family).
const QUICK_SEEDS: usize = 1;

pub struct TopoMice {
    cells: Vec<(TopologyKind, AqmKind, u64)>,
}

impl TopoMice {
    pub fn new(seed: u64, quick: bool) -> Self {
        let mut rng = Rng::new(seed);
        let seeds: Vec<u64> = (0..if quick { QUICK_SEEDS } else { SEEDS })
            .map(|_| rng.next_u64())
            .collect();
        let mut cells = Vec::new();
        for kind in [TopologyKind::ParkingLot3, TopologyKind::AccessCore2] {
            for aqm in [AqmKind::pi2_default(), AqmKind::dualq_default(20_000_000)] {
                cells.extend(seeds.iter().map(|&s| (kind, aqm.clone(), s)));
            }
        }
        TopoMice { cells }
    }
}

/// Counts queue events at every hop; the topology runner reports none.
#[derive(Default)]
struct HopCounter {
    offered: u64,
    drops: u64,
    dequeued: u64,
}

impl HopCounter {
    fn note(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Enqueue { .. } => self.offered += 1,
            TraceEvent::Drop { .. } => {
                self.offered += 1;
                self.drops += 1;
            }
            TraceEvent::Dequeue { .. } => self.dequeued += 1,
            TraceEvent::Mark { .. } => {}
        }
    }
}

impl TraceSink for HopCounter {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.note(ev);
    }
    fn on_hop_event(&mut self, _hop: u32, ev: &TraceEvent) {
        self.note(ev);
    }
}

fn check(i: usize, seed: u64, r: &TopologyRun) -> Result<(), String> {
    let at = || format!("cell {i} ({} {}, seed {seed})", r.topology, r.aqm);
    ensure(
        r.mice_completed as f64 >= 0.9 * r.mice_launched as f64,
        || {
            format!(
                "{}: only {} of {} mice completed",
                at(),
                r.mice_completed,
                r.mice_launched
            )
        },
    )?;
    ensure(r.hops.iter().all(|h| h.fairness.is_finite()), || {
        format!("{}: a hop's Jain index is not finite", at())
    })
}

fn digest_cell(d: &mut Digest, r: &TopologyRun) {
    d.u64(r.events_processed)
        .u64(r.mice_launched as u64)
        .u64(r.mice_completed as u64);
    d.f64(r.fct_ms.0).f64(r.fct_ms.1).f64(r.fct_ms.2);
    d.f64(r.classic_per_flow_mbps).f64(r.scalable_per_flow_mbps);
    for h in &r.hops {
        d.f64(h.fairness)
            .f64(h.classic_mbps)
            .f64(h.scalable_mbps)
            .f64(h.mice_mbps);
    }
}

impl Workload for TopoMice {
    fn run(&self, ctx: &RepCtx) -> Outcome {
        let mut out = Outcome::default();
        let mut d = Digest::new();
        for (i, (kind, aqm, seed)) in self.cells.iter().enumerate() {
            let t0 = Instant::now();
            let what = format!("topology::run_one {i} ({} {})", kind.name(), aqm.name());
            let cell = ctx
                .tracer
                .span("topology::run_one", ctx.parent, Some(i as u32), |_| {
                    guarded(&what, *seed, || run_one(*kind, aqm.clone(), *seed, false))
                });
            out.cell_s.push(t0.elapsed().as_secs_f64());
            match cell {
                Err(why) => out.op(Err(why)),
                Ok(r) => {
                    out.op(check(i, *seed, &r));
                    out.events += r.events_processed;
                    digest_cell(&mut d, &r);
                }
            }
        }
        out.digest = d.finish();
        if ctx.deep {
            // Once more with the invariant auditor on (a violation panics
            // and fails the cell) and a sink counting packets at every hop.
            // Both are pure observers: the digest must not move.
            let mut audited = Digest::new();
            for (i, (kind, aqm, seed)) in self.cells.iter().enumerate() {
                let counter = Rc::new(RefCell::new(HopCounter::default()));
                let what = format!("audited topology cell {i} ({} {})", kind.name(), aqm.name());
                let cell = guarded(&what, *seed, || {
                    run_one_prepared(*kind, aqm.clone(), *seed, true, |sim| {
                        sim.core.add_trace_sink(Box::new(Rc::clone(&counter)));
                    })
                });
                match cell {
                    Err(why) => out.op(Err(why)),
                    Ok(r) => {
                        out.op(Ok(()));
                        digest_cell(&mut audited, &r);
                    }
                }
                let c = counter.borrow();
                out.pkts += c.dequeued;
                out.offered += c.offered;
                out.drops += c.drops;
            }
            out.op(ensure(audited.finish() == out.digest, || {
                format!(
                    "topo_mice: audited digest {:016x} differs from the plain digest {:016x}",
                    audited.finish(),
                    out.digest
                )
            }));
        }
        out
    }
}
