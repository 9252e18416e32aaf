//! `fluid_scale`: a million flows on the flow-level engine.
//!
//! `run_fluid` over 1 M flows in 1 000 classes (base RTT drawn from 5–200
//! ms, Reno and DCTCP alternating), then one hybrid cell: the paper's ten
//! 6 Mb/s UDP probes simulated packet by packet over the same 1 M-flow
//! fluid background. The `fluid` crate and `netsim::background` do the
//! work and the packet engine almost none: this is the workload on which
//! every packet-engine optimisation must predict *no change*.
//!
//! The probes are unresponsive on purpose. Hybrid mode keeps 5 % of the
//! link for the foreground, which on this 100 Gb/s link is 5 Gb/s; TCP
//! flows would fill it and turn the cell into a packet workload.

use super::{digest_run, ensure, guarded, Outcome, RepCtx, Workload};
use crate::digest::Digest;
use pi2_experiments::{
    run_fluid, summarize_scenario_run, AqmKind, Backend, BgGroup, FlowGroup, FluidRunResult,
    RunResult, Scenario, UdpGroup,
};
use pi2_simcore::{Duration, Rng, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::time::Instant;

const CLASSES: usize = 1_000;
const FLOWS_PER_CLASS: usize = 1_000;
/// 100 kb/s per flow, the operating point of the repo's backend bench.
const RATE_BPS: u64 = 100_000 * (CLASSES * FLOWS_PER_CLASS) as u64;
/// Simulated seconds of the fluid run (1 000 steps per second).
const FLUID_SECS: u64 = 10;
/// Simulated seconds of the hybrid cell (one coupling tick per 32 ms).
const HYBRID_SECS: u64 = 60;
/// Both under `--quick`.
const QUICK_SECS: u64 = 2;

pub struct FluidScale {
    fluid: Scenario,
    hybrid: Scenario,
}

impl FluidScale {
    pub fn new(seed: u64, quick: bool) -> Self {
        let mut rng = Rng::new(seed);
        let classes: Vec<(CcKind, EcnSetting, Duration)> = (0..CLASSES)
            .map(|i| {
                let rtt = Duration::from_micros(rng.range_u64(5_000, 200_000) as i64);
                if i % 2 == 0 {
                    (CcKind::Reno, EcnSetting::NotEcn, rtt)
                } else {
                    (CcKind::Dctcp, EcnSetting::Scalable, rtt)
                }
            })
            .collect();
        let secs = |full| if quick { QUICK_SECS } else { full };

        let mut fluid = Scenario::new(AqmKind::coupled_default(), RATE_BPS);
        fluid.backend = Backend::Fluid;
        fluid.tcp = classes
            .iter()
            .map(|&(cc, ecn, rtt)| FlowGroup::new(FLOWS_PER_CLASS, cc, ecn, "class", rtt))
            .collect();
        fluid.duration = Time::from_secs(secs(FLUID_SECS));
        fluid.warmup = Duration::from_millis(secs(FLUID_SECS) as i64 * 1000 / 2);
        fluid.seed = seed;

        let mut hybrid = Scenario::new(AqmKind::coupled_default(), RATE_BPS);
        hybrid.backend = Backend::Hybrid;
        hybrid
            .udp
            .push(UdpGroup::paper_probes(10, Duration::from_millis(50)));
        hybrid.background = classes
            .iter()
            .map(|&(cc, _, rtt)| BgGroup::new(FLOWS_PER_CLASS, cc, rtt, "bg"))
            .collect();
        hybrid.duration = Time::from_secs(secs(HYBRID_SECS));
        hybrid.warmup = Duration::from_millis(secs(HYBRID_SECS) as i64 * 1000 / 3);
        hybrid.seed = seed;
        FluidScale { fluid, hybrid }
    }

    fn check_fluid(&self, r: &FluidRunResult) -> Result<(), String> {
        let seed = self.fluid.seed;
        ensure(r.flow_count == (CLASSES * FLOWS_PER_CLASS) as u64, || {
            format!("fluid seed {seed}: {} flows simulated", r.flow_count)
        })?;
        ensure(r.summary.utilization >= 0.95, || {
            format!(
                "fluid seed {seed}: utilisation {:.3} < 0.95",
                r.summary.utilization
            )
        })?;
        ensure(r.summary.qdelay_s.is_finite(), || {
            format!("fluid seed {seed}: queue delay not finite")
        })
    }

    fn check_hybrid(&self, r: &RunResult) -> Result<(), String> {
        let seed = self.hybrid.seed;
        let bg = r
            .background
            .as_ref()
            .ok_or(format!("hybrid seed {seed}: no background attached"))?;
        ensure(bg.ticks == r.counters.aqm_updates, || {
            format!(
                "hybrid seed {seed}: {} background ticks for {} controller updates",
                bg.ticks, r.counters.aqm_updates
            )
        })?;
        let util = summarize_scenario_run(&self.hybrid, r).utilization;
        ensure(util.is_finite() && util <= 1.05, || {
            format!("hybrid seed {seed}: shared-link utilisation {util:.3} > 1.05")
        })
    }
}

impl Workload for FluidScale {
    fn run(&self, ctx: &RepCtx) -> Outcome {
        let mut out = Outcome::default();
        let mut d = Digest::new();

        let t0 = Instant::now();
        let fluid = ctx
            .tracer
            .span("backend::run_fluid", ctx.parent, Some(0), |_| {
                guarded("run_fluid", self.fluid.seed, || run_fluid(&self.fluid))
            });
        out.cell_s.push(t0.elapsed().as_secs_f64());
        match fluid {
            Err(why) => out.op(Err(why)),
            Ok(Err(why)) => out.op(Err(format!("run_fluid seed {}: {why}", self.fluid.seed))),
            Ok(Ok(r)) => {
                out.op(self.check_fluid(&r));
                d.u64(r.alloc_events).u64(r.samples.len() as u64);
                d.f64(r.summary.utilization)
                    .f64(r.summary.qdelay_s)
                    .f64(r.summary.signal);
                for rate in &r.class_rates_pps {
                    d.f64(*rate);
                }
            }
        }

        let t0 = Instant::now();
        let hybrid = ctx.tracer.span("Scenario::run", ctx.parent, Some(1), |_| {
            guarded("hybrid Scenario::run", self.hybrid.seed, || {
                self.hybrid.run()
            })
        });
        out.cell_s.push(t0.elapsed().as_secs_f64());
        match hybrid {
            Err(why) => out.op(Err(why)),
            Ok(r) => ctx.tracer.span("summarise", ctx.parent, Some(1), |_| {
                out.op(self.check_hybrid(&r));
                out.count_run(
                    r.metrics.as_deref().map_or(0, |m| m.events_processed()),
                    &r.counters,
                );
                digest_run(&mut d, &r);
                if let Some(bg) = &r.background {
                    d.u64(bg.ticks).f64(bg.bg_bytes);
                }
            }),
        }
        out.digest = d.finish();
        out
    }
}
