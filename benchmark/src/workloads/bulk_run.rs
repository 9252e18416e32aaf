//! `bulk_run`: one large packet run, the single-run wall-time number.
//!
//! Coupled PI2 on 1 Gb/s with 20 ms base RTT and 10 Cubic + 10 DCTCP
//! flows: windows of hundreds of packets, so the TCP ACK and scoreboard
//! path, the qdisc, the wheel and the per-packet `Monitor` recording do
//! nearly all the work, and the monitor's sample vectors make it the
//! memory stress case. One thread, no sinks: an observer or runner change
//! must not move it.

use super::{digest_run, ensure, guarded, Outcome, RepCtx, Workload};
use crate::digest::Digest;
use pi2_experiments::{AqmKind, FlowGroup, RunResult, Scenario};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::time::Instant;

/// Simulated seconds of one repetition (about 6.5 M events).
const SIM_SECS: u64 = 20;
/// The same under `--quick`.
const QUICK_SIM_SECS: u64 = 2;

/// The scenario, also the base of `observed_run` and of the layer drivers
/// that need a realistic simulator.
pub fn bulk_scenario(seed: u64, sim_secs: u64) -> Scenario {
    let rtt = Duration::from_millis(20);
    let mut sc = Scenario::new(AqmKind::coupled_default(), 1_000_000_000);
    sc.tcp.push(FlowGroup::new(
        10,
        CcKind::Cubic,
        EcnSetting::NotEcn,
        "cubic",
        rtt,
    ));
    sc.tcp.push(FlowGroup::new(
        10,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        "dctcp",
        rtt,
    ));
    sc.duration = Time::from_secs(sim_secs);
    sc.warmup = Duration::from_millis(sim_secs as i64 * 1000 / 3);
    sc.seed = seed;
    sc
}

pub struct BulkRun {
    sc: Scenario,
}

impl BulkRun {
    pub fn new(seed: u64, quick: bool) -> Self {
        BulkRun {
            sc: bulk_scenario(seed, if quick { QUICK_SIM_SECS } else { SIM_SECS }),
        }
    }

    /// The output checks: the run must sit inside the validation bands
    /// around the 20 ms target and a per-flow ratio of 1, with the link
    /// full. (`--quick` runs end before slow start and the controller
    /// settle, so only a loose link check applies to them.)
    fn check(&self, r: &RunResult) -> Result<(), String> {
        let bands = pi2_validate::bands();
        let seed = self.sc.seed;
        let delay_s = r.delay_summary().mean / 1e3;
        let ratio = r.per_flow_tput_mbps("cubic") / r.per_flow_tput_mbps("dctcp");
        let util = r.util_summary().mean / 100.0;
        if self.sc.duration < Time::from_secs(SIM_SECS) {
            return ensure(util >= 0.5, || {
                format!("bulk_run seed {seed}: utilisation {util:.3} < 0.5")
            });
        }
        ensure(util >= 0.95, || {
            format!("bulk_run seed {seed}: utilisation {util:.3} < 0.95")
        })?;
        ensure(bands.qdelay.ok(delay_s, 0.020), || {
            format!(
                "bulk_run seed {seed}: mean queue delay {:.2} ms outside the band",
                delay_s * 1e3
            )
        })?;
        ensure(bands.rate_ratio.ok(ratio, 1.0), || {
            format!("bulk_run seed {seed}: Cubic/DCTCP per-flow ratio {ratio:.2} outside the band")
        })
    }
}

impl Workload for BulkRun {
    fn run(&self, ctx: &RepCtx) -> Outcome {
        let mut out = Outcome::default();
        let t0 = Instant::now();
        let run = ctx.tracer.span("Scenario::run", ctx.parent, None, |_| {
            guarded("bulk_run Scenario::run", self.sc.seed, || self.sc.run())
        });
        out.cell_s.push(t0.elapsed().as_secs_f64());
        match run {
            Err(why) => out.op(Err(why)),
            Ok(r) => {
                // `r` moves into the span so that freeing the monitor's
                // sample vectors is charged to the summary.
                let out = &mut out;
                ctx.tracer.span("summarise", ctx.parent, None, move |_| {
                    out.op(self.check(&r));
                    let events = r.metrics.as_deref().map_or(0, |m| m.events_processed());
                    out.count_run(events, &r.counters);
                    let mut d = Digest::new();
                    digest_run(&mut d, &r);
                    out.digest = d.finish();
                })
            }
        }
        out
    }
}
