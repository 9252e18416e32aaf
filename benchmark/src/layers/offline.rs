//! Drivers for what runs around and instead of the packet engine: set-up
//! costs, the sweep runner, and the fluid models.

use super::{Group, MS, NS, US};
use crate::workloads::{build_sim, bulk_scenario};
use pi2_experiments::grid::{run_cell, Pair};
use pi2_experiments::runner::par_map_threads;
use pi2_experiments::{mice_arrivals, AqmKind, BgGroup, FluidBackground, MiceWorkload};
use pi2_fluid::{
    margins, max_min_allocation, FlowClass, FlowLevelConfig, FlowLevelSim, FluidConfig,
    FluidControllerKind, FluidSim, FluidTcpKind, LoopTf, PiGains,
};
use pi2_netsim::BackgroundAggregate;
use pi2_simcore::{Duration, Rng, Time};
use pi2_transport::CcKind;
use std::hint::black_box;

pub fn set_up(g: &mut Group, seed: u64) {
    // Building a simulator: qdisc, monitor reservation and one TCP source
    // per flow, as every cell of every sweep does before its first event.
    let flows = 1_000u64;
    let mut sc = bulk_scenario(seed, 1);
    sc.tcp[0].count = flows as usize / 2;
    sc.tcp[1].count = flows as usize / 2;
    g.per_op("netsim.sim.setup_us_per_flow", US, flows, || {
        black_box(build_sim(&sc));
    });
    // A whole grid cell that simulates nothing: scenario assembly, the
    // t = 0 events, the monitor clone and the empty summaries.
    g.per_op("experiments.scenario.setup_ms_per_cell", MS, 1, || {
        black_box(run_cell(
            AqmKind::coupled_default(),
            Pair::CubicVsDctcp,
            40,
            10,
            0,
            seed,
        ));
    });
    let w = MiceWorkload::web(Time::ZERO, Time::from_secs(2_000), seed);
    let mice = mice_arrivals(&w).len() as u64;
    g.per_op(
        "experiments.workload.mice_gen_ns_per_flow",
        NS,
        mice,
        || {
            black_box(mice_arrivals(&w));
        },
    );
}

pub fn runner(g: &mut Group) {
    let items: Vec<u32> = (0..10_000).collect();
    let workers = crate::host::cpus().min(4);
    g.per_op(
        "experiments.runner.dispatch_us_per_item",
        US,
        items.len() as u64,
        || {
            black_box(par_map_threads(workers, &items, |&i| i));
        },
    );
}

/// 1 000 classes of 1 000 flows, RTTs spread over 5–200 ms, alternating
/// window laws: the shape of `fluid_scale`.
fn classes() -> Vec<(FluidTcpKind, f64)> {
    (0..1_000)
        .map(|i| {
            let kind = if i % 2 == 0 {
                FluidTcpKind::Reno
            } else {
                FluidTcpKind::Scalable
            };
            (kind, 0.005 + 0.195 * f64::from(i) / 1_000.0)
        })
        .collect()
}

pub fn fluid(g: &mut Group) {
    let classes = classes();
    let n = classes.len() as u64;
    let capacity_pps = 100_000.0 * 1e6 / 8.0 / 1500.0;
    let cfg = FlowLevelConfig {
        capacity_pps,
        classes: classes
            .iter()
            .map(|&(kind, rtt)| FlowClass::new(1_000.0, kind, rtt))
            .collect(),
        encoder: FluidControllerKind::Squared,
        gains: PiGains::pi2(),
        target: 0.020,
        coupling: 2.0,
        dt: 0.001,
    };
    let steps = if g.quick { 50 } else { 400 };
    let mut sim = FlowLevelSim::new(cfg);
    g.per_op("fluid.flow.step_ns_per_class", NS, steps * n, || {
        for _ in 0..steps {
            black_box(sim.step());
        }
    });
    // Six calls of `steps` steps each: the untimed one and five samples.
    g.exact(
        "fluid.flow.reallocs_per_step",
        sim.alloc_events() as f64 / (6 * steps) as f64,
    );

    let mut rng = Rng::new(5);
    let demands: Vec<f64> = (0..10_000).map(|_| rng.range_f64(1.0, 1_000.0)).collect();
    let capacity = demands.iter().sum::<f64>() / 2.0;
    g.per_op(
        "fluid.flow.maxmin_ns_per_demand",
        NS,
        demands.len() as u64,
        || {
            black_box(max_min_allocation(capacity, &demands));
        },
    );

    let ode_steps = 50_000u64;
    let mut ode = FluidSim::new(FluidConfig::default());
    g.per_op("fluid.ode.step_ns", NS, ode_steps, || {
        for _ in 0..ode_steps {
            black_box(ode.step());
        }
    });
    g.per_op("fluid.bode.margins_us", US, 1, || {
        black_box(margins(&LoopTf::pi2(0.05, 0.1)));
    });

    // One coupling tick of the hybrid background: 32 ms of window dynamics
    // for every class, driven by fixed AQM signals.
    let groups: Vec<BgGroup> = classes
        .iter()
        .map(|&(kind, rtt)| {
            let cc = if kind == FluidTcpKind::Reno {
                CcKind::Reno
            } else {
                CcKind::Dctcp
            };
            BgGroup::new(1_000, cc, Duration::from_secs_f64(rtt), "bg")
        })
        .collect();
    let mut bg = FluidBackground::new(&groups, &AqmKind::coupled_default(), 100_000_000_000)
        .expect("coupled PI2 has a fluid model");
    let ticks = 100u64;
    g.per_op("netsim.background.tick_us", US, ticks, || {
        for _ in 0..ticks {
            black_box(bg.on_tick(
                Duration::from_millis(32),
                0.01,
                0.2,
                Duration::from_millis(20),
            ));
        }
    });
}
