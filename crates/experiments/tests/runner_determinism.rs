//! Regression: the parallel scenario executor must be a pure
//! performance optimization — its output bit-identical to a serial run
//! for any thread count, including the `PI2_THREADS` env route.
//!
//! Runs a small Figures 15–18 sub-grid (short durations; the full grid
//! is 100 × 100-second simulations) and compares the complete `Debug`
//! rendering of the results, which covers every monitor sample, not
//! just headline summaries.

use pi2_experiments::grid::{run_cell, Pair, GRID_SEED};
use pi2_experiments::runner::{par_map, par_map_threads};
use pi2_experiments::scenario::{AqmKind, FlowGroup, Scenario};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};

/// A 2×2 sub-grid of the paper's link × RTT axes, both AQMs.
fn sub_grid_cells() -> Vec<(AqmKind, u64, i64, u64)> {
    let mut cells = Vec::new();
    for aqm in [AqmKind::pie_default(), AqmKind::coupled_default()] {
        for link in [4u64, 40] {
            for rtt in [10i64, 50] {
                cells.push((aqm.clone(), link, rtt, GRID_SEED + link + rtt as u64));
            }
        }
    }
    cells
}

fn small_scenarios() -> Vec<Scenario> {
    sub_grid_cells()
        .into_iter()
        .map(|(aqm, link, rtt, seed)| {
            let rtt = Duration::from_millis(rtt);
            let mut sc = Scenario::new(aqm, link * 1_000_000);
            sc.tcp.push(FlowGroup::new(
                1,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                "cubic",
                rtt,
            ));
            sc.tcp.push(FlowGroup::new(
                1,
                CcKind::Dctcp,
                EcnSetting::Scalable,
                "dctcp",
                rtt,
            ));
            sc.duration = Time::from_secs(5);
            sc.warmup = Duration::from_secs(1);
            sc.seed = seed;
            sc
        })
        .collect()
}

#[test]
fn sub_grid_is_bit_identical_across_thread_counts() {
    let cells = sub_grid_cells();
    let serial: Vec<String> = cells
        .iter()
        .map(|(aqm, link, rtt, seed)| {
            format!(
                "{:?}",
                run_cell(aqm.clone(), Pair::CubicVsDctcp, *link, *rtt, 5, *seed)
            )
        })
        .collect();
    for threads in [1usize, 4] {
        let parallel: Vec<String> = par_map_threads(threads, &cells, |(aqm, link, rtt, seed)| {
            format!(
                "{:?}",
                run_cell(aqm.clone(), Pair::CubicVsDctcp, *link, *rtt, 5, *seed)
            )
        });
        assert_eq!(
            parallel, serial,
            "grid output diverged from serial at {threads} threads"
        );
    }
}

#[test]
fn scenario_batches_match_serial_and_env_thread_knob() {
    let scenarios = small_scenarios();
    let serial: Vec<String> = scenarios.iter().map(|s| format!("{:?}", s.run())).collect();

    // Explicit thread counts, bypassing the environment.
    for threads in [1usize, 4] {
        let out: Vec<String> = par_map_threads(threads, &scenarios, Scenario::run)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(out, serial, "par_map_threads diverged at {threads} threads");
    }

    // The PI2_THREADS env route (both settings inside one test body so
    // no parallel test races on the variable).
    let saved = std::env::var("PI2_THREADS").ok();
    for threads in ["1", "4"] {
        std::env::set_var("PI2_THREADS", threads);
        let out: Vec<String> = par_map(&scenarios, Scenario::run)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(out, serial, "par_map diverged at PI2_THREADS={threads}");
    }
    match saved {
        Some(v) => std::env::set_var("PI2_THREADS", v),
        None => std::env::remove_var("PI2_THREADS"),
    }
}

#[test]
fn same_seed_twice_is_bit_identical() {
    let sc = &small_scenarios()[1];
    let a = format!("{:?}", sc.run());
    let b = format!("{:?}", sc.run());
    assert_eq!(a, b, "identical seed must reproduce identical results");
}
