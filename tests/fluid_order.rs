//! The flow-level engine repairs the water-filling order it keeps from
//! the last step instead of sorting from scratch. That is cheap because
//! the order hardly moves; this test holds the other end: an order that
//! moves as much as it can must cost a sort, not a quadratic repair. The
//! cheap end is held as an exact count on a realistic population.

use pi2::experiments::{run_fluid, AqmKind, FlowGroup, Scenario};
use pi2::fluid::{max_min_weighted, FlowClass, FlowLevelConfig, FlowLevelSim, FluidTcpKind};
use pi2::simcore::{Ckpt, CkptReader, CkptWriter, Duration as SimDuration, Rng, Time};
use pi2::transport::{CcKind, EcnSetting};
use std::time::{Duration, Instant};

/// 1 000 classes of 1 000 flows at 100 kb/s per flow under coupled PI2,
/// base RTTs drawn over 5–200 ms, Reno and DCTCP alternating, 20 s: the
/// allocator has a real order to keep.
fn many_class_scenario() -> Scenario {
    const CLASSES: usize = 1_000;
    let mut sc = Scenario::new(AqmKind::coupled_default(), 100_000 * 1_000 * CLASSES as u64);
    sc.duration = Time::from_secs(20);
    sc.warmup = SimDuration::from_secs(5);
    sc.seed = 7;
    let mut rng = Rng::new(sc.seed);
    sc.tcp = (0..CLASSES)
        .map(|i| {
            let rtt = SimDuration::from_micros(rng.range_u64(5_000, 200_000) as i64);
            let (cc, ecn) = if i % 2 == 0 {
                (CcKind::Reno, EcnSetting::NotEcn)
            } else {
                (CcKind::Dctcp, EcnSetting::Scalable)
            };
            FlowGroup::new(1_000, cc, ecn, "class", rtt)
        })
        .collect();
    sc
}

/// Windows drift smoothly, so neighbours in demand order rarely swap
/// within one step and the repair finds almost nothing to move: 105 674
/// entries over 20 000 steps of 1 000 classes, where a sort per step
/// would touch millions. The count is deterministic; a change means the
/// dynamics or the repair changed, and belongs in CHANGES.md (it last
/// moved, from 148 200, when the Reno classes' signal took the output
/// law's 25 % Classic cap).
#[test]
fn a_drifting_order_moves_exactly_this_many_entries() {
    let r = run_fluid(&many_class_scenario()).expect("coupled PI2 maps onto the fluid engine");
    assert_eq!(r.flow_count, 1_000_000);
    assert_eq!(r.order_moves, 105_674);
}

/// 10 000 classes on one RTT, so a class's demand is its window over a
/// common divisor, and the windows are restored (from a checkpoint blob
/// taken at the start, its window row overwritten) to an ascending ramp
/// and a descending one in turn: every step but the first finds the kept
/// order exactly reversed (n·(n−1)/2 = 50 M inversions).
#[test]
fn an_order_that_reverses_every_step_costs_a_sort_per_step() {
    const N: usize = 10_000;
    const STEPS: u64 = 100;
    let cfg = FlowLevelConfig {
        capacity_pps: 1.0e6,
        classes: vec![FlowClass::new(1.0, FluidTcpKind::Reno, 0.05); N],
        ..FlowLevelConfig::default()
    };
    let mut sim = FlowLevelSim::new(cfg);
    let up: Vec<f64> = (0..N).map(|i| 1.0 + i as f64).collect();
    let down: Vec<f64> = up.iter().rev().copied().collect();
    // The engine's blob at t = 0 with the windows written over: five
    // scalars, the window row's length, then the row.
    let mut w = CkptWriter::new();
    sim.save_ckpt(&mut w);
    let start = w.into_bytes();
    let row = 6 * 8..6 * 8 + 8 * N;
    let with_windows = |windows: &[f64]| {
        let mut blob = start.clone();
        let bytes: Vec<u8> = windows.iter().flat_map(|w| w.to_le_bytes()).collect();
        blob[row.clone()].copy_from_slice(&bytes);
        blob
    };
    let (up, down) = (with_windows(&up), with_windows(&down));

    // The repair gives up on insertion after n·⌈log₂ n⌉ shifts (10 000 is
    // a 14-bit number) plus at most the one insertion that crossed the
    // line, and finishes with a full sort. The first step finds the
    // identity order already sorted.
    let budget = (N * 14) as u64;
    let wall = Instant::now();
    for step in 0..STEPS {
        let blob = if step % 2 == 0 { &up } else { &down };
        sim.restore_ckpt(&mut CkptReader::new(blob)).expect("a blob of windows restores");
        let before = sim.order_moves();
        sim.step();
        let moved = sim.order_moves() - before;
        if step == 0 {
            assert_eq!(moved, 0);
        } else {
            assert!(
                moved > budget && moved <= budget + N as u64,
                "step {step} shifted {moved} entries; a reversal should cost \
                 {budget}..={} and then a sort",
                budget + N as u64
            );
        }
        if step % 10 == 9 {
            let scratch = max_min_weighted(1.0e6, sim.last_demands());
            assert!(
                sim.last_shares()
                    .iter()
                    .zip(&scratch)
                    .all(|(kept, fresh)| kept.to_bits() == fresh.to_bits()),
                "step {step}: the repaired order and a fresh sort fill differently"
            );
        }
    }
    let wall = wall.elapsed();

    // ~0.7 s in a debug build, ~0.05 s in release; a repair without the
    // full-sort exit shifts 50 M entries per step.
    assert!(
        wall < Duration::from_secs(20),
        "100 reversing steps of 10 000 classes took {wall:?}"
    );
}
