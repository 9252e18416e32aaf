//! The model-agreement grid as tests: one test per cell so a disagreement
//! names its cell in the test list, plus the harness's own failure path
//! (a deliberately tightened tolerance must fail) and the grid's run count.

use pi2_validate::{bands, grid, run_cell, run_grid, Cell};

/// The seed every packet reference here runs at.
const SEED: u64 = 7;

fn cell(name: &str) -> Cell {
    let found = grid(SEED).into_iter().find(|c| c.name == name);
    found.unwrap_or_else(|| panic!("no cell {name} in the grid"))
}

fn check(name: &str) {
    let report = run_cell(&cell(name), &bands());
    assert!(
        report.pass(),
        "model/packet disagreement:\n{}",
        report.table()
    );
}

#[test]
fn pi_reno_agrees_with_the_fluid_model() {
    check("pi-reno");
}

#[test]
fn pi_scalable_agrees_with_the_fluid_model() {
    check("pi-scal");
}

#[test]
fn pi2_reno_agrees_with_the_fluid_model() {
    check("pi2-reno");
}

#[test]
fn pi2_scalable_agrees_with_the_fluid_model() {
    check("pi2-scal");
}

#[test]
fn pie_reno_agrees_with_the_fluid_model() {
    check("pie-reno");
}

#[test]
fn pie_scalable_agrees_with_the_fluid_model() {
    check("pie-scal");
}

#[test]
fn dualq_scalable_agrees_with_the_fluid_model() {
    check("dualq-scal");
}

/// The acceptance criterion's negative control: the harness must be able
/// to fail. Tightening the band 1000× turns the ordinary stochastic
/// residual into a violation, and the report records which metric broke.
#[test]
fn deliberately_tightened_tolerance_fails() {
    let report = run_cell(&cell("pi2-reno"), &bands().scaled(0.001));
    assert!(
        !report.pass(),
        "a 1000x tightened tolerance should not pass:\n{}",
        report.table()
    );
    for pair in &report.pairs {
        assert!(
            pair.metrics.iter().any(|m| !m.pass),
            "{}: the failing metric must be identified",
            pair.model.name()
        );
    }
}

/// The whole grid through the one writer: 7 packet reference runs, 13
/// judged pairs, and every pair of a cell quotes the cell's one packet
/// reduction, bit for bit.
#[test]
fn grid_report_judges_every_pair_against_one_packet_run_per_cell() {
    let report = run_grid(&grid(SEED), &bands(), &mut std::io::sink()).expect("a sink takes every write");
    assert_eq!(report.cells.len(), 7, "packet reference runs");
    assert_eq!(report.pairs().count(), 13, "judged (cell, model) pairs");
    for cell in &report.cells {
        let p = cell.packet;
        let reference = [p.signal, p.qdelay_s, p.rate_ratio, p.utilization].map(f64::to_bits);
        for pair in &cell.pairs {
            for (m, want) in pair.metrics.iter().zip(reference) {
                assert_eq!(
                    m.packet.to_bits(),
                    want,
                    "{}/{}: {}",
                    cell.name,
                    pair.model.name(),
                    m.metric
                );
            }
        }
    }
}
