//! Steady-state zero-allocation contract, with every text sink attached.
//!
//! `zero_alloc.rs` holds the engine to zero allocator calls per event.
//! This test holds the observers to the same: a `JsonlSink`, a `CsvSink`
//! and a `PerfettoSink` each build their record in one buffer they reuse
//! and hand it to the writer in one `write_all`, so once that buffer has
//! reached its working size a traced run allocates exactly as much as a
//! bare one — nothing. A `format!` or `to_string()` on any per-event path
//! of a sink turns the zero below into millions.
//!
//! Its own integration-test binary for the reason `zero_alloc.rs` gives:
//! the counters are process-global.

mod common;

use pi2_bench::alloc_count::{self, CountingAlloc};
use pi2_netsim::{CsvSink, JsonlSink, PerfettoSink};
use pi2_simcore::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_loop_with_sinks_is_allocation_free() {
    // As in `zero_alloc.rs`: the debug-build flight recorder allocates.
    std::env::set_var("PI2_AUDIT", "0");
    let mut sim = common::build(common::pi2(), Duration::from_millis(20));
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(std::io::sink())));
    let csv = Rc::new(RefCell::new(CsvSink::new(std::io::sink())));
    let perfetto = Rc::new(RefCell::new(PerfettoSink::new(std::io::sink())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&csv)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&perfetto)));
    // The warm-up `zero_alloc.rs` explains: pre-sized series, then past
    // one overflow-wheel rotation.
    sim.core.monitor.reserve(8192, 2_000_000);
    sim.run_until(Time::from_secs(36));

    let written = || {
        (
            jsonl.borrow().lines(),
            csv.borrow().lines(),
            perfetto.borrow().records(),
        )
    };
    let (jsonl0, csv0, perfetto0) = written();
    let before = alloc_count::stats();
    sim.run_until(Time::from_secs(76));
    let delta = alloc_count::stats().since(&before);
    let (jsonl1, csv1, perfetto1) = written();

    let lines = jsonl1 - jsonl0;
    assert!(lines > 100_000, "steady-state region too small: {lines} JSONL lines");
    assert_eq!(csv1 - csv0, lines, "both line sinks see the same stream");
    assert!(perfetto1 - perfetto0 > lines / 2, "the timeline advanced too");
    assert_eq!(
        delta.allocs, 0,
        "traced steady-state loop allocated: {delta:?} over {lines} trace lines"
    );
    assert_eq!(
        delta.deallocs, 0,
        "traced steady-state loop freed memory: {delta:?} over {lines} trace lines"
    );
}
