//! Steady-state zero-allocation contract.
//!
//! After warm-up, the simulator's event loop must never touch the heap:
//! the timing wheel reuses its slab's nodes, packets and ACKs recycle
//! through slab pools, and `Monitor::reserve` pre-sizes every series.
//! This test brackets a steady-state region with allocation-counter
//! snapshots and asserts the delta is exactly zero — not "small": any
//! nonzero count means some per-event path still allocates.
//!
//! Kept in its own integration-test binary so no concurrently running
//! test can contribute to the process-global counters.

mod common;

use pi2_bench::alloc_count::{self, CountingAlloc};
use pi2_simcore::{Duration, Time};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_loop_is_allocation_free() {
    // Debug builds enable the audit flight recorder by default; it is a
    // pure observer but its ring buffer allocates. The contract under
    // test is the engine's, so pin auditing off for this process.
    std::env::set_var("PI2_AUDIT", "0");
    // Both paths in this one test, one after the other: the counters are
    // process-global, so a second test in this binary would run
    // alongside and count into this one's window. At 20 ms the packet
    // events stay in the near wheel; at 200 ms every one-way delivery and
    // ACK (100 ms out) lands in the overflow wheel and cascades from it.
    for rtt_ms in [20, 200] {
        let mut sim = common::build(common::pi2(), Duration::from_millis(rtt_ms));
        // Pre-size for far more samples/packets than the run produces
        // (over-reservation only costs address space) and warm up past
        // one full overflow-wheel rotation (~34.4 s), by which time the
        // wheel's slab has held its most entries at once. 8192 periodic
        // ticks covers the densest series (AQM control records every 32 ms
        // Tupdate → ~2400 over the 76 s run).
        sim.core.monitor.reserve(8192, 2_000_000);
        sim.run_until(Time::from_secs(36));

        let ev0 = sim.core.events.popped();
        let before = alloc_count::stats();
        sim.run_until(Time::from_secs(76));
        let delta = alloc_count::stats().since(&before);
        let events = sim.core.events.popped() - ev0;

        assert!(events > 100_000, "{rtt_ms} ms: steady-state region too small: {events}");
        assert_eq!(
            delta.allocs, 0,
            "{rtt_ms} ms: steady-state loop allocated: {delta:?} over {events} events"
        );
        assert_eq!(
            delta.deallocs, 0,
            "{rtt_ms} ms: steady-state loop freed memory: {delta:?} over {events} events"
        );
    }
}
