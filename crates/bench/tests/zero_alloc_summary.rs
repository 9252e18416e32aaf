//! What a summary asks the allocator for: nothing.
//!
//! `Summary::over` reads the columns it is handed where they lie: it folds
//! mean and max over them and selects its four order statistics by radix,
//! in histograms on the stack, so it makes no allocator call — no copy of
//! a column, no widened `Vec<f64>`, no sort scratch. `RunResult`'s
//! `delay_summary` reads the runs of the monitor's sojourn column that
//! way, `prob_summary` the runs of each labelled flow's probability column
//! and `util_summary` the monitor's sample rows (`Summary::of_runs`), so
//! none of them makes one either.
//!
//! One test in its own integration-test binary, for the reason
//! `zero_alloc.rs` gives: the counters are process-global.

use pi2_bench::alloc_count::{self, AllocStats, CountingAlloc};
use pi2_experiments::{isolation, AqmKind};
use pi2_simcore::{Duration, Rng};
use pi2_stats::Summary;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NO_CALL: AllocStats = AllocStats {
    allocs: 0,
    deallocs: 0,
    bytes: 0,
};

/// `f()` and what the allocator was asked for while it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = alloc_count::stats();
    let out = f();
    (out, alloc_count::stats().since(&before))
}

#[test]
fn a_summary_makes_no_allocator_call() {
    // 100 000 samples with ties and no order: 4 096 distinct values, read
    // as three slices.
    let mut rng = Rng::new(7);
    let col: Vec<f32> = (0..100_000)
        .map(|_| rng.range_u64(0, 4096) as f32 / 4096.0)
        .collect();
    let (s, calls) = counted(|| {
        Summary::over([&col[..1], &col[1..60_000], &col[60_000..]], |p| {
            p as f64 * 100.0
        })
    });
    assert_eq!(
        (s.n, s.max > s.p99, s.p99 > s.p50),
        (100_000, true, true),
        "{s:?}"
    );
    assert_eq!(calls, NO_CALL, "Summary::over");

    // The grid's coexistence cell, short: one Cubic and one DCTCP flow
    // behind the coupled PI2, a sojourn and a probability per packet.
    let (rate_bps, rtt) = (40_000_000, Duration::from_millis(10));
    let r = isolation::scenario(AqmKind::coupled_default(), rate_bps, rtt, (1, 1), 6, 1).run();
    let (s, calls) = counted(|| r.delay_summary());
    let runs = r.monitor.sojourn_ms.runs().count();
    assert!(s.n > 1000 && runs < s.n, "{} sojourns in {runs} runs", s.n);
    assert_eq!(calls, NO_CALL, "delay_summary");
    let (of_f32, calls) = counted(|| Summary::of_f32(&r.monitor.sojourn_ms));
    assert_eq!((of_f32, calls), (s, NO_CALL), "Summary::of_f32 of the run column");
    for label in ["cubic", "dctcp"] {
        let (s, calls) = counted(|| r.prob_summary(label));
        assert!(s.n > 1000, "{label}: only {} probabilities", s.n);
        assert_eq!(calls, NO_CALL, "{label}: prob_summary");
    }
    let (s, calls) = counted(|| r.util_summary());
    assert!(s.n >= 4, "only {} utilisation samples", s.n);
    assert_eq!(calls, NO_CALL, "util_summary");
}
