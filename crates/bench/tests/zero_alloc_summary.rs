//! What a summary asks the allocator for: nothing beyond its column.
//!
//! `Summary::over` folds mean and max over the column it is handed and
//! selects its four order statistics inside that same buffer, so it makes
//! no allocator call of its own — no widened `Vec<f64>` copy, no second
//! copy to sort, no sort scratch. `RunResult::prob_summary` hands over the
//! column `Monitor::pooled_probs` pools, so it costs the allocator what
//! pooling costs and not a byte more.
//!
//! One test in its own integration-test binary, for the reason
//! `zero_alloc.rs` gives: the counters are process-global.

use pi2_bench::alloc_count::{self, CountingAlloc};
use pi2_experiments::{isolation, AqmKind};
use pi2_simcore::{Duration, Rng};
use pi2_stats::Summary;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_summary_allocates_nothing_beyond_the_column_it_is_handed() {
    // 100 000 samples with ties and no order: 4 096 distinct values.
    let mut rng = Rng::new(7);
    let col: Vec<f32> = (0..100_000).map(|_| rng.range_u64(0, 4096) as f32 / 4096.0).collect();
    let before = alloc_count::stats();
    let s = Summary::over(col, |p| p as f64 * 100.0);
    let delta = alloc_count::stats().since(&before);
    assert_eq!((s.n, s.max > s.p99, s.p99 > s.p50), (100_000, true, true), "{s:?}");
    assert_eq!(delta.allocs, 0, "Summary::over allocated: {delta:?}");
    assert_eq!(delta.deallocs, 1, "only the column itself is freed: {delta:?}");

    // The grid's coexistence cell, short: one Cubic and one DCTCP flow
    // behind the coupled PI2, a probability recorded per packet.
    let (rate_bps, rtt) = (40_000_000, Duration::from_millis(10));
    let r = isolation::scenario(AqmKind::coupled_default(), rate_bps, rtt, (1, 1), 6, 1).run();
    for label in ["cubic", "dctcp"] {
        let before = alloc_count::stats();
        let pooled = r.monitor.pooled_probs(label);
        let pooling = alloc_count::stats().since(&before);
        assert!(pooled.len() > 1000, "{label}: only {} samples", pooled.len());
        drop(pooled);
        let before = alloc_count::stats();
        let s = r.prob_summary(label);
        let summarising = alloc_count::stats().since(&before);
        assert!(s.n > 1000);
        assert!(
            summarising.bytes <= pooling.bytes && summarising.allocs <= pooling.allocs,
            "{label}: prob_summary asked for {summarising:?}, pooled_probs alone for {pooling:?}"
        );
    }
}
