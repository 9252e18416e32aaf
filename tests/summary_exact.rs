//! Summaries of a real run's columns, held bit for bit to the stable sort
//! they replaced: the delay, both labels' probabilities (slow start's
//! zeros included), the utilisation, and `percentile` one quantile at a
//! time.

use pi2::experiments::{isolation, AqmKind};
use pi2::stats::{mean, percentile, percentile_sorted, Summary};
use pi2_simcore::Duration;

/// `Summary::of` as it was before selection: one stable sort, four
/// lookups, mean and max folded in input order.
fn of_by_sort(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Summary {
        n: samples.len(),
        mean: mean(samples),
        p1: percentile_sorted(&sorted, 0.01),
        p25: percentile_sorted(&sorted, 0.25),
        p50: percentile_sorted(&sorted, 0.50),
        p99: percentile_sorted(&sorted, 0.99),
        max: samples
            .iter()
            .fold(f64::NEG_INFINITY, |max, &v| if v > max { v } else { max }),
    }
}

/// Every field's bit pattern, so `-0.0` and `0.0` differ.
fn bits(s: &Summary) -> (usize, [u64; 6]) {
    (
        s.n,
        [s.mean, s.p1, s.p25, s.p50, s.p99, s.max].map(f64::to_bits),
    )
}

#[test]
fn summaries_of_a_coupled_cell_are_what_the_sort_gave() {
    let (rate_bps, rtt) = (40_000_000, Duration::from_millis(10));
    // No warm-up: the probability columns start with slow start's zeros,
    // enough of them that DCTCP's P1 is one.
    let mut sc = isolation::scenario(AqmKind::coupled_default(), rate_bps, rtt, (1, 1), 4, 3);
    sc.warmup = Duration::ZERO;
    let r = sc.run();
    let m = &r.monitor;

    let delay: Vec<f64> = m.sojourn_ms.iter().map(|&x| f64::from(x)).collect();
    assert!(delay.len() > 10_000, "only {} sojourns", delay.len());
    assert_eq!(
        bits(&r.delay_summary()),
        bits(&of_by_sort(&delay)),
        "delay_summary"
    );
    let mut sorted = delay.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.0, 0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let (got, want) = (percentile(&delay, q), percentile_sorted(&sorted, q));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "percentile q={q}: {got} vs {want}"
        );
    }

    for label in ["cubic", "dctcp"] {
        let probs: Vec<f64> = m
            .labelled(label)
            .flat_map(|f| f.prob_samples.iter())
            .map(|&p| p as f64 * 100.0)
            .collect();
        assert!(
            probs.contains(&0.0),
            "{label}: no zero among {}",
            probs.len()
        );
        assert_eq!(
            bits(&r.prob_summary(label)),
            bits(&of_by_sort(&probs)),
            "{label}"
        );
    }
    assert_eq!(r.prob_summary("dctcp").p1, 0.0);

    let utils: Vec<f64> = m
        .util_samples()
        .iter()
        .map(|&u| (u as f64 * 100.0).min(100.0))
        .collect();
    assert!(!utils.is_empty());
    assert_eq!(
        bits(&r.util_summary()),
        bits(&of_by_sort(&utils)),
        "util_summary"
    );
}
