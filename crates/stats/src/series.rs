//! Time-series analysis for step-response figures.
//!
//! Figures 6, 11, 12 and 13 are all read the same way: how high does the
//! queue spike after a disturbance, how fast does it settle back into a
//! band around the target, and how long does it spend above a badness
//! threshold. These helpers compute those quantities from `(t, v)`
//! series.

/// The peak value in `[from, to)`, and when it occurred.
pub fn peak_in(series: &[(f64, f64)], from: f64, to: f64) -> Option<(f64, f64)> {
    series
        .iter()
        .filter(|(t, _)| (from..to).contains(t))
        .fold(None, |best, &(t, v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((t, v)),
        })
}

/// Settling time after a disturbance at `from`: the delay until the
/// series enters `target ± band` and stays there for at least `hold`
/// seconds. Returns `None` if it never settles (including an empty
/// series, or one with no samples at or after `from`).
///
/// Edge semantics, pinned by tests:
/// * a value exactly on the band edge (`|v − target| == band`) is
///   *inside* — the band is closed;
/// * `from` may be `0.0` (disturbance at the origin) or any sample
///   time; samples strictly before `from` are ignored;
/// * if the data ends while still inside the band, the run is accepted
///   only when it actually spanned `hold` seconds (`last_t - start >=
///   hold`) — a series truncated mid-settle has not demonstrated the
///   hold and yields `None`.
pub fn settle_time(
    series: &[(f64, f64)],
    from: f64,
    target: f64,
    band: f64,
    hold: f64,
) -> Option<f64> {
    let mut candidate: Option<f64> = None;
    let mut last_t = from;
    for &(t, v) in series.iter().filter(|(t, _)| *t >= from) {
        last_t = t;
        if (v - target).abs() <= band {
            let start = *candidate.get_or_insert(t);
            if t - start >= hold {
                return Some(start - from);
            }
        } else {
            candidate = None;
        }
    }
    // Ran out of data while inside the band: accept only if the in-band
    // run genuinely spanned the hold — a truncated series must not pass
    // off a partial hold as settled.
    candidate
        .filter(|&start| last_t - start >= hold)
        .map(|s| s - from)
}

/// Total time the series spends above `threshold` in `[from, to)`,
/// approximated by sample spacing (each sample accounts for the interval
/// to its successor).
pub fn time_above(series: &[(f64, f64)], from: f64, to: f64, threshold: f64) -> f64 {
    let pts: Vec<&(f64, f64)> = series
        .iter()
        .filter(|(t, _)| (from..to).contains(t))
        .collect();
    let mut total = 0.0;
    for w in pts.windows(2) {
        if w[0].1 > threshold {
            total += w[1].0 - w[0].0;
        }
    }
    total
}

/// Count distinct excursions above `threshold` in `[from, to)` (an
/// excursion is a maximal run of consecutive samples above it).
pub fn excursions_above(series: &[(f64, f64)], from: f64, to: f64, threshold: f64) -> usize {
    let mut count = 0;
    let mut above = false;
    for &(t, v) in series {
        if !(from..to).contains(&t) {
            continue;
        }
        if v > threshold && !above {
            count += 1;
            above = true;
        } else if v <= threshold {
            above = false;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<(f64, f64)> {
        // Step at t=10: spike to 100, decay back to ~20 by t=15.
        let mut s = Vec::new();
        for i in 0..100 {
            let t = i as f64 * 0.5;
            let v = if t < 10.0 {
                20.0
            } else if t < 11.0 {
                100.0
            } else if t < 15.0 {
                20.0 + 80.0 * (15.0 - t) / 4.0
            } else {
                20.0
            };
            s.push((t, v));
        }
        s
    }

    #[test]
    fn peak_is_found_in_window() {
        let s = series();
        let (t, v) = peak_in(&s, 9.0, 20.0).unwrap();
        assert_eq!(v, 100.0);
        assert!((10.0..11.0).contains(&t));
        assert!(peak_in(&s, 40.0, 50.0).unwrap().1 <= 20.0);
        assert!(peak_in(&s, 60.0, 70.0).is_none());
    }

    #[test]
    fn settle_time_measures_return_to_band() {
        let s = series();
        // After the step at t=10, settle into 20±5 holding 5 s.
        let st = settle_time(&s, 10.0, 20.0, 5.0, 5.0).unwrap();
        // The decay reaches 25 at t = 14.75; settle ≈ 4.5-5 s after t=10.
        assert!((4.0..5.5).contains(&st), "settling {st}");
        // A tight band it never satisfies long enough -> but the tail is
        // flat at exactly 20, so even 0.1 bands settle.
        assert!(settle_time(&s, 10.0, 20.0, 0.1, 5.0).is_some());
        // An impossible target never settles.
        assert!(settle_time(&s, 10.0, 500.0, 1.0, 5.0).is_none());
    }

    #[test]
    fn settle_time_handles_disturbance_at_origin() {
        // Flat series already in band from t=0: settles immediately.
        let s: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 20.0)).collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), Some(0.0));
        // Step at t=0 decaying into band at t=5: settle measured from 0.
        let s: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let t = i as f64;
                (t, if t < 5.0 { 100.0 } else { 20.0 })
            })
            .collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), Some(5.0));
    }

    #[test]
    fn settle_time_on_empty_or_exhausted_series() {
        assert_eq!(settle_time(&[], 0.0, 20.0, 5.0, 5.0), None);
        // No samples at or after `from`.
        let s = vec![(0.0, 20.0), (1.0, 20.0)];
        assert_eq!(settle_time(&s, 10.0, 20.0, 5.0, 5.0), None);
    }

    #[test]
    fn settle_time_never_settles() {
        // Oscillates in and out of band every sample: hold never builds.
        let s: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, if i % 2 == 0 { 20.0 } else { 100.0 }))
            .collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), None);
        // Ends out of band: the tail acceptance must not fire.
        let s: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64, if i < 9 { 20.0 } else { 100.0 }))
            .collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 20.0), None);
        // A lone final in-band sample proves nothing.
        let s = vec![(0.0, 100.0), (1.0, 100.0), (2.0, 20.0)];
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), None);
    }

    /// Regression: a series truncated mid-settle — several in-band
    /// samples at the end, but spanning less than `hold` — must not be
    /// accepted. The old tail acceptance (`last_t > start`) returned a
    /// spuriously small `Some(2.0)` here.
    #[test]
    fn settle_time_truncated_partial_hold_is_rejected() {
        let s = vec![(0.0, 100.0), (1.0, 100.0), (2.0, 20.0), (3.0, 20.0), (4.0, 20.0)];
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), None);
        // The same shape with enough tail to span the hold settles, and
        // the boundary is closed: ending exactly at start + hold counts.
        let s: Vec<(f64, f64)> = (0..8)
            .map(|i| (i as f64, if i < 2 { 100.0 } else { 20.0 }))
            .collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), Some(2.0));
        let s = vec![(0.0, 100.0), (1.0, 20.0), (6.0, 20.0)];
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), Some(1.0));
    }

    #[test]
    fn settle_time_band_exactly_touched() {
        // Every sample sits exactly on the band edge: closed band, so the
        // series counts as inside and settles at once.
        let s: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 25.0)).collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), Some(0.0));
        // One ulp outside stays outside.
        let s: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 25.0 + f64::EPSILON * 64.0))
            .collect();
        assert_eq!(settle_time(&s, 0.0, 20.0, 5.0, 5.0), None);
    }

    #[test]
    fn time_above_integrates_excursions() {
        let s = series();
        let above50 = time_above(&s, 0.0, 50.0, 50.0);
        // v>50 from t=10 to ~12.5 (spike + first half of decay).
        assert!((1.5..=3.5).contains(&above50), "time above {above50}");
        assert_eq!(time_above(&s, 0.0, 9.0, 50.0), 0.0);
    }

    #[test]
    fn excursions_count_distinct_events() {
        let mut s = series();
        // Add a second spike at t=30.
        for (t, v) in s.iter_mut() {
            if (30.0..31.0).contains(t) {
                *v = 90.0;
            }
        }
        assert_eq!(excursions_above(&s, 0.0, 50.0, 50.0), 2);
        assert_eq!(excursions_above(&s, 0.0, 50.0, 150.0), 0);
    }
}
