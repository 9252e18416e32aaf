//! Progress accounting for long runs — pure arithmetic over the virtual
//! clock, for `pi2sim --serve`'s `/progress` endpoint.
//!
//! The simulation itself never consults wall-clock time; these helpers
//! keep that separation by taking elapsed wall seconds as a plain input
//! from the driver and deriving everything else from virtual-time spans.
//! Nothing here feeds back into the run.

use crate::time::Time;

/// A point-in-time progress report over a bounded run (`start..end` in
/// virtual time), plus driver-supplied wall-clock context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressReport {
    /// Completed fraction of the virtual-time span, in `[0, 1]`.
    pub fraction: f64,
    /// Estimated wall-clock seconds to completion, extrapolated from the
    /// virtual-time rate so far; `None` until progress is measurable.
    pub eta_secs: Option<f64>,
}

/// Compute a [`ProgressReport`] for a run spanning `start..end` that has
/// reached `now`, after `wall_secs` elapsed wall-clock seconds. All inputs
/// come from the driver; the function is deterministic in them.
pub fn progress(start: Time, now: Time, end: Time, wall_secs: f64) -> ProgressReport {
    let span = end.as_nanos().saturating_sub(start.as_nanos());
    let done = now
        .as_nanos()
        .saturating_sub(start.as_nanos())
        .min(span);
    let fraction = if span == 0 {
        1.0
    } else {
        done as f64 / span as f64
    };
    let eta_secs = if fraction > 0.0 && wall_secs > 0.0 && fraction < 1.0 {
        Some(wall_secs * (1.0 - fraction) / fraction)
    } else if fraction >= 1.0 {
        Some(0.0)
    } else {
        None
    };
    ProgressReport { fraction, eta_secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_tracks_virtual_time() {
        let r = progress(Time::ZERO, Time::from_millis(250), Time::from_millis(1000), 0.0);
        assert!((r.fraction - 0.25).abs() < 1e-12);
        // Clamped at the end, even if the clock overshoots the bound.
        let r = progress(Time::ZERO, Time::from_millis(1500), Time::from_millis(1000), 0.0);
        assert_eq!(r.fraction, 1.0);
        // A degenerate zero-length span counts as done.
        let r = progress(Time::ZERO, Time::ZERO, Time::ZERO, 0.0);
        assert_eq!(r.fraction, 1.0);
    }

    #[test]
    fn eta_extrapolates_from_wall_rate() {
        // 25% done in 2 wall seconds -> 6 more seconds at the same rate.
        let r = progress(Time::ZERO, Time::from_millis(250), Time::from_millis(1000), 2.0);
        assert!((r.eta_secs.unwrap() - 6.0).abs() < 1e-9);
        // No wall time yet: the ETA is unknown, not infinite.
        let r = progress(Time::ZERO, Time::from_millis(250), Time::from_millis(1000), 0.0);
        assert_eq!(r.eta_secs, None);
        // Finished: ETA is zero regardless of rate.
        let r = progress(Time::ZERO, Time::from_millis(1000), Time::from_millis(1000), 0.5);
        assert_eq!(r.eta_secs, Some(0.0));
    }

    #[test]
    fn nonzero_start_offsets_are_respected() {
        // A restored run resuming at t=500ms of a 0..1000ms span.
        let r = progress(
            Time::from_millis(500),
            Time::from_millis(750),
            Time::from_millis(1000),
            1.0,
        );
        assert!((r.fraction - 0.5).abs() < 1e-12);
    }
}
