//! Queue-delay estimation.
//!
//! PIE was designed for hardware, so instead of timestamping packets it
//! converts queue length to queuing delay with a regularly updated
//! departure-rate estimate (Little's law). The paper's PI2 qdisc inherits
//! that estimator from the Linux PIE code. We provide three modes:
//!
//! * [`DelayEstimator::RateEstimate`] — the RFC 8033 §5.1 departure-rate
//!   estimator, faithful to Linux PIE (default for PIE);
//! * [`DelayEstimator::Sojourn`] — the CoDel-style timestamp estimate,
//!   reading the last dequeued packet's sojourn;
//! * [`DelayEstimator::QlenOverRate`] — `qlen·8/C` with the configured
//!   link rate, exact in simulation when the rate is known.

use pi2_netsim::QueueSnapshot;
use pi2_simcore::{ckpt_fields, Ckpt, CkptError, CkptReader, CkptWriter, Duration, Time};

/// Measurement threshold: a rate sample is taken once this many bytes have
/// departed (RFC 8033 `DQ_THRESHOLD`).
const DQ_THRESHOLD: u64 = 16 * 1024;

/// The RFC 8033 departure-rate estimator.
///
/// A measurement cycle starts when the queue holds at least
/// `DQ_THRESHOLD` (16 KiB) bytes; once that many bytes have departed, the cycle
/// yields a rate sample that is averaged 50/50 into the running estimate.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateEstimator {
    in_measurement: bool,
    start: Time,
    dq_count: u64,
    /// Smoothed departure rate in bytes/s; 0 until the first sample.
    pub avg_dq_rate: f64,
}

// The measurement-cycle state.
ckpt_fields!(RateEstimator { in_measurement, start, dq_count, avg_dq_rate });

impl RateEstimator {
    /// Create an estimator with no rate history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe a departure of `bytes` at `now` with `qlen_bytes` remaining.
    pub fn on_dequeue(&mut self, bytes: usize, qlen_bytes: usize, now: Time) {
        if !self.in_measurement {
            // Only start measuring when there is enough backlog for the
            // sample to reflect the service rate rather than the arrivals.
            if qlen_bytes as u64 + bytes as u64 >= DQ_THRESHOLD {
                self.in_measurement = true;
                self.start = now;
                self.dq_count = 0;
            } else {
                return;
            }
        }
        self.dq_count += bytes as u64;
        if self.dq_count >= DQ_THRESHOLD {
            let elapsed = now.saturating_since(self.start).as_secs_f64();
            if elapsed > 0.0 {
                // The sample covers exactly DQ_THRESHOLD bytes; the final
                // departure's overshoot belongs to the *next* cycle rather
                // than being discarded, keeping byte accounting exact
                // across cycle boundaries.
                let sample = DQ_THRESHOLD as f64 / elapsed;
                self.avg_dq_rate = if self.avg_dq_rate == 0.0 {
                    sample
                } else {
                    // RFC 8033 §5.1: 0.5/0.5 exponential smoothing.
                    0.5 * self.avg_dq_rate + 0.5 * sample
                };
            }
            // Restart immediately while enough backlog remains (the Linux
            // pie.c condition), carrying the overshoot into the new
            // cycle's count. Without backlog the next departures would
            // measure arrivals rather than service, so the partial count
            // is dropped along with the measurement.
            self.in_measurement = qlen_bytes as u64 >= DQ_THRESHOLD;
            self.start = now;
            self.dq_count = if self.in_measurement {
                self.dq_count - DQ_THRESHOLD
            } else {
                0
            };
        }
    }

    /// Little's-law delay estimate for the given backlog.
    pub fn delay_of(&self, qlen_bytes: usize, link_rate_bps: u64) -> Duration {
        if self.avg_dq_rate > 0.0 {
            Duration::from_secs_f64(qlen_bytes as f64 / self.avg_dq_rate)
        } else if link_rate_bps == 0 {
            // No sample and no configured rate: there is nothing to divide
            // by (`Duration::serialization` asserts on a zero rate), so
            // report zero delay explicitly rather than a garbage estimate.
            Duration::ZERO
        } else {
            // No sample yet: fall back to the configured link rate.
            Duration::serialization(qlen_bytes, link_rate_bps)
        }
    }
}

/// Pluggable queue-delay estimation strategy.
#[derive(Clone, Copy, Debug)]
pub enum DelayEstimator {
    /// RFC 8033 departure-rate estimation (Linux PIE).
    RateEstimate(RateEstimator),
    /// Sojourn time of the most recently dequeued packet (CoDel-style).
    Sojourn,
    /// Queue length over the configured link rate (exact in simulation).
    QlenOverRate,
}

impl DelayEstimator {
    /// The Linux-PIE default.
    pub fn linux_default() -> Self {
        DelayEstimator::RateEstimate(RateEstimator::new())
    }

    /// Feed a departure observation (only the rate estimator uses it).
    pub fn on_dequeue(&mut self, bytes: usize, qlen_bytes: usize, now: Time) {
        if let DelayEstimator::RateEstimate(re) = self {
            re.on_dequeue(bytes, qlen_bytes, now);
        }
    }

    /// The smoothed departure rate in bytes/s, if this estimator keeps
    /// one and has taken at least one sample (telemetry probes).
    pub fn rate_estimate(&self) -> Option<f64> {
        match self {
            DelayEstimator::RateEstimate(re) if re.avg_dq_rate > 0.0 => Some(re.avg_dq_rate),
            _ => None,
        }
    }

    /// The checkpoint variant tag — part of the binary format, so the
    /// order is fixed: 0 = RateEstimate, 1 = Sojourn, 2 = QlenOverRate.
    fn ckpt_tag(&self) -> u8 {
        match self {
            DelayEstimator::RateEstimate(_) => 0,
            DelayEstimator::Sojourn => 1,
            DelayEstimator::QlenOverRate => 2,
        }
    }


    /// Estimate the current queuing delay.
    pub fn estimate(&self, snap: &QueueSnapshot) -> Duration {
        match self {
            DelayEstimator::RateEstimate(re) => {
                re.delay_of(snap.qlen_bytes, snap.link_rate_bps)
            }
            DelayEstimator::Sojourn => {
                if snap.qlen_pkts == 0 {
                    Duration::ZERO
                } else {
                    snap.last_sojourn.unwrap_or(Duration::ZERO)
                }
            }
            DelayEstimator::QlenOverRate => snap.delay_from_qlen(),
        }
    }
}

/// The variant tag, then any mutable state. The checkpointed variant must
/// match the configured one: a checkpoint cannot change the estimation
/// strategy.
impl Ckpt for DelayEstimator {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.u8(self.ckpt_tag());
        if let DelayEstimator::RateEstimate(re) = self {
            re.save_ckpt(w);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        if r.u8()? != self.ckpt_tag() {
            return Err(CkptError::Corrupt("delay estimator variant mismatch"));
        }
        if let DelayEstimator::RateEstimate(re) = self {
            re.restore_ckpt(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(qlen_bytes: usize, rate: u64) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes,
            qlen_pkts: qlen_bytes / 1500,
            link_rate_bps: rate,
            last_sojourn: Some(Duration::from_millis(7)),
        }
    }

    #[test]
    fn qlen_over_rate_is_exact() {
        let e = DelayEstimator::QlenOverRate;
        // 12500 B = 100 kbit at 10 Mb/s = 10 ms.
        assert_eq!(e.estimate(&snap(12_500, 10_000_000)), Duration::from_millis(10));
    }

    #[test]
    fn sojourn_reads_last_packet() {
        let e = DelayEstimator::Sojourn;
        assert_eq!(e.estimate(&snap(15_000, 10_000_000)), Duration::from_millis(7));
        // Empty queue reports zero even if a stale sojourn exists.
        let mut s = snap(0, 10_000_000);
        s.qlen_pkts = 0;
        assert_eq!(e.estimate(&s), Duration::ZERO);
    }

    #[test]
    fn rate_estimator_converges_to_service_rate() {
        let mut re = RateEstimator::new();
        // 10 Mb/s = 1.25 MB/s: a 1500 B packet departs every 1.2 ms from a
        // deep queue.
        let mut now = Time::ZERO;
        for _ in 0..200 {
            now += Duration::from_micros(1200);
            re.on_dequeue(1500, 100_000, now);
        }
        let rate = re.avg_dq_rate;
        assert!(
            (rate - 1_250_000.0).abs() / 1_250_000.0 < 0.05,
            "estimated {rate} B/s"
        );
        // Delay of a 12.5 kB backlog should be ~10 ms.
        let d = re.delay_of(12_500, 999); // link rate irrelevant once estimated
        assert!((d.as_millis_f64() - 10.0).abs() < 1.0, "{d:?}");
    }

    #[test]
    fn rate_estimator_needs_backlog_to_measure() {
        let mut re = RateEstimator::new();
        let mut now = Time::ZERO;
        // Shallow queue: departures must not produce a (bogus) rate sample.
        for _ in 0..100 {
            now += Duration::from_millis(10);
            re.on_dequeue(100, 200, now);
        }
        assert_eq!(re.avg_dq_rate, 0.0);
        // Fallback uses the link rate.
        let d = re.delay_of(12_500, 10_000_000);
        assert_eq!(d, Duration::from_millis(10));
    }

    #[test]
    fn rate_estimator_carries_threshold_overshoot() {
        // Two 10 000 B departures 10 ms apart cross the 16 384 B threshold
        // mid-packet. The first cycle samples exactly DQ_THRESHOLD bytes
        // over 10 ms; the 3 616 B overshoot seeds the next cycle, which
        // therefore completes after two more departures (23 616 ≥ 16 384)
        // over 20 ms.
        let mut re = RateEstimator::new();
        let deep = 100_000; // backlog stays well above the threshold
        re.on_dequeue(10_000, deep, Time::from_millis(10)); // starts cycle
        re.on_dequeue(10_000, deep, Time::from_millis(20));
        let s1 = DQ_THRESHOLD as f64 / 0.010;
        assert!((re.avg_dq_rate - s1).abs() < 1e-6, "{}", re.avg_dq_rate);
        re.on_dequeue(10_000, deep, Time::from_millis(30)); // carry: 13 616
        assert!((re.avg_dq_rate - s1).abs() < 1e-6, "no new sample yet");
        re.on_dequeue(10_000, deep, Time::from_millis(40)); // 23 616 ≥ thresh
        let s2 = DQ_THRESHOLD as f64 / 0.020;
        let expect = 0.5 * s1 + 0.5 * s2;
        assert!((re.avg_dq_rate - expect).abs() < 1e-6, "{}", re.avg_dq_rate);
    }

    #[test]
    fn rate_estimator_drops_overshoot_when_backlog_gone() {
        // A cycle completing onto an empty queue must not carry its
        // overshoot: the next (idle-period) departures would turn it into
        // an arrival-rate sample.
        let mut re = RateEstimator::new();
        re.on_dequeue(10_000, 100_000, Time::from_millis(10));
        re.on_dequeue(10_000, 0, Time::from_millis(20)); // samples, then stops
        let after_first = re.avg_dq_rate;
        assert!(after_first > 0.0);
        // Shallow-queue departures: measurement stays off, rate unchanged.
        re.on_dequeue(10_000, 0, Time::from_secs(10));
        assert_eq!(re.avg_dq_rate, after_first);
    }

    #[test]
    fn delay_of_zero_link_rate_without_sample_is_zero() {
        // Before the first sample and with no configured link rate there
        // is nothing to divide by; the fallback must be an explicit zero,
        // not a panic (Duration::serialization asserts rate > 0).
        let re = RateEstimator::new();
        assert_eq!(re.delay_of(50_000, 0), Duration::ZERO);
        // Once a sample exists, the link rate is irrelevant.
        let mut re = RateEstimator::new();
        re.on_dequeue(10_000, 100_000, Time::from_millis(10));
        re.on_dequeue(10_000, 100_000, Time::from_millis(20));
        assert!(re.delay_of(50_000, 0) > Duration::ZERO);
    }

    #[test]
    fn rate_estimate_accessor_reports_only_real_samples() {
        let mut e = DelayEstimator::linux_default();
        assert_eq!(e.rate_estimate(), None);
        e.on_dequeue(10_000, 100_000, Time::from_millis(10));
        e.on_dequeue(10_000, 100_000, Time::from_millis(20));
        let r = e.rate_estimate().expect("sample taken");
        assert!(r > 0.0);
        assert_eq!(DelayEstimator::QlenOverRate.rate_estimate(), None);
        assert_eq!(DelayEstimator::Sojourn.rate_estimate(), None);
    }

    #[test]
    fn rate_estimator_tracks_rate_change() {
        let mut re = RateEstimator::new();
        let mut now = Time::ZERO;
        for _ in 0..100 {
            now += Duration::from_micros(1200); // 10 Mb/s
            re.on_dequeue(1500, 100_000, now);
        }
        for _ in 0..200 {
            now += Duration::from_micros(6000); // 2 Mb/s
            re.on_dequeue(1500, 100_000, now);
        }
        let rate = re.avg_dq_rate;
        assert!(
            (rate - 250_000.0).abs() / 250_000.0 < 0.1,
            "estimated {rate} B/s after slowdown"
        );
    }
}
