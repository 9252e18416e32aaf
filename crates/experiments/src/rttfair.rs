//! RTT fairness under the paper's AQMs (extension).
//!
//! The paper keeps both coexisting flows at equal base RTT in every grid
//! cell. A classic question for any single-queue AQM is what happens when
//! RTTs differ: TCP's window dynamics give short-RTT flows more
//! throughput (`rate ∝ W/RTT`, and the standing AQM queue partially
//! equalizes effective RTTs — one of the arguments *for* a nonzero
//! target). This experiment measures the short/long rate ratio for a
//! 10 ms vs 100 ms flow pair under each AQM, and shows the equalizing
//! effect of the queue: the deeper the target, the smaller the RTT ratio
//! between *effective* RTTs, the fairer the outcome.

use crate::scenario::{AqmKind, FlowGroup, Scenario};
use pi2_aqm::Pi2Config;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};

/// One RTT-fairness measurement.
#[derive(Clone, Debug)]
pub struct RttFairResult {
    /// AQM name.
    pub aqm: &'static str,
    /// Delay target used (ms).
    pub target_ms: i64,
    /// Throughput of the short-RTT (10 ms) flow, Mb/s.
    pub short_mbps: f64,
    /// Throughput of the long-RTT (100 ms) flow, Mb/s.
    pub long_mbps: f64,
    /// short/long throughput ratio.
    pub ratio: f64,
}

/// Run one AQM with one 10 ms and one 100 ms Reno flow on 40 Mb/s.
///
/// The buffer is a realistic 250 ms (not the paper's near-infinite
/// 40 000 packets) so the tail-drop row behaves like a plausible FIFO
/// router rather than a 12-second bufferbloat pathology.
pub fn run_one(aqm: AqmKind, target_ms: i64, duration_s: u64, seed: u64) -> RttFairResult {
    let mut sc = Scenario::new(aqm, 40_000_000);
    sc.buffer_bytes = (40_000_000.0 * 0.250 / 8.0) as usize;
    sc.tcp.push(FlowGroup::new(
        1,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "short",
        Duration::from_millis(10),
    ));
    sc.tcp.push(FlowGroup::new(
        1,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "long",
        Duration::from_millis(100),
    ));
    sc.duration = Time::from_secs(duration_s);
    sc.warmup = Duration::from_secs(duration_s as i64 / 3);
    sc.seed = seed;
    let r = sc.run();
    let s = r.tput_mbps("short");
    let l = r.tput_mbps("long");
    RttFairResult {
        aqm: r.aqm,
        target_ms,
        short_mbps: s,
        long_mbps: l,
        ratio: s / l.max(1e-9),
    }
}

/// Sweep the PI2 target to show the queue's equalizing effect. Each
/// point averages three seeds — Reno's long congestion epochs at 100 ms
/// RTT make single runs noisy. The 3×targets individual runs fan out
/// over [`crate::runner::par_map`]; averaging happens after the join.
pub fn target_sweep(targets_ms: &[i64], duration_s: u64, seed: u64) -> Vec<RttFairResult> {
    let work: Vec<(i64, u64)> = targets_ms
        .iter()
        .flat_map(|&t| (0..3u64).map(move |i| (t, seed.wrapping_add(i))))
        .collect();
    let runs = crate::runner::par_map(&work, |&(t, s)| {
        let cfg = Pi2Config {
            target: Duration::from_millis(t),
            ..Pi2Config::default()
        };
        run_one(AqmKind::Pi2(cfg), t, duration_s, s)
    });
    runs.chunks(3)
        .map(|chunk| {
            let short = chunk.iter().map(|r| r.short_mbps).sum::<f64>() / 3.0;
            let long = chunk.iter().map(|r| r.long_mbps).sum::<f64>() / 3.0;
            RttFairResult {
                aqm: "pi2",
                target_ms: chunk[0].target_ms,
                short_mbps: short,
                long_mbps: long,
                ratio: short / long.max(1e-9),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_rtt_flow_wins_under_any_single_queue_aqm() {
        let r = run_one(AqmKind::pi2_default(), 20, 40, 3);
        assert!(
            r.ratio > 1.5,
            "10 ms flow should beat 100 ms flow, ratio {:.2}",
            r.ratio
        );
        // But not by the full raw-RTT factor of 10 — the shared 20 ms
        // queue compresses the effective-RTT gap (30 ms vs 120 ms ⇒ ~4x).
        assert!(
            r.ratio < 9.0,
            "queue should soften pure RTT bias, ratio {:.2}",
            r.ratio
        );
    }

    #[test]
    fn deeper_targets_are_fairer() {
        let sweep = target_sweep(&[5, 80], 40, 3);
        assert!(
            sweep[1].ratio < sweep[0].ratio,
            "80 ms target ({:.2}) should be fairer than 5 ms ({:.2})",
            sweep[1].ratio,
            sweep[0].ratio
        );
    }
}
