//! What the two zero-allocation test binaries share.

use pi2_aqm::{Pi2, Pi2Config};
use pi2_netsim::{MonitorConfig, PathConf, QueueConfig, Sim, SimConfig};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};

/// The bench-harness topology: ten Reno flows into a 50 Mb/s PI2
/// bottleneck, recording trimmed to counters.
pub fn build() -> Sim {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 50_000_000,
                buffer_bytes: 60_000_000,
            },
            seed: 7,
            monitor: MonitorConfig {
                record_sojourns: false,
                record_probs: false,
                record_flow_tput: false,
                ..MonitorConfig::default()
            },
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    for _ in 0..10 {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "reno",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig::default(),
                ))
            },
        );
    }
    sim
}
