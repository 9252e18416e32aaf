//! What the zero-allocation and cost-ratio test binaries share.

use pi2_aqm::{Pi2, Pi2Config};
use pi2_netsim::{Aqm, MonitorConfig, PathConf, QueueConfig, Sim, SimConfig};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};

/// PI2 at the paper's defaults, the AQM every test here runs.
pub fn pi2() -> Box<dyn Aqm> {
    Box::new(Pi2::new(Pi2Config::default()))
}

/// The bare cell: ten Reno flows at base RTT `rtt` into a 50 Mb/s
/// bottleneck under `aqm`, recording trimmed to counters so a run
/// measures the engine and not sample recording. Assembled by hand:
/// monitor pre-sizing and metrics, which `Scenario::build` would add, are
/// what these tests switch on or leave off themselves.
pub fn build(aqm: Box<dyn Aqm>, rtt: Duration) -> Sim {
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
                ..MonitorConfig::default()
            },
        },
        aqm,
    );
    for _ in 0..10 {
        sim.add_flow(
            PathConf::symmetric(rtt),
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
