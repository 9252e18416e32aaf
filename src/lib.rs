//! # pi2 — facade crate for the PI2 AQM reproduction
//!
//! Reproduction of De Schepper et al., *"PI2: A Linearized AQM for both
//! Classic and Scalable TCP"* (ACM CoNEXT 2016), as a Rust workspace.
//! This crate re-exports the workspace's public API under short module
//! names so examples and downstream users need a single dependency:
//!
//! * [`simcore`] — deterministic discrete-event engine;
//! * [`netsim`] — packet-level dumbbell simulator (packets, ECN, queue, link);
//! * [`transport`] — TCP machinery and congestion controls (Reno, Cubic,
//!   ECN-Cubic, DCTCP);
//! * [`aqm`] — the paper's contribution: PI2, plus PIE/PI baselines and
//!   the coupled single-queue Classic/Scalable AQM;
//! * [`fluid`] — fluid model & Bode stability analysis (Appendix B);
//! * [`stats`] — CDFs, percentiles, utilization summaries;
//! * [`obs`] — metrics registry, event-loop profiler, flight-recorder ring;
//! * [`experiments`] — runnable scenarios reproducing each paper figure.
//!
//! ## Quickstart
//!
//! ```
//! use pi2::prelude::*;
//!
//! // 10 Mb/s bottleneck, 100 ms RTT, 5 Reno flows under a PI2 AQM.
//! let mut sim = Sim::new(
//!     SimConfig {
//!         queue: QueueConfig { rate_bps: 10_000_000, buffer_bytes: 60_000_000 },
//!         seed: 42,
//!         monitor: MonitorConfig::default(),
//!     },
//!     Box::new(Pi2::new(Pi2Config::default())),
//! );
//! for _ in 0..5 {
//!     sim.add_flow(
//!         PathConf::symmetric(Duration::from_millis(100)),
//!         "reno",
//!         Time::ZERO,
//!         |id| Box::new(TcpSource::new(id, CcKind::Reno, EcnSetting::NotEcn, TcpConfig::default())),
//!     );
//! }
//! sim.run_until(Time::from_secs(20));
//! assert!(sim.core.counters.flow(FlowId(0)).dequeued > 0);
//! ```

pub use pi2_aqm as aqm;
pub use pi2_experiments as experiments;
pub use pi2_fluid as fluid;
pub use pi2_netsim as netsim;
pub use pi2_obs as obs;
pub use pi2_simcore as simcore;
pub use pi2_stats as stats;
pub use pi2_transport as transport;
pub use pi2_validate as validate;

/// One-stop import for examples and tests.
pub mod prelude {
    pub use pi2_aqm::{
        CoupledPi2, CoupledPi2Config, Pi, Pi2, Pi2Config, PiConfig, Pie, PieConfig,
    };
    pub use pi2_netsim::{
        Action, Aqm, Decision, Ecn, FlowId, ImpairmentConf, LinkImpairments, MonitorConfig,
        Packet, PassAqm, PathConf, QueueConfig, Sim, SimConfig, SimCore, Source, UdpCbrSource,
    };
    pub use pi2_simcore::{Duration, Rng, Time};
    pub use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};
}
