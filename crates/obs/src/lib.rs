//! # pi2-obs — low-overhead observability primitives
//!
//! Shared instrumentation for the PI2 simulator stack, designed around
//! one rule: **observation must never perturb the run**. Every type here
//! is a pure observer — nothing reads the RNG, touches the event heap or
//! feeds back into queue state — so instrumented runs stay bit-identical
//! to bare runs, which the integration tests assert.
//!
//! Three building blocks:
//!
//! - [`Registry`]: named counters, gauges and log-linear [`Histogram`]s
//!   behind typed index handles. Registration allocates once; the record
//!   path is an array index plus an add. Snapshots export as JSON or
//!   Prometheus text ([`Registry::to_json`], [`Registry::to_prometheus`],
//!   linted by [`prom_lint`]) and same-schema registries
//!   [`merge`](Registry::merge) deterministically.
//! - [`LoopProfiler`]: per-event-class wall-clock attribution for the
//!   dispatch loop. Off by default (the sim skips the clock reads
//!   entirely); on, it costs two `Instant::now()` per event and emits a
//!   breakdown table plus `profile_<class>_ns_per_event` bench metrics.
//! - [`RingBuffer`]: the fixed-capacity overwrite-oldest buffer behind
//!   the audit flight recorder, holding the last N trace events so an
//!   invariant-violation panic can dump the lead-up window.
//! - [`ObsServer`]: a dependency-free live-ops HTTP endpoint (`/metrics`,
//!   `/progress`, `/healthz`, `/cancel`) the sweep drivers publish
//!   point-in-time snapshots into between deterministic work units; the
//!   simulation itself never sees the server.
//!
//! Layering: this crate sits next to `pi2-stats` (whose
//! [`variance_from_moments`](pi2_stats::variance_from_moments) the
//! histogram summary reuses), on `pi2-simcore`'s checkpoint codec (the
//! registry and its histograms declare their own layouts), and below
//! `pi2-netsim`, which owns the actual instrument schema (`SimMetrics`)
//! and wires these primitives into the simulator.

pub mod hist;
pub mod profiler;
pub mod registry;
pub mod ring;
pub mod server;

pub use hist::Histogram;
pub use profiler::{LoopProfiler, ProfileRow};
pub use registry::{prom_lint, valid_metric_name, CounterId, GaugeId, HistId, Registry};
pub use ring::RingBuffer;
pub use server::{http_get, ObsServer};
