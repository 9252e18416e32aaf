//! # pi2-netsim — packet-level network simulation substrate
//!
//! This crate models everything the PI2 paper's Linux testbed provided
//! around the AQM: packets with ECN codepoints, a bottleneck FIFO queue
//! whose admission is delegated to an [`Aqm`] implementation, a serializing
//! link with propagation delays, traffic sources, and measurement hooks.
//!
//! The base topology is the paper's dumbbell (Figure 10) collapsed to its
//! essentials: every flow shares one bottleneck queue + link in the forward
//! direction; the reverse (ACK) path is uncongested and modelled as a pure
//! delay, which is how the paper's testbed behaved for its workloads.
//! Multi-hop layouts — parking-lot chains and small access/core trees with
//! per-path RTT mixes — grow from that dumbbell via [`sim::SimCore::add_hop`]
//! and static per-flow routes; see [`topology::Topology`].
//!
//! Design follows the event-driven, sans-io ethos: the [`sim::Sim`] loop
//! owns all state, dispatches [`sim::Event`]s in deterministic order, and
//! never touches wall-clock time or sockets.

pub mod aqm;
pub mod audit;
pub mod background;
pub mod impair;
pub mod metrics;
pub mod monitor;
pub mod packet;
pub mod perfetto;
pub mod pool;
pub mod queue;
pub mod sim;
pub mod source;
mod textbuf;
pub mod timer;
pub mod topology;
pub mod trace;

pub use aqm::{Action, Aqm, AqmState, Decision, PassAqm, QueueSnapshot};
pub use audit::AuditSink;
pub use background::{Background, BackgroundAggregate, MIN_FOREGROUND_FRACTION};
pub use impair::{ImpairState, ImpairStats, ImpairmentConf, LinkImpairments, PathFate};
pub use metrics::SimMetrics;
pub use monitor::{FlowAccount, Monitor, MonitorConfig};
pub use pi2_stats::RunColumn;
pub use packet::{Ecn, FlowId, Packet};
pub use pool::Pool;
pub use queue::{BottleneckQueue, Fifo, Link, Qdisc, QueueConfig};
pub use sim::{
    event_class, Ack, Event, PathConf, Sim, SimConfig, SimCore, Source, TimerKind, EVENT_CLASSES,
};
pub use source::{OnOffCbrSource, UdpCbrSource};
pub use timer::LazyTimer;
pub use topology::Topology;
pub use perfetto::PerfettoSink;
pub use trace::{
    csv_field, CountingSink, CsvSink, FlowCounts, JsonlSink, MemorySink, TraceCounts, TraceEvent,
    TraceSink,
};
