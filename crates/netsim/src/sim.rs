//! The event-driven dumbbell simulator.
//!
//! [`SimCore`] owns the clock, the hop vector (each hop a queue+link; hop 0
//! is the primary bottleneck), per-flow path delays, the RNG and the
//! measurement [`Monitor`]. [`Sim`] adds the traffic sources (trait
//! objects implementing [`Source`]) and runs the dispatch loop. The split
//! into two structs is what lets a source receive `&mut SimCore` while the
//! source collection itself is mutably borrowed.
//!
//! ## Packet life cycle
//!
//! ```text
//! sender --send_packet()--> [AQM verdict] --FIFO--> link serialization
//!        --Deliver event (fwd one-way delay)--> receiver logic in Source
//!        --send_ack()--> AckArrive event (rev one-way delay) --> sender logic
//! ```
//!
//! Drops at the AQM are silent: the sender only learns about them through
//! duplicate ACKs or an RTO, exactly as on a real network.
//!
//! ## Multi-hop topologies
//!
//! Every hop — the primary bottleneck included — is one element of the
//! core's hop vector and runs through the same admit / transmit / dequeue
//! / controller-update code. [`SimCore::add_hop`] adds further
//! store-and-forward hops (each its own qdisc+AQM+link), and
//! [`SimCore::set_route`] steers a flow across a static hop sequence —
//! parking-lot chains and small access/core graphs are built from exactly
//! these two calls. A routed packet repeats the
//! `[AQM verdict] → FIFO → serialization → inter-hop propagation` cycle
//! at every hop before the final `Deliver` leg; ACKs still travel the
//! uncongested reverse path in one go. End-to-end flow measurement
//! (throughput, sojourn, completion) is recorded where a packet leaves
//! the *last* queue on its route, and drop/mark verdicts are recorded at
//! every hop. What stays particular to hop 0 is measurement policy, not
//! mechanism: the [`Monitor`]'s queue series, the AQM-update counter and
//! metrics, link-rate disturbances and the hybrid background all follow
//! the primary bottleneck, and sinks receive hop 0
//! through [`TraceSink::on_event`]/[`TraceSink::on_aqm_state`] and every
//! other hop through the `on_hop_*` hooks. The invariant auditor checks
//! every hop.

use crate::aqm::{Action, AqmState};
use crate::audit::AuditSink;
use crate::background::{Background, BackgroundAggregate};
use crate::impair::{ImpairState, LinkImpairments};
use crate::metrics::SimMetrics;
use crate::monitor::{Monitor, MonitorConfig};
use crate::packet::{FlowId, Packet};
use crate::pool::{Handle, Pool};
use crate::queue::{BottleneckQueue, Qdisc, QueueConfig};
use crate::trace::{TraceCounts, TraceEvent, TraceSink};
use pi2_obs::LoopProfiler;
use pi2_simcore::{
    ckpt_fields, Ckpt, CkptError, CkptReader, CkptWriter, Duration, EventEntry, EventQueue, Rng,
    SchemaHasher, Time,
};

/// One-way delays of a flow's path, excluding the bottleneck queue.
#[derive(Clone, Copy, Debug)]
pub struct PathConf {
    /// Sender → receiver propagation (applied after the bottleneck).
    pub fwd: Duration,
    /// Receiver → sender propagation for ACKs.
    pub rev: Duration,
}

ckpt_fields!(PathConf { fwd, rev });

impl PathConf {
    /// Split a base RTT evenly across the two directions.
    pub fn symmetric(base_rtt: Duration) -> Self {
        PathConf {
            fwd: base_rtt / 2,
            rev: base_rtt - base_rtt / 2,
        }
    }

    /// The base (unloaded) round-trip time.
    pub fn base_rtt(&self) -> Duration {
        self.fwd + self.rev
    }
}

/// An acknowledgement travelling the uncongested reverse path.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ack {
    /// The flow this ACK belongs to.
    pub flow: FlowId,
    /// Cumulative ACK: the next sequence number the receiver expects.
    pub cum_seq: u64,
    /// RFC 3168-style congestion echo: a CE-marked data packet has been
    /// received since the previous ACK was generated.
    pub ece: bool,
    /// Cumulative count of CE-marked data packets the receiver has seen;
    /// Scalable (DCTCP) senders diff this to recover the exact per-RTT
    /// marked fraction that drives their α EWMA.
    pub ce_total: u64,
    /// Cumulative count of data packets the receiver has seen (marked or
    /// not), the denominator for the marked fraction.
    pub pkts_total: u64,
    /// Echo of the triggering data packet's send timestamp, for sender-side
    /// RTT sampling (the simulator's stand-in for the TCP timestamp option).
    pub echo_ts: Time,
    /// True if the triggering data packet was a retransmission; the sender
    /// skips RTT sampling on such echoes (Karn's algorithm).
    pub echo_rtx: bool,
    /// SACK blocks: up to three `[start, end)` ranges of out-of-order data
    /// the receiver holds above `cum_seq`, most relevant first (RFC 2018).
    /// All-`None` when the receiver has no out-of-order data.
    pub sack: [Option<(u64, u64)>; 3],
}

// Each SACK slot is a presence flag plus the `[start, end)` pair (zeros
// when absent).
ckpt_fields!(Ack { flow, cum_seq, ece, ce_total, pkts_total, echo_ts, echo_rtx, sack });

impl Ack {
    /// An ACK with no SACK information.
    pub const NO_SACK: [Option<(u64, u64)>; 3] = [None, None, None];
}

/// Timer classes a source can arm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// TCP retransmission timeout.
    Rto,
    /// Paced/CBR transmission tick.
    Send,
    /// Source-defined auxiliary timer.
    User(u32),
}

/// Everything that can happen in the simulated world.
///
/// `Deliver` and `AckArrive` carry 4-byte [`Pool`] handles rather than
/// their payloads: parking the `Packet`/`Ack` in a slab keeps every
/// event-queue entry small (the largest variant is `Timer`), which is
/// what makes the timing wheel's per-event moves cheap. The dispatch loop
/// resolves a handle exactly once, immediately before invoking the
/// handler, so no handle outlives its event.
#[derive(Debug)]
pub enum Event {
    /// The given hop's link finished serializing its head packet (hop 0
    /// is the primary bottleneck).
    Dequeue(u32),
    /// A data packet reaches its receiver (handle into
    /// [`SimCore::packets`]).
    Deliver(Handle),
    /// An ACK reaches its sender (handle into [`SimCore::acks`]).
    AckArrive(Handle),
    /// The wheel event of a source's [`LazyTimer`](crate::timer::LazyTimer)
    /// pops.
    Timer {
        /// Owning flow.
        flow: FlowId,
        /// Which of the flow's timers.
        kind: TimerKind,
        /// The event's own tie-break sequence number, by which the timer
        /// knows the event standing in for it.
        id: u64,
    },
    /// Periodic controller update of the given hop's AQM (the paper's
    /// T = 32 ms).
    AqmUpdate(u32),
    /// Periodic measurement sample.
    Sample,
    /// Change the bottleneck link rate (Figure 12's varying capacity).
    SetLinkRate(u64),
    /// Activate a source (traffic-intensity steps in Figures 6/13).
    SourceOn(FlowId),
    /// Deactivate a source.
    SourceOff(FlowId),
    /// A data packet finishes its inter-hop propagation leg and arrives
    /// at the given hop for admission (handle into [`SimCore::packets`]).
    HopArrive(u32, Handle),
}

// Every push, slot sort and pool move copies these bytes; keep them small.
// A wheel node holds `Option<EventEntry>`: the enum's niche keeps it 40.
const _: () = assert!(std::mem::size_of::<Option<EventEntry<Event>>>() <= 40);
const _: () = assert!(std::mem::size_of::<Packet>() <= 32);

/// One store-and-forward hop, created by [`SimCore::add_hop`]: its own
/// qdisc+AQM+link and an ingress propagation leg. Hop 0 is the primary
/// bottleneck; flows are steered across hops by static per-flow routes
/// ([`SimCore::set_route`]).
struct HopState {
    /// The hop's queueing discipline and link.
    qdisc: Box<dyn Qdisc>,
    /// Ingress propagation delay: how long a packet takes to reach this
    /// hop after leaving the previous hop on its route. (The flow's
    /// [`PathConf::fwd`] still covers the final leg past the last hop.)
    prop: Duration,
    /// True while the hop's link is serializing a packet.
    transmitting: bool,
    /// One-entry `(size, rate) -> serialization time` cache. Almost every
    /// transmission is an MSS-sized packet on an unchanged link rate, so
    /// this removes a u128 division from the per-dequeue path.
    ser_cache: (usize, u64, Duration),
    /// Post-warmup egress bytes per flow id — the per-hop fairness
    /// instrument.
    flow_bytes: Vec<u64>,
}

// Routes and the ingress delay are structural configuration, covered by
// the schema hash; the serialization cache is pure (a hit and a
// recompute agree), so it is not saved.
ckpt_fields!(HopState { qdisc, transmitting, flow_bytes[..] });

/// The shared simulation state handed to sources.
pub struct SimCore {
    /// The pending-event queue; also the simulation clock.
    pub events: EventQueue<Event>,
    /// Root deterministic RNG.
    pub rng: Rng,
    /// Measurement collection.
    pub monitor: Monitor,
    /// Always-on per-flow event counters (plain integer increments; kept
    /// regardless of whether any sink is attached).
    pub counters: TraceCounts,
    /// Slab of in-flight data packets (between dequeue and delivery);
    /// [`Event::Deliver`] carries handles into it.
    pub packets: Pool<Packet>,
    /// Slab of in-flight ACKs; [`Event::AckArrive`] carries handles into
    /// it.
    pub acks: Pool<Ack>,
    sinks: Vec<Box<dyn TraceSink>>,
    audit: Option<Box<AuditSink>>,
    metrics: Option<Box<SimMetrics>>,
    impair: Option<Box<ImpairState>>,
    paths: Vec<PathConf>,
    /// Every hop, indexed by hop id; `hops[0]` is the primary bottleneck.
    hops: Vec<HopState>,
    /// Per-flow hop routes in traversal order. An empty entry means the
    /// default single-hop route `[0]` (no allocation for default flows).
    routes: Vec<Vec<u32>>,
}

impl SimCore {
    fn new(seed: u64, monitor_cfg: MonitorConfig) -> Self {
        SimCore {
            // Pending events are bounded by in-flight packets + per-flow
            // timers, not run length: a slab sized for them up front.
            events: EventQueue::with_capacity(4096),
            rng: Rng::new(seed),
            monitor: Monitor::new(monitor_cfg),
            counters: TraceCounts::new(),
            packets: Pool::new(),
            acks: Pool::new(),
            sinks: Vec::new(),
            audit: None,
            metrics: None,
            impair: None,
            paths: Vec::new(),
            hops: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Attach a streaming trace sink. Every bottleneck event and AQM
    /// control-state snapshot from now on is forwarded to it; multiple
    /// sinks receive the same stream in attachment order. Sinks are pure
    /// observers — they never touch the RNG or the queue — so attaching
    /// one cannot change a run's outcome.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Flush every attached sink, stopping at (and returning) the first
    /// error. Call at end of run before reading file-backed output.
    pub fn flush_trace_sinks(&mut self) -> std::io::Result<()> {
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        Ok(())
    }

    /// Detach and return all attached sinks (flush first if their output
    /// matters).
    pub fn take_trace_sinks(&mut self) -> Vec<Box<dyn TraceSink>> {
        std::mem::take(&mut self.sinks)
    }

    /// Attach the runtime invariant auditor (see [`crate::audit`]). Like
    /// any sink it is a pure observer, so auditing never changes a run's
    /// outcome; unlike plain sinks it panics with the run's replayable
    /// seed the moment the event stream of any hop breaks an invariant.
    /// Packets already queued at a hop become that hop's baseline (hops
    /// added later are baselined by [`SimCore::add_hop`]).
    pub fn enable_audit(&mut self, audit: AuditSink) {
        self.audit = Some(Box::new(audit));
        self.rebaseline_audit();
    }

    /// Restart the auditor's books at every hop from the hop qdisc's
    /// current occupancy (attach, and checkpoint restore).
    fn rebaseline_audit(&mut self) {
        if let Some(a) = &mut self.audit {
            for (h, hs) in self.hops.iter().enumerate() {
                a.set_baseline_pkts(h as u32, hs.qdisc.len_pkts());
            }
        }
    }

    /// Detach and return the auditor, disabling further audit checks.
    pub fn take_audit(&mut self) -> Option<Box<AuditSink>> {
        self.audit.take()
    }

    /// The attached auditor, if auditing is enabled.
    pub fn audit(&self) -> Option<&AuditSink> {
        self.audit.as_deref()
    }

    /// Start recording into a fresh [`SimMetrics`] registry. Metrics are
    /// a pure observer over values the simulator already computes — they
    /// never read the RNG or touch the queue — so a metrics-on run stays
    /// bit-identical to a metrics-off run.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::new(SimMetrics::new()));
        }
    }

    /// Detach and return the metrics, folding in the event-loop totals
    /// (events processed/scheduled so far). Returns `None` when metrics
    /// were never enabled.
    pub fn take_metrics(&mut self) -> Option<Box<SimMetrics>> {
        let mut m = self.metrics.take()?;
        m.note_event_totals(self.events.popped(), self.events.pushed());
        Some(m)
    }

    /// The live metrics, if enabled (event-loop totals are only folded in
    /// by [`take_metrics`](Self::take_metrics)).
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_deref()
    }

    /// Attach the path impairment layer (see [`crate::impair`]). The
    /// layer owns its own RNG stream seeded from `conf.seed`, so an
    /// all-zero configuration leaves the run bit-identical to having no
    /// layer at all, and a non-zero one perturbs only the post-bottleneck
    /// path, never the AQM's random decisions.
    pub fn set_impairments(&mut self, conf: LinkImpairments) {
        self.impair = Some(Box::new(ImpairState::new(conf)));
    }

    /// The attached impairment layer, if any.
    pub fn impairments(&self) -> Option<&ImpairState> {
        self.impair.as_deref()
    }

    /// End-of-run audit: verify packet conservation at every hop against
    /// the hop qdisc's current occupancy, and — when the impairment layer
    /// is attached — cross-check its per-direction accounting against the
    /// dequeue stream. No-op when auditing is off. [`Sim::run_until`]
    /// calls this after the event loop; explicit callers stepping the sim
    /// by hand can invoke it at any event boundary.
    pub fn finish_audit(&self) {
        let Some(a) = &self.audit else {
            return;
        };
        for (h, hs) in self.hops.iter().enumerate() {
            a.check_conservation(h as u32, hs.qdisc.len_pkts(), self.now());
        }
        if let Some(imp) = &self.impair {
            if self.hops.len() == 1 {
                a.check_impairments(&imp.stats(), self.now());
            } else {
                // The dequeue cross-check compares against hop 0's
                // stream, which no longer sees every final-leg departure
                // once routes span further hops; only the layer's
                // internal balance is checkable here.
                a.check_impairments_balance(&imp.stats(), self.now());
            }
        }
    }

    /// True when at least one observer (sink or auditor) wants events.
    fn tracing(&self) -> bool {
        self.audit.is_some() || !self.sinks.is_empty()
    }

    /// Hand a packet event at `hop` to the auditor and every sink. Sinks
    /// take hop 0 through [`TraceSink::on_event`] and the other hops
    /// through [`TraceSink::on_hop_event`], which keeps the hop-0 stream
    /// (and every golden file pinned to it) what it was before hops
    /// existed; the auditor checks all hops alike.
    fn emit(&mut self, hop: u32, ev: TraceEvent) {
        if let Some(audit) = &mut self.audit {
            audit.on_hop_event(hop, &ev);
        }
        for sink in &mut self.sinks {
            if hop == 0 {
                sink.on_event(&ev);
            } else {
                sink.on_hop_event(hop, &ev);
            }
        }
    }

    /// [`SimCore::emit`] for a hop's post-update AQM control state.
    fn emit_aqm_state(&mut self, hop: u32, now: Time, state: &AqmState) {
        if let Some(audit) = &mut self.audit {
            audit.on_hop_aqm_state(hop, now, state);
        }
        for sink in &mut self.sinks {
            if hop == 0 {
                sink.on_aqm_state(now, state);
            } else {
                sink.on_hop_aqm_state(hop, now, state);
            }
        }
    }

    /// Register a flow with the given path; returns its dense id. The
    /// flow starts on the default route `[0]` (primary bottleneck only);
    /// see [`SimCore::set_route`].
    pub fn register_flow(&mut self, path: PathConf, label: &str) -> FlowId {
        let id = FlowId(self.paths.len() as u32);
        self.paths.push(path);
        self.routes.push(Vec::new());
        for h in &mut self.hops {
            h.flow_bytes.push(0);
        }
        self.monitor.register_flow(label);
        id
    }

    /// Path configuration of a registered flow.
    pub fn path(&self, flow: FlowId) -> PathConf {
        self.paths[flow.idx()]
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.paths.len()
    }

    /// Add a store-and-forward hop and return its hop id. The first hop
    /// added is hop 0, the primary bottleneck — [`Sim::with_qdisc`]
    /// installs it, so the first call on a built [`Sim`] returns 1.
    /// `prop` is the ingress propagation delay from the previous hop on a
    /// route to this one. If the hop's qdisc runs a periodic controller,
    /// its update tick is scheduled here.
    ///
    /// Hops are structural configuration: add them (and set routes)
    /// before running, and rebuild the same topology before restoring a
    /// checkpoint.
    pub fn add_hop(&mut self, qdisc: Box<dyn Qdisc>, prop: Duration) -> u32 {
        let id = self.hops.len() as u32;
        if let Some(iv) = qdisc.update_interval() {
            self.events.push(self.now() + iv, Event::AqmUpdate(id));
        }
        if let Some(a) = &mut self.audit {
            a.set_baseline_pkts(id, qdisc.len_pkts());
        }
        self.hops.push(HopState {
            qdisc,
            prop,
            transmitting: false,
            ser_cache: (0, 0, Duration::ZERO),
            flow_bytes: vec![0; self.paths.len()],
        });
        id
    }

    /// Total number of hops (the primary bottleneck included).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Steer a flow across `route`, a non-empty sequence of distinct hop
    /// ids in traversal order. Hop 0 (the primary bottleneck) may only
    /// lead a route: sources inject at the first hop directly, so a
    /// mid-route hop 0 would need an ingress delay it does not have.
    ///
    /// # Panics
    /// Panics on an empty route, an unknown hop id, a revisited hop, or
    /// hop 0 in a non-leading position.
    pub fn set_route(&mut self, flow: FlowId, route: Vec<u32>) {
        assert!(!route.is_empty(), "a route needs at least one hop");
        for (i, &h) in route.iter().enumerate() {
            assert!(
                (h as usize) < self.hop_count(),
                "route names unknown hop {h} (only {} exist)",
                self.hop_count()
            );
            assert!(
                h != 0 || i == 0,
                "hop 0 (the primary bottleneck) may only lead a route"
            );
            assert!(!route[..i].contains(&h), "route revisits hop {h}");
        }
        self.routes[flow.idx()] = route;
    }

    /// A flow's hop route in traversal order (`[0]` for default flows).
    pub fn route(&self, flow: FlowId) -> &[u32] {
        let r = &self.routes[flow.idx()];
        if r.is_empty() {
            &[0]
        } else {
            r
        }
    }

    /// The hop after `hop` on `flow`'s route, or `None` when `hop` is the
    /// flow's last (or is not on the route at all).
    fn next_hop(&self, flow: FlowId, hop: u32) -> Option<u32> {
        let route = self.route(flow);
        let pos = route.iter().position(|&h| h == hop)?;
        route.get(pos + 1).copied()
    }

    /// A hop's queueing discipline (hop 0 is the primary bottleneck).
    pub fn hop_qdisc(&self, hop: u32) -> &dyn Qdisc {
        self.hops[hop as usize].qdisc.as_ref()
    }

    fn hop_qdisc_mut(&mut self, hop: u32) -> &mut dyn Qdisc {
        self.hops[hop as usize].qdisc.as_mut()
    }

    /// Post-warmup per-flow egress bytes at `hop`, indexed by flow id —
    /// the raw material for per-hop fairness indices.
    pub fn hop_flow_bytes(&self, hop: u32) -> &[u64] {
        &self.hops[hop as usize].flow_bytes
    }

    /// Hand a data packet to the first hop on its flow's route (the
    /// primary bottleneck for default flows). The AQM verdict is applied
    /// here; a dropped packet simply disappears (the sender must infer the
    /// loss from the ACK stream).
    pub fn send_packet(&mut self, pkt: Packet) {
        let first = self.route(pkt.flow)[0];
        self.admit(first, pkt, true);
    }

    /// Offer a packet to `hop`'s qdisc and fan the verdict out to the
    /// monitor, the counters, the metrics and the observers. `first_hop`
    /// says whether this is the packet's entry into the network: the send
    /// and the admission are counted there only, so a routed packet is
    /// sent and enqueued once however many hops it crosses, while drops
    /// and marks count at whichever hop issues them.
    fn admit(&mut self, hop: u32, pkt: Packet, first_hop: bool) {
        let now = self.now();
        let flow = pkt.flow;
        let size = pkt.size;
        let seq = pkt.seq;
        let ecn = pkt.ecn;
        let hs = &mut self.hops[hop as usize];
        let decision = hs.qdisc.offer(pkt, now, &mut self.rng);
        let idle = !hs.transmitting;
        if first_hop {
            self.monitor.record_send(flow, size, decision, now);
        } else {
            self.monitor.record_decision(flow, decision, now);
        }
        let tracing = self.tracing();
        let prob = decision.prob;
        // The ECN field the packet was admitted with, `None` for a drop.
        let admitted = match decision.action {
            Action::Drop => {
                self.counters.note_drop(flow);
                if let Some(m) = &mut self.metrics {
                    m.note_drop();
                }
                if tracing {
                    self.emit(
                        hop,
                        TraceEvent::Drop {
                            t: now,
                            flow,
                            seq,
                            prob,
                        },
                    );
                }
                None
            }
            Action::Mark => {
                self.counters.note_mark(flow);
                if let Some(m) = &mut self.metrics {
                    m.note_mark();
                }
                if tracing {
                    self.emit(
                        hop,
                        TraceEvent::Mark {
                            t: now,
                            flow,
                            seq,
                            prob,
                        },
                    );
                }
                Some(crate::packet::Ecn::Ce)
            }
            Action::Pass => Some(ecn),
        };
        let Some(ecn) = admitted else {
            return;
        };
        if first_hop {
            self.counters.note_enqueue(flow);
            if let Some(m) = &mut self.metrics {
                m.note_enqueue(ecn);
            }
        }
        if tracing {
            self.emit(
                hop,
                TraceEvent::Enqueue {
                    t: now,
                    flow,
                    seq,
                    ecn,
                },
            );
        }
        if idle {
            // The qdisc contract after a non-Drop verdict guarantees only
            // that the offered packet sits in *some* internal queue. A
            // multi-queue qdisc (DualPI2, fq) may legitimately hold other
            // packets that were invisible to `start_tx()` while the link
            // idled, so "exactly one packet" would over-assert.
            debug_assert!(
                self.hops[hop as usize].qdisc.len_pkts() > 0,
                "a non-drop admission must leave the qdisc non-empty"
            );
            self.start_transmission(hop);
        }
    }

    /// Send an ACK back to the flow's sender over the reverse path. With
    /// the impairment layer attached the ACK may be lost, jittered (and
    /// thus reordered against its neighbours), or duplicated.
    pub fn send_ack(&mut self, ack: Ack) {
        let rev = self.paths[ack.flow.idx()].rev;
        let at = self.now() + rev;
        let Some(imp) = &mut self.impair else {
            let h = self.acks.insert(ack);
            self.events.push(at, Event::AckArrive(h));
            return;
        };
        let fate = imp.reverse();
        // A duplicated ACK gets its own pool slot: each in-flight copy is
        // resolved (and its slot recycled) independently.
        if let Some(extra) = fate.delay {
            let h = self.acks.insert(ack);
            self.events.push(at + extra, Event::AckArrive(h));
        }
        if let Some(extra) = fate.dup_delay {
            let h = self.acks.insert(ack);
            self.events.push(at + extra, Event::AckArrive(h));
        }
    }

    /// Schedule an arbitrary event (used by scenario scripts for rate
    /// changes and source on/off steps).
    pub fn schedule(&mut self, at: Time, event: Event) {
        self.events.push(at, event);
    }

    /// Commit `hop`'s qdisc to its next packet and schedule the end of
    /// its serialisation, or mark the link idle.
    fn start_transmission(&mut self, hop: u32) {
        let now = self.events.now();
        let hs = &mut self.hops[hop as usize];
        if let Some(size) = hs.qdisc.start_tx() {
            hs.transmitting = true;
            let rate = hs.qdisc.link().rate_bps();
            let tx = if hs.ser_cache.0 == size && hs.ser_cache.1 == rate {
                hs.ser_cache.2
            } else {
                let tx = Duration::serialization(size, rate);
                hs.ser_cache = (size, rate, tx);
                tx
            };
            self.events.push(now + tx, Event::Dequeue(hop));
        } else {
            hs.transmitting = false;
        }
    }

    /// Handle completion of `hop`'s head-packet transmission: restart the
    /// link and forward the packet — to the next hop on its flow's route,
    /// or onto the final propagation leg when this hop is the last. The
    /// `Deliver`/`HopArrive` event takes ownership of the packet — this
    /// is the per-packet hot path, and it performs no allocation beyond
    /// the (amortized, pre-reserved) event-heap slot.
    fn handle_dequeue(&mut self, hop: u32) {
        let now = self.now();
        let hs = &mut self.hops[hop as usize];
        let (pkt, sojourn) = hs
            .qdisc
            .pop(now)
            .expect("Dequeue event fired on an empty queue");
        if self.monitor.postwarm_at(now) {
            hs.flow_bytes[pkt.flow.idx()] += pkt.size as u64;
        }
        let next = self.next_hop(pkt.flow, hop);
        if next.is_none() {
            // End-to-end measurement happens where the packet leaves the
            // last queue on its route; for default flows that is hop 0.
            self.monitor.record_dequeue(pkt.flow, pkt.size, sojourn, now);
            self.counters.note_dequeue(pkt.flow);
            if let Some(m) = &mut self.metrics {
                m.note_dequeue(sojourn);
            }
        }
        if self.tracing() {
            self.emit(
                hop,
                TraceEvent::Dequeue {
                    t: now,
                    flow: pkt.flow,
                    seq: pkt.seq,
                    sojourn,
                },
            );
        }
        self.start_transmission(hop);
        match next {
            None => self.forward_final(pkt, now),
            Some(n) => {
                // Park the packet for its inter-hop propagation leg
                // toward the next hop's admission point.
                let prop = self.hops[n as usize].prop;
                let h = self.packets.insert(pkt);
                self.events.push(now + prop, Event::HopArrive(n, h));
            }
        }
    }

    /// Final leg past the last hop: the flow's forward propagation (and
    /// the impairment layer, when attached) ending in a `Deliver` event.
    fn forward_final(&mut self, pkt: Packet, now: Time) {
        let fwd = self.paths[pkt.flow.idx()].fwd;
        let Some(imp) = &mut self.impair else {
            let h = self.packets.insert(pkt);
            self.events.push(now + fwd, Event::Deliver(h));
            return;
        };
        // Impairments act past the last queue: the AQM verdict, the queue
        // accounting and the trace stream above are already final, so the
        // audit's enqueue/dequeue conservation is untouched — a lost
        // packet here is invisible to everyone but the endpoints.
        let fate = imp.forward();
        if let Some(extra) = fate.delay {
            if let Some(dup_extra) = fate.dup_delay {
                let mut copy = pkt.clone();
                copy.path_dup = true;
                let h = self.packets.insert(copy);
                self.events.push(now + fwd + dup_extra, Event::Deliver(h));
            }
            let h = self.packets.insert(pkt);
            self.events.push(now + fwd + extra, Event::Deliver(h));
        }
    }
}

/// Every piece of live core state in a fixed order: the event queue
/// (canonical `(time, seq)`-sorted pending list plus clock, sequence
/// counter and pop counter), the RNG stream, the monitor, the per-flow
/// counters, both in-flight pools (slot-positional, so `Deliver`/
/// `HopArrive`/`AckArrive` handles inside pending events stay valid), the
/// optional metrics and impairment sections (a presence flag, then the
/// section only if present), the per-flow paths, and every hop's mutable
/// state.
///
/// Trace sinks, the auditor and the profiler are pure observers and are
/// not checkpointed. Restore targets a core built with the same
/// structural configuration (same qdisc family, same registered flows,
/// impairment layer attached iff the snapshot had one); replay from the
/// restored state is bit-identical to the run the snapshot was taken from.
impl Ckpt for SimCore {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.time(self.events.now());
        w.u64(self.events.next_seq());
        w.u64(self.events.popped());
        let entries = self.events.entries_sorted();
        w.usize(entries.len());
        for e in entries {
            w.time(e.time);
            w.u64(e.seq);
            write_event(w, &e.event);
        }
        self.rng.save_ckpt(w);
        self.monitor.save_ckpt(w);
        self.counters.save_ckpt(w);
        self.packets.save_ckpt(w);
        self.acks.save_ckpt(w);
        w.bool(self.metrics.is_some());
        if let Some(m) = &self.metrics {
            m.save_ckpt(w);
        }
        w.bool(self.impair.is_some());
        if let Some(i) = &self.impair {
            i.save_ckpt(w);
        }
        self.paths[..].save_ckpt(w);
        self.hops[..].save_ckpt(w);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let now = r.time()?;
        let next_seq = r.u64()?;
        let popped = r.u64()?;
        // An entry is a time, a sequence number and at least an event tag.
        let n = r.len_of(8 + 8 + 1)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let time = r.time()?;
            let seq = r.u64()?;
            let event = read_event(r)?;
            if time < now {
                return Err(CkptError::Corrupt("pending event precedes restored clock"));
            }
            if seq >= next_seq {
                return Err(CkptError::Corrupt("pending event seq exceeds sequence counter"));
            }
            entries.push(EventEntry { time, seq, event });
        }
        self.events = EventQueue::from_parts(now, next_seq, popped, entries);
        self.rng.restore_ckpt(r)?;
        self.monitor.restore_ckpt(r)?;
        self.counters.restore_ckpt(r)?;
        self.packets.restore_ckpt(r)?;
        self.acks.restore_ckpt(r)?;
        if r.bool()? {
            self.enable_metrics();
            self.metrics
                .as_mut()
                .expect("metrics just enabled")
                .restore_ckpt(r)?;
        } else {
            self.metrics = None;
        }
        let impair_present = r.bool()?;
        match (&mut self.impair, impair_present) {
            (Some(imp), true) => imp.restore_ckpt(r)?,
            (None, false) => {}
            // The impairment layer's configuration (rates, jitter bounds)
            // is not in the blob; the caller must rebuild the sim with the
            // same `LinkImpairments` before restoring.
            _ => return Err(CkptError::Corrupt("impairment layer presence mismatch")),
        }
        self.paths[..].restore_ckpt(r)?;
        self.hops[..].restore_ckpt(r)
    }
}

/// Encode one pending event (checkpointing). The tags belong to
/// [`CKPT_VERSION`]: `Sim::restore` accepts exactly one version, so a tag
/// never has to stay decodable across a bump and each bump may renumber
/// them densely (version 4 did, when it retired the per-hop duplicates of
/// `Dequeue` and `AqmUpdate`; version 7 did, when the RTT-step event went).
fn write_event(w: &mut CkptWriter, ev: &Event) {
    match ev {
        Event::Dequeue(hop) => {
            w.u8(0);
            w.u32(*hop);
        }
        Event::Deliver(h) => {
            w.u8(1);
            w.u32(*h);
        }
        Event::AckArrive(h) => {
            w.u8(2);
            w.u32(*h);
        }
        Event::Timer { flow, kind, id } => {
            w.u8(3);
            w.u32(flow.0);
            match kind {
                TimerKind::Rto => w.u8(0),
                TimerKind::Send => w.u8(1),
                TimerKind::User(k) => {
                    w.u8(2);
                    w.u32(*k);
                }
            }
            w.u64(*id);
        }
        Event::AqmUpdate(hop) => {
            w.u8(4);
            w.u32(*hop);
        }
        Event::Sample => w.u8(5),
        Event::SetLinkRate(rate) => {
            w.u8(6);
            w.u64(*rate);
        }
        Event::SourceOn(f) => {
            w.u8(7);
            w.u32(f.0);
        }
        Event::SourceOff(f) => {
            w.u8(8);
            w.u32(f.0);
        }
        Event::HopArrive(hop, h) => {
            w.u8(9);
            w.u32(*hop);
            w.u32(*h);
        }
    }
}

/// Decode one pending event written by [`write_event`]. A tag outside
/// the current version's table — including the retired 10 to 12 — is
/// corruption, not an older format.
fn read_event(r: &mut CkptReader) -> Result<Event, CkptError> {
    Ok(match r.u8()? {
        0 => Event::Dequeue(r.u32()?),
        1 => Event::Deliver(r.u32()?),
        2 => Event::AckArrive(r.u32()?),
        3 => {
            let flow = FlowId(r.u32()?);
            let kind = match r.u8()? {
                0 => TimerKind::Rto,
                1 => TimerKind::Send,
                2 => TimerKind::User(r.u32()?),
                _ => return Err(CkptError::Corrupt("unknown timer kind tag")),
            };
            let id = r.u64()?;
            Event::Timer { flow, kind, id }
        }
        4 => Event::AqmUpdate(r.u32()?),
        5 => Event::Sample,
        6 => Event::SetLinkRate(r.u64()?),
        7 => Event::SourceOn(FlowId(r.u32()?)),
        8 => Event::SourceOff(FlowId(r.u32()?)),
        9 => {
            let hop = r.u32()?;
            Event::HopArrive(hop, r.u32()?)
        }
        _ => return Err(CkptError::Corrupt("unknown event tag")),
    })
}

/// A traffic source/sink pair for one flow. The same object holds both the
/// sender and the receiver side; the simulated network between them is the
/// event queue. Its [`Ckpt`] layout is every field that influences future
/// behaviour; a source whose behaviour is a pure function of its
/// configuration and the events delivered to it declares an empty one, so
/// a stateful one cannot forget it.
pub trait Source: Ckpt {
    /// Called when the source is switched on (start of its traffic).
    fn on_start(&mut self, core: &mut SimCore);

    /// Called when the source is switched off; it must stop generating new
    /// data (in-flight packets may still drain).
    fn on_stop(&mut self, core: &mut SimCore) {
        let _ = core;
    }

    /// A data packet of this flow arrived at the receiver.
    fn on_deliver(&mut self, pkt: Packet, core: &mut SimCore);

    /// An ACK of this flow arrived back at the sender.
    fn on_ack(&mut self, ack: Ack, core: &mut SimCore) {
        let _ = (ack, core);
    }

    /// A timer event of this flow popped. The source hands it to its
    /// [`LazyTimer`](crate::timer::LazyTimer) of that `kind`, whose
    /// [`wake`](crate::timer::LazyTimer::wake) says whether the timer is
    /// due.
    fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
        let _ = (kind, id, core);
    }
}

/// Top-level simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Bottleneck queue and link parameters.
    pub queue: QueueConfig,
    /// Root RNG seed; identical seeds give bit-identical runs.
    pub seed: u64,
    /// Measurement configuration.
    pub monitor: MonitorConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue: QueueConfig::default(),
            seed: 1,
            monitor: MonitorConfig::default(),
        }
    }
}

/// Display names of the event classes the self-profiler attributes time
/// to, indexed by [`event_class`]. One entry per [`Event`] variant.
pub const EVENT_CLASSES: [&str; 10] = [
    "dequeue",
    "deliver",
    "ack",
    "timer",
    "aqm_update",
    "sample",
    "set_link_rate",
    "source_on",
    "source_off",
    "hop_arrive",
];

/// The profiler class index of an event (an index into
/// [`EVENT_CLASSES`]).
pub fn event_class(ev: &Event) -> usize {
    match ev {
        Event::Dequeue(_) => 0,
        Event::Deliver(_) => 1,
        Event::AckArrive(_) => 2,
        Event::Timer { .. } => 3,
        Event::AqmUpdate(_) => 4,
        Event::Sample => 5,
        Event::SetLinkRate(_) => 6,
        Event::SourceOn(_) => 7,
        Event::SourceOff(_) => 8,
        Event::HopArrive(..) => 9,
    }
}

/// Checkpoint format version written by [`Sim::save`]; bumped whenever
/// the field layout changes incompatibly. Version 14 writes the
/// monitor's sojourn columns, run-wide and per flow, as their runs
/// (`RunColumn`: the values, then the `(index, count)` repeat entries)
/// instead of one `f32` per sample, as version 13 began doing for each
/// flow's probability column. CHANGES.md has what every earlier version
/// changed.
pub const CKPT_VERSION: u32 = 14;

/// The complete simulator: shared core + traffic sources.
pub struct Sim {
    /// Shared state (clock, queue, paths, monitor).
    pub core: SimCore,
    sources: Vec<Box<dyn Source>>,
    profiler: Option<Box<LoopProfiler>>,
    background: Option<Background>,
}

impl Sim {
    /// Build a simulator with the given AQM attached to a FIFO bottleneck.
    pub fn new(cfg: SimConfig, aqm: Box<dyn crate::aqm::Aqm>) -> Self {
        let queue = BottleneckQueue::new(cfg.queue, aqm);
        Sim::with_qdisc(cfg, Box::new(queue))
    }

    /// Build a simulator around an arbitrary queueing discipline (e.g. the
    /// DualQ Coupled AQM, which owns two internal queues). The rate and
    /// buffer in `cfg.queue` are ignored — the qdisc carries its own.
    pub fn with_qdisc(cfg: SimConfig, qdisc: Box<dyn Qdisc>) -> Self {
        let mut core = SimCore::new(cfg.seed, cfg.monitor);
        // Debug-default runtime auditing: debug builds audit every run
        // (set PI2_AUDIT=0 to opt out), release builds only on PI2_AUDIT=1
        // or an explicit `enable_audit`. The auditor is a pure observer,
        // so this cannot change any run's outcome — only catch corruption.
        let audit_on = match std::env::var("PI2_AUDIT").ok().as_deref() {
            Some("0") | Some("off") | Some("false") => false,
            Some(_) => true,
            None => cfg!(debug_assertions),
        };
        if audit_on {
            core.enable_audit(AuditSink::new(cfg.seed));
        }
        // Pool occupancy is bounded by packets in forward flight and ACKs
        // in reverse flight, not run length; one up-front reservation
        // keeps the slabs from regrowing on the per-event hot path.
        core.packets.reserve(2048);
        core.acks.reserve(2048);
        // Hop 0, the primary bottleneck: sources inject into it directly,
        // so it has no ingress leg.
        core.add_hop(qdisc, Duration::ZERO);
        let sample_iv = core.monitor.sample_interval();
        core.events.push(Time::ZERO + sample_iv, Event::Sample);
        Sim {
            core,
            sources: Vec::new(),
            profiler: None,
            background: None,
        }
    }

    /// Attach the event-loop self-profiler: every subsequent event's
    /// handler is timed with two monotonic-clock reads and attributed to
    /// its class (see [`EVENT_CLASSES`]). Wall-clock readings never feed
    /// back into simulation state, so profiled runs stay bit-identical.
    pub fn enable_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::new(LoopProfiler::new(&EVENT_CLASSES)));
        }
    }

    /// Detach and return the profiler, stopping further timing.
    pub fn take_profiler(&mut self) -> Option<Box<LoopProfiler>> {
        self.profiler.take()
    }

    /// The attached profiler, if profiling is enabled.
    pub fn profiler(&self) -> Option<&LoopProfiler> {
        self.profiler.as_deref()
    }

    /// Add a flow: registers the path, constructs the source via `make`
    /// (which receives the assigned [`FlowId`]), and schedules its start.
    pub fn add_flow<F>(&mut self, path: PathConf, label: &str, start: Time, make: F) -> FlowId
    where
        F: FnOnce(FlowId) -> Box<dyn Source>,
    {
        let id = self.core.register_flow(path, label);
        self.sources.push(make(id));
        self.core.events.push(start, Event::SourceOn(id));
        id
    }

    /// Schedule a flow to stop at `at`.
    pub fn stop_flow_at(&mut self, flow: FlowId, at: Time) {
        self.core.events.push(at, Event::SourceOff(flow));
    }

    /// Schedule an already-registered flow to (re)start at `at` — with
    /// [`Self::stop_flow_at`], the building block for scripted flow churn.
    pub fn start_flow_at(&mut self, flow: FlowId, at: Time) {
        self.core.events.push(at, Event::SourceOn(flow));
    }

    /// Schedule a bottleneck rate change at `at`.
    pub fn set_rate_at(&mut self, at: Time, rate_bps: u64) {
        self.core.events.push(at, Event::SetLinkRate(rate_bps));
    }

    /// Schedule an arbitrary disturbance event (rate steps, flow churn) —
    /// the generic form of the helpers above, forwarding to
    /// [`SimCore::schedule`].
    pub fn schedule(&mut self, at: Time, event: Event) {
        self.core.schedule(at, event);
    }

    /// Add a store-and-forward hop past the primary bottleneck
    /// (forwarding to [`SimCore::add_hop`]); returns the hop id.
    pub fn add_hop(&mut self, qdisc: Box<dyn Qdisc>, prop: Duration) -> u32 {
        self.core.add_hop(qdisc, prop)
    }

    /// Steer a flow across a hop route (forwarding to
    /// [`SimCore::set_route`]).
    pub fn set_route(&mut self, flow: FlowId, route: Vec<u32>) {
        self.core.set_route(flow, route);
    }

    /// Attach a hybrid-mode background aggregate (see
    /// [`crate::background`]). The nominal capacity it steals from is the
    /// bottleneck's current rate; subsequent `SetLinkRate` events move
    /// that nominal capacity and re-grant against it. Attach before
    /// running (and before `restore` — the aggregate is part of the
    /// checkpoint schema).
    pub fn attach_background(&mut self, agg: Box<dyn BackgroundAggregate>) {
        let cap = self.core.hop_qdisc(0).link().rate_bps();
        self.background = Some(Background::new(agg, cap));
    }

    /// The attached background aggregate, if the run is hybrid.
    pub fn background(&self) -> Option<&Background> {
        self.background.as_ref()
    }

    /// Advance the attached background aggregate one coupling tick and
    /// re-split the bottleneck capacity. No-op without an attachment, so
    /// packet-only runs take no extra work (and no `probe()` read).
    fn background_tick(&mut self, now: Time, state: &AqmState) {
        let Some(dt) = self.core.hop_qdisc(0).update_interval() else {
            return;
        };
        let Some(bg) = &mut self.background else {
            return;
        };
        let bps = bg
            .agg
            .on_tick(dt, state.prob, state.scalable_prob, state.qdelay);
        let granted = bps.min(bg.grant_ceiling());
        bg.bg_bytes += granted as f64 * dt.as_secs_f64() / 8.0;
        bg.ticks += 1;
        bg.series.push((now, granted));
        let changed = granted != bg.applied_bps;
        let fg_rate = bg.capacity_bps - granted;
        bg.applied_bps = granted;
        // Only touch the qdisc when the split actually moved: an aggregate
        // that never ramps (zero background flows) leaves the bottleneck
        // untouched, keeping the run identical to a packet-only one.
        if changed {
            self.core.hop_qdisc_mut(0).link_mut().set_rate_bps(fg_rate);
        }
    }

    /// Periodic controller tick of `hop`'s AQM. Every hop's post-update
    /// state reaches the auditor and the sinks; the update counter, the
    /// metrics and the hybrid background follow the primary bottleneck
    /// only. `probe()` is the one read of controller state, and a pure
    /// one, so taking it only when something consumes it cannot perturb
    /// the run.
    fn handle_aqm_update(&mut self, hop: u32) {
        let primary = hop == 0;
        let now = self.core.now();
        self.core.hop_qdisc_mut(hop).update(now);
        if primary {
            self.core.counters.note_aqm_update();
        }
        let consumed = primary && (self.core.metrics.is_some() || self.background.is_some());
        if consumed || self.core.tracing() {
            let state = self.core.hop_qdisc(hop).probe();
            if let (true, Some(m)) = (primary, &mut self.core.metrics) {
                m.note_aqm_update(&state);
            }
            self.core.emit_aqm_state(hop, now, &state);
            if primary {
                self.background_tick(now, &state);
            }
        }
        if let Some(iv) = self.core.hop_qdisc(hop).update_interval() {
            self.core.events.push(now + iv, Event::AqmUpdate(hop));
        }
    }

    /// Structural fingerprint of this simulator build: format version,
    /// flow count and monitor flow labels. Values are deliberately
    /// excluded — the hash changes exactly when a restore would write
    /// state into the wrong slots. (The qdisc family cannot be folded in
    /// because [`Qdisc`] carries no name; mismatched qdiscs surface as a
    /// `Corrupt` error from the qdisc's own field validation instead.)
    fn schema_hash(&self) -> u64 {
        let mut h = SchemaHasher::new();
        h.update_u64(u64::from(CKPT_VERSION));
        h.update_u64(self.core.flow_count() as u64);
        for i in 0..self.core.flow_count() {
            h.update_str(&self.core.monitor.flow(FlowId(i as u32)).label);
        }
        // Topology shape: hop count and every flow's route. A restore
        // into a differently wired topology would write hop state into
        // the wrong queues.
        h.update_u64(self.core.hop_count() as u64);
        for i in 0..self.core.flow_count() {
            let route = self.core.route(FlowId(i as u32));
            h.update_u64(route.len() as u64);
            for &hop in route {
                h.update_u64(u64::from(hop));
            }
        }
        // Hybrid background shape: a restore must not mix a hybrid
        // snapshot into a packet-only build (or vice versa), nor into a
        // differently shaped aggregate.
        match &self.background {
            Some(bg) => {
                h.update_u64(1);
                h.update_u64(bg.agg.flow_count());
                h.update_u64(bg.agg.schema_fingerprint());
            }
            None => h.update_u64(0),
        }
        h.finish()
    }

    /// Snapshot the complete live simulator state to a deterministic
    /// binary blob: magic, format version, schema hash, the core (its
    /// [`Ckpt`] impl), every source's mutable state and the background. Two
    /// snapshots of identical simulator states are byte-identical.
    pub fn save(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.raw(&pi2_simcore::ckpt::MAGIC);
        w.u32(CKPT_VERSION);
        w.u64(self.schema_hash());
        self.core.save_ckpt(&mut w);
        self.sources[..].save_ckpt(&mut w);
        w.bool(self.background.is_some());
        if let Some(bg) = &self.background {
            bg.save_ckpt(&mut w);
        }
        w.into_bytes()
    }

    /// Restore a snapshot produced by [`Sim::save`] into a freshly built
    /// simulator with the same structural configuration (same qdisc and
    /// parameters, same flows in the same order, same impairment layer).
    /// Replaying from the restored state is bit-identical — same golden
    /// traces, same metrics, same counters — to the run the snapshot came
    /// from; `tests/checkpoint.rs` holds that oracle.
    ///
    /// Events scheduled by construction (the initial `AqmUpdate`/`Sample`
    /// ticks, `SourceOn` starts) are discarded wholesale: the restored
    /// event queue already contains their successors.
    pub fn restore(&mut self, blob: &[u8]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(blob);
        if r.take(pi2_simcore::ckpt::MAGIC.len())? != pi2_simcore::ckpt::MAGIC {
            return Err(CkptError::BadMagic);
        }
        let found = r.u32()?;
        if found != CKPT_VERSION {
            return Err(CkptError::VersionMismatch {
                found,
                expected: CKPT_VERSION,
            });
        }
        let found = r.u64()?;
        let expected = self.schema_hash();
        if found != expected {
            return Err(CkptError::SchemaMismatch { found, expected });
        }
        self.core.restore_ckpt(&mut r)?;
        self.sources[..].restore_ckpt(&mut r)?;
        let has_bg = r.bool()?;
        if has_bg != self.background.is_some() {
            return Err(CkptError::Corrupt("background presence mismatch"));
        }
        if let Some(bg) = &mut self.background {
            bg.restore_ckpt(&mut r)?;
        }
        r.finish()?;
        // Re-apply the capacity split so the foreground drain rate is
        // consistent with the restored grant even if the qdisc snapshot
        // predates the last tick (idempotent when it doesn't).
        if let Some(bg) = &self.background {
            let fg_rate = bg.capacity_bps - bg.applied_bps;
            self.core.hop_qdisc_mut(0).link_mut().set_rate_bps(fg_rate);
        }
        // The auditor (a pure observer, not checkpointed) resumes from the
        // restored occupancy of every hop: conservation from here on is
        // baseline + enqueued - dequeued == qlen, hop by hop.
        self.core.rebaseline_audit();
        Ok(())
    }

    /// Run until the clock reaches `end` (events at exactly `end`
    /// included) or no events remain.
    pub fn run_until(&mut self, end: Time) {
        while let Some(t) = self.core.events.peek_time() {
            if t > end {
                break;
            }
            self.step();
        }
        // Event boundaries are exactly where audited conservation must
        // hold; repeated run_until calls re-verify at each stop point.
        self.core.finish_audit();
    }

    /// Process a single event. Returns false when the event queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, event)) = self.core.events.pop() else {
            return false;
        };
        if let Some(p) = &mut self.profiler {
            p.begin(event_class(&event));
        }
        match event {
            Event::Dequeue(hop) => {
                self.core.handle_dequeue(hop);
            }
            Event::Deliver(h) => {
                let pkt = self.core.packets.take(h);
                let now = self.core.now();
                self.core.monitor.record_delivered(pkt.flow, pkt.size, now);
                let idx = pkt.flow.idx();
                self.sources[idx].on_deliver(pkt, &mut self.core);
            }
            Event::AckArrive(h) => {
                let ack = self.core.acks.take(h);
                self.sources[ack.flow.idx()].on_ack(ack, &mut self.core);
            }
            Event::Timer { flow, kind, id } => {
                self.sources[flow.idx()].on_timer(kind, id, &mut self.core);
            }
            Event::AqmUpdate(hop) => {
                self.handle_aqm_update(hop);
            }
            Event::Sample => {
                let now = self.core.now();
                self.core.monitor.sample(self.core.hops[0].qdisc.as_ref(), now);
                let iv = self.core.monitor.sample_interval();
                self.core.events.push(now + iv, Event::Sample);
            }
            Event::SetLinkRate(rate) => {
                if let Some(bg) = &mut self.background {
                    // Disturbances move the *nominal* capacity; the
                    // aggregate keeps its grant (clamped to the new
                    // foreground floor) and the foreground gets the rest.
                    bg.capacity_bps = rate;
                    let granted = bg.applied_bps.min(bg.grant_ceiling());
                    bg.applied_bps = granted;
                    self.core.hop_qdisc_mut(0).link_mut().set_rate_bps(rate - granted);
                } else {
                    self.core.hop_qdisc_mut(0).link_mut().set_rate_bps(rate);
                }
            }
            Event::SourceOn(flow) => {
                self.sources[flow.idx()].on_start(&mut self.core);
            }
            Event::SourceOff(flow) => {
                self.sources[flow.idx()].on_stop(&mut self.core);
            }
            Event::HopArrive(hop, h) => {
                let pkt = self.core.packets.take(h);
                self.core.admit(hop, pkt, false);
            }
        }
        if let Some(p) = &mut self.profiler {
            p.end();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::PassAqm;
    use crate::packet::Ecn;
    use crate::queue::{Fifo, Link};
    use crate::timer::LazyTimer;

    use std::cell::RefCell;
    use std::rc::Rc;

    /// Shared observation log for scripted test sources.
    #[derive(Default)]
    struct ProbeLog {
        delivered: Vec<u64>,
        acked: Vec<u64>,
    }

    /// A scripted source: sends `n` packets back-to-back on start, ACKs
    /// every delivery, and records what it sees into a shared log.
    struct Probe {
        id: FlowId,
        n: u64,
        rcv_pkts: u64,
        log: Rc<RefCell<ProbeLog>>,
    }

    impl Source for Probe {
        fn on_start(&mut self, core: &mut SimCore) {
            for seq in 0..self.n {
                let pkt = Packet::data(self.id, seq, 1000, Ecn::NotEct, core.now());
                core.send_packet(pkt);
            }
        }
        fn on_deliver(&mut self, pkt: Packet, core: &mut SimCore) {
            self.log.borrow_mut().delivered.push(pkt.seq);
            self.rcv_pkts += 1;
            core.send_ack(Ack {
                flow: self.id,
                cum_seq: pkt.seq + 1,
                ece: false,
                ce_total: 0,
                pkts_total: self.rcv_pkts,
                echo_ts: pkt.sent_at,
                echo_rtx: pkt.retransmit,
                sack: Ack::NO_SACK,
            });
        }
        fn on_ack(&mut self, ack: Ack, _core: &mut SimCore) {
            self.log.borrow_mut().acked.push(ack.cum_seq);
        }
    }
    ckpt_fields!(Probe { rcv_pkts });

    fn build(n: u64, rate: u64, rtt_ms: i64) -> (Sim, FlowId, Rc<RefCell<ProbeLog>>) {
        let cfg = SimConfig {
            queue: QueueConfig {
                rate_bps: rate,
                buffer_bytes: usize::MAX,
            },
            seed: 7,
            monitor: MonitorConfig::default(),
        };
        let mut sim = Sim::new(cfg, Box::new(PassAqm));
        let log = Rc::new(RefCell::new(ProbeLog::default()));
        let log2 = Rc::clone(&log);
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            "probe",
            Time::ZERO,
            move |id| {
                Box::new(Probe {
                    id,
                    n,
                    rcv_pkts: 0,
                    log: log2,
                })
            },
        );
        (sim, id, log)
    }

    #[test]
    fn packets_deliver_in_order_with_correct_latency() {
        // 1000-byte packets at 1 Mb/s: 8 ms serialization each; RTT 10 ms.
        let (mut sim, _, log) = build(3, 1_000_000, 10);
        sim.run_until(Time::from_secs(5));
        assert_eq!(log.borrow().delivered, vec![0, 1, 2]);
        assert_eq!(log.borrow().acked, vec![1, 2, 3]);
    }

    #[test]
    fn serialization_spacing_matches_rate() {
        // Deliveries must be spaced by the serialization time (8 ms),
        // first arriving at ser + fwd prop = 8 + 5 = 13 ms.
        let (mut sim, _, _log) = build(2, 1_000_000, 10);
        let mut deliveries = Vec::new();
        while sim.core.events.peek_time().is_some() && sim.core.now() < Time::from_secs(5) {
            // Inspect the event stream by watching monitor deltas instead:
            sim.step();
            let d = sim.core.monitor.flow(FlowId(0)).delivered_pkts;
            if deliveries.last().copied().unwrap_or(0) != d {
                deliveries.push(d);
            }
            if d == 2 {
                break;
            }
        }
        let now = sim.core.now();
        // Second delivery at 2*8 + 5 = 21 ms.
        assert_eq!(now, Time::from_millis(21));
    }

    #[test]
    fn monitor_counts_sent_and_delivered() {
        let (mut sim, id, _log) = build(5, 10_000_000, 10);
        sim.run_until(Time::from_secs(5));
        let acc = sim.core.monitor.flow(id);
        assert_eq!(acc.sent_pkts, 5);
        assert_eq!(acc.delivered_pkts, 5);
        assert_eq!(acc.delivered_bytes, 5000);
        assert_eq!(sim.core.counters.flow(id).dropped, 0);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                queue: QueueConfig::default(),
                seed,
                monitor: MonitorConfig::default(),
            };
            let mut sim = Sim::new(cfg, Box::new(PassAqm));
            sim.add_flow(
                PathConf::symmetric(Duration::from_millis(20)),
                "probe",
                Time::ZERO,
                |id| {
                    Box::new(Probe {
                        id,
                        n: 50,
                        rcv_pkts: 0,
                        log: Rc::new(RefCell::new(ProbeLog::default())),
                    })
                },
            );
            sim.run_until(Time::from_secs(2));
            (
                sim.core.events.popped(),
                sim.core.hop_qdisc(0).link().dequeued_bytes(),
            )
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn timers_fire_for_the_right_flow() {
        struct TimerProbe {
            timer: LazyTimer,
            fired: Rc<RefCell<Vec<(TimerKind, Time)>>>,
        }
        impl Source for TimerProbe {
            fn on_start(&mut self, core: &mut SimCore) {
                self.timer.arm(core, Duration::from_millis(5));
            }
            fn on_deliver(&mut self, _pkt: Packet, _core: &mut SimCore) {}
            fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
                assert!(self.timer.wake(core, id), "a timer armed once wakes once, due");
                self.fired.borrow_mut().push((kind, core.now()));
            }
        }
        ckpt_fields!(TimerProbe { timer });
        let fired = Rc::new(RefCell::new(Vec::new()));
        let fired2 = Rc::clone(&fired);
        let mut sim = Sim::new(SimConfig::default(), Box::new(PassAqm));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "t",
            Time::ZERO,
            move |id| {
                Box::new(TimerProbe {
                    timer: LazyTimer::new(id, TimerKind::Send),
                    fired: fired2,
                })
            },
        );
        sim.run_until(Time::from_secs(1));
        assert_eq!(*fired.borrow(), [(TimerKind::Send, Time::from_millis(5))]);
    }

    #[test]
    fn rate_change_event_applies() {
        let (mut sim, _, _log) = build(1, 1_000_000, 10);
        sim.set_rate_at(Time::from_millis(100), 5_000_000);
        sim.run_until(Time::from_secs(1));
        assert_eq!(sim.core.hop_qdisc(0).link().rate_bps(), 5_000_000);
    }

    /// A two-queue qdisc that stages every even-seq packet internally and
    /// only exposes it to the scheduler (start_tx/pop) once the *next*
    /// packet arrives. After the first admission on an idle link the qdisc
    /// reports 1 staged packet but no serviceable head; after the second,
    /// 2 packets at once. This is the shape of behaviour (DualQ staging,
    /// shaping) that the old `len_pkts() == 1` assert in `send_packet`
    /// mis-fired on.
    struct StagingQdisc {
        ready: Fifo,
        staged: Option<(Packet, Time)>,
        link: Link,
    }
    impl StagingQdisc {
        fn new() -> Self {
            StagingQdisc {
                ready: Fifo::with_capacity(4),
                staged: None,
                link: Link::new(1_000_000, usize::MAX),
            }
        }
    }
    impl Qdisc for StagingQdisc {
        fn offer(&mut self, pkt: Packet, now: Time, _rng: &mut Rng) -> crate::aqm::Decision {
            if let Some((prev, at)) = self.staged.take() {
                self.ready.push(prev, at);
            }
            if pkt.seq % 2 == 0 {
                self.staged = Some((pkt, now));
            } else {
                self.ready.push(pkt, now);
            }
            crate::aqm::Decision::pass(0.0)
        }
        fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
            let (pkt, at) = self.ready.pop()?;
            self.link.note_sent(pkt.size);
            Some((pkt, now.saturating_since(at)))
        }
        fn start_tx(&mut self) -> Option<usize> {
            self.ready.front().map(|(p, _)| p.size)
        }
        fn len_bytes(&self) -> usize {
            self.ready.bytes() + self.staged.as_ref().map_or(0, |(p, _)| p.size)
        }
        fn len_pkts(&self) -> usize {
            self.ready.len() + usize::from(self.staged.is_some())
        }
        fn link(&self) -> &Link {
            &self.link
        }
        fn link_mut(&mut self) -> &mut Link {
            &mut self.link
        }
        fn update(&mut self, _now: Time) {}
        fn update_interval(&self) -> Option<Duration> {
            None
        }
    }
    ckpt_fields!(StagingQdisc {});

    #[test]
    fn multi_queue_qdisc_admission_does_not_trip_the_idle_link_assert() {
        // Two back-to-back packets: the first is staged (len 1, no head),
        // the second makes both serviceable at once (len 2 on an idle
        // link). With the over-broad `len_pkts() == 1` assert this
        // panicked in debug builds; the scoped non-empty assert must let
        // the run complete and deliver both packets.
        let log = Rc::new(RefCell::new(ProbeLog::default()));
        let log2 = Rc::clone(&log);
        let mut sim = Sim::with_qdisc(SimConfig::default(), Box::new(StagingQdisc::new()));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "probe",
            Time::ZERO,
            move |id| {
                Box::new(Probe {
                    id,
                    n: 2,
                    rcv_pkts: 0,
                    log: log2,
                })
            },
        );
        sim.run_until(Time::from_secs(5));
        assert_eq!(log.borrow().delivered, vec![0, 1]);
    }

    #[test]
    fn path_symmetric_splits_rtt() {
        let p = PathConf::symmetric(Duration::from_millis(25));
        assert_eq!(p.base_rtt(), Duration::from_millis(25));
        assert!(p.fwd <= p.rev);
    }

    fn fifo_hop(rate_bps: u64) -> Box<dyn Qdisc> {
        Box::new(BottleneckQueue::new(
            QueueConfig {
                rate_bps,
                buffer_bytes: usize::MAX,
            },
            Box::new(PassAqm),
        ))
    }

    #[test]
    fn two_hop_chain_delivers_with_summed_latency() {
        // Hop 0 at 1 Mb/s, hop 1 at 1 Mb/s, 3 ms inter-hop propagation.
        // One 1000-byte packet: 8 ms ser at hop 0, 3 ms prop, 8 ms ser at
        // hop 1, 5 ms final fwd leg = delivered at 24 ms.
        let (mut sim, id, log) = build(1, 1_000_000, 10);
        let hop = sim.add_hop(fifo_hop(1_000_000), Duration::from_millis(3));
        sim.set_route(id, vec![0, hop]);
        sim.run_until(Time::from_secs(5));
        assert_eq!(log.borrow().delivered, vec![0]);
        assert_eq!(log.borrow().acked, vec![1]);
        let acc = sim.core.monitor.flow(id);
        assert_eq!(acc.sent_pkts, 1);
        assert_eq!(sim.core.counters.flow(id).dequeued, 1, "counted once, at the last hop");
        assert_eq!(acc.delivered_pkts, 1);
        // Per-hop egress accounting saw the packet at both hops.
        assert_eq!(sim.core.hop_flow_bytes(0)[id.idx()], 1000);
        assert_eq!(sim.core.hop_flow_bytes(hop)[id.idx()], 1000);
    }

    #[test]
    fn flow_entering_at_a_later_hop_bypasses_the_primary_bottleneck() {
        let cfg = SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000,
                buffer_bytes: usize::MAX,
            },
            seed: 7,
            monitor: MonitorConfig::default(),
        };
        let mut sim = Sim::new(cfg, Box::new(PassAqm));
        let hop = sim.add_hop(fifo_hop(2_000_000), Duration::from_millis(1));
        let log = Rc::new(RefCell::new(ProbeLog::default()));
        let log2 = Rc::clone(&log);
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "cross",
            Time::ZERO,
            move |id| {
                Box::new(Probe {
                    id,
                    n: 4,
                    rcv_pkts: 0,
                    log: log2,
                })
            },
        );
        sim.set_route(id, vec![hop]);
        sim.run_until(Time::from_secs(5));
        assert_eq!(log.borrow().delivered, vec![0, 1, 2, 3]);
        // The primary bottleneck never saw the flow...
        assert_eq!(sim.core.hop_qdisc(0).link().dequeued_bytes(), 0);
        assert_eq!(sim.core.hop_flow_bytes(0)[id.idx()], 0);
        // ...but the end-to-end accounting is complete.
        let acc = sim.core.monitor.flow(id);
        assert_eq!(acc.sent_pkts, 4);
        assert_eq!(sim.core.counters.flow(id).dequeued, 4);
        assert_eq!(acc.delivered_pkts, 4);
        assert_eq!(sim.core.hop_flow_bytes(hop)[id.idx()], 4000);
    }

    #[test]
    fn multi_hop_run_passes_the_per_hop_conservation_audit() {
        let (mut sim, id, _log) = build(20, 5_000_000, 10);
        sim.core.enable_audit(AuditSink::new(7).with_label("multihop"));
        let h1 = sim.add_hop(fifo_hop(5_000_000), Duration::from_millis(2));
        let h2 = sim.add_hop(fifo_hop(5_000_000), Duration::from_millis(2));
        sim.set_route(id, vec![0, h1, h2]);
        // The auditor follows every hop's event stream, and run_until's
        // finish_audit checks conservation hop by hop; all queues drain
        // by the end.
        sim.run_until(Time::from_secs(5));
        assert_eq!(sim.core.monitor.flow(id).delivered_pkts, 20);
        assert_eq!(sim.core.hop_qdisc(h1).len_pkts(), 0);
        assert_eq!(sim.core.hop_qdisc(h2).len_pkts(), 0);
    }

    #[test]
    fn default_flows_are_unaffected_by_an_unrouted_extra_hop() {
        // Two identical sims; one grows an extra hop nobody routes over.
        // Every observable of the default flow must match bit-for-bit.
        let observe = |add_hop: bool| {
            let (mut sim, id, _log) = build(30, 2_000_000, 20);
            if add_hop {
                sim.add_hop(fifo_hop(1_000_000), Duration::from_millis(5));
            }
            sim.run_until(Time::from_secs(5));
            let acc = sim.core.monitor.flow(id);
            (
                sim.core.events.popped(),
                acc.sent_pkts,
                acc.delivered_bytes,
                sim.core.hop_qdisc(0).link().dequeued_bytes(),
            )
        };
        assert_eq!(observe(false), observe(true));
    }

    #[test]
    fn invalid_routes_are_rejected() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (mut sim, id, _log) = build(1, 1_000_000, 10);
        let hop = sim.add_hop(fifo_hop(1_000_000), Duration::from_millis(1));
        for bad in [vec![], vec![7], vec![hop, 0], vec![0, hop, hop]] {
            let r = catch_unwind(AssertUnwindSafe(|| sim.set_route(id, bad.clone())));
            assert!(r.is_err(), "route {bad:?} should be rejected");
        }
        sim.set_route(id, vec![0, hop]); // the valid shape still works
    }

    #[test]
    fn multi_hop_checkpoint_round_trips() {
        let build_chain = || {
            let (mut sim, id, _log) = build(40, 2_000_000, 10);
            let h1 = sim.add_hop(fifo_hop(1_500_000), Duration::from_millis(2));
            sim.set_route(id, vec![0, h1]);
            sim
        };
        let mut sim = build_chain();
        sim.run_until(Time::from_millis(30));
        let blob = sim.save();
        let mut restored = build_chain();
        restored.restore(&blob).expect("restore must succeed");
        assert_eq!(blob, restored.save(), "snapshot of restored state differs");
        sim.run_until(Time::from_secs(5));
        restored.run_until(Time::from_secs(5));
        assert_eq!(sim.save(), restored.save(), "replay diverged after restore");
    }

    #[test]
    fn a_corrupt_list_length_is_truncated_not_an_allocation() {
        // Mid-run, metrics on: pending events, live and vacant pool slots
        // and non-empty histograms are all in the blob.
        let build_metered = || {
            let (mut sim, _id, _log) = build(40, 2_000_000, 10);
            sim.core.enable_metrics();
            sim
        };
        let mut sim = build_metered();
        sim.run_until(Time::from_millis(30));
        let blob = sim.save();
        // Where a component's own bytes sit in the whole blob.
        let find = |save: &dyn Fn(&mut CkptWriter)| {
            let mut w = CkptWriter::new();
            save(&mut w);
            let part = w.into_bytes();
            let at = blob.windows(part.len()).position(|w| w == part);
            (at.expect("the component is in the blob"), part.len())
        };
        let packets = &sim.core.packets;
        let (packets_at, packets_len) = find(&|w| packets.save_ckpt(w));
        let vacant = packets.capacity() - packets.in_use();
        assert!(packets.in_use() > 0 && vacant > 0);
        let metrics = sim.core.metrics.as_ref().expect("enabled above");
        let (metrics_at, _) = find(&|w| metrics.save_ckpt(w));
        // The registry opens with its counter list, then its gauge list,
        // each led by its length.
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
        let counters = word(metrics_at);
        let gauges = word(metrics_at + 8 * (1 + counters));
        let lengths = [
            // Magic, version, schema hash; clock, next seq, popped.
            ("pending events", 8 + 4 + 8 + 3 * 8),
            ("pool slots", packets_at),
            // The pool ends: free count, free handles, high-water mark.
            ("pool free list", packets_at + packets_len - 8 - 4 * vacant - 8),
            // Counter count and counters, gauge count and gauges, histogram
            // count: then the first histogram's non-zero bucket count.
            ("histogram buckets", metrics_at + 8 * (1 + counters + 1 + gauges + 1)),
        ];
        build_metered().restore(&blob).expect("the untouched blob restores");
        for (what, at) in lengths {
            let mut bad = blob.clone();
            bad[at..at + 8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
            assert_eq!(build_metered().restore(&bad), Err(CkptError::Truncated), "{what}");
        }
    }

    #[test]
    fn ack_round_trips_sack_blocks() {
        let ack = Ack {
            flow: FlowId(2),
            cum_seq: 100,
            ece: true,
            ce_total: 5,
            pkts_total: 90,
            echo_ts: Time::from_millis(17),
            echo_rtx: true,
            sack: [Some((120, 130)), None, Some((140, 145))],
        };
        let mut w = CkptWriter::new();
        ack.save_ckpt(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let mut back = Ack::default();
        back.restore_ckpt(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.flow, ack.flow);
        assert_eq!(back.cum_seq, ack.cum_seq);
        assert_eq!(back.ece, ack.ece);
        assert_eq!(back.ce_total, ack.ce_total);
        assert_eq!(back.pkts_total, ack.pkts_total);
        assert_eq!(back.echo_ts, ack.echo_ts);
        assert_eq!(back.echo_rtx, ack.echo_rtx);
        assert_eq!(back.sack, ack.sack);
    }

    #[test]
    fn event_tags_are_dense_and_retired_ones_are_corrupt() {
        let decode = |tag: u8| {
            let mut w = CkptWriter::new();
            w.u8(tag);
            w.u32(2);
            w.u32(5);
            let bytes = w.into_bytes();
            read_event(&mut CkptReader::new(&bytes))
        };
        // The table ends at 9 (`HopArrive` since version 7)...
        assert!(matches!(decode(9), Ok(Event::HopArrive(2, 5))));
        // ...so the tags earlier versions had past it (10 to 12), like
        // anything else past the end, are a damaged blob.
        for tag in [10, 11, 12, u8::MAX] {
            assert!(matches!(
                decode(tag),
                Err(CkptError::Corrupt("unknown event tag"))
            ));
        }
    }

    #[test]
    fn schema_hash_rejects_topology_shape_changes() {
        let (mut sim, id, _log) = build(5, 1_000_000, 10);
        let h1 = sim.add_hop(fifo_hop(1_000_000), Duration::from_millis(1));
        sim.set_route(id, vec![0, h1]);
        let blob = sim.save();
        // Same flows, same hop count — but a different route.
        let (mut other, oid, _log2) = build(5, 1_000_000, 10);
        let oh = other.add_hop(fifo_hop(1_000_000), Duration::from_millis(1));
        other.set_route(oid, vec![oh]);
        assert!(matches!(
            other.restore(&blob),
            Err(CkptError::SchemaMismatch { .. })
        ));
    }
}
