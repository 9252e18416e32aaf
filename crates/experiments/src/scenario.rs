//! Scenario assembly: declarative descriptions of the paper's testbed
//! set-ups, compiled into `pi2-netsim` simulations.

use crate::backend::{Backend, BackgroundRun, BgGroup, FluidBackground};
use pi2_aqm::{
    CoupledPi2, CoupledPi2Config, CurvyRed, CurvyRedConfig, DualPi2, DualPi2Config, FixedProb,
    FqConfig, FqDrr, Pi, Pi2, Pi2Config, PiConfig, Pie, PieConfig, StepMark, StepMarkConfig,
};
use pi2_netsim::{
    Aqm, BottleneckQueue, Ecn, ImpairStats, LinkImpairments, Monitor, MonitorConfig,
    OnOffCbrSource, PassAqm, PathConf, Qdisc, QueueConfig, Sim, SimConfig, SimMetrics, Source,
    Topology, TraceCounts, UdpCbrSource,
};
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};

/// Which AQM guards the bottleneck.
#[derive(Clone, Debug)]
pub enum AqmKind {
    /// Full Linux PIE with the paper's ECN rework.
    Pie(PieConfig),
    /// PI2 (standalone Classic form, Figure 8).
    Pi2(Pi2Config),
    /// Plain PI with fixed gains (Figure 6's `pi`, or `scal pi`).
    Pi(PiConfig),
    /// The coupled Classic/Scalable single-queue AQM (Figure 9).
    Coupled(CoupledPi2Config),
    /// No AQM: tail-drop only.
    TailDrop,
    /// The two-queue DualQ Coupled AQM (Section 7's recommended
    /// deployment). A full qdisc rather than a FIFO-attached [`Aqm`]:
    /// only [`AqmKind::build_qdisc`] can instantiate it.
    DualQ(DualPi2Config),
    /// Per-flow queuing (DRR), the isolation alternative of the paper's
    /// §1. A full qdisc like [`AqmKind::DualQ`].
    Fq(FqConfig),
    /// Curvy RED, the DualQ draft's example AQM (paper §3).
    Curvy(CurvyRedConfig),
    /// A constant signal probability (Appendix A law validation).
    FixedProb(f64),
    /// The original DCTCP step-threshold marker (eq. (12)).
    StepMark(StepMarkConfig),
}

impl AqmKind {
    /// Instantiate the complete queueing discipline for `queue`, the one
    /// way to build an `AqmKind`. Single-queue AQMs are wrapped in the
    /// standard FIFO [`BottleneckQueue`]; the DualQ and FQ carry their own
    /// internal queues, taking `queue`'s rate and buffer in place of
    /// whatever their config was built with (so a scenario's `rate_bps` is
    /// authoritative for every variant).
    pub fn build_qdisc(&self, queue: QueueConfig) -> Box<dyn Qdisc> {
        let aqm: Box<dyn Aqm> = match self {
            AqmKind::DualQ(cfg) => {
                let mut cfg = *cfg;
                cfg.rate_bps = queue.rate_bps;
                cfg.buffer_bytes = queue.buffer_bytes;
                return Box::new(DualPi2::new(cfg));
            }
            AqmKind::Fq(cfg) => {
                let mut cfg = *cfg;
                cfg.rate_bps = queue.rate_bps;
                cfg.buffer_bytes = queue.buffer_bytes;
                return Box::new(FqDrr::new(cfg));
            }
            AqmKind::Pie(cfg) => Box::new(Pie::new(*cfg)),
            AqmKind::Pi2(cfg) => Box::new(Pi2::new(*cfg)),
            AqmKind::Pi(cfg) => Box::new(Pi::new(*cfg)),
            AqmKind::Coupled(cfg) => Box::new(CoupledPi2::new(*cfg)),
            AqmKind::TailDrop => Box::new(PassAqm),
            AqmKind::Curvy(cfg) => Box::new(CurvyRed::new(*cfg)),
            AqmKind::FixedProb(p) => Box::new(FixedProb::new(*p)),
            AqmKind::StepMark(cfg) => Box::new(StepMark::new(*cfg)),
        };
        Box::new(BottleneckQueue::new(queue, aqm))
    }

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            AqmKind::Pie(_) => "pie",
            AqmKind::Pi2(_) => "pi2",
            AqmKind::Pi(_) => "pi",
            AqmKind::Coupled(_) => "coupled-pi2",
            AqmKind::TailDrop => "taildrop",
            AqmKind::DualQ(_) => "dualpi2",
            AqmKind::Fq(_) => "fq-drr",
            AqmKind::Curvy(_) => "curvy-red",
            AqmKind::FixedProb(_) => "fixed-prob",
            AqmKind::StepMark(_) => "step",
        }
    }

    /// The paper-default PIE (Table 1 + ECN rework).
    pub fn pie_default() -> AqmKind {
        AqmKind::Pie(PieConfig::paper_default())
    }

    /// The paper-default standalone PI2.
    pub fn pi2_default() -> AqmKind {
        AqmKind::Pi2(Pi2Config::default())
    }

    /// The paper-default coupled AQM (k = 2).
    pub fn coupled_default() -> AqmKind {
        AqmKind::Coupled(CoupledPi2Config::default())
    }

    /// The default DualQ Coupled AQM sized for `rate_bps`.
    pub fn dualq_default(rate_bps: u64) -> AqmKind {
        AqmKind::DualQ(DualPi2Config::for_link(rate_bps))
    }
}

/// A homogeneous group of TCP flows.
#[derive(Clone, Debug)]
pub struct FlowGroup {
    /// Number of flows.
    pub count: usize,
    /// Congestion control.
    pub cc: CcKind,
    /// ECN mode.
    pub ecn: EcnSetting,
    /// Monitor label (flows pool under it).
    pub label: String,
    /// Base RTT.
    pub rtt: Duration,
    /// Start time.
    pub start: Time,
    /// Optional stop time.
    pub stop: Option<Time>,
    /// Per-flow TCP configuration.
    pub tcp: TcpConfig,
    /// Named path of [`Scenario::topology`] the flows are routed over;
    /// `None` is the default route (the primary bottleneck only).
    pub path: Option<String>,
}

impl FlowGroup {
    /// `count` long-running flows with default TCP settings.
    pub fn new(count: usize, cc: CcKind, ecn: EcnSetting, label: &str, rtt: Duration) -> Self {
        FlowGroup {
            count,
            cc,
            ecn,
            label: label.to_string(),
            rtt,
            start: Time::ZERO,
            stop: None,
            tcp: TcpConfig::default(),
            path: None,
        }
    }

    /// Builder: run between `start` and `stop`.
    pub fn between(mut self, start: Time, stop: Time) -> Self {
        self.start = start;
        self.stop = Some(stop);
        self
    }
}

/// A group of unresponsive CBR sources.
#[derive(Clone, Debug)]
pub struct UdpGroup {
    /// Number of sources.
    pub count: usize,
    /// Per-source rate in bits/s.
    pub rate_bps: u64,
    /// Packet size in bytes.
    pub pkt_size: usize,
    /// Monitor label.
    pub label: String,
    /// Base RTT (affects only delivery accounting).
    pub rtt: Duration,
    /// Start time.
    pub start: Time,
    /// Optional stop time.
    pub stop: Option<Time>,
    /// `(on, off)` burst cycle: send at `rate_bps` for `on`, stay silent
    /// for `off`. `None` is constant bit rate.
    pub on_off: Option<(Duration, Duration)>,
}

impl UdpGroup {
    /// The paper's UDP probes: 6 Mb/s of 1500 B packets each.
    pub fn paper_probes(count: usize, rtt: Duration) -> Self {
        UdpGroup {
            count,
            rate_bps: 6_000_000,
            pkt_size: 1500,
            label: "udp".to_string(),
            rtt,
            start: Time::ZERO,
            stop: None,
            on_off: None,
        }
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Bottleneck AQM.
    pub aqm: AqmKind,
    /// Initial bottleneck rate in bits/s.
    pub rate_bps: u64,
    /// Scheduled rate changes (Figure 12).
    pub rate_changes: Vec<(Time, u64)>,
    /// Optional path impairment layer ("network weather"): seeded random
    /// loss, reordering jitter, and duplication per direction. `None`
    /// (the default) leaves the path ideal and the simulation byte-for-
    /// byte identical to a build without the layer.
    pub impairments: Option<LinkImpairments>,
    /// Physical buffer (Table 1: 40 000 packets).
    pub buffer_bytes: usize,
    /// TCP flow groups.
    pub tcp: Vec<FlowGroup>,
    /// UDP groups.
    pub udp: Vec<UdpGroup>,
    /// Total simulated time.
    pub duration: Time,
    /// Warm-up excluded from aggregates.
    pub warmup: Duration,
    /// Time-series sampling interval.
    pub sample_interval: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Execution backend. [`Scenario::run`] executes the packet path for
    /// [`Backend::Packet`] and [`Backend::Hybrid`] (the latter with the
    /// background aggregate attached); [`Backend::Fluid`] scenarios run
    /// through [`crate::backend::run_fluid`] instead.
    pub backend: Backend,
    /// Hybrid-mode background populations, carried by the fluid engine.
    /// Ignored (and the run is pure packet-level, bit for bit) unless
    /// `backend` is [`Backend::Hybrid`] and the total count is non-zero.
    pub background: Vec<BgGroup>,
    /// Also record sojourns per flow (per-class delay distributions).
    pub per_flow_sojourns: bool,
    /// Multi-hop layout; `None` is the dumbbell. Hop 0 is the primary
    /// bottleneck at `rate_bps`; every further hop runs the same AQM at
    /// its entry of `hop_rates_bps`.
    pub topology: Option<Topology>,
    /// Link rate of each hop past the primary bottleneck, hop 1 first.
    pub hop_rates_bps: Vec<u64>,
}

impl Scenario {
    /// A scenario skeleton with the paper's defaults.
    pub fn new(aqm: AqmKind, rate_bps: u64) -> Self {
        Scenario {
            aqm,
            rate_bps,
            rate_changes: Vec::new(),
            impairments: None,
            buffer_bytes: 40_000 * 1500,
            tcp: Vec::new(),
            udp: Vec::new(),
            duration: Time::from_secs(100),
            warmup: Duration::from_secs(20),
            sample_interval: Duration::from_secs(1),
            seed: 1,
            backend: Backend::Packet,
            background: Vec::new(),
            per_flow_sojourns: false,
            topology: None,
            hop_rates_bps: Vec::new(),
        }
    }

    /// Execute the scenario: [`build`](Self::build), run to `duration`,
    /// [`finish`](Self::finish).
    ///
    /// # Panics
    /// When [`build`](Self::build) rejects the description.
    pub fn run(&self) -> RunResult {
        let mut sim = self.build().unwrap_or_else(|e| panic!("{e}"));
        sim.run_until(self.duration);
        self.finish(sim)
    }

    /// Assemble the simulator: everything [`run`](Self::run) does before
    /// its first event. Observers (trace sinks, the auditor, the
    /// profiler) attach to the returned `Sim`; nothing has been emitted
    /// yet and they are pure, so an observed run stays bit-identical to a
    /// bare one. `Err` names a description no simulator can be built
    /// from: a hybrid background behind an AQM with no fluid law, or
    /// routes that do not fit the topology.
    pub fn build(&self) -> Result<Sim, String> {
        let queue = QueueConfig {
            rate_bps: self.rate_bps,
            buffer_bytes: self.buffer_bytes,
        };
        let mut sim = Sim::with_qdisc(
            SimConfig {
                queue,
                seed: self.seed,
                monitor: MonitorConfig {
                    sample_interval: self.sample_interval,
                    warmup: self.warmup,
                    record_flow_sojourns: self.per_flow_sojourns,
                    ..MonitorConfig::default()
                },
            },
            self.aqm.build_qdisc(queue),
        );
        if let Some(imp) = self.impairments {
            if !imp.is_off() {
                sim.core.set_impairments(imp);
            }
        }
        // Metrics are a pure observer (see `pi2_netsim::metrics`), so
        // enabling them unconditionally cannot change any run's outcome —
        // it just gives every sweep cell a registry snapshot for free.
        sim.core.enable_metrics();
        // Hybrid mode: attach the fluid background aggregate. A zero-flow
        // background attaches nothing at all, so such a "hybrid" run is
        // the packet run, bit for bit (the equivalence oracle in
        // `tests/hybrid.rs` holds this).
        if self.backend == Backend::Hybrid
            && self.background.iter().map(|g| g.count).sum::<usize>() > 0
        {
            let agg = FluidBackground::new(&self.background, &self.aqm, self.rate_bps)
                .map_err(|e| format!("hybrid backend: {e}"))?;
            sim.attach_background(Box::new(agg));
        }
        let hops = self.topology.as_ref().map_or(1, Topology::hop_count);
        if self.hop_rates_bps.len() + 1 != hops {
            return Err(format!(
                "{hops} hops need {} entries in hop_rates_bps, got {}",
                hops - 1,
                self.hop_rates_bps.len()
            ));
        }
        if let Some(topo) = &self.topology {
            topo.install(&mut sim.core, |hop| {
                self.aqm.build_qdisc(QueueConfig {
                    rate_bps: self.hop_rates_bps[hop as usize - 1],
                    buffer_bytes: self.buffer_bytes,
                })
            });
        }
        // Pre-size the sample rows and the run-wide sojourn column so
        // neither reallocates mid-run. The packet estimate assumes
        // MTU-sized segments at full utilization over the span the monitor
        // keeps per-packet samples for, which starts where warm-up ends.
        // Both are capped to bound the up-front footprint of a very long
        // or fast run: past the cap a vector grows as it fills.
        let expected_samples =
            (self.duration.as_secs_f64() / self.sample_interval.as_secs_f64()).ceil() as usize + 2;
        let expected_samples = expected_samples.min(1 << 18);
        let recorded_s = (self.duration.as_secs_f64() - self.warmup.as_secs_f64()).max(0.0);
        let expected_pkts =
            (self.rate_bps as f64 * recorded_s / (8.0 * 1500.0)).ceil() as usize + 2;
        sim.core.monitor.reserve(expected_samples, expected_pkts.min(1 << 21));
        for group in &self.tcp {
            let route = group.path.as_deref().map(|name| self.route(name)).transpose()?;
            for _ in 0..group.count {
                let cc = group.cc;
                let ecn = group.ecn;
                let tcp = group.tcp;
                let id = sim.add_flow(
                    PathConf::symmetric(group.rtt),
                    &group.label,
                    group.start,
                    move |id| Box::new(TcpSource::new(id, cc, ecn, tcp)),
                );
                if let Some(route) = route {
                    sim.set_route(id, route.to_vec());
                }
                if let Some(stop) = group.stop {
                    sim.stop_flow_at(id, stop);
                }
            }
        }
        for group in &self.udp {
            for _ in 0..group.count {
                let rate = group.rate_bps;
                let size = group.pkt_size;
                let on_off = group.on_off;
                let id = sim.add_flow(
                    PathConf::symmetric(group.rtt),
                    &group.label,
                    group.start,
                    move |id| -> Box<dyn Source> {
                        match on_off {
                            Some((on, off)) => Box::new(OnOffCbrSource::new(id, rate, size, on, off)),
                            None => Box::new(UdpCbrSource::new(id, rate, size, Ecn::NotEct)),
                        }
                    },
                );
                if let Some(stop) = group.stop {
                    sim.stop_flow_at(id, stop);
                }
            }
        }
        for &(at, rate) in &self.rate_changes {
            sim.set_rate_at(at, rate);
        }
        Ok(sim)
    }

    /// The hop sequence of a named topology path.
    fn route(&self, name: &str) -> Result<&[u32], String> {
        self.topology
            .as_ref()
            .and_then(|t| t.paths().find(|(n, _)| *n == name))
            .map(|(_, hops)| hops)
            .ok_or_else(|| format!("the scenario's topology has no path named {name:?}"))
    }

    /// Harvest a simulator [`build`](Self::build) assembled, once it has
    /// run: its measurements move into the result (the monitor holds a
    /// sample per packet; a copy would double the peak).
    pub fn finish(&self, mut sim: Sim) -> RunResult {
        let metrics = sim.core.take_metrics();
        let background = sim.background().map(|bg| BackgroundRun {
            flow_count: bg.agg.flow_count(),
            bg_bytes: bg.bg_bytes,
            ticks: bg.ticks,
            series: bg
                .series
                .iter()
                .map(|&(t, bps)| (t.as_secs_f64(), bps))
                .collect(),
        });
        let rate_bps = sim.core.hop_qdisc(0).link().rate_bps();
        let impair = sim.core.impairments().map(|i| i.stats());
        let hop_flow_bytes = (0..sim.core.hop_count() as u32)
            .map(|hop| sim.core.hop_flow_bytes(hop).to_vec())
            .collect();
        RunResult {
            aqm: self.aqm.name(),
            monitor: sim.core.monitor,
            counters: sim.core.counters,
            rate_bps,
            impair,
            metrics,
            background,
            hop_flow_bytes,
        }
    }
}

/// The output of one scenario run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// AQM name.
    pub aqm: &'static str,
    /// Full measurement state.
    pub monitor: Monitor,
    /// The always-on event counters (full run, warmup included).
    pub counters: TraceCounts,
    /// Final link rate (after any changes).
    pub rate_bps: u64,
    /// Impairment-layer accounting (offered/lost/duplicated per
    /// direction); `None` when the scenario ran with an ideal path.
    pub impair: Option<ImpairStats>,
    /// The run's metrics registry (histograms + counters; see
    /// [`pi2_netsim::metrics`]). `Some` for every [`Scenario::run`];
    /// `None` only for hand-built results.
    pub metrics: Option<Box<SimMetrics>>,
    /// Hybrid-mode background accounting (aggregate flow count, served
    /// volume, the rate track); `None` for pure packet runs.
    pub background: Option<BackgroundRun>,
    /// Post-warm-up egress bytes per hop (hop 0 first), indexed by flow
    /// id within each hop.
    pub hop_flow_bytes: Vec<Vec<u64>>,
}

impl RunResult {
    /// Mean post-warm-up throughput (Mb/s) pooled over a label.
    pub fn tput_mbps(&self, label: &str) -> f64 {
        self.monitor.pooled_mean_tput_mbps(label)
    }

    /// *Per-flow* mean throughput for a label (pooled / flow count).
    pub fn per_flow_tput_mbps(&self, label: &str) -> f64 {
        let n = self.monitor.flows_labelled(label).len();
        if n == 0 {
            0.0
        } else {
            self.tput_mbps(label) / n as f64
        }
    }

    /// Queue-delay summary over per-packet sojourns (ms), over the runs
    /// the monitor keeps.
    pub fn delay_summary(&self) -> Summary {
        Summary::of_runs([self.monitor.sojourn_ms.runs()], f64::from)
    }

    /// Queue-delay summary over the sojourns of a label's flows (ms; the
    /// scenario must set `per_flow_sojourns`), over their runs.
    pub fn flow_delay_summary(&self, label: &str) -> Summary {
        let runs = self.monitor.labelled(label).map(|f| f.sojourn_ms.runs());
        Summary::of_runs(runs, f64::from)
    }

    /// Applied-probability summary for a label (percent), over the runs
    /// the monitor keeps.
    pub fn prob_summary(&self, label: &str) -> Summary {
        let runs = self.monitor.labelled(label).map(|f| f.prob_samples.runs());
        Summary::of_runs(runs, |p| p as f64 * 100.0)
    }

    /// Link-utilization summary (percent of capacity), read from the
    /// monitor's sample rows.
    pub fn util_summary(&self) -> Summary {
        let utils = [self.monitor.utils().map(|u| (u, 1))];
        Summary::of_runs(utils, |u| (u as f64 * 100.0).min(100.0))
    }

    /// The `(t, queue delay ms)` series.
    pub fn qdelay_series(&self) -> Vec<(f64, f64)> {
        self.monitor.qdelay_series()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_and_reports() {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
        sc.tcp.push(FlowGroup::new(
            2,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "reno",
            Duration::from_millis(50),
        ));
        sc.duration = Time::from_secs(30);
        sc.warmup = Duration::from_secs(10);
        let r = sc.run();
        let tput = r.tput_mbps("reno");
        assert!(tput > 8.0, "throughput {tput:.1} Mb/s");
        assert!(r.delay_summary().n > 0);
        assert_eq!(r.aqm, "pi2");
        let t = r.counters.totals();
        assert!(t.enqueued > 0 && t.dequeued > 0);
    }

    #[test]
    fn the_sojourn_column_is_reserved_for_the_recorded_span_and_a_full_link_fits() {
        // One unclamped flow keeps a 40 Mb/s link busy; samples are kept
        // for the 4 s after warm-up: 40e6 × 4 / (8 × 1500) packets.
        let mut sc = Scenario::new(AqmKind::coupled_default(), 40_000_000);
        let rtt = Duration::from_millis(10);
        sc.tcp.push(FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt));
        sc.duration = Time::from_secs(6);
        sc.warmup = Duration::from_secs(2);
        sc.per_flow_sojourns = true;
        let r = sc.run();
        assert!(r.util_summary().mean > 95.0, "the link must be full for this to bind");
        let (whole, flow) = (&r.monitor.sojourn_ms, &r.monitor.flows[0].sojourn_ms);
        let reserved = 13_334 + 2;
        assert!(whole.len() > reserved * 95 / 100);
        assert_eq!(whole.capacity(), reserved, "the column grew or was over-sized");
        // The runs fill a fraction of it; the per-flow column reserved
        // nothing and grew by runs to the same samples.
        assert!(whole.bytes() * 4 <= whole.len(), "{} bytes", whole.bytes());
        assert_eq!(whole, flow, "one flow's sojourns are all of them");
    }

    /// Building a run far longer than any figure's sizes the monitor up
    /// to its caps only: uncapped, a 10¹⁰ s run reserves 10¹⁰ sample rows,
    /// hundreds of gigabytes, and the allocation aborts the process.
    #[test]
    fn a_very_long_run_builds_within_the_reservation_caps() {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
        let rtt = Duration::from_millis(20);
        sc.tcp.push(FlowGroup::new(1, CcKind::Reno, EcnSetting::NotEcn, "reno", rtt));
        sc.duration = Time::from_secs(10_000_000_000);
        let sim = sc.build().expect("a long run is a valid description");
        assert!(sim.core.monitor.sojourn_ms.capacity() <= 1 << 21);
    }

    #[test]
    fn flow_groups_stop_on_schedule() {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
        sc.tcp.push(
            FlowGroup::new(
                1,
                CcKind::Reno,
                EcnSetting::NotEcn,
                "early",
                Duration::from_millis(20),
            )
            .between(Time::ZERO, Time::from_secs(5)),
        );
        sc.tcp.push(FlowGroup::new(
            1,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "late",
            Duration::from_millis(20),
        ));
        sc.duration = Time::from_secs(20);
        sc.warmup = Duration::ZERO;
        let r = sc.run();
        // The early flow stopped at 5 s; the late flow should have moved
        // far more data.
        let early = r.tput_mbps("early");
        let late = r.tput_mbps("late");
        assert!(late > 2.0 * early, "early {early:.1} vs late {late:.1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut sc = Scenario::new(AqmKind::pie_default(), 10_000_000);
        sc.tcp.push(FlowGroup::new(
            3,
            CcKind::Cubic,
            EcnSetting::NotEcn,
            "cubic",
            Duration::from_millis(30),
        ));
        sc.duration = Time::from_secs(15);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(
            a.monitor.flows[0].dequeued_bytes,
            b.monitor.flows[0].dequeued_bytes
        );
        assert_eq!(a.monitor.sojourn_ms.len(), b.monitor.sojourn_ms.len());
    }

    #[test]
    fn build_run_finish_is_run() {
        let mut sc = Scenario::new(AqmKind::coupled_default(), 20_000_000);
        let rtt = Duration::from_millis(20);
        sc.tcp
            .push(FlowGroup::new(2, CcKind::Cubic, EcnSetting::NotEcn, "cubic", rtt));
        sc.udp.push(UdpGroup::paper_probes(1, rtt));
        sc.duration = Time::from_secs(6);
        sc.warmup = Duration::from_secs(2);
        sc.per_flow_sojourns = true;
        let whole = sc.run();
        let mut sim = sc.build().unwrap();
        // In two legs: `run_until` in steps is one call.
        sim.run_until(Time::from_secs(3));
        sim.run_until(sc.duration);
        let pieces = sc.finish(sim);
        assert_eq!(whole.counters.totals(), pieces.counters.totals());
        assert_eq!(whole.monitor.sojourn_ms, pieces.monitor.sojourn_ms);
        for (a, b) in whole.monitor.flows.iter().zip(&pieces.monitor.flows) {
            assert_eq!(a.dequeued_bytes, b.dequeued_bytes);
            assert_eq!(a.sojourn_ms, b.sojourn_ms);
            assert!(!a.sojourn_ms.is_empty(), "per-flow sojourns were asked for");
        }
        assert_eq!(whole.hop_flow_bytes, pieces.hop_flow_bytes);
        let json = |r: &RunResult| r.metrics.as_ref().unwrap().registry().to_json();
        assert_eq!(json(&whole), json(&pieces));
    }

    #[test]
    fn descriptions_no_simulator_can_be_built_from_are_errors_not_panics() {
        // A hybrid background behind an AQM with no fluid law.
        let mut sc = Scenario::new(AqmKind::Curvy(CurvyRedConfig::default()), 10_000_000);
        sc.backend = Backend::Hybrid;
        sc.background = vec![BgGroup::new(8, CcKind::Reno, Duration::from_millis(50), "bg")];
        let e = sc.build().err().expect("Curvy RED has no fluid law");
        assert!(e.contains("hybrid backend") && e.contains("curvy-red"), "{e}");
        // Hop rates that do not fit the topology, a path it does not have.
        let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
        sc.topology = Some(Topology::parking_lot(3, Duration::from_millis(5)));
        sc.hop_rates_bps = vec![10_000_000];
        assert!(sc.build().err().expect("one rate for two hops").contains("hop_rates_bps"));
        sc.hop_rates_bps = vec![10_000_000; 2];
        let mut g = FlowGroup::new(1, CcKind::Reno, EcnSetting::NotEcn, "reno", Duration::from_millis(20));
        g.path = Some("detour".to_string());
        sc.tcp.push(g);
        assert!(sc.build().err().expect("no such path").contains("detour"));
    }

    /// DualPI2's native ramp is floored for the link it runs on, not the
    /// one its config was made for: at 40 Mb/s two MTUs take 0.6 ms, so
    /// the ramp is 1–2 ms, and 1.2 ms of L backlog marks at 0.2 (a ramp
    /// left at the 20 Mb/s floor, 1.2–2.4 ms, would read 0).
    #[test]
    fn dualq_ramp_follows_the_hop_rate() {
        use pi2_netsim::{FlowId, Packet};
        let queue = QueueConfig { rate_bps: 40_000_000, buffer_bytes: 40_000 * 1500 };
        let mut q = AqmKind::dualq_default(20_000_000).build_qdisc(queue);
        let mut rng = pi2_simcore::Rng::new(1);
        for seq in 0..4 {
            let pkt = Packet::data(FlowId(0), seq, 1500, Ecn::Ect1, Time::ZERO);
            q.offer(pkt, Time::ZERO, &mut rng);
        }
        assert_eq!(q.len_bytes(), 6000);
        let st = q.probe();
        assert_eq!(st.p_prime, 0.0);
        assert!((st.scalable_prob - 0.2).abs() < 1e-9, "{}", st.scalable_prob);
    }

    #[test]
    fn rate_changes_apply() {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 100_000_000);
        sc.rate_changes = vec![(Time::from_secs(5), 20_000_000)];
        sc.tcp.push(FlowGroup::new(
            2,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "reno",
            Duration::from_millis(20),
        ));
        sc.duration = Time::from_secs(10);
        let r = sc.run();
        assert_eq!(r.rate_bps, 20_000_000);
    }
}
