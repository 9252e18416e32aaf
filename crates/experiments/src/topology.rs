//! Multi-hop topology & workload scenarios: parking-lot chains and a
//! small access/core tree under heavy-tailed short-flow ("mice")
//! cross-traffic, with mixed Classic/Scalable long-flow populations.
//!
//! The paper evaluates PI2 and DualPI2 on a single dumbbell; this family
//! checks that the coexistence story survives the two standard multi-hop
//! stress shapes from the AQM evaluation literature:
//!
//! * **parking-lot-3** — long Cubic and DCTCP flows traverse three
//!   bottlenecks in series while Poisson/bounded-Pareto web mice
//!   ([`crate::workload`]) hammer each hop as single-hop cross traffic;
//! * **access-core-2** — two access links with different base RTTs
//!   (20 ms / 80 ms) funnel into one slower shared core, mice arriving
//!   at the core only.
//!
//! Every run reports per-hop egress accounting (Jain fairness across the
//! long flows crossing each hop, per-class egress rates), the end-to-end
//! per-class throughput ratio (the Section 6 balance criterion), and the
//! mice flow-completion-time P50/P95/P99 through a [`pi2_obs::Histogram`].
//! The family table is `pi2fig ext_topology`; one cell, under any AQM and
//! every observer, is `pi2sim --scenario topology/<layout>`.

use crate::scenario::{AqmKind, FlowGroup, RunResult, Scenario};
use crate::workload::{mice_arrivals, MiceWorkload};
use pi2_netsim::{AuditSink, Sim, Topology};
use pi2_obs::Histogram;
use pi2_simcore::{Duration, Time};
use pi2_stats::jain_fairness;
use pi2_transport::{CcKind, EcnSetting};

/// Total simulated time, seconds.
pub const DURATION_S: u64 = 60;
/// Warm-up excluded from aggregates, seconds.
pub const WARMUP_S: u64 = 10;
/// Mice arrivals start here (after warm-up so every FCT is post-warm).
pub const MICE_START_S: u64 = 10;
/// Mice arrivals stop here (leaves a drain window before the run ends).
pub const MICE_STOP_S: u64 = 55;
/// Mean mice arrival rate per entry path (flows/s, Poisson).
pub const MICE_PER_SEC: f64 = 8.0;
/// The rate of every layout's slowest link, which a rate-dependent AQM
/// is configured for, bits/s.
pub const LINK_BPS: u64 = 20_000_000;
/// The mice window as `(second, label)` timeline marks.
pub const MARKS: [(u64, &str); 2] = [
    (MICE_START_S, "mice arrivals start"),
    (MICE_STOP_S, "mice arrivals stop"),
];

/// Decorrelates each entry path's arrival stream from the simulator's
/// root RNG stream and from the other paths'.
const MICE_PATH_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which multi-hop layout a cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Three 20 Mb/s bottlenecks in series; long flows end-to-end, mice
    /// entering at every hop.
    ParkingLot3,
    /// Two 40 Mb/s access links (20 ms / 80 ms RTT) into a 20 Mb/s
    /// shared core; mice entering at the core.
    AccessCore2,
}

impl TopologyKind {
    /// Every layout, in table order.
    pub const ALL: [TopologyKind; 2] = [TopologyKind::ParkingLot3, TopologyKind::AccessCore2];

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::ParkingLot3 => "parking-lot-3",
            TopologyKind::AccessCore2 => "access-core-2",
        }
    }

    /// The static layout.
    pub fn build(&self) -> Topology {
        match self {
            TopologyKind::ParkingLot3 => Topology::parking_lot(3, Duration::from_millis(5)),
            TopologyKind::AccessCore2 => Topology::access_core(2, Duration::from_millis(2)),
        }
    }

    /// Link rate of a hop, bits/s.
    pub fn hop_rate_bps(&self, hop: u32) -> u64 {
        match self {
            TopologyKind::ParkingLot3 => LINK_BPS,
            TopologyKind::AccessCore2 => {
                if hop < 2 {
                    40_000_000
                } else {
                    LINK_BPS
                }
            }
        }
    }

    /// The long-flow population: `(label, cc, ecn, path name, base RTT)`.
    fn long_flows(&self) -> Vec<(&'static str, CcKind, EcnSetting, &'static str, Duration)> {
        let rtt40 = Duration::from_millis(40);
        match self {
            TopologyKind::ParkingLot3 => vec![
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "e2e", rtt40),
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "e2e", rtt40),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "e2e", rtt40),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "e2e", rtt40),
            ],
            TopologyKind::AccessCore2 => {
                let near = Duration::from_millis(20);
                let far = Duration::from_millis(80);
                vec![
                    ("classic", CcKind::Cubic, EcnSetting::NotEcn, "leaf0", near),
                    ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "leaf0", near),
                    ("classic", CcKind::Cubic, EcnSetting::NotEcn, "leaf1", far),
                    ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "leaf1", far),
                ]
            }
        }
    }

    /// The paths mice workloads enter on.
    fn mice_paths(&self) -> &'static [&'static str] {
        match self {
            TopologyKind::ParkingLot3 => &["cross0", "cross1", "cross2"],
            TopologyKind::AccessCore2 => &["core"],
        }
    }
}

/// Per-hop egress accounting for one run (post-warm-up bytes only).
#[derive(Clone, Debug)]
pub struct HopReport {
    /// Hop id (0 = the primary, monitored bottleneck).
    pub hop: u32,
    /// Jain fairness across the long flows routed through this hop.
    pub fairness: f64,
    /// Post-warm-up egress rate of Classic (Cubic) long flows, Mb/s.
    pub classic_mbps: f64,
    /// Post-warm-up egress rate of Scalable (DCTCP) long flows, Mb/s.
    pub scalable_mbps: f64,
    /// Post-warm-up egress rate of the mice, Mb/s.
    pub mice_mbps: f64,
}

/// One topology × AQM measurement.
#[derive(Clone, Debug)]
pub struct TopologyRun {
    /// Layout name.
    pub topology: &'static str,
    /// AQM name (every hop runs the same AQM family).
    pub aqm: &'static str,
    /// Total hops, including the primary bottleneck.
    pub hop_count: usize,
    /// Mice flows launched over the run.
    pub mice_launched: usize,
    /// Mice flows that delivered their full size before the run ended.
    pub mice_completed: usize,
    /// Mice flow-completion-time P50/P95/P99 in ms, read from a
    /// [`pi2_obs::Histogram`] over nanosecond FCTs.
    pub fct_ms: (f64, f64, f64),
    /// Per-flow mean post-warm-up throughput of the Classic class, Mb/s.
    pub classic_per_flow_mbps: f64,
    /// Per-flow mean post-warm-up throughput of the Scalable class, Mb/s.
    pub scalable_per_flow_mbps: f64,
    /// Classic / Scalable per-flow rate ratio (the Section 6 balance
    /// criterion; 1 = perfect coexistence).
    pub rate_ratio: f64,
    /// Per-hop egress accounting, hop 0 first.
    pub hops: Vec<HopReport>,
    /// Events the dispatch loop processed for this cell.
    pub events_processed: u64,
}

/// The scenario of one topology × AQM cell: the long flows on their
/// named paths (flow ids `0..4`), then one data-limited Cubic flow per
/// mouse (web/RPC objects), entry path by entry path.
pub fn scenario_for(kind: TopologyKind, aqm: AqmKind, seed: u64) -> Scenario {
    let topo = kind.build();
    let mut sc = Scenario::new(aqm, kind.hop_rate_bps(0));
    sc.hop_rates_bps = (1..topo.hop_count() as u32)
        .map(|hop| kind.hop_rate_bps(hop))
        .collect();
    sc.topology = Some(topo);
    sc.duration = Time::from_secs(DURATION_S);
    sc.warmup = Duration::from_secs(WARMUP_S as i64);
    sc.sample_interval = Duration::from_millis(100);
    sc.seed = seed;
    for (label, cc, ecn, path, rtt) in kind.long_flows() {
        let mut g = FlowGroup::new(1, cc, ecn, label, rtt);
        g.path = Some(path.to_string());
        sc.tcp.push(g);
    }
    // One pre-generated heavy-tailed arrival stream per entry path.
    for (k, path) in kind.mice_paths().iter().enumerate() {
        let w = MiceWorkload::web(
            Time::from_secs(MICE_START_S),
            Time::from_secs(MICE_STOP_S),
            seed ^ (k as u64).wrapping_mul(MICE_PATH_STRIDE),
        );
        for m in mice_arrivals(&w) {
            let mut g = FlowGroup::new(
                1,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                "mice",
                Duration::from_millis(20),
            );
            g.start = m.at;
            g.tcp.data_limit = Some(m.size_pkts);
            g.path = Some(path.to_string());
            sc.tcp.push(g);
        }
    }
    sc
}

/// Run one topology × AQM cell. With `audit`, the invariant auditor —
/// including per-hop packet conservation — rides along and panics on any
/// violation when the run finishes.
pub fn run_one(kind: TopologyKind, aqm: AqmKind, seed: u64, audit: bool) -> TopologyRun {
    run_one_prepared(kind, aqm, seed, audit, |_| {})
}

/// [`run_one`] with a hook that runs on the built `Sim` before its first
/// event — where a driver attaches trace sinks. Sinks are pure observers,
/// so a prepared run's results are bit-identical to a bare [`run_one`].
pub fn run_one_prepared(
    kind: TopologyKind,
    aqm: AqmKind,
    seed: u64,
    audit: bool,
    prepare: impl FnOnce(&mut Sim),
) -> TopologyRun {
    let sc = scenario_for(kind, aqm, seed);
    let mut sim = sc.build().unwrap_or_else(|e| panic!("{e}"));
    if audit {
        sim.core
            .enable_audit(AuditSink::new(seed).with_label(kind.name()));
    }
    prepare(&mut sim);
    sim.run_until(sc.duration);
    report(kind, &sc, &sc.finish(sim))
}

/// Reduce a finished cell to its [`TopologyRun`].
pub fn report(kind: TopologyKind, sc: &Scenario, r: &RunResult) -> TopologyRun {
    // Mice FCTs (seconds, post-warm-up by construction) through the
    // log-linear histogram in nanoseconds.
    let m = &r.monitor;
    let fcts = m.completion_times("mice");
    let mut h = Histogram::new();
    for s in &fcts {
        h.record((s * 1e9) as u64);
    }
    let [p50, p95, p99] = h.quantiles([0.50, 0.95, 0.99]);
    let fct_ms = (p50 as f64 / 1e6, p95 as f64 / 1e6, p99 as f64 / 1e6);

    // Per-hop egress accounting from the simulator's per-hop, per-flow
    // post-warm-up byte counters. The long flows lead the flow table.
    let topo = sc.topology.as_ref().expect("a topology cell");
    let long: Vec<(&str, &[u32])> = kind
        .long_flows()
        .iter()
        .map(|&(label, _, _, path, _)| (label, topo.path(path)))
        .collect();
    let postwarm_s = (DURATION_S - WARMUP_S) as f64;
    let mbps = |bytes: u64| bytes as f64 * 8.0 / postwarm_s / 1e6;
    let mice_idx = m.flows_labelled("mice");
    let mut hops = Vec::new();
    for (hop, bytes) in r.hop_flow_bytes.iter().enumerate() {
        let hop = hop as u32;
        let crossing: Vec<f64> = long
            .iter()
            .enumerate()
            .filter(|(_, (_, route))| route.contains(&hop))
            .map(|(id, _)| bytes[id] as f64)
            .collect();
        let class_bytes = |label: &str| -> u64 {
            long.iter()
                .enumerate()
                .filter(|(_, (l, route))| *l == label && route.contains(&hop))
                .map(|(id, _)| bytes[id])
                .sum()
        };
        let mice_bytes: u64 = mice_idx.iter().map(|&i| bytes[i]).sum();
        hops.push(HopReport {
            hop,
            fairness: jain_fairness(&crossing),
            classic_mbps: mbps(class_bytes("classic")),
            scalable_mbps: mbps(class_bytes("scalable")),
            mice_mbps: mbps(mice_bytes),
        });
    }

    let classic_per_flow_mbps = r.per_flow_tput_mbps("classic");
    let scalable_per_flow_mbps = r.per_flow_tput_mbps("scalable");
    let rate_ratio = if scalable_per_flow_mbps > 0.0 {
        classic_per_flow_mbps / scalable_per_flow_mbps
    } else {
        f64::INFINITY
    };

    TopologyRun {
        topology: kind.name(),
        aqm: r.aqm,
        hop_count: r.hop_flow_bytes.len(),
        mice_launched: sc.tcp.len() - long.len(),
        mice_completed: fcts.len(),
        fct_ms,
        classic_per_flow_mbps,
        scalable_per_flow_mbps,
        rate_ratio,
        hops,
        events_processed: r.metrics.as_ref().map_or(0, |mx| mx.events_processed()),
    }
}

/// The full family: {parking-lot-3, access-core-2} × {PI2, DualPI2},
/// fanned out through [`crate::runner::par_map`] (the `PI2_THREADS` knob)
/// with results bit-identical to a serial loop for any thread count.
pub fn topology(seed: u64, audit: bool) -> Vec<TopologyRun> {
    let mut cells = Vec::new();
    for kind in TopologyKind::ALL {
        for aqm in [AqmKind::pi2_default(), AqmKind::dualq_default(LINK_BPS)] {
            cells.push((kind, aqm));
        }
    }
    crate::runner::par_map(&cells, |(kind, aqm)| {
        run_one(*kind, aqm.clone(), seed, audit)
    })
}

/// Render the family as an aligned text table: one summary row per run,
/// then one row per hop with the fairness/egress split.
pub fn render_table(runs: &[TopologyRun]) -> String {
    let mut out = String::from(
        "topology       aqm      mice done/launched  fct p50/p95/p99 ms     c/s ratio\n",
    );
    for r in runs {
        out.push_str(&format!(
            "{:<14} {:<8} {:>6}/{:<8}  {:>7.1}/{:>7.1}/{:>7.1}  {:>9.2}\n",
            r.topology,
            r.aqm,
            r.mice_completed,
            r.mice_launched,
            r.fct_ms.0,
            r.fct_ms.1,
            r.fct_ms.2,
            r.rate_ratio,
        ));
        for h in &r.hops {
            out.push_str(&format!(
                "  hop {}: jain {:.3}  classic {:.2} Mb/s  scalable {:.2} Mb/s  mice {:.2} Mb/s\n",
                h.hop, h.fairness, h.classic_mbps, h.scalable_mbps, h.mice_mbps
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parking_lot_reports_every_hop_and_completes_mice() {
        let r = run_one(TopologyKind::ParkingLot3, AqmKind::pi2_default(), 7, true);
        assert_eq!(r.hop_count, 3);
        assert_eq!(r.hops.len(), 3);
        assert!(r.mice_launched > 500, "launched {}", r.mice_launched);
        assert!(
            r.mice_completed as f64 > 0.9 * r.mice_launched as f64,
            "only {}/{} mice completed",
            r.mice_completed,
            r.mice_launched
        );
        assert!(r.fct_ms.0 > 0.0 && r.fct_ms.0 <= r.fct_ms.1 && r.fct_ms.1 <= r.fct_ms.2);
        for h in &r.hops {
            assert!(
                h.fairness > 0.25 && h.fairness <= 1.0,
                "hop {} fairness {}",
                h.hop,
                h.fairness
            );
            assert!(h.classic_mbps > 0.0 && h.scalable_mbps > 0.0 && h.mice_mbps > 0.0);
        }
    }

    #[test]
    fn access_core_mixes_rtts_and_funnels_into_the_core() {
        let r = run_one(
            TopologyKind::AccessCore2,
            AqmKind::dualq_default(20_000_000),
            7,
            true,
        );
        assert_eq!(r.hop_count, 3);
        // Only the leaf0 pair crosses hop 0, everything crosses the core.
        let core = &r.hops[2];
        let leaf_total = r.hops[0].classic_mbps + r.hops[0].scalable_mbps;
        let core_total = core.classic_mbps + core.scalable_mbps;
        assert!(
            core_total > leaf_total,
            "core {core_total} vs leaf0 {leaf_total}"
        );
        assert!(core.mice_mbps > 0.0, "mice enter at the core");
    }

    #[test]
    fn family_runs_all_cells_and_renders() {
        let runs = topology(3, false);
        assert_eq!(runs.len(), 4);
        let t = render_table(&runs);
        assert!(t.contains("parking-lot-3") && t.contains("access-core-2"), "{t}");
        assert!(t.contains("pi2") && t.contains("dualpi2"), "{t}");
        assert!(t.contains("hop 2"), "{t}");
    }
}
