//! The model-agreement harness: one grid, one judge.
//!
//! The packet-level simulator is the ground truth of this reproduction.
//! Three cheaper models claim to describe the same system, and each is
//! judged against a packet run here — nowhere else:
//!
//! * [`Model::Ode`] — the Appendix B delay-ODE of Misra et al. with the
//!   paper's controller variants (`pi2_fluid::FluidSim`);
//! * [`Model::FlowLevel`] — the whole scenario compiled onto the
//!   flow-level engine, no packet events at all (`run_fluid`);
//! * [`Model::Hybrid`] — 2 of the 5 flows stay packet-level, the rest
//!   ride in the fluid background aggregate coupled to the real AQM.
//!
//! A [`Cell`] is a name, the AQM and the homogeneous traffic class it
//! runs at the shared operating point, and the models judged on it. The
//! packet reference is run **once** per cell and reduced by
//! `summarize_scenario_run` to a `BackendSummary`; every model half is
//! derived from the cell's actual AQM configuration through
//! `pi2_experiments::fluid_encoding` (which fluid law an AQM is, is that
//! function's decision alone) and `cc_fluid_kind`. Each encoder names one
//! output law of `pi2_fluid::law` (`FluidControllerKind::law`), the law
//! the packet AQM evaluates, with its 25 % Classic cap:
//!
//! | cell         | packet AQM, traffic                | encoder, gains (α, β Hz)     | fluid output law                 | models            |
//! |--------------|------------------------------------|------------------------------|----------------------------------|-------------------|
//! | `pi-reno`    | `Pi` at untuned PIE gains, Reno    | `Direct`, 0.125, 1.25        | `p'`                             | ode               |
//! | `pi-scal`    | `Pi` default, Scalable             | `Direct`, 0.625, 6.25        | `p'`                             | ode               |
//! | `pi2-reno`   | `Pi2`, Reno                        | `Squared`, 0.3125, 3.125     | `min(p'², 0.25)`                 | ode, flow, hybrid |
//! | `pi2-scal`   | `CoupledPi2`, Scalable             | `Squared` ÷k, coupled k = 2  | `min(k·p', 1)` (ode: `Direct`)   | ode, flow, hybrid |
//! | `pie-reno`   | `Pie` (paper ECN rework), Reno     | `TunedDirect`, 0.125, 1.25   | `p`, tuned step                  | ode, flow, hybrid |
//! | `pie-scal`   | `Pie` (paper ECN rework), Scalable | `TunedDirect`, 0.125, 1.25   | `p`, tuned step                  | ode               |
//! | `dualq-scal` | `DualPi2`, Scalable                | (probed from the real AQM)   | (the real AQM's)                 | hybrid            |
//!
//! The ODE's configuration cannot carry k, so a Scalable class under a
//! coupled encoder — which sees `k·p'` applied directly — is the `Direct`
//! loop at k× the gains: 0.3125 · 2 = 0.625, the paper's `scal pi`.
//!
//! Per (cell, model) the steady-state metrics compared are:
//!
//! * **signal probability** — the packet side's post-warm-up fraction of
//!   offered packets that were marked or dropped, against the model's
//!   mean applied signal;
//! * **mean queue delay** — post-warm-up mean packet sojourn minus one
//!   packet serialization time (sojourns are measured at the *end* of
//!   transmission; the fluid `q/C` is pure waiting time), against the
//!   model's mean `q/C`;
//! * **per-flow rate ratio** — max/min of per-flow mean throughput.
//!   Identical fluid flows give exactly 1; the packet side must stay
//!   within the stochastic-fairness band of it;
//! * **utilization** — flow-level and hybrid only (the ODE has no link).
//!
//! The comparison is `|packet − model| ≤ abs + rel · max(|packet|, |model|)`
//! per metric under [`bands`]; the report also states the achieved
//! `|packet − model| / max(|packet|, |model|)` beside each band.
//! `pi2fig validate_grid` prints it, and `results/validate_grid.txt`
//! archives it.

use pi2_aqm::PiConfig;
use pi2_experiments::{
    cc_fluid_kind, fluid_encoding, run_fluid, summarize_scenario_run, AqmKind, Backend,
    BackendSummary, BgGroup, FlowGroup, Scenario,
};
use pi2_fluid::{FluidConfig, FluidControllerKind, FluidSim, FluidTcpKind};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::io::{self, Write};

/// One per-metric tolerance: passes when
/// `|packet − model| ≤ abs + rel · max(|packet|, |model|)`.
#[derive(Clone, Copy, Debug)]
pub struct Tol {
    /// Relative term, as a fraction of the larger magnitude.
    pub rel: f64,
    /// Absolute floor, in the metric's own unit.
    pub abs: f64,
}

impl Tol {
    /// Does `(packet, model)` agree under this tolerance?
    pub fn ok(&self, packet: f64, model: f64) -> bool {
        (packet - model).abs() <= self.abs + self.rel * packet.abs().max(model.abs())
    }
}

/// The per-metric tolerances of one configuration.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Congestion-signal probability (dimensionless).
    pub signal: Tol,
    /// Mean queue delay (seconds).
    pub qdelay: Tol,
    /// Per-flow rate ratio (dimensionless; identical fluid flows give 1).
    pub rate_ratio: Tol,
    /// Bottleneck utilization (fraction of capacity, 0..1).
    pub util: Tol,
}

impl Tolerances {
    /// Scale every tolerance (both terms) by `f` — `f < 1` tightens, as
    /// the harness's negative control does to show that it can fail.
    pub fn scaled(self, f: f64) -> Self {
        let s = |t: Tol| Tol { rel: t.rel * f, abs: t.abs * f };
        Tolerances {
            signal: s(self.signal),
            qdelay: s(self.qdelay),
            rate_ratio: s(self.rate_ratio),
            util: s(self.util),
        }
    }
}

/// The one tolerance-band table: every (cell, model, metric) of the grid
/// is judged under it, and `benchmark/` reads its delay and ratio bands.
///
/// The packet simulator is stochastic and every model half is a mean
/// approximation that ignores slow-start, retransmission timers, burst
/// allowances and integer-window effects, so the bands are deliberately
/// loose in relative terms while still tight enough that any mapping bug
/// (wrong gains, wrong encoder, wrong traffic law) lands far outside
/// them:
///
/// * signal probability: ±30 % relative ± 0.005 absolute — a wrong
///   encoder (p' vs p'²) is off by ~1/p' ≈ 5–10×;
/// * queue delay: ±25 % relative ± 4 ms absolute around the 20 ms
///   target — a destabilized loop overshoots by the buffer depth;
/// * rate ratio: ±60 % relative — identical long flows through one
///   queue land well under 1.6× max/min over a 40 s window, while an
///   unfair pathology (e.g. lockout) shows up as ≥3×;
/// * utilization: ±10 % relative ± 0.05 absolute — both formalisms
///   saturate a long-flow bottleneck, so anything below ~0.85 of the
///   reference flags starvation (e.g. a runaway hybrid aggregate).
///
/// The report prints the achieved disagreement beside each band
/// (`results/validate_grid.txt` archives it), which is what a ratchet of
/// these numbers starts from.
pub fn bands() -> Tolerances {
    Tolerances {
        signal: Tol { rel: 0.30, abs: 0.005 },
        qdelay: Tol { rel: 0.25, abs: 0.004 },
        rate_ratio: Tol { rel: 0.60, abs: 0.0 },
        util: Tol { rel: 0.10, abs: 0.05 },
    }
}

/// The shared operating point: 12 Mb/s, 50 ms base RTT, 5 flows, a 60 s
/// packet run with a 20 s warm-up, at the grid's seed.
///
/// Here the Reno equilibrium sits near p ≈ 1 % (p' ≈ 10 %) and the
/// Scalable one near p' ≈ 14 % — comfortably inside every controller's
/// caps and far from both the `p → 0` starvation corner and the 25 %
/// Classic drop ceiling.
const RATE_BPS: u64 = 12_000_000;
/// Two-way propagation delay of every flow (RTT excluding queuing).
pub const BASE_RTT: Duration = Duration::from_millis(50);
/// Long-running flows per cell.
const N_FLOWS: usize = 5;
/// Of those, the flows that stay packet-level in the hybrid half.
const FG_FLOWS: usize = 2;
/// ODE run length in seconds; its settled tail (last third) is averaged.
const ODE_T_END: f64 = 120.0;
/// MTU-sized segments on every side, as everywhere else in the repo.
const PKT_BYTES: f64 = 1500.0;

/// A model judged against the packet engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    /// The delay-ODE integrator.
    Ode,
    /// The flow-level engine carrying the whole population.
    FlowLevel,
    /// Packet foreground over a fluid background aggregate.
    Hybrid,
}

/// One judged metric: report key, where it sits in a summary, its band.
type Metric = (&'static str, fn(&BackendSummary) -> f64, fn(&Tolerances) -> Tol);

const METRICS: [Metric; 4] = [
    ("signal_prob", |s| s.signal, |t| t.signal),
    ("qdelay_s", |s| s.qdelay_s, |t| t.qdelay),
    ("rate_ratio", |s| s.rate_ratio, |t| t.rate_ratio),
    ("utilization", |s| s.utilization, |t| t.util),
];

impl Model {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Model::Ode => "ode",
            Model::FlowLevel => "flow-level",
            Model::Hybrid => "hybrid",
        }
    }

    /// The metrics this model is judged on: the ODE has a queue and a
    /// window but no link to utilize.
    fn metrics(self) -> &'static [Metric] {
        match self {
            Model::Ode => &METRICS[..3],
            Model::FlowLevel | Model::Hybrid => &METRICS,
        }
    }
}

/// One AQM × homogeneous traffic class at the shared operating point.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Report key, e.g. `"pi2-reno"`.
    pub name: &'static str,
    /// The AQM under test — also what every model half is derived from.
    pub aqm: AqmKind,
    /// Congestion control of every flow.
    pub cc: CcKind,
    /// Its ECN codepoint.
    pub ecn: EcnSetting,
    /// The models judged on this cell.
    pub models: &'static [Model],
    /// Seed of the packet reference and of the hybrid half.
    pub seed: u64,
}

/// The grid: {PI, PI2, PIE} × {Reno, Scalable} on the ODE — every encoder
/// (`Direct`, `Squared`, `TunedDirect`), both window laws, three gain sets
/// — and one cell per fluid-encodable controller family on the flow-level
/// engine and in hybrid mode. 7 cells, 13 judged pairs, each run at `seed`.
pub fn grid(seed: u64) -> Vec<Cell> {
    use Model::{FlowLevel, Hybrid, Ode};
    let reno = (CcKind::Reno, EcnSetting::NotEcn);
    let scal = (CcKind::ScalableHalfPkt, EcnSetting::Scalable);
    let cell = |name, aqm, (cc, ecn): (CcKind, EcnSetting), models: &'static [Model]| Cell {
        name,
        aqm,
        cc,
        ecn,
        models,
        seed,
    };
    vec![
        cell("pi-reno", AqmKind::Pi(PiConfig::untuned_pie_gains()), reno, &[Ode]),
        cell("pi-scal", AqmKind::Pi(PiConfig::default()), scal, &[Ode]),
        cell("pi2-reno", AqmKind::pi2_default(), reno, &[Ode, FlowLevel, Hybrid]),
        cell("pi2-scal", AqmKind::coupled_default(), scal, &[Ode, FlowLevel, Hybrid]),
        cell("pie-reno", AqmKind::pie_default(), reno, &[Ode, FlowLevel, Hybrid]),
        cell("pie-scal", AqmKind::pie_default(), scal, &[Ode]),
        // Hybrid only: DualPI2's L queue step-marks at the ~1 ms
        // threshold, which no PI fluid law reproduces — the packet side
        // settles an order of magnitude below the Classic target. Hybrid
        // mode is unaffected: the background feeds on the real AQM's
        // probed probabilities.
        cell("dualq-scal", AqmKind::dualq_default(RATE_BPS), scal, &[Hybrid]),
    ]
}

impl Cell {
    /// The packet reference: every flow is a real TCP source.
    pub fn packet_scenario(&self) -> Scenario {
        let mut sc = Scenario::new(self.aqm.clone(), RATE_BPS);
        sc.tcp
            .push(FlowGroup::new(N_FLOWS, self.cc, self.ecn, "fg", BASE_RTT));
        sc.duration = Time::from_secs(60);
        sc.warmup = Duration::from_secs(20);
        sc.seed = self.seed;
        sc
    }

    /// The hybrid counterpart: the same population, but only 2 flows stay
    /// packet-level — the rest ride in the fluid background.
    pub fn hybrid_scenario(&self) -> Scenario {
        let mut sc = self.packet_scenario();
        sc.tcp[0].count = FG_FLOWS;
        sc.backend = Backend::Hybrid;
        sc.background = vec![BgGroup::new(N_FLOWS - FG_FLOWS, self.cc, BASE_RTT, "bg")];
        sc
    }

    /// The delay-ODE half, from the cell's own AQM configuration.
    ///
    /// # Panics
    /// For an AQM with no fluid law (`fluid_encoding` names it).
    fn ode(&self) -> FluidConfig {
        let enc = fluid_encoding(&self.aqm).unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let tcp = cc_fluid_kind(self.cc);
        let (encoder, gains) = if enc.coupled && tcp == FluidTcpKind::Scalable {
            (FluidControllerKind::Direct, enc.gains.scaled(enc.coupling))
        } else {
            (enc.encoder, enc.gains)
        };
        FluidConfig {
            capacity_pps: RATE_BPS as f64 / 8.0 / PKT_BYTES,
            base_rtt: BASE_RTT.as_secs_f64(),
            n_flows: vec![(0.0, N_FLOWS as f64)],
            tcp,
            encoder,
            gains,
            target: enc.target,
            dt: 0.001,
        }
    }

    /// Signal and queue delay of the ODE's settled tail (last third);
    /// its identical flows share exactly.
    fn ode_summary(&self) -> BackendSummary {
        let cfg = self.ode();
        let (law, _) = cfg.encoder.law(None);
        let samples = FluidSim::new(cfg).run(ODE_T_END, 0.01);
        let tail: Vec<_> = samples
            .iter()
            .filter(|s| s.t >= ODE_T_END * 2.0 / 3.0)
            .collect();
        assert!(!tail.is_empty(), "fluid run produced no tail samples");
        let n = tail.len() as f64;
        BackendSummary {
            signal: tail.iter().map(|s| law.classic(s.p_prime)).sum::<f64>() / n,
            qdelay_s: tail.iter().map(|s| s.qdelay).sum::<f64>() / n,
            rate_ratio: 1.0,
            utilization: f64::NAN, // not modelled, never judged
        }
    }

    /// Run one model half of this cell and reduce it.
    fn model_summary(&self, model: Model, packet: &Scenario) -> BackendSummary {
        match model {
            Model::Ode => self.ode_summary(),
            Model::FlowLevel => {
                let s = run_fluid(packet)
                    .unwrap_or_else(|e| panic!("{}: {e}", self.name))
                    .summary;
                assert!(
                    (s.rate_ratio - 1.0).abs() < 1e-9,
                    "{}: identical fluid flows must share exactly (ratio {})",
                    self.name,
                    s.rate_ratio
                );
                s
            }
            Model::Hybrid => {
                let sc = self.hybrid_scenario();
                let run = sc.run();
                let bg = run.background.as_ref().expect("hybrid run has background");
                assert_eq!(bg.flow_count, (N_FLOWS - FG_FLOWS) as u64);
                assert!(bg.ticks > 0, "{}: background never ticked", self.name);
                summarize_scenario_run(&sc, &run)
            }
        }
    }
}

/// One metric's side-by-side numbers and verdict.
#[derive(Clone, Copy, Debug)]
pub struct MetricReport {
    /// Metric key (`"signal_prob"`, `"qdelay_s"`, `"rate_ratio"`,
    /// `"utilization"`).
    pub metric: &'static str,
    /// Packet-level value.
    pub packet: f64,
    /// The model's value.
    pub model: f64,
    /// The band it was judged under.
    pub tol: Tol,
    /// Achieved disagreement, `|packet − model| / max(|packet|, |model|)`.
    pub achieved: f64,
    /// Verdict.
    pub pass: bool,
}

impl MetricReport {
    fn judge(metric: &'static str, packet: f64, model: f64, tol: Tol) -> Self {
        let scale = packet.abs().max(model.abs());
        MetricReport {
            metric,
            packet,
            model,
            tol,
            achieved: if packet == model {
                0.0
            } else if scale.is_finite() {
                (packet - model).abs() / scale
            } else {
                1.0
            },
            pass: tol.ok(packet, model),
        }
    }
}

/// One (cell, model) pair's full comparison.
#[derive(Clone, Debug)]
pub struct PairReport {
    /// The cell's report key.
    pub cell: &'static str,
    /// The model judged.
    pub model: Model,
    /// All metric comparisons.
    pub metrics: Vec<MetricReport>,
    /// True iff every metric passed.
    pub pass: bool,
}

impl PairReport {
    /// The one judge: a model's summary against the packet reference.
    fn judge(
        cell: &'static str,
        model: Model,
        packet: &BackendSummary,
        got: &BackendSummary,
        tol: &Tolerances,
    ) -> Self {
        let metrics: Vec<MetricReport> = model
            .metrics()
            .iter()
            .map(|(name, pick, band)| MetricReport::judge(name, pick(packet), pick(got), band(tol)))
            .collect();
        PairReport {
            cell,
            model,
            pass: metrics.iter().all(|m| m.pass),
            metrics,
        }
    }

    /// A human-readable multi-line table for terminal output.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<14} {:<11} {}\n",
            self.cell,
            self.model.name(),
            if self.pass { "PASS" } else { "FAIL" }
        );
        for m in &self.metrics {
            s.push_str(&format!(
                "  {:<12} packet {:>10.5}  model {:>10.5}  off {:>5.1}%  (rel {:.0}% + abs {})  {}\n",
                m.metric,
                m.packet,
                m.model,
                m.achieved * 100.0,
                m.tol.rel * 100.0,
                m.tol.abs,
                if m.pass { "ok" } else { "DISAGREE" }
            ));
        }
        s
    }
}

/// One cell: its single packet reference and every pair judged on it.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The cell's report key.
    pub name: &'static str,
    /// The packet run's reduction every pair below was judged against.
    pub packet: BackendSummary,
    /// One report per model of the cell, in the cell's order.
    pub pairs: Vec<PairReport>,
}

impl CellReport {
    /// True iff every pair passed.
    pub fn pass(&self) -> bool {
        self.pairs.iter().all(|p| p.pass)
    }

    /// The pairs' tables, concatenated.
    pub fn table(&self) -> String {
        self.pairs.iter().map(PairReport::table).collect()
    }
}

/// Run one cell — the packet engine once, then each of its models — and
/// judge every pair under `tol`.
pub fn run_cell(cell: &Cell, tol: &Tolerances) -> CellReport {
    let sc = cell.packet_scenario();
    let packet = summarize_scenario_run(&sc, &sc.run());
    let pairs = cell
        .models
        .iter()
        .map(|&m| PairReport::judge(cell.name, m, &packet, &cell.model_summary(m, &sc), tol))
        .collect();
    CellReport {
        name: cell.name,
        packet,
        pairs,
    }
}

/// A whole grid's verdict.
#[derive(Clone, Debug)]
pub struct GridReport {
    /// Per-cell reports, in input order.
    pub cells: Vec<CellReport>,
}

impl GridReport {
    /// Every judged (cell, model) pair, in grid order.
    pub fn pairs(&self) -> impl Iterator<Item = &PairReport> {
        self.cells.iter().flat_map(|c| &c.pairs)
    }

    /// `cell/model` of every pair that left its bands.
    pub fn failed(&self) -> Vec<String> {
        self.pairs()
            .filter(|p| !p.pass)
            .map(|p| format!("{}/{}", p.cell, p.model.name()))
            .collect()
    }
}

/// Run a grid, the one report writer: each pair's table goes to `out` as
/// its cell finishes.
pub fn run_grid(cells: &[Cell], tol: &Tolerances, out: &mut impl Write) -> io::Result<GridReport> {
    let mut report = GridReport { cells: Vec::with_capacity(cells.len()) };
    for cell in cells {
        let done = run_cell(cell, tol);
        out.write_all(done.table().as_bytes())?;
        report.cells.push(done);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_combines_relative_and_absolute_terms() {
        let t = Tol { rel: 0.1, abs: 0.01 };
        assert!(t.ok(1.0, 1.1));
        assert!(t.ok(0.0, 0.009));
        assert!(!t.ok(1.0, 1.2));
        assert!(t.ok(-1.0, -1.1), "signs handled via magnitudes");
    }

    #[test]
    fn scaling_tolerances_tightens_both_terms() {
        let t = bands().scaled(0.01);
        assert!(t.signal.rel < 0.01);
        assert!(t.qdelay.abs < 1e-4);
    }

    #[test]
    fn the_grid_is_seven_cells_and_thirteen_pairs() {
        let grid = grid(7);
        let names: Vec<&str> = grid.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            ["pi-reno", "pi-scal", "pi2-reno", "pi2-scal", "pie-reno", "pie-scal", "dualq-scal"]
        );
        assert_eq!(grid.iter().map(|c| c.models.len()).sum::<usize>(), 13);
        let on = |m| grid.iter().filter(|c| c.models.contains(&m)).count();
        assert_eq!((on(Model::Ode), on(Model::FlowLevel), on(Model::Hybrid)), (6, 3, 4));
    }

    #[test]
    fn a_pair_is_judged_on_its_models_metrics() {
        let s = |signal| BackendSummary { utilization: 1.0, qdelay_s: 0.02, signal, rate_ratio: 1.0 };
        let r = PairReport::judge("x", Model::Ode, &s(0.01), &s(0.011), &bands());
        assert!(r.pass);
        assert_eq!(r.metrics.len(), 3, "the ODE is not judged on utilization");
        assert!((r.metrics[0].achieved - 0.001 / 0.011).abs() < 1e-12);
    }

    #[test]
    fn ode_halves_take_the_gains_of_the_aqm_they_model() {
        // The mapping itself, against the paper's Figure 7 gain sets. The
        // pi2-scal row is the coupled-Scalable special case of `ode()`: the
        // ODE's config cannot carry k yet, so it runs `Direct` at k× the
        // gains instead of the coupled law.
        let want = [
            ("pi-reno", FluidControllerKind::Direct, 0.125, 1.25),
            ("pi-scal", FluidControllerKind::Direct, 0.625, 6.25),
            ("pi2-reno", FluidControllerKind::Squared, 0.3125, 3.125),
            ("pi2-scal", FluidControllerKind::Direct, 0.625, 6.25),
            ("pie-reno", FluidControllerKind::TunedDirect, 0.125, 1.25),
            ("pie-scal", FluidControllerKind::TunedDirect, 0.125, 1.25),
        ];
        let grid = grid(7);
        for (cell, (name, encoder, alpha, beta)) in grid.iter().zip(want) {
            let ode = cell.ode();
            assert_eq!(cell.name, name);
            assert_eq!(ode.encoder, encoder, "{name}");
            assert_eq!((ode.gains.alpha, ode.gains.beta), (alpha, beta), "{name}");
            assert_eq!((ode.gains.t_update, ode.target), (0.032, 0.020), "{name}");
        }
    }

    #[test]
    fn ode_halves_settle_near_the_target_delay() {
        // Cheap sanity on the mapping itself: every ODE half of the grid
        // must settle within a few ms of the 20 ms target.
        for cell in grid(7).iter().filter(|c| c.models.contains(&Model::Ode)) {
            let s = cell.ode_summary();
            assert!(
                (s.qdelay_s - 0.020).abs() < 0.008,
                "{}: fluid qdelay {:.1} ms",
                cell.name,
                s.qdelay_s * 1e3
            );
            assert!(
                s.signal > 1e-4 && s.signal < 0.5,
                "{}: fluid signal {}",
                cell.name,
                s.signal
            );
        }
    }
}
