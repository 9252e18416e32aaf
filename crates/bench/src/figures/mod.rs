//! The figure table: every output this repo regenerates from the paper —
//! figures, Appendix A, ablations, extensions, model agreement — is one row of
//! [`FIGURES`], and `pi2fig` is the one binary over it.
//!
//! A row's `id` is also the stem of its archived output,
//! `results/<id>.txt`; `scripts/ci.sh` re-renders every archived row at
//! the default knobs and `cmp`s it against that file, so the archive
//! cannot drift from the code.

mod ablation;
mod ext;
mod grid;
mod paper;

use crate::write_header;
use pi2_experiments::fig19::ComboResult;
use pi2_experiments::grid::{GridCell, Pair, GRID_SEED};
use std::io::{self, Write};
use std::sync::OnceLock;

/// `PI2_SECS` / `PI2_SEED` as the caller set them; `None` leaves a figure
/// at its table default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Knobs {
    /// Simulated seconds per run.
    pub secs: Option<u64>,
    /// Experiment seed.
    pub seed: Option<u64>,
}

impl Knobs {
    /// The one place the two environment knobs are read. A value that is
    /// not a number counts as unset.
    pub fn from_env() -> Knobs {
        let num = |name| std::env::var(name).ok().and_then(|v| v.parse().ok());
        Knobs {
            secs: num("PI2_SECS"),
            seed: num("PI2_SEED"),
        }
    }
}

/// One run of `pi2fig`: the knobs every figure in it is handed, and the
/// two sweeps that several figures print, each run at most once —
/// `fig15`–`fig18` and `grid_all` share the grid, `fig19` and `fig20` the
/// flow-count combinations. A sweep runs at the length and seed of the
/// first row to print it, so rows sharing one share their defaults.
pub struct Session {
    /// The knobs as set for this run.
    pub knobs: Knobs,
    grid: OnceLock<Vec<GridCell>>,
    combos: OnceLock<Vec<ComboResult>>,
}

impl Session {
    /// A run under `knobs`, nothing swept yet.
    pub fn new(knobs: Knobs) -> Session {
        Session {
            knobs,
            grid: OnceLock::new(),
            combos: OnceLock::new(),
        }
    }
}

/// What one knob means to one figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// The figure reads the knob and runs this value when it is unset.
    Default(u64),
    /// The figure ignores the knob; the text completes "it runs …".
    Fixed(&'static str),
}
use Knob::{Default, Fixed};

impl Knob {
    /// What runs when the knob is unset, if the figure reads it at all.
    pub fn when_unset(self) -> Option<u64> {
        match self {
            Default(v) => Some(v),
            Fixed(_) => None,
        }
    }
}

type Render = fn(&Figure, &Session, &mut dyn Write) -> io::Result<()>;

/// One row of the table.
pub struct Figure {
    /// What `pi2fig` takes on its command line; stem of `results/<id>.txt`.
    pub id: &'static str,
    /// The header line ("Figure 6: queue delay, PI (fixed gains) vs …").
    pub title: &'static str,
    /// What the numbers should show: the closing "shape check:" caption.
    /// Empty for the grid rows, whose views caption each section themselves,
    /// and for `validate_grid`, which ends on its verdict line.
    pub shape: &'static str,
    /// Simulated seconds per run.
    pub secs: Knob,
    /// Experiment seed.
    pub seed: Knob,
    /// Whether `results/<id>.txt` exists and `all` includes the row. The
    /// four single-figure grid views are not: `grid_all` contains them.
    pub archived: bool,
    render: Render,
}

impl Figure {
    /// Run the figure and write exactly what `results/<id>.txt` holds.
    pub fn render(&self, run: &Session, out: &mut dyn Write) -> io::Result<()> {
        write_header(out, self.title)?;
        (self.render)(self, run, out)?;
        if !self.shape.is_empty() {
            writeln!(out, "{}", self.shape)?;
        }
        Ok(())
    }

    /// One line naming each knob that is set but that this figure
    /// ignores, and what it runs instead; `None` when every set knob
    /// takes effect.
    pub fn ignored(&self, knobs: &Knobs) -> Option<String> {
        let mut parts = Vec::new();
        for (name, set, knob) in [
            ("PI2_SECS", knobs.secs, self.secs),
            ("PI2_SEED", knobs.seed, self.seed),
        ] {
            if let (Some(_), Fixed(runs)) = (set, knob) {
                parts.push(format!("{name} (it runs {runs})"));
            }
        }
        (!parts.is_empty()).then(|| format!("{} ignores {}", self.id, parts.join(" and ")))
    }

    /// The `pi2fig list` line: id, default secs, default seed, archived,
    /// title; `-` where the figure has no such knob.
    pub fn list_line(&self) -> String {
        let knob = |k: Knob| k.when_unset().map_or("-".to_string(), |v| v.to_string());
        format!(
            "{:<14}{:>4}  {:>6}  {:<9} {}",
            self.id,
            knob(self.secs),
            knob(self.seed),
            if self.archived { "archived" } else { "-" },
            self.title
        )
    }

    /// The length this figure runs at; only for a row with a default.
    fn secs(&self, run: &Session) -> u64 {
        let secs = run.knobs.secs.or(self.secs.when_unset());
        secs.unwrap_or_else(|| panic!("{} reads PI2_SECS but its row has no default", self.id))
    }

    /// The seed this figure runs; only for a row with a default.
    fn seed(&self, run: &Session) -> u64 {
        let seed = run.knobs.seed.or(self.seed.when_unset());
        seed.unwrap_or_else(|| panic!("{} reads PI2_SEED but its row has no default", self.id))
    }
}

const ANALYTIC: Knob = Fixed("no simulation");

/// Every figure, in the order `all` prints them.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure { id: "fig04", archived: true, render: paper::fig04, secs: ANALYTIC, seed: ANALYTIC,
             title: "Figure 4: PIE Bode margins vs drop probability (R=100 ms, T=32 ms)",
             shape: "shape check: fixed-tune margins run diagonally (≈20 dB per decade of p)\n\
                     and cross zero at low p; tune=auto keeps both margins positive everywhere." },
    Figure { id: "fig05", archived: true, render: paper::fig05, secs: ANALYTIC, seed: ANALYTIC,
             title: "Figure 5: PIE 'tune' lookup table vs sqrt(2p)",
             shape: "shape check: the stepped factor stays within a small constant factor of\n\
                     sqrt(2p) across seven decades (each step is a factor 2-4 wide), i.e. PIE's\n\
                     heuristic scaling was implicitly implementing PI2's square." },
    Figure { id: "fig06", archived: true, render: paper::fig06, secs: Fixed("5 phases of 50 s"), seed: Default(6),
             title: "Figure 6: queue delay, PI (fixed gains) vs PI2; 10:30:50:30:10 Reno flows, 100 Mb/s, 10 ms",
             shape: "\nshape check: 'pi2' stays pinned near the 20 ms target throughout. Note on\n\
                     'pi': in this idealized substrate the fixed-gain controller remains small-\n\
                     signal stable at this exact operating point (its Bode margins at the ~30 ms\n\
                     loop RTT are still positive; see fig04_bode_pie), so the testbed's visible\n\
                     limit cycle does not reappear here. Its failure mode — aggressive\n\
                     over-suppression and underutilization — emerges at lower p; see the\n\
                     fixed_gain_pi_oversuppresses_at_low_p integration test and EXPERIMENTS.md." },
    Figure { id: "fig07", archived: true, render: paper::fig07, secs: ANALYTIC, seed: ANALYTIC,
             title: "Figure 7: Bode margins: reno-pie vs reno-pi2 vs scal-pi (R=100 ms, T=32 ms)",
             shape: "shape check: pi2's gain margin is flattened (no 20 dB/decade diagonal) and\n\
                     positive over the whole range despite gains 2.5x PIE's; scal-pi with doubled\n\
                     gains tracks reno-pi2 closely; only at p' > ~60% do margins drift up." },
    Figure { id: "fig11", archived: true, render: paper::fig11, secs: Fixed("100 s"), seed: Default(11),
             title: "Figure 11: queue delay and total throughput under three traffic mixes (10 Mb/s, 100 ms)",
             shape: "\nshape check: PI2 shows less start-up overshoot and fewer damped\n\
                     oscillations than PIE in every mix; both settle near the 20 ms target and\n\
                     keep utilization high; the UDP overload mix pushes probability to its cap." },
    Figure { id: "fig12", archived: true, render: paper::fig12, secs: Fixed("150 s"), seed: Default(12),
             title: "Figure 12: queue delay under 100:20:100 Mb/s capacity steps (20 flows, 100 ms sampling)",
             shape: "shape check: PI2's drop-transient peak is materially lower than PIE's\n\
                     (paper: 250 vs 510 ms), PI2 has no late >=100 ms excursions where PIE has\n\
                     ~2, and PI2 shows no visible overshoot when capacity is restored." },
    Figure { id: "fig13", archived: true, render: paper::fig13, secs: Fixed("5 phases of 50 s"), seed: Default(13),
             title: "Figure 13: queue delay, PIE vs PI2; 10:30:50:30:10 Reno flows, 10 Mb/s, 100 ms",
             shape: "\nshape check: PI2 shows less overshoot at each load change and smaller\n\
                     upward fluctuations during the steady phases than PIE." },
    Figure { id: "fig14", archived: true, render: paper::fig14, secs: Fixed("100 s"), seed: Default(14),
             title: "Figure 14: queue-delay CDFs at 5/20 ms targets (10 Mb/s, 100 ms)",
             shape: "\nshape check: for each (panel, target) the PI2 and PIE CDFs are close —\n\
                     PI2's simplicity costs nothing in the delay distribution — and both track\n\
                     their configured target." },
    Figure { id: "fig15", archived: false, render: grid::fig15, secs: Default(60), seed: Default(GRID_SEED),
             title: "Figure 15: rate balance over the link x RTT grid", shape: "" },
    Figure { id: "fig16", archived: false, render: grid::fig16, secs: Default(60), seed: Default(GRID_SEED),
             title: "Figure 16: queue delay over the link x RTT grid", shape: "" },
    Figure { id: "fig17", archived: false, render: grid::fig17, secs: Default(60), seed: Default(GRID_SEED),
             title: "Figure 17: mark/drop probability over the link x RTT grid", shape: "" },
    Figure { id: "fig18", archived: false, render: grid::fig18, secs: Default(60), seed: Default(GRID_SEED),
             title: "Figure 18: link utilization over the link x RTT grid", shape: "" },
    Figure { id: "fig19", archived: true, render: paper::fig19, secs: Default(60), seed: Default(0x19),
             title: "Figure 19: rate balance across flow-count combinations (40 Mb/s, 10 ms)",
             shape: "shape check: the Cubic/DCTCP per-flow ratio under PIE is far below 1 for\n\
                     every combination; under coupled PI2 it stays near 1 irrespective of the\n\
                     flow counts; the ECN-Cubic control pair is ~1 throughout." },
    Figure { id: "fig20", archived: true, render: paper::fig20, secs: Default(60), seed: Default(0x19),
             title: "Figure 20: normalized per-flow rates across flow-count combinations (40 Mb/s, 10 ms)",
             shape: "shape check: under coupled PI2 all normalized rates cluster around 1 for\n\
                     every combination; under PIE the Cubic flows' normalized rate collapses\n\
                     toward 0.1 whenever DCTCP flows are present." },
    Figure { id: "grid_all", archived: true, render: grid::grid_all, secs: Default(60), seed: Default(GRID_SEED),
             title: "Figures 15-18: the full coexistence grid: rate balance, delay, probability, utilization", shape: "" },
    Figure { id: "appA", archived: true, render: paper::app_a, secs: Fixed("120, 80 and 60 s"), seed: Default(0xa),
             title: "Appendix A: steady-state window laws: measured vs closed form",
             shape: "\nshape check: Reno tracks 1.22/sqrt(p), CReno 1.68/sqrt(p) at small BDP,\n\
                     DCTCP and the half-packet scalable control track 2/p (probabilistic\n\
                     marking, not the 2/p^2 step-marking law); the step-vs-probabilistic table\n\
                     shows the exponent change directly (same fraction, very different W —\n\
                     the Irteza et al. phenomenon the paper cites); the realized classic\n\
                     probability follows the coupled square relation up to sawtooth-induced\n\
                     convexity bias." },
    Figure { id: "abl_bare", archived: true, render: ablation::bare, secs: Fixed("100 s, and 60 s of bursts"), seed: Default(0xba7e),
             title: "Ablation: bare-PIE: full Linux PIE vs PIE with all extra heuristics disabled (figure 11 mixes)",
             shape: "shape check: the summaries match within noise — PIE's burst allowance,\n\
                     light-load suppression, delta clamps and 250 ms rule contribute nothing,\n\
                     even on the bursty workload the allowance was designed for: the PI core's\n\
                     incremental p already filters transient bursts, as the paper observed." },
    Figure { id: "abl_bdp", archived: true, render: ablation::bdp, secs: Default(40), seed: Default(0xbd),
             title: "Ablation: the footnote-5 BDP bug: Cubic vs ECN-Cubic under PIE, with and without the 1 MB window cap",
             shape: "shape check: cells whose BDP stays under ~1 MB are unaffected. Beyond it,\n\
                     two effects reproduce the paper's anomalous high-BDP cells: (a) with the\n\
                     1 MB cap, utilization pins at 2 x 1MB/RTT / link (the footnote-5 artefact\n\
                     proper); (b) even uncapped, the drop-based flow starves against the\n\
                     marked flow at extreme BDP — at p this small every loss costs Cubic a\n\
                     multi-second recovery while ECN marking costs its rival nothing, so the\n\
                     asymmetry compounds. Ironically the cap 'fixes' the ratio by pinning\n\
                     both flows at the same window." },
    Figure { id: "abl_curvy", archived: true, render: ablation::curvy, secs: Fixed("80 s"), seed: Default(0xc0),
             title: "Ablation: Curvy RED vs PI2: standing queue vs load: curve-read probability vs PI-controlled probability",
             shape: "shape check: Curvy RED's mean delay climbs with the flow count (the\n\
                     operating point slides up its curve — the RED behaviour Hollot et al.\n\
                     criticized), while PI2 holds ~20 ms at every load; utilizations comparable." },
    Figure { id: "abl_delack", archived: true, render: ablation::delack, secs: Default(60), seed: Default(0xda),
             title: "Ablation: delayed ACKs: the CReno constant and the coexistence balance under RFC 1122 delayed ACKs",
             shape: "shape check: with byte-counting senders the constant is ~insensitive to\n\
                     delayed ACKs (both a bit under the deterministic 1.68 — stochastic loss\n\
                     clusters), and k = 2 remains the balanced coupling either way. The paper's\n\
                     analytic-1.19 vs empirical-2 gap is a transport-dynamics effect, not an\n\
                     ACK-policy one." },
    Figure { id: "abl_estimator", archived: true, render: ablation::estimator, secs: Fixed("100 s"), seed: Default(0xe5),
             title: "Ablation: delay estimator: PI2 under qlen/rate vs RFC 8033 rate-estimation vs sojourn timestamps",
             shape: "shape check: all three estimators hold the same target within a few ms —\n\
                     the PI core, not the measurement method, does the work. (The rate\n\
                     estimator matters under capacity changes, where it lags; see fig12.)" },
    Figure { id: "abl_gain", archived: true, render: ablation::gain, secs: Fixed("100 s"), seed: Default(0xab),
             title: "Ablation: gain sweep: responsiveness vs stability as PI2 gains scale",
             shape: "shape check: the analytic minimum gain margin shrinks ~20log10(m) dB with\n\
                     the multiplier and crosses zero somewhere past the paper's 2.5x choice;\n\
                     empirically, every multiplier up to 10x lowers the peak, mean and p99\n\
                     delay, past that crossing too: no row shows a cost of instability (where\n\
                     the packet loop does go unstable is ROADMAP item 20)." },
    Figure { id: "abl_k", archived: true, render: ablation::k, secs: Default(60), seed: Default(0x5eed),
             title: "Ablation: k sweep: Cubic/DCTCP per-flow rate ratio vs coupling factor (40 Mb/s, 10 ms)",
             shape: "shape check: the ratio rises monotonically with k (gentler Classic\n\
                     signal); the paper's empirical k = 2 sits near balance for real-stack\n\
                     dynamics, while the idealized eq.-(14) value 1.19 undershoots here\n\
                     because our DCTCP reacts with the idealized once-per-RTT cut." },
    Figure { id: "abl_overload", archived: true, render: ablation::overload, secs: Fixed("60 s"), seed: Default(0x0f10),
             title: "Ablation: overload: unresponsive UDP load sweep, 10 Mb/s link, 100 ms buffer, 2 Reno + 1 UDP",
             shape: "shape check: below saturation both AQMs hold the 20 ms target. Past ~100%\n\
                     offered UDP load, PI2's applied probability pins at its 25% cap, the queue\n\
                     rises to the physical buffer and tail-drop supplies the remaining loss —\n\
                     exactly the §5 hand-over the paper prescribes instead of PIE's special cases." },
    Figure { id: "abl_sq", archived: true, render: ablation::square, secs: Fixed("100 s"), seed: Default(0x50),
             title: "Ablation: square mode: p'*p' multiply vs max(Y1,Y2) two-compare drop decisions",
             shape: "shape check: identical distributions up to seed noise — the hardware-\n\
                     friendly two-compare form changes nothing." },
    Figure { id: "ext_dualq", archived: true, render: ext::dualq, secs: Default(60), seed: Default(0xd0a1),
             title: "Extension: DualQ: DualPI2 two-queue coupled AQM vs the single-queue arrangement",
             shape: "shape check: DCTCP packets wait 1.3 to 2.1 packet serialisation times\n\
                     (L mean 0.62 ms at 40 Mb/s and 1.30 ms at 12 Mb/s, where one 1500 B packet\n\
                     takes 0.3 and 1.0 ms; 0.13 ms at 120 Mb/s): native ramp + near-priority\n\
                     scheduling, an L packet waiting only for the packet already on the wire,\n\
                     while Cubic keeps the 20 ms PI2 target at full utilization. Windows stay\n\
                     k=2-coupled; rates skew somewhat toward DCTCP because its RTT no longer\n\
                     includes the 20 ms Classic queue (the known window-vs-rate balance\n\
                     property of the DualQ, cf. RFC 9332)." },
    Figure { id: "ext_dynamics", archived: true, render: ext::dynamics, secs: Fixed("85 s"), seed: Default(4),
             title: "Extension: step response: spike and settling after a 40:10:40 Mb/s rate step and a 5:20:5 flow churn (50 ms)",
             shape: "shape check: in every disturbance x weather block PI2 and DualPI2 spike\n\
                     lower than PIE and are back inside the 0-40 ms band sooner, on gains 2.5x\n\
                     PIE's and no tune table (the paper's section 5 claim, Figure 12\n\
                     generalized); 1% loss and 2 ms of reordering lower every spike (the\n\
                     senders back off on the path's losses too) without changing that order." },
    Figure { id: "ext_family", archived: true, render: ext::family, secs: Default(60), seed: Default(0xfa1),
             title: "Extension: the Scalable family: Cubic vs each B=1 control (40 Mb/s, 10 ms), coupled PI2 vs PIE",
             shape: "shape check: under PIE the 2/p and 1/p controls starve Cubic. Under the\n\
                     coupled AQM each lands at a bounded balance set by its window constant:\n\
                     DCTCP and the half-packet idealization (both 2/p) sit at ~1; Relentless\n\
                     (1/p, half the window at the same p) gives Cubic ~2x; Scalable TCP\n\
                     (0.08/p, 25x gentler) is dominated by Cubic — k = 2 is a DCTCP-specific\n\
                     constant, and the coupling transparently exposes each control's own\n\
                     aggressiveness rather than hiding it." },
    Figure { id: "ext_fq", archived: true, render: ext::fq, secs: Default(60), seed: Default(0xf0),
             title: "Extension: FQ isolation: Cubic vs DCTCP under per-flow queuing vs the coupled single queue",
             shape: "shape check: FQ balances the rates perfectly by scheduling — but without a\n\
                     per-queue AQM each flow (DCTCP included: unmarked, it falls back to loss\n\
                     probing) bloats its own queue to the backlog cap. Isolation alone does not\n\
                     buy low latency; it needs AQM per queue (fq_codel) plus per-flow state and\n\
                     flow inspection. The coupled PI2 delivers the 20 ms target in one FIFO,\n\
                     and the DualQ (ext_dualq) holds the Scalable class to one or two packet\n\
                     times of delay with just two queues and no flow identification — the\n\
                     paper's trilemma point." },
    Figure { id: "ext_rtt", archived: true, render: ext::rtt, secs: Default(60), seed: Default(0x477),
             title: "Extension: RTT fairness: 10 ms vs 100 ms Reno flows sharing 40 Mb/s (250 ms buffer)",
             shape: "shape check: every single-queue AQM inherits TCP's RTT bias (the 10 ms\n\
                     flow wins), softened by the shared queue: effective RTTs are\n\
                     (base + queue), so the ratio falls as the PI2 target deepens — the\n\
                     latency/fairness trade a delay target embodies. PIE and PI2 behave\n\
                     alike. Tail-drop manages to be worse on both axes: 250 ms of latency\n\
                     AND more bias, because its synchronized overflow losses punish the\n\
                     slow-recovering long-RTT flow hardest." },
    Figure { id: "ext_short", archived: true, render: ext::short, secs: Fixed("120 s"), seed: Default(0x11eb),
             title: "Short flows: flow completion times under light and heavy web-like workloads",
             shape: "shape check: the three AQMs' FCT percentiles agree within noise on both\n\
                     workloads, matching the paper's 'essentially the same' finding." },
    Figure { id: "ext_topology", archived: true, render: ext::topology, secs: Fixed("60 s"), seed: Default(9),
             title: "Extension: multi-hop: per-hop fairness and mice FCT, parking-lot-3 and access-core-2, 2 Cubic + 2 DCTCP",
             shape: "shape check: every mouse completes. Standalone PI2 gives DCTCP's marks the\n\
                     same squared probability as Cubic's drops, so on every hop DCTCP takes about\n\
                     7x Cubic's rate (c/s 0.14-0.15, Jain 0.53-0.65); DualPI2's coupling brings\n\
                     the classes back to 0.93-1.19 (Jain 0.99 on each parking-lot hop), across\n\
                     three bottlenecks in series as on the dumbbell, and cuts the mice FCT P99\n\
                     more than 4x." },
    Figure { id: "validate_grid", archived: true, render: ext::validate_grid, secs: Fixed("60 s per cell"), seed: Default(7),
             title: "Model agreement: delay-ODE, flow-level engine and hybrid mode, each judged against one packet run per cell (12 Mb/s, 50 ms, 5 flows)",
             shape: "" },
];

/// The rows a `pi2fig` command line names: any mix of ids and `all` (the
/// archived rows in table order). Anything else is an error that lists
/// every valid id.
pub fn select(args: &[String]) -> Result<Vec<&'static Figure>, String> {
    let mut picked = Vec::new();
    for arg in args {
        if arg == "all" {
            picked.extend(FIGURES.iter().filter(|f| f.archived));
        } else if let Some(f) = FIGURES.iter().find(|f| f.id == arg) {
            picked.push(f);
        } else {
            return Err(format!("unknown figure '{arg}'\n{}", usage()));
        }
    }
    if picked.is_empty() {
        return Err(usage());
    }
    Ok(picked)
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!("usage: pi2fig <id>... | all | list\nids: {}", ids.join(" "))
}

fn pair_label(p: Pair) -> &'static str {
    match p {
        Pair::CubicVsEcnCubic => "Cubic/ECN-Cubic",
        Pair::CubicVsDctcp => "Cubic/DCTCP",
    }
}
