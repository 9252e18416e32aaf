//! Flow-level (rate-based) execution engine: max-min-fair bottleneck
//! sharing with fluid window dynamics, no per-packet events.
//!
//! Where [`crate::ode::FluidSim`] integrates the delay-ODE for a single
//! homogeneous flow population as a *cross-check*, this module is an
//! *execution backend*: it carries an arbitrary mix of flow classes
//! (Reno/Scalable, per-class RTT, optional application rate caps, staggered
//! start/stop) over one bottleneck. Cost per integration step depends on
//! the class count only, never on how many flows each class represents, so
//! a 1M-flow sweep costs the same as a 10-flow one. The only "events" are
//! rate reallocations — recomputations of the max-min share whenever the
//! set of binding constraints changes — and controller ticks; there are no
//! per-packet events at all.
//!
//! A step is a few passes over the class columns (round trips, demands,
//! the window law), a repair of the water-filling order and one fill:
//! O(classes) plus the entries the repair has to move, and no allocation.
//! The engine keeps the
//! order (classes sorted by per-flow demand) from step to step instead of
//! sorting from scratch, because it hardly changes: windows drift smoothly,
//! so neighbours in demand order rarely swap within one `dt`
//! ([`FlowLevelSim::order_moves`] counts the entries that did). On a
//! 1 000-class mix of 5–200 ms RTTs the repair moves ~90 entries per step
//! in the first simulated second, about two in the third and none from the
//! sixth on. A step that scrambles the order (classes activating together,
//! a restore into a fresh engine) is bounded by a full sort:
//! O(classes · log classes), the cost every step used to pay. The order
//! under `(demand, index)` is a strict total order, so the sorted
//! permutation is unique and the fill rounds the same whichever way it was
//! reached — [`max_min_weighted`] from scratch returns the same bits.
//!
//! The same window laws as the ODE integrator apply (undelayed form, so
//! the equilibrium operating points of eqs. (19)/(23) are preserved while
//! staying O(1) memory per class):
//!
//! ```text
//! Reno:      dW/dt = 1/R − ½·W²/R · s        Scalable: dW/dt = 1/R − ½·W/R · s
//! Queue:     dq/dt = Σᵢ Nᵢ·min(Wᵢ/Rᵢ, capᵢ) − C
//! ```
//!
//! with `s` the applied signal, [`crate::law`]'s output law — the one the
//! packet AQMs evaluate — built once from the encoder: under a squared
//! encoder `min(p'², 25 %)` for classic flows and `min(k·p', 1)` for
//! scalable flows (the DualPI2 coupling), under direct encoders `p'`.
//!
//! # The class law as column kernels
//!
//! [`FlowLevelSim::new`] lays the class table out once as columns
//! (`ClassColumns`: `base_rtt`, `count`, `cap`, `start`, `stop` as
//! `Vec<f64>` with `+∞` for "no cap" and "never stops", the law's kind as a
//! `Vec<u64>` mask), and the engine keeps scratch rows beside them: the
//! round trip `r`, `1/r` and `cap·r` of every class, its applied `signal`,
//! and a `live` mask of the classes active at the current clock. The law is
//! written once, for both kinds, as a body without branches
//! (`advance_windows`): the kind picks a factor `w` or `1.0`, the floor and
//! the cap are compare-selects, and an idle class's restart to W = 1 is a
//! bit-mask select. [`FlowLevelSim::step`], [`FlowLevelSim::tick_external`]
//! and [`FlowLevelSim::class_rates_pps`] all go through the same handful of
//! kernels. A coupling tick fills `r`, `1/r`, `cap·r` and `signal` once —
//! they are constant over its 32 sub-steps — and works the `live` row out
//! again only when the clock passes the next `start`/`stop`, so a sub-step
//! is one division per class, and that one packed.
//!
//! The kernels are free functions over equal-length slices, kept out of
//! line: written as loops over `self.` fields the same bodies did not
//! vectorise, because the compiler cannot see that two `Vec`s of one struct
//! do not overlap, while `&mut [f64]` and `&[f64]` arguments cannot.
//!
//! Every result is bit for bit what the per-class scalar form gave (kept
//! under `#[cfg(test)]` as the oracle of
//! `column_kernels_equal_the_scalar_law_bit_for_bit`): the operations and
//! their order are the same, IEEE division and multiplication round each
//! lane on its own, Rust never contracts `a*b + c` to a fused multiply-add,
//! and multiplying by `1.0`, `min` against `+∞` and the mask selects are
//! exact. The three sums (`arrival` and the signal-weighted rate in `step`,
//! the offered rate of a tick) stay sequential and in class order, because
//! a float sum rounds by its order; an idle class adds `+0.0`, which leaves
//! a sum that started from `+0.0` as it was.
//!
//! Deliberately not built: a second, `#[target_feature(enable = "avx2")]`
//! instantiation of the kernel (a whole build at `+avx2` read a tick
//! ×1.4–1.7 faster, but it needs an `unsafe` dispatch whose other side no
//! host here would run); `f64::mul_add` or a multiply by `1/r` in place of
//! `x / r` (either changes the rounding, hence every hybrid run); and a
//! division-free test in `water_fill` (its branch is well predicted, which
//! hides the division: a prototype with an exact error-bounded filter
//! moved nothing).

use crate::ode::{FluidControllerKind, FluidTcpKind};
use crate::law::{tune_factor, OutputLaw, PiGains, PiStep};
use pi2_simcore::ckpt_fields;
use std::cmp::Ordering;

/// Max-min-fair (water-filling) allocation of `capacity` across flows
/// with the given `demands`.
///
/// Properties (certified by the vendored proptest suite):
/// * the allocation sums to `min(capacity, Σ demands)`;
/// * no flow is allocated more than its demand;
/// * the result is invariant to permutation of the demand vector
///   (equal demands always receive equal shares);
/// * adding a flow never increases any existing flow's share.
///
/// Negative or non-finite demands are treated as zero. Runs in
/// O(n log n) on a deterministic sort (ties broken by index).
pub fn max_min_allocation(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let weighted: Vec<(f64, f64)> = demands
        .iter()
        .map(|&d| (if d.is_finite() && d > 0.0 { d } else { 0.0 }, 1.0))
        .collect();
    max_min_weighted(capacity, &weighted)
}

/// Weighted water-filling: entry `i` stands for `count_i` identical flows
/// each demanding `demand_i`; returns the *per-flow* rate of each entry.
///
/// This is the allocation the flow-level engine computes every step —
/// classes aggregate millions of flows into one entry, so allocation cost
/// is independent of population size. The engine reaches the same fill
/// through the order it keeps between steps; this function sorts from
/// scratch.
pub fn max_min_weighted(capacity: f64, classes: &[(f64, f64)]) -> Vec<f64> {
    let mut order = identity_order(classes.len());
    order.sort_by(|&a, &b| fill_order(classes, a, b));
    let mut alloc = vec![0.0; classes.len()];
    water_fill(capacity, classes, &order, &mut alloc);
    alloc
}

/// The fill visits entries by per-flow demand ascending, index as
/// tie-break: a strict total order, so the sorted permutation is unique
/// and the fill's float rounding does not depend on how it was sorted.
#[inline]
fn fill_order(classes: &[(f64, f64)], a: u32, b: u32) -> Ordering {
    classes[a as usize]
        .0
        .total_cmp(&classes[b as usize].0)
        .then(a.cmp(&b))
}

fn identity_order(n: usize) -> Vec<u32> {
    let n = u32::try_from(n).expect("the fill order indexes entries with u32");
    (0..n).collect()
}

/// Re-sort `order`, sorted under last step's demands, for this step's.
/// Returns how many entries it shifted.
///
/// Insertion costs one shift per inversion, which is what a smoothly
/// drifting population produces a handful of. Once the shifts exceed what
/// a full sort of `n` entries costs (n · log₂ n), the rest is handed to
/// one, so a step that reverses the whole order still costs O(n log n).
fn repair_order(order: &mut [u32], classes: &[(f64, f64)]) -> u64 {
    let n = order.len();
    let budget = n * (usize::BITS - n.leading_zeros()) as usize;
    let mut moved = 0;
    for i in 1..n {
        let cur = order[i];
        let mut j = i;
        while j > 0 && fill_order(classes, cur, order[j - 1]) == Ordering::Less {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = cur;
        moved += i - j;
        if moved > budget {
            order.sort_unstable_by(|&a, &b| fill_order(classes, a, b));
            break;
        }
    }
    moved as u64
}

/// Water-fill `capacity` over `classes` visited in `order` (sorted by
/// [`fill_order`]), writing each entry's per-flow rate to `alloc`.
fn water_fill(capacity: f64, classes: &[(f64, f64)], order: &[u32], alloc: &mut [f64]) {
    alloc.fill(0.0);
    if !(capacity > 0.0) {
        return;
    }
    let mut remaining_cap = capacity;
    let mut remaining_flows: f64 = classes
        .iter()
        .map(|&(d, c)| if d > 0.0 && c > 0.0 { c } else { 0.0 })
        .sum();
    for (pos, &i) in order.iter().enumerate() {
        let (demand, count) = classes[i as usize];
        if !(demand > 0.0) || !(count > 0.0) {
            continue;
        }
        if remaining_flows <= 0.0 || remaining_cap <= 0.0 {
            break;
        }
        let fair = remaining_cap / remaining_flows;
        if demand <= fair {
            alloc[i as usize] = demand;
            remaining_cap -= demand * count;
            remaining_flows -= count;
        } else {
            // Every remaining entry demands more than the fair share:
            // split the rest equally per flow.
            for &j in &order[pos..] {
                let (dj, cj) = classes[j as usize];
                if dj > 0.0 && cj > 0.0 {
                    alloc[j as usize] = fair;
                }
            }
            break;
        }
    }
}

/// One class of identical flows in the flow-level engine.
#[derive(Clone, Debug)]
pub struct FlowClass {
    /// How many flows this class aggregates (fractional allowed).
    pub count: f64,
    /// Window law.
    pub tcp: FluidTcpKind,
    /// Two-way propagation delay in seconds (RTT excluding queue).
    pub base_rtt: f64,
    /// Optional per-flow application rate cap in packets per second.
    pub rate_cap_pps: Option<f64>,
    /// Class becomes active at this time (seconds).
    pub start: f64,
    /// Class stops at this time if set (seconds).
    pub stop: Option<f64>,
}

impl FlowClass {
    /// An always-on, unconstrained class.
    pub fn new(count: f64, tcp: FluidTcpKind, base_rtt: f64) -> Self {
        FlowClass {
            count,
            tcp,
            base_rtt,
            rate_cap_pps: None,
            start: 0.0,
            stop: None,
        }
    }
}

/// Flow-level engine configuration.
#[derive(Clone, Debug)]
pub struct FlowLevelConfig {
    /// Bottleneck capacity in packets per second.
    pub capacity_pps: f64,
    /// The flow classes sharing the bottleneck.
    pub classes: Vec<FlowClass>,
    /// Signal encoding of the AQM being modeled.
    pub encoder: FluidControllerKind,
    /// PI gains.
    pub gains: PiGains,
    /// Delay target τ₀ in seconds.
    pub target: f64,
    /// Coupling factor k: scalable flows under a squared encoder see
    /// `min(k·p', 1)` (DualPI2's coupled marking).
    pub coupling: f64,
    /// Integration step in seconds.
    pub dt: f64,
}

impl Default for FlowLevelConfig {
    fn default() -> Self {
        FlowLevelConfig {
            capacity_pps: 10_000_000.0 / 8.0 / 1500.0,
            classes: vec![FlowClass::new(5.0, FluidTcpKind::Reno, 0.1)],
            encoder: FluidControllerKind::Squared,
            gains: PiGains::pi2(),
            target: 0.020,
            coupling: 2.0,
            dt: 0.001,
        }
    }
}

/// One sample of the flow-level engine.
#[derive(Clone, Copy, Debug)]
pub struct FlowLevelSample {
    /// Time in seconds.
    pub t: f64,
    /// Queue delay τ = q/C in seconds.
    pub qdelay: f64,
    /// The controller's linear variable p'.
    pub p_prime: f64,
    /// The traffic-weighted applied signal (the fluid analogue of the
    /// packet side's marked+dropped over sent).
    pub signal: f64,
    /// Link utilization in [0, 1] this step.
    pub util: f64,
    /// Aggregate offered arrival rate in packets per second.
    pub arrival_pps: f64,
}

/// `a` where `mask` is all ones, `b` where it is zero. Exact: no
/// arithmetic touches the chosen value.
#[inline(always)]
fn select(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `f64::min(a, b)` for a `b` that is not NaN, as one compare-select
/// (`minpd`). A NaN `b` — only a NaN window, which no step produces, makes
/// one — is returned as it is.
#[inline(always)]
fn min_select(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The class table as columns: one `Vec` per field, index = class, built
/// once by [`FlowLevelSim::new`] from [`FlowLevelConfig::classes`].
struct ClassColumns {
    base_rtt: Vec<f64>,
    count: Vec<f64>,
    /// Per-flow rate cap; `+∞` for a class without one, against which
    /// `min` is the identity.
    cap: Vec<f64>,
    start: Vec<f64>,
    /// `+∞` for a class that never stops.
    stop: Vec<f64>,
    /// The window law as a mask: all ones for Reno, zero for Scalable.
    reno: Vec<u64>,
}

impl ClassColumns {
    fn new(classes: &[FlowClass]) -> Self {
        let column = |f: fn(&FlowClass) -> f64| classes.iter().map(f).collect();
        ClassColumns {
            base_rtt: column(|cl| cl.base_rtt),
            count: column(|cl| cl.count),
            cap: column(|cl| cl.rate_cap_pps.unwrap_or(f64::INFINITY)),
            start: column(|cl| cl.start),
            stop: column(|cl| cl.stop.unwrap_or(f64::INFINITY)),
            reno: classes
                .iter()
                .map(|cl| match cl.tcp {
                    FluidTcpKind::Reno => !0,
                    FluidTcpKind::Scalable => 0,
                })
                .collect(),
        }
    }
}

/// Round trip of every class at queue delay `qdelay`, with the two values
/// the window law derives from it. They hold for as long as `qdelay`
/// does — all the sub-steps of a coupling tick.
#[inline(never)]
fn fill_round_trips(
    base_rtt: &[f64],
    cap: &[f64],
    qdelay: f64,
    r: &mut [f64],
    inv_r: &mut [f64],
    cap_r: &mut [f64],
) {
    let n = base_rtt.len();
    let (cap, r, inv_r, cap_r) = (&cap[..n], &mut r[..n], &mut inv_r[..n], &mut cap_r[..n]);
    for i in 0..n {
        let ri = base_rtt[i] + qdelay;
        r[i] = ri;
        inv_r[i] = 1.0 / ri;
        cap_r[i] = cap[i] * ri;
    }
}

/// The signal each class's law applies: `classic` for Reno, `scalable`
/// for Scalable.
#[inline(never)]
fn fill_signals(reno: &[u64], classic: f64, scalable: f64, signal: &mut [f64]) {
    for (s, &mask) in signal.iter_mut().zip(reno) {
        *s = select(mask, classic, scalable);
    }
}

/// `(per-flow offered rate, flow count)` of every class: `min(W/R, cap)`
/// for a live class, `(0, 0)` for an idle one.
#[inline(never)]
fn fill_demands(
    w: &[f64],
    r: &[f64],
    cap: &[f64],
    count: &[f64],
    live: &[u64],
    demand: &mut [(f64, f64)],
) {
    let n = w.len();
    let (r, cap, count) = (&r[..n], &cap[..n], &count[..n]);
    let (live, demand) = (&live[..n], &mut demand[..n]);
    for i in 0..n {
        let rate = min_select(cap[i], w[i] / r[i]);
        demand[i] = (select(live[i], rate, 0.0), select(live[i], count[i], 0.0));
    }
}

/// The window law, for both kinds, over every class: `h` seconds of the
/// undelayed fluid law under each class's applied signal; an idle class
/// restarts from W = 1 when it (re)activates.
///
/// Operation for operation what the per-class form computed —
/// `w + (1/r − ½·w·m / r · s)·h` with `m` = `w` for Reno and `1.0` (an
/// exact factor) for Scalable, floored at 1e-3 (a NaN goes to the floor,
/// as with `f64::max`) and, app-limited, never built past `cap·r` — but
/// with selects for branches, so the loop compiles to packed
/// `divpd`/`maxpd`/`minpd`. Out of line so that it keeps a symbol and its
/// slices stay `noalias`.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn advance_windows(
    w: &mut [f64],
    r: &[f64],
    inv_r: &[f64],
    cap_r: &[f64],
    signal: &[f64],
    reno: &[u64],
    live: &[u64],
    h: f64,
) {
    let n = w.len();
    let (r, inv_r, cap_r) = (&r[..n], &inv_r[..n], &cap_r[..n]);
    let (signal, reno, live) = (&signal[..n], &reno[..n], &live[..n]);
    for i in 0..n {
        let wi = w[i];
        let m = select(reno[i], wi, 1.0);
        let next = wi + (inv_r[i] - 0.5 * wi * m / r[i] * signal[i]) * h;
        let next = if next > 1e-3 { next } else { 1e-3 };
        w[i] = select(live[i], min_select(cap_r[i], next), 1.0);
    }
}

/// Σ count·min(W/R, cap) over the live classes, in class order: a float
/// sum rounds by its order, so this one stays sequential.
fn offered_rate(w: &[f64], r: &[f64], cap: &[f64], count: &[f64], live: &[u64]) -> f64 {
    let n = w.len();
    let (r, cap, count, live) = (&r[..n], &cap[..n], &count[..n], &live[..n]);
    let mut offered = 0.0;
    for i in 0..n {
        let rate = min_select(cap[i], w[i] / r[i]);
        // An idle class adds +0.0, which leaves any sum from +0.0 as it is.
        offered += select(live[i], rate * count[i], 0.0);
    }
    offered
}

/// The flow-level engine.
///
/// ```
/// use pi2_fluid::{FlowClass, FlowLevelConfig, FlowLevelSim, FluidTcpKind};
/// let cfg = FlowLevelConfig {
///     classes: vec![FlowClass::new(100_000.0, FluidTcpKind::Reno, 0.1)],
///     capacity_pps: 1.0e9 / 8.0 / 1500.0,
///     ..FlowLevelConfig::default()
/// };
/// let samples = FlowLevelSim::new(cfg).run(60.0, 0.1);
/// assert!(samples.last().unwrap().qdelay.is_finite());
/// ```
pub struct FlowLevelSim {
    cfg: FlowLevelConfig,
    /// The encoder's law, and whether the tune table scales its step.
    law: OutputLaw,
    tuned: bool,
    cols: ClassColumns,
    w: Vec<f64>,
    q: f64,
    p_prime: f64,
    prev_qdelay: f64,
    t: f64,
    steps: u64,
    ctrl_every: u64,
    alloc_events: u64,
    /// Which classes were demand-bound (vs fair-share-bound) last step;
    /// a change is one "rate reallocation event".
    binding: Vec<bool>,
    /// `(per-flow demand, flow count)` of each class at the last step.
    demand: Vec<(f64, f64)>,
    /// Per-flow max-min share of each class at the last step.
    share: Vec<f64>,
    /// Class indices sorted by [`fill_order`] on the last step's demands;
    /// always a permutation, repaired (not rebuilt) every step.
    order: Vec<u32>,
    order_moves: u64,
    /// Scratch rows of [`fill_round_trips`] and [`fill_signals`], refilled
    /// by every step and tick.
    r: Vec<f64>,
    inv_r: Vec<f64>,
    cap_r: Vec<f64>,
    signal: Vec<f64>,
    /// All ones for each class that is active (started, not stopped,
    /// count > 0) at any clock value in `live_from..live_until`; see
    /// [`Self::refresh_live`].
    live: Vec<u64>,
    live_from: f64,
    live_until: f64,
    /// Per-flow rate time-integral per class since `begin_measurement`.
    rate_integral: Vec<f64>,
    meas_from: Option<f64>,
}

impl FlowLevelSim {
    /// Create the engine at W = 1, q = 0, p' = 0 for every class.
    pub fn new(cfg: FlowLevelConfig) -> Self {
        assert!(cfg.dt > 0.0 && cfg.capacity_pps > 0.0);
        assert!(!cfg.classes.is_empty(), "need at least one flow class");
        for cl in &cfg.classes {
            assert!(cl.base_rtt > 0.0, "class base_rtt must be positive");
        }
        let ctrl_every = (cfg.gains.t_update / cfg.dt).round().max(1.0) as u64;
        let n = cfg.classes.len();
        let (law, tuned) = cfg.encoder.law(Some(cfg.coupling));
        FlowLevelSim {
            law,
            tuned,
            cols: ClassColumns::new(&cfg.classes),
            w: vec![1.0; n],
            q: 0.0,
            p_prime: 0.0,
            prev_qdelay: 0.0,
            t: 0.0,
            steps: 0,
            ctrl_every,
            alloc_events: 0,
            binding: vec![false; n],
            demand: vec![(0.0, 0.0); n],
            share: vec![0.0; n],
            order: identity_order(n),
            order_moves: 0,
            r: vec![0.0; n],
            inv_r: vec![0.0; n],
            cap_r: vec![0.0; n],
            signal: vec![0.0; n],
            live: vec![0; n],
            // An empty interval: the first use works the row out.
            live_from: f64::INFINITY,
            live_until: f64::NEG_INFINITY,
            rate_integral: vec![0.0; n],
            meas_from: None,
            cfg,
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Rate reallocation events so far (binding-set changes of the
    /// max-min allocation — the flow-level analogue of enqueue events).
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Entries the kept water-filling order had to shift so far, over all
    /// steps: a deterministic count of how much the demand order changes
    /// (a step that falls back to a full sort adds the shifts made up to
    /// that point). Zero per step once the population has settled.
    pub fn order_moves(&self) -> u64 {
        self.order_moves
    }

    /// `(per-flow demand, flow count)` of each class as the last
    /// [`Self::step`] (or [`Self::class_rates_pps`]) saw them; inactive
    /// classes read `(0, 0)`.
    pub fn last_demands(&self) -> &[(f64, f64)] {
        &self.demand
    }

    /// The per-flow max-min shares computed from [`Self::last_demands`].
    pub fn last_shares(&self) -> &[f64] {
        &self.share
    }

    /// Start accumulating per-class mean rates from the current time.
    pub fn begin_measurement(&mut self) {
        self.rate_integral.iter_mut().for_each(|r| *r = 0.0);
        self.meas_from = Some(self.t);
    }

    /// Mean per-flow rate of each class (pps) since `begin_measurement`.
    pub fn mean_class_rates_pps(&self) -> Vec<f64> {
        let span = self.meas_from.map_or(0.0, |from| self.t - from);
        if span <= 0.0 {
            return vec![0.0; self.cfg.classes.len()];
        }
        self.rate_integral.iter().map(|&r| r / span).collect()
    }

    /// Per-flow max-min allocation (pps) of each class right now, computed
    /// into the engine's own rows (the next step overwrites them).
    pub fn class_rates_pps(&mut self) -> &[f64] {
        self.fill_round_trips(self.q / self.cfg.capacity_pps);
        self.fill_demands();
        self.allocate();
        &self.share
    }

    /// Bring the `live` row up to the current clock. Which classes are
    /// active changes only when the clock crosses a `start` or `stop`, so
    /// the row is kept together with the interval of clock values it holds
    /// for — up to the nearest boundary still ahead — and a call inside
    /// that interval is two compares. The row is a function of the clock
    /// and the class table alone: a restore that moves the clock out of the
    /// interval (or back into it) needs no other invalidation.
    fn refresh_live(&mut self) {
        let t = self.t;
        if self.live_from <= t && t < self.live_until {
            return;
        }
        let cols = &self.cols;
        let mut until = f64::INFINITY;
        for (i, live) in self.live.iter_mut().enumerate() {
            let (start, stop) = (cols.start[i], cols.stop[i]);
            *live = if t >= start && t < stop && cols.count[i] > 0.0 {
                !0
            } else {
                0
            };
            for edge in [start, stop] {
                if edge > t && edge < until {
                    until = edge;
                }
            }
        }
        self.live_from = t;
        self.live_until = until;
    }

    // The kernels bound to this engine's rows. They are free functions
    // over slices, not loops over `self.` fields, because only so does the
    // compiler see rows that cannot overlap.

    fn fill_round_trips(&mut self, qdelay: f64) {
        fill_round_trips(
            &self.cols.base_rtt,
            &self.cols.cap,
            qdelay,
            &mut self.r,
            &mut self.inv_r,
            &mut self.cap_r,
        );
    }

    fn fill_signals(&mut self, classic: f64, scalable: f64) {
        fill_signals(&self.cols.reno, classic, scalable, &mut self.signal);
    }

    /// The demand row at the current clock, from the round-trip rows.
    fn fill_demands(&mut self) {
        self.refresh_live();
        fill_demands(
            &self.w,
            &self.r,
            &self.cols.cap,
            &self.cols.count,
            &self.live,
            &mut self.demand,
        );
    }

    /// `h` seconds of the window law at the current clock, from the
    /// round-trip and signal rows.
    fn advance_windows(&mut self, h: f64) {
        self.refresh_live();
        advance_windows(
            &mut self.w,
            &self.r,
            &self.inv_r,
            &self.cap_r,
            &self.signal,
            &self.cols.reno,
            &self.live,
            h,
        );
    }

    /// Max-min shares of the demand row: repair the kept order, fill.
    /// Returns the entries the repair shifted.
    fn allocate(&mut self) -> u64 {
        let moved = repair_order(&mut self.order, &self.demand);
        water_fill(
            self.cfg.capacity_pps,
            &self.demand,
            &self.order,
            &mut self.share,
        );
        moved
    }

    /// Integrate one step; returns the sample after the step.
    pub fn step(&mut self) -> FlowLevelSample {
        let c = self.cfg.capacity_pps;
        let dt = self.cfg.dt;
        let qdelay = self.q / c;

        // Controller tick, identical to the delay-ODE integrator.
        if self.steps % self.ctrl_every == 0 {
            let (err, growth) = (qdelay - self.cfg.target, qdelay - self.prev_qdelay);
            let g = &self.cfg.gains;
            let mut delta = PiStep::new(g.alpha, g.beta, err, growth).delta();
            if self.tuned {
                delta *= tune_factor(self.p_prime);
            }
            self.p_prime = (self.p_prime + delta).clamp(0.0, 1.0);
            self.prev_qdelay = qdelay;
        }

        // Offered demand of every class, then the window dynamics
        // (undelayed fluid laws), which depend on the demand but not on
        // the share.
        let classic = self.law.classic(self.p_prime);
        self.fill_signals(classic, self.law.scalable(self.p_prime));
        self.fill_round_trips(qdelay);
        self.fill_demands();
        self.advance_windows(dt);
        self.order_moves += self.allocate();

        // What is left takes one pass in class order. The two sums (the
        // sample's `signal` is the traffic-weighted applied signal — the
        // fluid analogue of the packet side's (marked + dropped) / sent,
        // which weights each class by its share of the arrivals) round by
        // their order, so each is a sequential chain of adds, to which an
        // idle class's `(0, 0)` demand adds +0.0. The binding test rides
        // along under their latency: a class is demand-bound when its
        // share equals its demand, and a flip of the binding set counts as
        // one reallocation event.
        let mut arrival = 0.0;
        let mut sig_rate = 0.0;
        let mut flipped = false;
        let signals = self.demand.iter().zip(&self.signal);
        let shares = self.share.iter().zip(&mut self.binding);
        for ((&(rate, count), &s), (&share, was_bound)) in signals.zip(shares) {
            let offered = rate * count;
            arrival += offered;
            sig_rate += offered * s;
            let bound = rate > 0.0 && share >= rate * (1.0 - 1e-12);
            flipped |= bound != *was_bound;
            *was_bound = bound;
        }
        if flipped {
            self.alloc_events += 1;
        }

        if self.meas_from.is_some() {
            for (integral, &share) in self.rate_integral.iter_mut().zip(&self.share) {
                *integral += share * dt;
            }
        }

        let served = if self.q > 0.0 { c } else { arrival.min(c) };
        self.q = (self.q + (arrival - c) * dt).max(0.0);
        self.t += dt;
        self.steps += 1;

        FlowLevelSample {
            t: self.t,
            qdelay: self.q / c,
            p_prime: self.p_prime,
            signal: if arrival > 0.0 {
                sig_rate / arrival
            } else {
                classic
            },
            util: (served / c).min(1.0),
            arrival_pps: arrival,
        }
    }

    /// Run until `t_end`, sampling every `sample_every` seconds.
    /// Callable repeatedly: sampling resumes from the current time.
    pub fn run(&mut self, t_end: f64, sample_every: f64) -> Vec<FlowLevelSample> {
        let mut out = Vec::new();
        let mut next_sample = self.t;
        while self.t < t_end {
            let s = self.step();
            if s.t >= next_sample {
                out.push(s);
                next_sample += sample_every;
            }
        }
        out
    }

    /// Advance the window dynamics only, driven by an *external* AQM.
    ///
    /// This is the hybrid-mode coupling: the packet-level simulator owns
    /// the queue and the controller; each controller tick it hands the
    /// aggregate its measured `classic_signal` (the AQM's linear variable
    /// already encoded to a probability), the scalable-side probability,
    /// and the current queue delay. Returns the aggregate offered rate in
    /// packets per second after advancing by `dt` seconds.
    pub fn tick_external(
        &mut self,
        dt: f64,
        classic_signal: f64,
        scalable_signal: f64,
        qdelay: f64,
    ) -> f64 {
        let sub = self.cfg.dt.min(dt.max(1e-9));
        let steps = (dt / sub).round().max(1.0) as u64;
        let h = dt / steps as f64;
        // Signals and queue delay hold for the whole tick: every row the
        // law reads is filled once, not once per sub-step.
        self.fill_signals(classic_signal, scalable_signal);
        self.fill_round_trips(qdelay);
        for _ in 0..steps {
            self.advance_windows(h);
            self.t += h;
            self.steps += 1;
        }
        self.refresh_live();
        let cols = &self.cols;
        offered_rate(&self.w, &self.r, &cols.cap, &cols.count, &self.live)
    }

    /// Every float of the run state is a time, a backlog, a probability or
    /// a window. The law would clamp a NaN or negative window to its floor
    /// and run on with different numbers: a restore refuses it.
    fn check(&self) -> Result<(), &'static str> {
        let scalars = [self.t, self.q, self.p_prime, self.prev_qdelay];
        if scalars.iter().chain(&self.w).all(|x| x.is_finite() && *x >= 0.0) {
            Ok(())
        } else {
            Err("flow-level state holds a negative or non-finite value")
        }
    }
}

// The run state, each row as long as the configured class count. The kept
// water-filling order is not state: whatever permutation the restored
// engine holds, the next step's repair sorts it for the restored windows.
// Nor is the `live` row: it is worked out again as soon as the restored
// clock is outside the interval it was worked out for. Nor is the
// measurement window of `begin_measurement`.
ckpt_fields!(FlowLevelSim {
    t, steps, q, p_prime, prev_qdelay, w[..], alloc_events, binding[..]
} check FlowLevelSim::check);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::CLASSIC_CAP;
    use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};

    /// The engine's checkpoint bytes.
    fn saved(sim: &FlowLevelSim) -> Vec<u8> {
        let mut w = CkptWriter::new();
        sim.save_ckpt(&mut w);
        w.into_bytes()
    }

    /// Restore `blob` into `sim`, every byte of it read.
    fn restore(sim: &mut FlowLevelSim, blob: &[u8]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(blob);
        sim.restore_ckpt(&mut r)?;
        r.finish()
    }

    fn tail_mean(samples: &[FlowLevelSample], frac: f64, f: impl Fn(&FlowLevelSample) -> f64) -> f64 {
        let start = (samples.len() as f64 * (1.0 - frac)) as usize;
        let late = &samples[start..];
        late.iter().map(&f).sum::<f64>() / late.len() as f64
    }

    #[test]
    fn allocator_unconstrained_split_is_equal() {
        let a = max_min_allocation(90.0, &[1e9, 1e9, 1e9]);
        for x in &a {
            assert!((x - 30.0).abs() < 1e-9, "equal split, got {a:?}");
        }
    }

    #[test]
    fn allocator_small_demand_is_met_and_rest_split() {
        let a = max_min_allocation(90.0, &[10.0, 1e9, 1e9]);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 40.0).abs() < 1e-9);
        assert!((a[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn allocator_underload_gives_everyone_their_demand() {
        let a = max_min_allocation(100.0, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn allocator_handles_zero_and_negative_demands() {
        let a = max_min_allocation(60.0, &[0.0, -5.0, f64::NAN, 100.0]);
        assert_eq!(&a[..3], &[0.0, 0.0, 0.0]);
        assert!((a[3] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_allocator_matches_expanded_form() {
        // 3 flows at demand 10 + 2 flows at demand 50, capacity 70:
        // the three small ones get 10 each, the two big ones split 40.
        let per_class = max_min_weighted(70.0, &[(10.0, 3.0), (50.0, 2.0)]);
        assert!((per_class[0] - 10.0).abs() < 1e-9);
        assert!((per_class[1] - 20.0).abs() < 1e-9);
        let expanded = max_min_allocation(70.0, &[10.0, 10.0, 10.0, 50.0, 50.0]);
        assert!((expanded[0] - 10.0).abs() < 1e-9);
        assert!((expanded[4] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn flow_level_pi2_reno_settles_on_target() {
        let samples = FlowLevelSim::new(FlowLevelConfig::default()).run(120.0, 0.01);
        let mean = tail_mean(&samples, 0.25, |s| s.qdelay);
        assert!(
            (mean - 0.020).abs() < 0.004,
            "flow-level PI2 qdelay settles at {:.1} ms",
            mean * 1000.0
        );
        let util = tail_mean(&samples, 0.25, |s| s.util);
        assert!(util > 0.95, "bottleneck should be saturated, util {util:.3}");
    }

    #[test]
    fn flow_level_matches_delay_ode_equilibrium() {
        // The undelayed flow-level model and the delay-ODE integrator
        // share the eq. (19) operating point: same signal, same qdelay.
        let flow = FlowLevelSim::new(FlowLevelConfig::default()).run(120.0, 0.01);
        let ode = crate::ode::FluidSim::new(crate::ode::FluidConfig::default()).run(120.0, 0.01);
        let f_q = tail_mean(&flow, 0.25, |s| s.qdelay);
        let o_start = (ode.len() as f64 * 0.75) as usize;
        let o_q = ode[o_start..].iter().map(|s| s.qdelay).sum::<f64>() / (ode.len() - o_start) as f64;
        assert!(
            (f_q - o_q).abs() < 0.004,
            "flow-level qdelay {f_q:.4} vs ODE {o_q:.4}"
        );
    }

    #[test]
    fn scalable_class_sees_coupled_signal() {
        let cfg = FlowLevelConfig {
            classes: vec![FlowClass::new(5.0, FluidTcpKind::Scalable, 0.1)],
            ..FlowLevelConfig::default()
        };
        let mut sim = FlowLevelSim::new(cfg);
        let samples = sim.run(120.0, 0.01);
        let mean = tail_mean(&samples, 0.25, |s| s.qdelay);
        assert!(
            (mean - 0.020).abs() < 0.006,
            "scalable class settles near target, got {:.1} ms",
            mean * 1000.0
        );
        // Scalable equilibrium: W₀·(k·p₀') = 2 (eq. 23 with coupled signal).
        let pp = tail_mean(&samples, 0.25, |s| s.p_prime);
        let w = sim.w[0];
        let product = w * (2.0 * pp).min(1.0);
        assert!(
            (product - 2.0).abs() < 0.5,
            "W·k·p' = {product:.2}, expected ≈ 2"
        );
    }

    #[test]
    fn an_overloaded_reno_population_is_signalled_at_most_the_classic_cap() {
        // 1 000 Reno flows on 1 Mb/s at 20 ms: no drop probability the AQM
        // can apply clears the queue, so p' saturates at once. The engine
        // must still apply no more than the packet law does, 25 %.
        let cfg = FlowLevelConfig {
            capacity_pps: 1.0e6 / 8.0 / 1500.0,
            classes: vec![FlowClass::new(1_000.0, FluidTcpKind::Reno, 0.020)],
            ..FlowLevelConfig::default()
        };
        let mut sim = FlowLevelSim::new(cfg);
        for _ in 0..20_000 {
            let s = sim.step();
            assert!(s.signal <= CLASSIC_CAP, "t = {}: signal {}", s.t, s.signal);
            assert_eq!(s.signal, sim.law.classic(s.p_prime), "t = {}", s.t);
        }
        assert_eq!(sim.p_prime, 1.0, "the population saturates p'");
    }

    #[test]
    fn capped_class_never_exceeds_cap_and_rest_absorbs() {
        let cfg = FlowLevelConfig {
            classes: vec![
                FlowClass {
                    rate_cap_pps: Some(50.0),
                    ..FlowClass::new(2.0, FluidTcpKind::Reno, 0.1)
                },
                FlowClass::new(5.0, FluidTcpKind::Reno, 0.1),
            ],
            ..FlowLevelConfig::default()
        };
        let mut sim = FlowLevelSim::new(cfg);
        sim.run(40.0, 0.5);
        sim.begin_measurement();
        sim.run(80.0, 0.5);
        let rates = sim.mean_class_rates_pps();
        assert!(rates[0] <= 50.0 + 1e-6, "capped class at {:.1} pps", rates[0]);
        assert!(rates[1] > rates[0], "uncapped class should get more");
    }

    #[test]
    fn hundred_thousand_flows_cost_the_same_as_ten() {
        // The whole point: population size must not change step cost.
        let big = FlowLevelConfig {
            capacity_pps: 10.0e9 / 8.0 / 1500.0,
            classes: vec![FlowClass::new(100_000.0, FluidTcpKind::Reno, 0.05)],
            ..FlowLevelConfig::default()
        };
        let samples = FlowLevelSim::new(big).run(60.0, 0.5);
        let last = samples.last().unwrap();
        assert!(last.qdelay.is_finite() && last.p_prime.is_finite());
    }

    fn capped_mix() -> FlowLevelConfig {
        FlowLevelConfig {
            classes: vec![
                FlowClass {
                    rate_cap_pps: Some(50.0),
                    ..FlowClass::new(2.0, FluidTcpKind::Reno, 0.1)
                },
                FlowClass::new(5.0, FluidTcpKind::Reno, 0.1),
            ],
            ..FlowLevelConfig::default()
        }
    }

    fn bits(s: &FlowLevelSample) -> [u64; 6] {
        [s.t, s.qdelay, s.p_prime, s.signal, s.util, s.arrival_pps].map(f64::to_bits)
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        // The capped class is demand-bound when the snapshot is taken, so a
        // restore that forgot the binding row would count a flip here.
        let mut a = FlowLevelSim::new(capped_mix());
        a.run(30.0, 1.0);
        assert!(a.binding.contains(&true));
        let snap = saved(&a);
        let mut b = FlowLevelSim::new(capped_mix());
        restore(&mut b, &snap).unwrap();
        assert_eq!(saved(&b), snap);
        for _ in 0..5_000 {
            assert_eq!(bits(&a.step()), bits(&b.step()));
            assert_eq!(a.alloc_events(), b.alloc_events());
            let (ra, rb) = (a.class_rates_pps(), b.class_rates_pps());
            assert!(ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(saved(&a), saved(&b));
    }

    #[test]
    fn a_hostile_blob_is_refused() {
        let mut a = FlowLevelSim::new(capped_mix());
        a.run(1.0, 1.0);
        let snap = saved(&a);
        // Five scalars and the window row's length: then window 0.
        let at = 6 * 8;
        assert_eq!(f64::from_le_bytes(snap[at..at + 8].try_into().unwrap()), a.w[0]);
        for hostile in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad = snap.clone();
            bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let refused = restore(&mut FlowLevelSim::new(capped_mix()), &bad);
            assert!(matches!(refused, Err(CkptError::Corrupt(_))), "{hostile}: {refused:?}");
        }
        // An engine of another class count refuses the rows.
        let mut one = capped_mix();
        one.classes.pop();
        let refused = restore(&mut FlowLevelSim::new(one), &snap);
        assert!(matches!(refused, Err(CkptError::Corrupt(_))), "{refused:?}");
    }

    fn is_permutation(order: &[u32]) -> bool {
        let mut seen = vec![false; order.len()];
        order
            .iter()
            .all(|&i| !std::mem::replace(&mut seen[i as usize], true))
    }

    #[test]
    fn restore_into_a_scrambled_order_keeps_it_a_valid_permutation() {
        // The kept order is not part of the state: a restore leaves whatever
        // the engine had, and the next step's repair sorts it from there.
        let classes: Vec<FlowClass> = (0..64)
            .map(|i| FlowClass::new(3.0, FluidTcpKind::Reno, 0.01 + 0.003 * f64::from(i)))
            .collect();
        let cfg = FlowLevelConfig {
            capacity_pps: 20_000.0,
            classes,
            ..FlowLevelConfig::default()
        };
        let mut a = FlowLevelSim::new(cfg.clone());
        a.run(5.0, 1.0);
        let mut b = FlowLevelSim::new(cfg);
        b.order.reverse();
        restore(&mut b, &saved(&a)).unwrap();
        assert!(is_permutation(&b.order));
        for _ in 0..100 {
            assert_eq!(bits(&a.step()), bits(&b.step()));
            assert_eq!(a.order, b.order);
            assert_eq!(a.last_shares(), b.last_shares());
        }
    }

    #[test]
    fn repair_reaches_the_sorted_order_from_any_permutation() {
        // Distinct demands, ties and zeros; n large enough that a reversal
        // exhausts the insertion budget and takes the full-sort exit.
        let n = 500u32;
        let classes: Vec<(f64, f64)> = (0..n)
            .map(|i| (f64::from((i * 7919) % 97), f64::from(i % 3)))
            .collect();
        let mut sorted = identity_order(n as usize);
        sorted.sort_by(|&a, &b| fill_order(&classes, a, b));

        let mut kept = sorted.clone();
        assert_eq!(repair_order(&mut kept, &classes), 0, "sorted input");

        kept.swap(10, 11);
        kept.swap(300, 301);
        assert_eq!(repair_order(&mut kept, &classes), 2, "two inversions");
        assert_eq!(kept, sorted);

        kept.reverse();
        let budget = u64::from(n) * 9; // 500 has nine bits
        let moved = repair_order(&mut kept, &classes);
        assert!(moved > budget && moved <= budget + u64::from(n));
        assert_eq!(kept, sorted);
    }

    /// The window law one class at a time, as the engine computed it before
    /// the column kernels: the scalar half of [`ScalarOracle`].
    impl FlowClass {
        fn active(&self, t: f64) -> bool {
            t >= self.start && self.stop.map_or(true, |s| t < s) && self.count > 0.0
        }

        /// Per-flow offered rate at window `w` and round-trip time `r`.
        fn demand(&self, w: f64, r: f64) -> f64 {
            let d = w / r;
            self.rate_cap_pps.map_or(d, |cap| d.min(cap))
        }

        /// The window after `dt` seconds of the undelayed fluid law under
        /// applied signal `s`.
        fn next_window(&self, w: f64, r: f64, s: f64, dt: f64) -> f64 {
            let decrease = match self.tcp {
                FluidTcpKind::Reno => 0.5 * w * w / r * s,
                FluidTcpKind::Scalable => 0.5 * w / r * s,
            };
            let next = (w + (1.0 / r - decrease) * dt).max(1e-3);
            // App-limited: the window never builds past the cap.
            self.rate_cap_pps.map_or(next, |cap| next.min(cap * r))
        }
    }

    /// The per-class scalar engine the column kernels replaced, kept as
    /// the reference they are held to bit for bit: one class at a time,
    /// `f64::max`/`f64::min` clamps, an early `continue` for idle classes,
    /// shares sorted from scratch.
    struct ScalarOracle {
        cfg: FlowLevelConfig,
        w: Vec<f64>,
        q: f64,
        p_prime: f64,
        prev_qdelay: f64,
        t: f64,
        steps: u64,
        demand: Vec<(f64, f64)>,
        share: Vec<f64>,
    }

    impl ScalarOracle {
        fn new(cfg: FlowLevelConfig) -> Self {
            let n = cfg.classes.len();
            ScalarOracle {
                w: vec![1.0; n],
                q: 0.0,
                p_prime: 0.0,
                prev_qdelay: 0.0,
                t: 0.0,
                steps: 0,
                demand: vec![(0.0, 0.0); n],
                share: vec![0.0; n],
                cfg,
            }
        }

        /// Take the engine's run state as it stands.
        fn copy_state(&mut self, s: &FlowLevelSim) {
            self.t = s.t;
            self.steps = s.steps;
            self.q = s.q;
            self.p_prime = s.p_prime;
            self.prev_qdelay = s.prev_qdelay;
            self.w.clone_from(&s.w);
        }

        fn step(&mut self) -> FlowLevelSample {
            let c = self.cfg.capacity_pps;
            let dt = self.cfg.dt;
            let qdelay = self.q / c;
            let ctrl_every = (self.cfg.gains.t_update / dt).round().max(1.0) as u64;
            let (law, tuned) = self.cfg.encoder.law(Some(self.cfg.coupling));
            if self.steps % ctrl_every == 0 {
                let (err, growth) = (qdelay - self.cfg.target, qdelay - self.prev_qdelay);
                let g = &self.cfg.gains;
                let mut delta = PiStep::new(g.alpha, g.beta, err, growth).delta();
                if tuned {
                    delta *= tune_factor(self.p_prime);
                }
                self.p_prime = (self.p_prime + delta).clamp(0.0, 1.0);
                self.prev_qdelay = qdelay;
            }
            let (classic, scalable) = (law.classic(self.p_prime), law.scalable(self.p_prime));
            let mut arrival = 0.0;
            let mut sig_rate = 0.0;
            let mut rate_sum = 0.0;
            for (i, cl) in self.cfg.classes.iter().enumerate() {
                if !cl.active(self.t) {
                    self.w[i] = 1.0;
                    self.demand[i] = (0.0, 0.0);
                    continue;
                }
                let r = cl.base_rtt + qdelay;
                let w = self.w[i];
                let rate = cl.demand(w, r);
                self.demand[i] = (rate, cl.count);
                arrival += rate * cl.count;
                let s = match cl.tcp {
                    FluidTcpKind::Reno => classic,
                    FluidTcpKind::Scalable => scalable,
                };
                sig_rate += cl.count * rate * s;
                rate_sum += cl.count * rate;
                self.w[i] = cl.next_window(w, r, s, dt);
            }
            self.share = max_min_weighted(c, &self.demand);
            let served = if self.q > 0.0 { c } else { arrival.min(c) };
            self.q = (self.q + (arrival - c) * dt).max(0.0);
            self.t += dt;
            self.steps += 1;
            FlowLevelSample {
                t: self.t,
                qdelay: self.q / c,
                p_prime: self.p_prime,
                signal: if rate_sum > 0.0 {
                    sig_rate / rate_sum
                } else {
                    classic
                },
                util: (served / c).min(1.0),
                arrival_pps: arrival,
            }
        }

        fn tick_external(&mut self, dt: f64, classic: f64, scalable: f64, qdelay: f64) -> f64 {
            let sub = self.cfg.dt.min(dt.max(1e-9));
            let steps = (dt / sub).round().max(1.0) as u64;
            let h = dt / steps as f64;
            for _ in 0..steps {
                for (i, cl) in self.cfg.classes.iter().enumerate() {
                    if !cl.active(self.t) {
                        self.w[i] = 1.0;
                        continue;
                    }
                    let s = match cl.tcp {
                        FluidTcpKind::Reno => classic,
                        FluidTcpKind::Scalable => scalable,
                    };
                    self.w[i] = cl.next_window(self.w[i], cl.base_rtt + qdelay, s, h);
                }
                self.t += h;
                self.steps += 1;
            }
            let mut offered = 0.0;
            for (i, cl) in self.cfg.classes.iter().enumerate() {
                if cl.active(self.t) {
                    offered += cl.demand(self.w[i], cl.base_rtt + qdelay) * cl.count;
                }
            }
            offered
        }
    }

    /// The engine's clock after every sub-step of ticks of the lengths
    /// `dts`, summed the way `tick_external` sums it (a `step` is a tick of
    /// one sub-step) — so a boundary can sit exactly on one of its values.
    fn clock_grid(dts: impl Iterator<Item = f64>) -> Vec<f64> {
        let mut t = 0.0;
        let mut grid = Vec::new();
        for dt in dts {
            let steps = (dt / 0.001f64.min(dt)).round();
            for _ in 0..steps as u64 {
                t += dt / steps;
                grid.push(t);
            }
        }
        grid
    }

    /// A random mix of `n` classes whose `start`/`stop` boundaries fall
    /// inside `grid` (the clock's values over the run): both laws, no cap
    /// or a binding or a slack one, zero-count classes, boundaries exactly
    /// on a clock value and strictly between two.
    fn random_mix(rng: &mut pi2_simcore::Rng, n: usize, grid: &[f64]) -> FlowLevelConfig {
        let edge = |rng: &mut pi2_simcore::Rng| {
            let k = rng.range_u64(1, grid.len() as u64 - 1) as usize;
            if rng.chance(0.5) {
                grid[k]
            } else {
                grid[k] + rng.next_f64() * (grid[k + 1] - grid[k])
            }
        };
        let classes: Vec<FlowClass> = (0..n)
            .map(|_| {
                let tcp = if rng.chance(0.5) {
                    FluidTcpKind::Reno
                } else {
                    FluidTcpKind::Scalable
                };
                let count = if rng.chance(0.15) {
                    0.0
                } else {
                    rng.range_f64(0.5, 40.0)
                };
                let mut cl = FlowClass::new(count, tcp, rng.range_f64(0.002, 0.25));
                cl.rate_cap_pps = match rng.range_u64(0, 3) {
                    0 => None,
                    1 => Some(rng.range_f64(20.0, 400.0)),
                    _ => Some(1.0e7),
                };
                if rng.chance(0.6) {
                    cl.start = edge(rng);
                }
                if rng.chance(0.5) {
                    // Some stop before they start: never active.
                    cl.stop = Some(edge(rng));
                }
                cl
            })
            .collect();
        let flows: f64 = classes.iter().map(|c| c.count).sum();
        FlowLevelConfig {
            capacity_pps: 150.0 * flows.max(1.0),
            classes,
            encoder: [
                FluidControllerKind::Squared,
                FluidControllerKind::Direct,
                FluidControllerKind::TunedDirect,
            ][rng.range_u64(0, 3) as usize],
            ..FlowLevelConfig::default()
        }
    }

    fn assert_rows_equal(sim: &FlowLevelSim, oracle: &ScalarOracle, at: &str) {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same(&sim.w, &oracle.w), "{at}: windows differ");
        assert_eq!(sim.now().to_bits(), oracle.t.to_bits(), "{at}: clock");
        assert_eq!(sim.last_demands().len(), oracle.demand.len());
        for (i, (a, b)) in sim.last_demands().iter().zip(&oracle.demand).enumerate() {
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits()),
                (b.0.to_bits(), b.1.to_bits()),
                "{at}: demand of class {i}"
            );
        }
        assert!(same(sim.last_shares(), &oracle.share), "{at}: shares");
    }

    #[test]
    fn column_kernels_equal_the_scalar_law_bit_for_bit() {
        const STEPS: usize = 600;
        const TICKS: usize = 200;
        let mut rng = pi2_simcore::Rng::new(0xC01_0A11);
        // 1–67 classes: every vector width leaves every possible remainder.
        for n in 1..=67 {
            let grid = clock_grid((0..STEPS).map(|_| 0.001));
            let cfg = random_mix(&mut rng, n, &grid);
            let mut sim = FlowLevelSim::new(cfg.clone());
            let mut oracle = ScalarOracle::new(cfg);
            for k in 0..STEPS {
                let at = format!("{n} classes, step {k}");
                assert_eq!(bits(&sim.step()), bits(&oracle.step()), "{at}: sample");
                assert_rows_equal(&sim, &oracle, &at);
            }
            assert_eq!(sim.now().to_bits(), grid[STEPS - 1].to_bits());

            // The hybrid coupling: 32 sub-steps per 32 ms tick (now and
            // then a tick of another length, so `h` is not always the same
            // 1 ms), signals and queue delay moving every tick.
            let tick_dt = |k: usize| if k % 9 == 4 { 0.0165 } else { 0.032 };
            let grid = clock_grid((0..TICKS).map(tick_dt));
            let cfg = random_mix(&mut rng, n, &grid);
            let mut sim = FlowLevelSim::new(cfg.clone());
            let mut oracle = ScalarOracle::new(cfg);
            for k in 0..TICKS {
                let classic = rng.next_f64() * rng.next_f64() * 0.2;
                let scalable = rng.next_f64() * 0.5;
                let qdelay = rng.next_f64() * 0.04;
                let dt = tick_dt(k);
                let at = format!("{n} classes, tick {k}");
                let offered = sim.tick_external(dt, classic, scalable, qdelay);
                let expected = oracle.tick_external(dt, classic, scalable, qdelay);
                assert_eq!(offered.to_bits(), expected.to_bits(), "{at}: offered");
                assert_rows_equal(&sim, &oracle, &at);
            }
            assert_eq!(sim.now().to_bits(), grid[grid.len() - 1].to_bits());
            // A step after the ticks: the rows a tick leaves behind do not
            // leak into the next step.
            assert_eq!(bits(&sim.step()), bits(&oracle.step()));
            assert_rows_equal(&sim, &oracle, &format!("{n} classes, step after ticks"));
            let rates = sim.class_rates_pps().to_vec();
            let qdelay = oracle.q / oracle.cfg.capacity_pps;
            let demand: Vec<(f64, f64)> = (oracle.cfg.classes.iter().zip(&oracle.w))
                .map(|(cl, &w)| match cl.active(oracle.t) {
                    true => (cl.demand(w, cl.base_rtt + qdelay), cl.count),
                    false => (0.0, 0.0),
                })
                .collect();
            let fresh = max_min_weighted(oracle.cfg.capacity_pps, &demand);
            let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            assert!(rates.iter().zip(&fresh).all(same));
        }
    }

    #[test]
    fn a_nan_window_clamps_to_the_floor_as_f64_max_did() {
        // `f64::max(NaN, 1e-3)` is 1e-3; the kernels' compare-select must
        // pick the same side, in both laws, capped or not.
        let mut cfg = capped_mix();
        cfg.classes[1].tcp = FluidTcpKind::Scalable;
        let mut sim = FlowLevelSim::new(cfg.clone());
        let mut oracle = ScalarOracle::new(cfg);
        // No restore admits a NaN window: set the rows directly.
        let fresh = saved(&sim);
        let poison = |sim: &mut FlowLevelSim, oracle: &mut ScalarOracle| {
            restore(sim, &fresh).unwrap();
            sim.w.fill(f64::NAN);
            oracle.copy_state(sim);
        };
        poison(&mut sim, &mut oracle);
        sim.tick_external(0.001, 0.01, 0.02, 0.005);
        oracle.tick_external(0.001, 0.01, 0.02, 0.005);
        for w in [&sim.w, &oracle.w] {
            assert_eq!(w[0].to_bits(), 1e-3f64.to_bits());
            assert_eq!(w[1].to_bits(), 1e-3f64.to_bits());
        }
        // Through `step` too. (Only the windows: the demand a NaN window
        // offers is NaN, as an uncapped class's always was, where the
        // scalar `f64::min` gave a capped class its cap.)
        poison(&mut sim, &mut oracle);
        sim.step();
        oracle.step();
        for w in [&sim.w, &oracle.w] {
            assert_eq!(w[0].to_bits(), 1e-3f64.to_bits());
            assert_eq!(w[1].to_bits(), 1e-3f64.to_bits());
        }
    }

    #[test]
    fn a_restore_between_two_boundaries_replays_bit_identically() {
        // Class 0 starts at 50 ms, class 1 stops at 200 ms, both inside a
        // tick. The snapshot is taken between the two; the engine it is
        // restored into has run past the second, so the set of live
        // classes it last worked out is the wrong one for the restored
        // clock and must not be used.
        let mut cfg = capped_mix();
        cfg.classes[0].start = 0.050;
        cfg.classes[1].stop = Some(0.200);
        let always_on = FlowClass::new(3.0, FluidTcpKind::Scalable, 0.02);
        cfg.classes.push(always_on);
        let tick = |sim: &mut FlowLevelSim, k: u32| {
            let offered = sim.tick_external(0.032, 0.001 * f64::from(k), 0.01, 0.002);
            (offered.to_bits(), saved(sim))
        };
        let mut a = FlowLevelSim::new(cfg.clone());
        for k in 0..3 {
            tick(&mut a, k);
        }
        let snap = saved(&a);
        assert!(a.now() > 0.050 && a.now() < 0.200);
        let replay: Vec<_> = (3..12).map(|k| tick(&mut a, k)).collect();
        assert!(a.now() > 0.200);

        let mut fresh = FlowLevelSim::new(cfg);
        for sim in [&mut a, &mut fresh] {
            restore(sim, &snap).unwrap();
            let again: Vec<_> = (3..12).map(|k| tick(sim, k)).collect();
            assert_eq!(again, replay);
        }
    }

    #[test]
    fn tick_external_responds_to_signal() {
        let cfg = FlowLevelConfig {
            classes: vec![FlowClass::new(10.0, FluidTcpKind::Reno, 0.05)],
            ..FlowLevelConfig::default()
        };
        let mut sim = FlowLevelSim::new(cfg);
        // No signal: the aggregate ramps up.
        let mut rate = 0.0;
        for _ in 0..200 {
            rate = sim.tick_external(0.032, 0.0, 0.0, 0.0);
        }
        let unthrottled = rate;
        // Heavy signal: it backs off.
        for _ in 0..200 {
            rate = sim.tick_external(0.032, 0.5, 1.0, 0.0);
        }
        assert!(
            rate < unthrottled / 2.0,
            "signal should throttle the aggregate: {rate:.1} vs {unthrottled:.1}"
        );
    }
}
