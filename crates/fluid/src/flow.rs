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
//! A step is one pass over the classes (demand and window law together),
//! a repair of the water-filling order and one fill: O(classes) plus the
//! entries the repair has to move, and no allocation. The engine keeps the
//! order (classes sorted by per-flow demand) from step to step instead of
//! sorting from scratch, because it hardly changes: windows drift smoothly,
//! so neighbours in demand order rarely swap within one `dt`
//! ([`FlowLevelSim::order_moves`] counts the entries that did). On a
//! 1 000-class mix of 5–200 ms RTTs the repair moves ~140 entries per step
//! in the first simulated second, under one in the third and none from the
//! fifth on. A step that scrambles the order (classes activating together,
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
//! with `s` the applied signal: `p'²` for classic flows under a squared
//! encoder, `min(k·p', 1)` for scalable flows under the same (the DualPI2
//! coupling), `p'` under direct encoders.

use crate::ode::{FluidControllerKind, FluidTcpKind};
use crate::tf::{pie_tune_factor, PiGains};
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

    fn active(&self, t: f64) -> bool {
        t >= self.start && self.stop.map_or(true, |s| t < s) && self.count > 0.0
    }

    /// Per-flow offered rate at window `w` and round-trip time `r`.
    #[inline]
    fn demand(&self, w: f64, r: f64) -> f64 {
        let d = w / r;
        self.rate_cap_pps.map_or(d, |cap| d.min(cap))
    }

    /// The window after `dt` seconds of the undelayed fluid law under
    /// applied signal `s`.
    #[inline]
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

/// Complete dynamic state of a [`FlowLevelSim`], for checkpointing.
///
/// Pure data so this crate stays dependency-free; the simulator's
/// checkpoint writer serializes it field by field.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowLevelState {
    /// Time in seconds.
    pub t: f64,
    /// Integration steps taken.
    pub steps: u64,
    /// Queue backlog in packets.
    pub q: f64,
    /// Controller variable p'.
    pub p_prime: f64,
    /// Queue delay at the previous controller tick.
    pub prev_qdelay: f64,
    /// Per-class window in packets.
    pub w: Vec<f64>,
    /// Rate reallocation events so far.
    pub alloc_events: u64,
    /// Per class: was it demand-bound (vs fair-share-bound) at the last
    /// step. The next reallocation event is a change against this.
    pub binding: Vec<bool>,
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
        FlowLevelSim {
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
            rate_integral: vec![0.0; n],
            meas_from: None,
            cfg,
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &FlowLevelConfig {
        &self.cfg
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

    /// The scalable-side signal at the current p' (the DualPI2 coupling
    /// under a squared encoder).
    fn scalable_signal(&self) -> f64 {
        match self.cfg.encoder {
            FluidControllerKind::Squared => (self.cfg.coupling * self.p_prime).min(1.0),
            _ => self.p_prime,
        }
    }

    /// The classic (drop/mark probability) signal at the current p'.
    pub fn classic_signal(&self) -> f64 {
        match self.cfg.encoder {
            FluidControllerKind::Squared => self.p_prime * self.p_prime,
            _ => self.p_prime,
        }
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
        let qdelay = self.q / self.cfg.capacity_pps;
        for (i, cl) in self.cfg.classes.iter().enumerate() {
            self.demand[i] = if cl.active(self.t) {
                (cl.demand(self.w[i], cl.base_rtt + qdelay), cl.count)
            } else {
                (0.0, 0.0)
            };
        }
        self.allocate();
        &self.share
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
            let err = qdelay - self.cfg.target;
            let growth = qdelay - self.prev_qdelay;
            let mut delta = self.cfg.gains.alpha * err + self.cfg.gains.beta * growth;
            if self.cfg.encoder == FluidControllerKind::TunedDirect {
                delta *= pie_tune_factor(self.p_prime);
            }
            self.p_prime = (self.p_prime + delta).clamp(0.0, 1.0);
            self.prev_qdelay = qdelay;
        }

        // One pass per class: offered demand, then the window dynamics
        // (undelayed fluid laws), which depend on the demand but not on
        // the share. The sample's `signal` is the traffic-weighted applied
        // signal — the fluid analogue of the packet side's (marked +
        // dropped) / sent, which weights each class by its share of the
        // arrivals.
        let classic = self.classic_signal();
        let scalable = self.scalable_signal();
        let mut arrival = 0.0;
        let mut sig_rate = 0.0;
        let mut rate_sum = 0.0;
        for (i, cl) in self.cfg.classes.iter().enumerate() {
            if !cl.active(self.t) {
                // Restart fresh when (re)activated.
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
        self.order_moves += self.allocate();

        // A class is demand-bound when its share equals its demand;
        // count binding-set flips as reallocation events.
        let mut flipped = false;
        for ((&(demand, _), &share), was_bound) in
            self.demand.iter().zip(&self.share).zip(&mut self.binding)
        {
            let bound = demand > 0.0 && share >= demand * (1.0 - 1e-12);
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
            signal: if rate_sum > 0.0 {
                sig_rate / rate_sum
            } else {
                self.classic_signal()
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
        for _ in 0..steps {
            for (i, cl) in self.cfg.classes.iter().enumerate() {
                if !cl.active(self.t) {
                    self.w[i] = 1.0;
                    continue;
                }
                let s = match cl.tcp {
                    FluidTcpKind::Reno => classic_signal,
                    FluidTcpKind::Scalable => scalable_signal,
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

    /// Export the complete dynamic state for checkpointing.
    pub fn state(&self) -> FlowLevelState {
        FlowLevelState {
            t: self.t,
            steps: self.steps,
            q: self.q,
            p_prime: self.p_prime,
            prev_qdelay: self.prev_qdelay,
            w: self.w.clone(),
            alloc_events: self.alloc_events,
            binding: self.binding.clone(),
        }
    }

    /// Restore state exported by [`Self::state`]. The class count must
    /// match the configuration this engine was built with. The kept
    /// water-filling order is not state: whatever permutation this engine
    /// holds, the next step's repair sorts it for the restored windows.
    pub fn restore_state(&mut self, s: &FlowLevelState) {
        let n = self.cfg.classes.len();
        assert_eq!(s.w.len(), n, "checkpoint class count mismatch");
        assert_eq!(s.binding.len(), n, "checkpoint class count mismatch");
        self.t = s.t;
        self.steps = s.steps;
        self.q = s.q;
        self.p_prime = s.p_prime;
        self.prev_qdelay = s.prev_qdelay;
        self.w.clone_from(&s.w);
        self.alloc_events = s.alloc_events;
        self.binding.clone_from(&s.binding);
        self.rate_integral.iter_mut().for_each(|r| *r = 0.0);
        self.meas_from = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let w = sim.state().w[0];
        let product = w * (2.0 * pp).min(1.0);
        assert!(
            (product - 2.0).abs() < 0.5,
            "W·k·p' = {product:.2}, expected ≈ 2"
        );
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
        let snap = a.state();
        assert!(snap.binding.contains(&true));
        let mut b = FlowLevelSim::new(capped_mix());
        b.restore_state(&snap);
        assert_eq!(b.state(), snap);
        for _ in 0..5_000 {
            assert_eq!(bits(&a.step()), bits(&b.step()));
            assert_eq!(a.alloc_events(), b.alloc_events());
            let (ra, rb) = (a.class_rates_pps(), b.class_rates_pps());
            assert!(ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(a.state(), b.state());
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
        b.restore_state(&a.state());
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
