//! Hybrid-mode coupling: a flow-level *background aggregate* sharing the
//! bottleneck with the packet-level foreground flows.
//!
//! The packet simulator owns the queue, the AQM and the clock. Each
//! [`crate::sim::Event::AqmUpdate`] tick, the attached aggregate is handed
//! the AQM's post-update probabilities and queue delay, advances its own
//! (flow-level, no-per-packet-event) dynamics by one controller period,
//! and reports its new arrival rate. The simulator then *steals* that much
//! service capacity from the foreground by shrinking the bottleneck's
//! drain rate, which is exactly how an unmodeled background load looks to
//! the foreground flows: less capacity, same AQM feedback loop.
//!
//! The trait is deliberately free of fluid-model types so `pi2-netsim`
//! keeps its dependency surface (simcore + obs); the concrete
//! implementation wrapping `pi2_fluid::FlowLevelSim` lives in
//! `pi2-experiments`.

use pi2_simcore::{ckpt_fields, Ckpt, Duration, Time};

/// A rate-based traffic aggregate driven by the packet-level AQM. Its
/// [`Ckpt`] layout is the aggregate's mutable state.
pub trait BackgroundAggregate: Ckpt {
    /// Advance the aggregate by `dt` under the AQM's current classic-side
    /// probability `classic_prob`, scalable-side probability
    /// `scalable_prob` (0 where the scheme has none) and queue delay.
    /// Returns the aggregate's new arrival rate in bits per second.
    fn on_tick(
        &mut self,
        dt: Duration,
        classic_prob: f64,
        scalable_prob: f64,
        qdelay: Duration,
    ) -> u64;

    /// How many flows this aggregate represents (for reporting and the
    /// checkpoint schema hash).
    fn flow_count(&self) -> u64;

    /// Structural fingerprint folded into the checkpoint schema hash: a
    /// restore must be refused when the aggregate's shape (class count,
    /// population, kinds) differs from the snapshot's.
    fn schema_fingerprint(&self) -> u64;
}

/// The fraction of nominal capacity always reserved for the foreground,
/// so a runaway aggregate can never starve the packet-level flows of
/// service entirely (the AQM would have no feedback path left).
pub const MIN_FOREGROUND_FRACTION: f64 = 0.05;

/// The background attachment held by [`crate::sim::Sim`]: the aggregate
/// plus the capacity-stealing bookkeeping and the observational track.
pub struct Background {
    /// The flow-level aggregate.
    pub agg: Box<dyn BackgroundAggregate>,
    /// Nominal bottleneck capacity in bits/s (tracks `SetLinkRate`).
    pub capacity_bps: u64,
    /// Background rate currently granted (≤ capacity − foreground floor).
    pub applied_bps: u64,
    /// Total background volume served so far, in bytes.
    pub bg_bytes: f64,
    /// Coupling ticks taken.
    pub ticks: u64,
    /// The aggregate-rate counter track: `(t, granted bits/s)` per tick.
    pub series: Vec<(Time, u64)>,
}

impl Background {
    /// Wrap an aggregate for a bottleneck of `capacity_bps`.
    pub fn new(agg: Box<dyn BackgroundAggregate>, capacity_bps: u64) -> Self {
        Background {
            agg,
            capacity_bps,
            applied_bps: 0,
            bg_bytes: 0.0,
            ticks: 0,
            series: Vec::new(),
        }
    }

    /// The most background rate the foreground floor allows right now.
    pub fn grant_ceiling(&self) -> u64 {
        let floor = (self.capacity_bps as f64 * MIN_FOREGROUND_FRACTION) as u64;
        self.capacity_bps.saturating_sub(floor)
    }

    /// A restored grant must leave the foreground some capacity: the
    /// simulator drains the foreground at `capacity_bps - applied_bps`.
    fn check(&self) -> Result<(), &'static str> {
        if self.applied_bps >= self.capacity_bps || self.applied_bps > self.grant_ceiling() {
            return Err("background grant leaves the foreground no capacity");
        }
        Ok(())
    }
}

ckpt_fields!(Background {
    capacity_bps,
    applied_bps,
    bg_bytes,
    ticks,
    series,
    agg,
} check Background::check);
