//! The simulator's metrics schema: which counters, gauges and histograms
//! a run records into a [`pi2_obs::Registry`].
//!
//! [`SimMetrics`] wraps a registry with typed handles for every
//! instrument the simulator updates, so the hot-path call sites compile
//! to an array index plus an add — no name lookups, no allocation. The
//! schema is fixed at construction, which is what makes the registries
//! of several runs mergeable ([`SimMetrics::merge`]).
//!
//! Like every observer in this stack, metrics are write-only taps on
//! state the simulator already computes: recording never touches the
//! RNG, the queue or the event heap, so a metrics-on run is bit-identical
//! to a metrics-off run (asserted by `tests/metrics_obs.rs`).

use crate::aqm::AqmState;
use crate::packet::Ecn;
use pi2_obs::{CounterId, GaugeId, HistId, Registry};
use pi2_simcore::{ckpt_fields, Duration};

/// All instruments one simulation run records. See the module docs.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    reg: Registry,
    enqueued: CounterId,
    dropped: CounterId,
    marked: CounterId,
    dequeued: CounterId,
    enq_ect: CounterId,
    enq_ce: CounterId,
    aqm_updates: CounterId,
    events_processed: CounterId,
    events_scheduled: CounterId,
    sojourn_ns: HistId,
    qdelay_ns: HistId,
    prob: GaugeId,
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMetrics {
    /// Build the schema (the only allocations this type ever performs).
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let enqueued = reg.counter("pi2_enqueued_total", "Packets admitted to the bottleneck queue");
        let dropped = reg.counter("pi2_dropped_total", "Packets dropped (AQM decision or overflow)");
        let marked = reg.counter("pi2_marked_total", "Packets CE-marked on admission");
        let dequeued = reg.counter("pi2_dequeued_total", "Packets that finished transmission");
        let enq_ect = reg.counter(
            "pi2_enqueued_ect_total",
            "Admitted packets that arrived ECN-capable (ECT(0)/ECT(1))",
        );
        let enq_ce = reg.counter("pi2_enqueued_ce_total", "Admitted packets carrying CE");
        let aqm_updates = reg.counter("pi2_aqm_updates_total", "Periodic AQM controller updates");
        let events_processed =
            reg.counter("pi2_events_processed_total", "Events popped by the dispatch loop");
        let events_scheduled =
            reg.counter("pi2_events_scheduled_total", "Events pushed onto the event queue");
        let sojourn_ns = reg.histogram(
            "pi2_sojourn_ns",
            "Per-packet queueing + serialization time at dequeue, nanoseconds",
        );
        let qdelay_ns = reg.histogram(
            "pi2_qdelay_ns",
            "Queue-delay input of each AQM controller update, nanoseconds",
        );
        let prob = reg.gauge("pi2_prob", "Classic output probability after the last AQM update");
        SimMetrics {
            reg,
            enqueued,
            dropped,
            marked,
            dequeued,
            enq_ect,
            enq_ce,
            aqm_updates,
            events_processed,
            events_scheduled,
            sojourn_ns,
            qdelay_ns,
            prob,
        }
    }

    /// A packet was admitted with ECN field `ecn` (post-marking).
    #[inline]
    pub fn note_enqueue(&mut self, ecn: Ecn) {
        self.reg.inc(self.enqueued, 1);
        match ecn {
            Ecn::NotEct => {}
            Ecn::Ce => self.reg.inc(self.enq_ce, 1),
            _ => self.reg.inc(self.enq_ect, 1),
        }
    }

    /// A packet was dropped.
    #[inline]
    pub fn note_drop(&mut self) {
        self.reg.inc(self.dropped, 1);
    }

    /// A packet was CE-marked on admission.
    #[inline]
    pub fn note_mark(&mut self) {
        self.reg.inc(self.marked, 1);
    }

    /// A packet finished transmission after queueing for `sojourn`.
    #[inline]
    pub fn note_dequeue(&mut self, sojourn: Duration) {
        self.reg.inc(self.dequeued, 1);
        self.reg.observe(self.sojourn_ns, sojourn.as_nanos().max(0) as u64);
    }

    /// The periodic AQM controller updated with this probed state.
    #[inline]
    pub fn note_aqm_update(&mut self, st: &AqmState) {
        self.reg.inc(self.aqm_updates, 1);
        self.reg.observe(self.qdelay_ns, st.qdelay.as_nanos().max(0) as u64);
        self.reg.set(self.prob, st.prob);
    }

    /// Fold the run's event-loop totals in (called when the metrics are
    /// detached from the sim, so intermediate snapshots are not
    /// double-counted).
    pub fn note_event_totals(&mut self, processed: u64, scheduled: u64) {
        self.reg.inc(self.events_processed, processed);
        self.reg.inc(self.events_scheduled, scheduled);
    }

    /// Fold another run's metrics into this one (deterministic when
    /// applied in a deterministic order).
    pub fn merge(&mut self, other: &SimMetrics) {
        self.reg.merge(&other.reg);
    }

    /// The underlying registry, for exporters.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Packets admitted.
    pub fn enqueued(&self) -> u64 {
        self.reg.counter_value(self.enqueued)
    }

    /// Packets dropped.
    pub fn dropped(&self) -> u64 {
        self.reg.counter_value(self.dropped)
    }

    /// Packets CE-marked.
    pub fn marked(&self) -> u64 {
        self.reg.counter_value(self.marked)
    }

    /// Packets dequeued.
    pub fn dequeued(&self) -> u64 {
        self.reg.counter_value(self.dequeued)
    }

    /// AQM controller updates.
    pub fn aqm_updates(&self) -> u64 {
        self.reg.counter_value(self.aqm_updates)
    }

    /// Events popped by the dispatch loop.
    pub fn events_processed(&self) -> u64 {
        self.reg.counter_value(self.events_processed)
    }

    /// The sojourn-time histogram (nanoseconds).
    pub fn sojourn(&self) -> &pi2_obs::Histogram {
        self.reg.hist(self.sojourn_ns)
    }

    /// The AQM queue-delay histogram (nanoseconds).
    pub fn qdelay(&self) -> &pi2_obs::Histogram {
        self.reg.hist(self.qdelay_ns)
    }
}

// The schema is fixed at construction: a checkpoint holds the registry's
// values, and restore targets a freshly constructed instance.
ckpt_fields!(SimMetrics { reg });

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_simcore::Time;

    #[test]
    fn counts_route_to_the_right_instruments() {
        let mut m = SimMetrics::new();
        m.note_enqueue(Ecn::NotEct);
        m.note_enqueue(Ecn::Ce);
        m.note_mark();
        m.note_drop();
        m.note_dequeue(Duration::from_millis(3));
        m.note_aqm_update(&AqmState {
            prob: 0.04,
            qdelay: Duration::from_millis(15),
            ..AqmState::default()
        });
        m.note_event_totals(100, 120);
        assert_eq!(m.enqueued(), 2);
        assert_eq!(m.marked(), 1);
        assert_eq!(m.dropped(), 1);
        assert_eq!(m.dequeued(), 1);
        assert_eq!(m.aqm_updates(), 1);
        assert_eq!(m.events_processed(), 100);
        assert_eq!(m.sojourn().count(), 1);
        assert_eq!(m.qdelay().count(), 1);
        // Histogram quantile error ≤ 1/32 of the value.
        let p50 = m.sojourn().quantile(0.5);
        assert!((3_000_000..=3_100_000).contains(&p50), "{p50}");
        let _ = Time::ZERO; // silence unused import on feature subsets
    }

    #[test]
    fn merge_is_schema_safe_and_additive() {
        let mut a = SimMetrics::new();
        let mut b = SimMetrics::new();
        a.note_enqueue(Ecn::Ect0);
        b.note_enqueue(Ecn::Ect0);
        b.note_drop();
        a.merge(&b);
        assert_eq!(a.enqueued(), 2);
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn exports_lint_clean() {
        let mut m = SimMetrics::new();
        m.note_enqueue(Ecn::NotEct);
        m.note_dequeue(Duration::from_micros(80));
        let prom = m.registry().to_prometheus();
        pi2_obs::prom_lint(&prom).expect("schema must produce lintable exposition text");
        let json = m.registry().to_json();
        assert!(json.contains("\"pi2_enqueued_total\":1"));
    }
}
