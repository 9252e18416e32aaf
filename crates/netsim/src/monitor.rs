//! Measurement collection.
//!
//! The paper's evaluation reports queue-delay time series (1 s and 100 ms
//! sampling), per-packet queue-delay CDFs and percentiles, per-flow
//! throughput, applied mark/drop probability percentiles, and link
//! utilization (the total throughput, at the link's rate). The [`Monitor`]
//! collects all of these during a run with a configurable sampling
//! interval and warm-up exclusion. Whole-run per-flow counts of
//! admissions, marks, drops and departures are not its business: the
//! engine's [`crate::trace::TraceCounts`] is the one ledger of those.

use crate::aqm::{Action, Decision};
use crate::packet::FlowId;
use crate::queue::Qdisc;
use pi2_simcore::{ckpt_fields, Duration, Time};
use pi2_stats::RunColumn;

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Spacing of time-series samples (the paper uses 1 s in most figures
    /// and 100 ms for the Figure 12 peak-delay comparison).
    pub sample_interval: Duration,
    /// Samples and per-packet records before this instant are excluded
    /// from aggregate statistics (they still appear in time series).
    pub warmup: Duration,
    /// Record per-packet sojourn times (needed for delay CDFs/percentiles).
    pub record_sojourns: bool,
    /// Record the per-packet applied probability (needed for Figure 17).
    pub record_probs: bool,
    /// Additionally record sojourns per flow (needed for per-class delay
    /// distributions, e.g. the DualQ L-vs-C comparison).
    pub record_flow_sojourns: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sample_interval: Duration::from_secs(1),
            warmup: Duration::ZERO,
            record_sojourns: true,
            record_probs: true,
            record_flow_sojourns: false,
        }
    }
}

/// Per-flow accounting: what needs the warm-up window, byte counts or
/// samples. Whole-run verdict and departure counts per flow are
/// [`crate::trace::TraceCounts`]', which the engine keeps beside this.
#[derive(Clone, Debug, Default)]
pub struct FlowAccount {
    /// Label given at registration; experiments group flows by it
    /// (e.g. `"cubic"`, `"dctcp"`, `"udp"`).
    pub label: String,
    /// Packets handed to the bottleneck by the sender.
    pub sent_pkts: u64,
    /// Packets handed to the bottleneck after the warm-up period.
    pub sent_pkts_postwarm: u64,
    /// Packets dropped after the warm-up period.
    pub dropped_postwarm: u64,
    /// Packets CE-marked after the warm-up period.
    pub marked_postwarm: u64,
    /// Bytes that left the bottleneck link.
    pub dequeued_bytes: u64,
    /// Bytes that left the bottleneck link after the warm-up period.
    pub dequeued_bytes_postwarm: u64,
    /// Packets that reached the receiver.
    pub delivered_pkts: u64,
    /// Bytes that reached the receiver.
    pub delivered_bytes: u64,
    /// Applied probability per packet handed to the network, after
    /// warm-up (only if [`MonitorConfig::record_probs`]), kept as its
    /// runs: the first hop's verdict. A routed flow's later hops add to
    /// its drop and mark counts, not to this column, so it holds one
    /// sample per [`FlowAccount::sent_pkts_postwarm`] and one controller's
    /// probabilities.
    pub prob_samples: RunColumn,
    /// Per-packet sojourn samples for this flow, post warm-up (only if
    /// [`MonitorConfig::record_flow_sojourns`]), kept as its runs.
    pub sojourn_ms: RunColumn,
}

ckpt_fields!(FlowAccount {
    sent_pkts,
    sent_pkts_postwarm,
    dropped_postwarm,
    marked_postwarm,
    dequeued_bytes,
    dequeued_bytes_postwarm,
    delivered_pkts,
    delivered_bytes,
    prob_samples,
    sojourn_ms,
});

impl FlowAccount {
    fn new(label: &str) -> Self {
        FlowAccount {
            label: label.to_string(),
            ..FlowAccount::default()
        }
    }

    /// Count a post-warm-up drop or mark.
    fn note_verdict(&mut self, decision: Decision) {
        match decision.action {
            Action::Drop => self.dropped_postwarm += 1,
            Action::Mark => self.marked_postwarm += 1,
            Action::Pass => {}
        }
    }

    /// Fraction of offered packets that were marked or dropped — the
    /// empirical congestion-signal probability of this flow. Measured over
    /// the post-warm-up window, the same window as
    /// [`FlowAccount::mean_tput_mbps`] (slow-start transients would
    /// otherwise skew the numerator while the denominator of a throughput
    /// comparison excludes them).
    pub fn signal_fraction(&self) -> f64 {
        if self.sent_pkts_postwarm == 0 {
            0.0
        } else {
            (self.dropped_postwarm + self.marked_postwarm) as f64 / self.sent_pkts_postwarm as f64
        }
    }

    /// Mean post-warm-up throughput in Mb/s given the measurement span.
    pub fn mean_tput_mbps(&self, span: Duration) -> f64 {
        let secs = span.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.dequeued_bytes_postwarm as f64 * 8.0 / secs / 1e6
        }
    }
}

/// One periodic measurement tick, stored row-wise.
///
/// The monitor used to push each sampled quantity onto its own series
/// `Vec`, which meant the (rare, hence cache-cold) sample path touched one
/// tail line per series. One row per tick keeps the whole tick on a single
/// line; the familiar `(t, value)` series are materialized on demand by
/// the accessors below.
#[derive(Clone, Copy, Debug, Default)]
struct SampleRow {
    /// Sample instant, seconds.
    t: f64,
    /// Instantaneous queue delay, ms.
    qdelay_ms: f64,
    /// Fraction of link capacity used over the interval (valid only if
    /// `has_rate`).
    util: f64,
    /// False for a zero-length interval (no rate quantities that tick).
    has_rate: bool,
    /// Whether the tick fell after the warm-up period.
    postwarm: bool,
}

ckpt_fields!(SampleRow { t, qdelay_ms, util, has_rate, postwarm });

/// Run-wide measurement state.
#[derive(Clone, Debug)]
/// `repr(C)` pins the field order so the state the rare sample tick
/// reads shares a cache line with state the per-packet record paths keep
/// warm: `warm_at` (read on every record), the sample-tick scalars and
/// the `samples` header. Sample ticks run ~10^4 events apart, so without
/// this co-location every scalar they touch is a cold miss.
#[repr(C)]
pub struct Monitor {
    /// `Time::ZERO + cfg.warmup`, precomputed for the per-record warm-up
    /// comparison.
    warm_at: Time,
    last_sample_at: Time,
    last_total_bytes: u64,
    /// Periodic samples, one row per tick (see [`SampleRow`]).
    samples: Vec<SampleRow>,
    cfg: MonitorConfig,
    /// Per-flow accounts, indexed by [`FlowId`].
    pub flows: Vec<FlowAccount>,
    /// Per-packet queue delay in ms, post warm-up
    /// (only if [`MonitorConfig::record_sojourns`]), kept as its runs.
    pub sojourn_ms: RunColumn,
    /// Completed size-limited flows: `(flow, start, completion)` — the
    /// raw material for flow-completion-time distributions (the paper's
    /// short-flow experiments).
    pub completions: Vec<(FlowId, Time, Time)>,
}

impl Monitor {
    /// Create an empty monitor.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            cfg,
            flows: Vec::new(),
            sojourn_ms: RunColumn::default(),
            completions: Vec::new(),
            samples: Vec::new(),
            last_sample_at: Time::ZERO,
            last_total_bytes: 0,
            warm_at: Time::ZERO + cfg.warmup,
        }
    }

    /// Pre-size for an expected run shape: the sample rows for
    /// `expected_samples` ticks (≈ duration / sample interval), and the
    /// run-wide sojourn column for `expected_pkts` departures (≈ rate ×
    /// recorded span / packet size), so neither reallocates its values
    /// mid-run. A run column holds at most one value per sample, and only
    /// the pages its runs fill become resident: over-estimates cost
    /// address space only, but callers should still cap both. Per-flow
    /// columns grow as their runs appear.
    pub fn reserve(&mut self, expected_samples: usize, expected_pkts: usize) {
        self.samples.reserve(expected_samples);
        if self.cfg.record_sojourns {
            self.sojourn_ms.reserve(expected_pkts);
        }
    }

    /// The configured sampling interval.
    pub fn sample_interval(&self) -> Duration {
        self.cfg.sample_interval
    }

    /// The configured warm-up span.
    pub fn warmup(&self) -> Duration {
        self.cfg.warmup
    }

    /// Register the next flow (ids are dense and sequential).
    pub fn register_flow(&mut self, label: &str) {
        self.flows.push(FlowAccount::new(label));
    }

    /// Access a flow's account.
    pub fn flow(&self, id: FlowId) -> &FlowAccount {
        &self.flows[id.idx()]
    }

    /// True once `now` has passed the configured warm-up — the predicate
    /// every `record_*` method applies, shared with other instruments
    /// (e.g. per-hop byte accounting in the core) so they measure the
    /// monitor's window.
    pub fn postwarm_at(&self, now: Time) -> bool {
        now >= self.warm_at
    }

    /// Record a packet being offered to the bottleneck together with the
    /// AQM's verdict on it: the send accounting fused with
    /// [`Monitor::record_decision`], so the warm-up check and account
    /// lookup happen once on the send path. The packet's size is not read:
    /// sends are counted in packets.
    pub fn record_send(&mut self, flow: FlowId, _bytes: usize, decision: Decision, now: Time) {
        let postwarm = self.postwarm_at(now);
        let acc = &mut self.flows[flow.idx()];
        acc.sent_pkts += 1;
        if postwarm {
            acc.sent_pkts_postwarm += 1;
            acc.note_verdict(decision);
            if self.cfg.record_probs {
                acc.prob_samples.push(decision.prob as f32);
            }
        }
    }

    /// Record the AQM decision for an offered packet (a verdict at a hop
    /// after the packet's first): its drop or mark counts toward the
    /// path's signal, its probability is not kept (the flow's column holds
    /// its first hop's). Whole-run verdict totals are
    /// [`crate::trace::TraceCounts`]'; the monitor keeps the post-warm-up
    /// window only.
    pub fn record_decision(&mut self, flow: FlowId, decision: Decision, now: Time) {
        if self.postwarm_at(now) {
            self.flows[flow.idx()].note_verdict(decision);
        }
    }

    /// Record a departure from the bottleneck.
    pub fn record_dequeue(&mut self, flow: FlowId, bytes: usize, sojourn: Duration, now: Time) {
        let postwarm = self.postwarm_at(now);
        let acc = &mut self.flows[flow.idx()];
        acc.dequeued_bytes += bytes as u64;
        if postwarm {
            acc.dequeued_bytes_postwarm += bytes as u64;
            if self.cfg.record_flow_sojourns {
                acc.sojourn_ms.push(sojourn.as_millis_f64() as f32);
            }
            if self.cfg.record_sojourns {
                self.sojourn_ms.push(sojourn.as_millis_f64() as f32);
            }
        }
    }

    /// Record an arrival at the receiver. The arrival time is not read:
    /// every delivered-side count covers the whole run.
    pub fn record_delivered(&mut self, flow: FlowId, bytes: usize, _now: Time) {
        let acc = &mut self.flows[flow.idx()];
        acc.delivered_pkts += 1;
        acc.delivered_bytes += bytes as u64;
    }

    /// Record the completion of a size-limited flow.
    pub fn record_completion(&mut self, flow: FlowId, started: Time, completed: Time) {
        self.completions.push((flow, started, completed));
    }

    /// Flow-completion times (seconds) pooled over flows with `label`,
    /// restricted to flows that started after the warm-up.
    pub fn completion_times(&self, label: &str) -> Vec<f64> {
        self.completions
            .iter()
            .filter(|(id, started, _)| {
                self.flows[id.idx()].label == label && self.postwarm_at(*started)
            })
            .map(|(_, started, completed)| (*completed - *started).as_secs_f64())
            .collect()
    }

    /// Take a periodic sample of queue delay and utilization.
    pub fn sample(&mut self, queue: &dyn Qdisc, now: Time) {
        let t = now.as_secs_f64();
        let dt = now.saturating_since(self.last_sample_at).as_secs_f64();
        let qdelay_ms = queue.monitor_delay().as_millis_f64();
        let total = queue.link().dequeued_bytes();
        let has_rate = dt > 0.0;
        let mut util = 0.0;
        if has_rate {
            let bits = (total - self.last_total_bytes) as f64 * 8.0;
            util = bits / dt / queue.link().rate_bps() as f64;
        }
        self.samples.push(SampleRow {
            t,
            qdelay_ms,
            util,
            has_rate,
            postwarm: self.postwarm_at(now),
        });
        self.last_total_bytes = total;
        self.last_sample_at = now;
    }

    /// `(t s, instantaneous queue delay ms)` at each sample tick.
    pub fn qdelay_series(&self) -> Vec<(f64, f64)> {
        self.samples.iter().map(|r| (r.t, r.qdelay_ms)).collect()
    }

    /// `(t s, fraction of link capacity used)` per interval.
    pub fn util_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter(|r| r.has_rate)
            .map(|r| (r.t, r.util))
            .collect()
    }

    /// Post-warm-up utilization samples (the values of
    /// [`Monitor::util_series`] excluding warm-up), for P1/mean/P99
    /// summaries (Figure 18), read from the sample rows where they lie.
    pub fn utils(&self) -> impl Iterator<Item = f32> + Clone + '_ {
        self.samples
            .iter()
            .filter(|r| r.has_rate && r.postwarm)
            .map(|r| r.util as f32)
    }

    /// [`Monitor::utils`], collected.
    pub fn util_samples(&self) -> Vec<f32> {
        self.utils().collect()
    }

    /// Post-warm-up measurement span (warm-up end to the last sample).
    pub fn measurement_span(&self) -> Duration {
        (self.last_sample_at - self.warm_at).max_zero()
    }

    /// Indices of flows whose label equals `label`.
    pub fn flows_labelled(&self, label: &str) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.label == label)
            .map(|(i, _)| i)
            .collect()
    }

    /// The accounts of the flows labelled `label`, in flow order: a
    /// summary over a label reads their columns one after another where
    /// they lie (`Summary::over`), without pooling them.
    pub fn labelled<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a FlowAccount> + Clone + 'a {
        self.flows.iter().filter(move |f| f.label == label)
    }

    /// Pooled per-packet probability samples over flows with `label`,
    /// expanded into one copy. Run code summarises the columns in place
    /// (`RunResult::prob_summary`); `benchmark/`'s `observers.rs` pools.
    pub fn pooled_probs(&self, label: &str) -> Vec<f32> {
        self.labelled(label).flat_map(|f| f.prob_samples.iter().copied()).collect()
    }

    /// Mean post-warm-up throughput in Mb/s pooled over flows with `label`.
    pub fn pooled_mean_tput_mbps(&self, label: &str) -> f64 {
        let span = self.measurement_span();
        self.flows_labelled(label)
            .iter()
            .map(|&i| self.flows[i].mean_tput_mbps(span))
            .sum()
    }
}

// All mutable measurement state. Configuration (`cfg`, the precomputed
// `warm_at`) is not written, and each flow's label stays as registered:
// restore targets a monitor built from the same [`MonitorConfig`] with
// the same flows.
ckpt_fields!(Monitor {
    last_sample_at,
    last_total_bytes,
    samples,
    sojourn_ms,
    completions,
    flows[..],
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::{Decision, PassAqm};
    use crate::queue::BottleneckQueue;
    use crate::packet::{Ecn, Packet};
    use crate::queue::QueueConfig;
    use pi2_simcore::{Ckpt, CkptWriter, Rng};

    fn monitor() -> Monitor {
        Monitor::new(MonitorConfig::default())
    }

    #[test]
    fn reserve_presizes_the_rows_and_the_sojourn_column_and_runs_stay_small() {
        let mut m = Monitor::new(MonitorConfig {
            record_flow_sojourns: true,
            ..MonitorConfig::default()
        });
        m.register_flow("before");
        m.reserve(1000, 50_000);
        m.register_flow("after");
        assert!(m.samples.capacity() >= 1000);
        assert!(m.sojourn_ms.capacity() >= 50_000);
        // Per-flow columns reserve nothing, and a run of equal samples is
        // one value and one repeat entry in every column, however long.
        fn flows(m: &Monitor) -> impl Iterator<Item = &RunColumn> {
            m.flows.iter().flat_map(|f| [&f.prob_samples, &f.sojourn_ms])
        }
        assert!(flows(&m).all(|c| c.capacity() == 0));
        let now = Time::from_secs(1);
        for _ in 0..50_000 {
            for id in [FlowId(0), FlowId(1)] {
                m.record_send(id, 1500, Decision::pass(0.1), now);
                m.record_dequeue(id, 1500, Duration::from_millis(5), now);
            }
        }
        assert!(flows(&m).all(|c| (c.len(), c.bytes()) == (50_000, 12)));
        assert_eq!((m.sojourn_ms.len(), m.sojourn_ms.bytes()), (100_000, 12));
    }

    #[test]
    fn registration_and_counters() {
        let mut m = monitor();
        m.register_flow("cubic");
        m.register_flow("dctcp");
        m.record_send(FlowId(0), 1500, Decision::drop(0.25), Time::ZERO);
        m.record_send(FlowId(0), 1500, Decision::pass(0.25), Time::ZERO);
        let f = m.flow(FlowId(0));
        assert_eq!(f.sent_pkts, 2);
        assert_eq!(f.dropped_postwarm, 1);
        assert_eq!(f.signal_fraction(), 0.5);
        assert_eq!(m.flow(FlowId(1)).sent_pkts, 0);
    }

    #[test]
    fn warmup_excludes_early_samples() {
        let mut m = Monitor::new(MonitorConfig {
            warmup: Duration::from_secs(10),
            ..MonitorConfig::default()
        });
        m.register_flow("f");
        m.record_dequeue(FlowId(0), 1500, Duration::from_millis(5), Time::from_secs(1));
        m.record_dequeue(FlowId(0), 1500, Duration::from_millis(7), Time::from_secs(11));
        assert_eq!(m.sojourn_ms.len(), 1);
        assert_eq!(m.sojourn_ms.iter().collect::<Vec<_>>(), [&7.0]);
        assert_eq!(m.flow(FlowId(0)).dequeued_bytes, 3000);
        assert_eq!(m.flow(FlowId(0)).dequeued_bytes_postwarm, 1500);
    }

    #[test]
    fn signal_fraction_and_throughput_share_the_warmup_window() {
        // Pre-warm-up traffic (heavily signalled slow-start) must not leak
        // into signal_fraction when mean_tput_mbps already excludes it:
        // both read the post-warm-up window.
        let mut m = Monitor::new(MonitorConfig {
            warmup: Duration::from_secs(10),
            ..MonitorConfig::default()
        });
        m.register_flow("f");
        let pre = Time::from_secs(1);
        let post = Time::from_secs(11);
        // Before warm-up: 3 sent, 2 dropped, 1 delivered.
        m.record_send(FlowId(0), 1500, Decision::drop(0.9), pre);
        m.record_send(FlowId(0), 1500, Decision::drop(0.9), pre);
        m.record_send(FlowId(0), 1500, Decision::pass(0.9), pre);
        m.record_delivered(FlowId(0), 1500, pre);
        // After warm-up: 4 sent, 1 marked, 3 delivered.
        m.record_send(FlowId(0), 1500, Decision::mark(0.1), post);
        for _ in 0..3 {
            m.record_send(FlowId(0), 1500, Decision::pass(0.1), post);
            m.record_delivered(FlowId(0), 1500, post);
        }
        let f = m.flow(FlowId(0));
        // Full-run counters still see everything.
        assert_eq!(f.sent_pkts, 7);
        assert_eq!(f.delivered_bytes, 6000);
        // The signal fraction is post-warm-up only: 1 mark / 4 sent, not
        // the full-run 3/7.
        assert_eq!(f.sent_pkts_postwarm, 4);
        assert_eq!(f.dropped_postwarm, 0);
        assert_eq!(f.marked_postwarm, 1);
        assert_eq!(f.signal_fraction(), 0.25);
    }

    #[test]
    fn sample_computes_throughput_and_utilization() {
        let mut m = monitor();
        m.register_flow("f");
        let mut q = BottleneckQueue::new(
            QueueConfig {
                rate_bps: 12_000_000,
                buffer_bytes: usize::MAX,
            },
            Box::new(PassAqm),
        );
        let mut rng = Rng::new(1);
        // Push 1000 packets of 1500 B through the queue accounting.
        for i in 0..1000u64 {
            q.offer(
                Packet::data(FlowId(0), i, 1500, Ecn::NotEct, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
        }
        for _ in 0..1000 {
            q.pop(Time::from_millis(1));
        }
        // Mirror the departures into the per-flow accounting.
        for _ in 0..1000 {
            m.record_dequeue(FlowId(0), 1500, Duration::from_millis(1), Time::from_millis(1));
        }
        m.sample(&q, Time::from_secs(1));
        // 1000*1500*8 bits over 1 s = 12 Mb/s on a 12 Mb/s link -> util 1.0.
        assert_eq!(m.util_series().len(), 1);
        assert!((m.util_series()[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(m.qdelay_series().len(), 1);
    }

    #[test]
    fn a_sample_tick_costs_the_checkpoint_the_same_bytes_for_any_flow_count() {
        let q = BottleneckQueue::new(
            QueueConfig {
                rate_bps: 12_000_000,
                buffer_bytes: usize::MAX,
            },
            Box::new(PassAqm),
        );
        let blob_len = |flows: usize, ticks: u64| {
            let mut m = monitor();
            for _ in 0..flows {
                m.register_flow("f");
            }
            for i in 1..=ticks {
                m.sample(&q, Time::from_secs(i));
            }
            let mut w = CkptWriter::new();
            m.save_ckpt(&mut w);
            w.into_bytes().len()
        };
        let per_tick = |flows| (blob_len(flows, 101) - blob_len(flows, 1)) / 100;
        assert_eq!(per_tick(100), per_tick(1));
    }

    #[test]
    fn label_grouping_pools_flows() {
        let mut m = monitor();
        m.register_flow("cubic");
        m.register_flow("dctcp");
        m.register_flow("cubic");
        assert_eq!(m.flows_labelled("cubic"), vec![0, 2]);
        m.record_send(FlowId(0), 1500, Decision::pass(0.1), Time::from_secs(1));
        m.record_send(FlowId(2), 1500, Decision::pass(0.3), Time::from_secs(1));
        let pooled = m.pooled_probs("cubic");
        assert_eq!(pooled.len(), 2);
    }

    #[test]
    fn completions_respect_warmup_and_labels() {
        let mut m = Monitor::new(MonitorConfig {
            warmup: Duration::from_secs(10),
            ..MonitorConfig::default()
        });
        m.register_flow("short");
        m.register_flow("long");
        m.register_flow("short");
        // One pre-warm-up completion (excluded), two post.
        m.record_completion(FlowId(0), Time::from_secs(5), Time::from_secs(6));
        m.record_completion(FlowId(1), Time::from_secs(12), Time::from_secs(15));
        m.record_completion(FlowId(2), Time::from_secs(20), Time::from_secs(22));
        assert_eq!(m.completions.len(), 3);
        let short = m.completion_times("short");
        assert_eq!(short, vec![2.0]);
        let long = m.completion_times("long");
        assert_eq!(long, vec![3.0]);
    }

    #[test]
    fn per_flow_sojourns_pool_by_label() {
        let mut m = Monitor::new(MonitorConfig {
            record_flow_sojourns: true,
            ..MonitorConfig::default()
        });
        m.register_flow("a");
        m.register_flow("b");
        m.record_dequeue(FlowId(0), 1500, Duration::from_millis(3), Time::from_secs(1));
        m.record_dequeue(FlowId(1), 1500, Duration::from_millis(9), Time::from_secs(1));
        m.record_dequeue(FlowId(0), 1500, Duration::from_millis(5), Time::from_secs(2));
        let pooled = |label| -> Vec<f32> {
            m.labelled(label).flat_map(|f| f.sojourn_ms.iter().copied()).collect()
        };
        assert_eq!(pooled("a"), vec![3.0, 5.0]);
        assert_eq!(pooled("b"), vec![9.0]);
        assert!(pooled("c").is_empty());
    }

    #[test]
    fn mean_tput_uses_postwarm_bytes() {
        let mut acc = FlowAccount::new("f");
        acc.dequeued_bytes_postwarm = 1_250_000; // 10 Mbit
        assert!((acc.mean_tput_mbps(Duration::from_secs(10)) - 1.0).abs() < 1e-12);
        assert_eq!(acc.mean_tput_mbps(Duration::ZERO), 0.0);
    }
}
