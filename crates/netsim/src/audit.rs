//! Runtime invariant auditor: an always-compilable observer that checks
//! the simulator's global bookkeeping on every trace event and AQM probe
//! of every hop, and panics with a **replayable seed** (and the hop) the
//! moment an invariant breaks.
//!
//! The auditor is wired into [`crate::sim::SimCore`] as a debug-default
//! observer (see `PI2_AUDIT` in [`crate::sim::Sim::with_qdisc`]): debug
//! builds audit every run unless `PI2_AUDIT=0`, release builds audit only
//! when `PI2_AUDIT=1` or `--audit`/`enable_audit` asks for it. It is a
//! pure observer — it never touches the RNG, the queue, or the event heap
//! — so an audited run is bit-identical to an unaudited one.
//!
//! Invariants checked, mirroring the paper's accounting assumptions. The
//! clock is one for the whole run; the queue books are kept hop by hop:
//!
//! * **monotone virtual clock** — event and probe timestamps never go
//!   backwards, whichever hops they come from;
//! * **probability bounds** — every per-packet decision probability and
//!   every probed `p'`, `p`, scalable `p` is finite and in `[0, 1]`;
//! * **squaring law** — on PI2 paths (opt-in via
//!   [`AuditSink::expect_squared`]) each probe of the primary bottleneck
//!   satisfies `p = min(p'², cap)`, the paper's Section 3 coupling;
//! * **non-negative queue depth** — a hop's admissions minus departures
//!   never go below zero, in total and per flow;
//! * **conservation** — at end of run, each hop's `enqueued − dequeued`
//!   equals the packets still queued there
//!   ([`AuditSink::check_conservation`], called by `Sim::run_until`).

//! ## Flight recorder
//!
//! Alongside the seed, every auditor keeps a fixed-capacity ring buffer
//! of the most recent trace events of all hops (the **flight recorder**,
//! [`pi2_obs::RingBuffer`]). When a violation fires, the retained window
//! — the last [`DEFAULT_FLIGHT_CAPACITY`] events leading up to the
//! failure, each line carrying its `"hop"` — is dumped as JSONL to
//! `PI2_FLIGHT_OUT` (or a seed-stamped file in the system temp directory)
//! and the dump path is embedded in the panic message, so a broken
//! invariant leaves both a replay recipe and the immediate evidence.

use crate::aqm::AqmState;
use crate::impair::ImpairStats;
use crate::trace::{TraceCounts, TraceEvent, TraceSink};
use pi2_obs::RingBuffer;
use pi2_simcore::{Duration, Time};
use std::io::Write as _;

/// Slack for floating-point identity checks (the squaring law is computed
/// in one multiply, so this only absorbs cross-platform rounding).
const EPS: f64 = 1e-9;

/// Trace events the flight recorder retains (see the module docs).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The invariant-checking trace sink. See the module docs for the
/// invariant list.
#[derive(Debug)]
pub struct AuditSink {
    /// The run's RNG seed, embedded in every violation panic so the run
    /// can be replayed bit-identically.
    seed: u64,
    /// Short context string for violation messages (e.g. the AQM name).
    label: String,
    /// When set, every AQM probe of hop 0 must satisfy
    /// `prob = min(p_prime², cap)` with `cap` the configured
    /// classic-probability ceiling.
    squared_cap: Option<f64>,
    /// Per-hop books, indexed by hop id and grown on first sight of a hop.
    hops: Vec<HopBooks>,
    last_event_t: Time,
    last_probe_t: Time,
    events_seen: u64,
    probes_seen: u64,
    /// The most recent `(hop, event)` pairs, dumped on violation (see the
    /// module docs).
    flight: RingBuffer<(u32, TraceEvent)>,
}

/// What the auditor tracks about one hop's queue.
#[derive(Debug, Default)]
struct HopBooks {
    /// Packets already in the hop's qdisc when the auditor attached; only
    /// an attach-at-time-zero auditor (baseline 0) can check per-flow
    /// dequeue ≤ enqueue strictly.
    baseline_pkts: u64,
    /// Independent event accounting (separate instance from the
    /// simulator's own always-on counters).
    counts: TraceCounts,
    /// Running queue depth implied by the hop's event stream.
    qlen_pkts: i64,
}

impl AuditSink {
    /// An auditor for a run driven by `seed`.
    pub fn new(seed: u64) -> Self {
        AuditSink {
            seed,
            label: String::new(),
            squared_cap: None,
            hops: Vec::new(),
            last_event_t: Time::ZERO,
            last_probe_t: Time::ZERO,
            events_seen: 0,
            probes_seen: 0,
            flight: RingBuffer::new(DEFAULT_FLIGHT_CAPACITY),
        }
    }

    /// Attach a context label used in violation messages.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Require the PI2 squaring law `prob = min(p_prime², cap)` on every
    /// probe of the primary bottleneck (hop 0). For PI2, `cap` is the
    /// output law's `pi2_fluid::law::CLASSIC_CAP` (0.25).
    pub fn expect_squared(mut self, cap: f64) -> Self {
        self.squared_cap = Some(cap);
        self
    }

    /// Restart `hop`'s books from `pkts` packets already queued there (a
    /// mid-run attach or a checkpoint restore); those departures are not
    /// violations.
    pub fn set_baseline_pkts(&mut self, hop: u32, pkts: usize) {
        *self.books(hop) = HopBooks {
            baseline_pkts: pkts as u64,
            counts: TraceCounts::new(),
            qlen_pkts: pkts as i64,
        };
    }

    fn books(&mut self, hop: u32) -> &mut HopBooks {
        let idx = hop as usize;
        if idx >= self.hops.len() {
            self.hops.resize_with(idx + 1, HopBooks::default);
        }
        &mut self.hops[idx]
    }

    /// Events observed so far, over all hops (for "the auditor actually
    /// ran" assertions).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// AQM probes observed so far, over all hops.
    pub fn probes_seen(&self) -> u64 {
        self.probes_seen
    }

    /// Write the flight-recorder window as JSONL (one trace event per
    /// line with its `"hop"` appended, oldest first, closed by a
    /// `"ev":"violation"` context record) to `PI2_FLIGHT_OUT` or a
    /// seed-stamped temp file. Returns the path, or `None` when there is
    /// nothing retained or the write failed (a failed dump must never
    /// mask the violation itself).
    fn dump_flight(&self, t: Time) -> Option<std::path::PathBuf> {
        if self.flight.is_empty() {
            return None;
        }
        let path = match std::env::var_os("PI2_FLIGHT_OUT") {
            Some(p) => std::path::PathBuf::from(p),
            None => std::env::temp_dir().join(format!("pi2_flight_seed{}.jsonl", self.seed)),
        };
        let dump = || -> std::io::Result<()> {
            let mut body = Vec::new();
            for (hop, ev) in self.flight.iter() {
                ev.write_jsonl(&mut body);
                // Reopen the object to append the hop.
                body.pop();
                writeln!(body, ",\"hop\":{hop}}}")?;
            }
            writeln!(
                body,
                "{{\"ev\":\"violation\",\"t_ns\":{},\"seed\":{},\"events_seen\":{},\
                 \"probes_seen\":{},\"ring_evicted\":{}}}",
                t.as_nanos(),
                self.seed,
                self.events_seen,
                self.probes_seen,
                self.flight.total_pushed() - self.flight.len() as u64,
            )?;
            std::fs::write(&path, body)
        };
        dump().ok().map(|_| path)
    }

    fn violation(&self, t: Time, what: &str) -> ! {
        let label = if self.label.is_empty() { "" } else { &self.label };
        let flight = match self.dump_flight(t) {
            Some(p) => format!(
                "\n  flight recorder: last {} trace events dumped to {}",
                self.flight.len(),
                p.display()
            ),
            None => String::new(),
        };
        panic!(
            "audit[{label}] INVARIANT VIOLATION at t={t} (after {} events, {} probes): {what}\n  \
             replayable seed: {seed} — rerun the identical scenario with seed {seed} to \
             reproduce this bit-for-bit{flight}",
            self.events_seen,
            self.probes_seen,
            seed = self.seed,
        );
    }

    /// A violation of one hop's invariants: names the hop.
    fn hop_violation(&self, hop: u32, t: Time, what: &str) -> ! {
        self.violation(t, &format!("hop {hop}: {what}"))
    }

    fn check_prob(&self, hop: u32, t: Time, name: &str, p: f64) {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            self.hop_violation(hop, t, &format!("{name} = {p} outside [0, 1]"));
        }
    }

    /// End-of-run conservation at `hop`: every packet admitted there was
    /// either dequeued or is still sitting in the hop's qdisc.
    /// `Sim::run_until` calls this for every hop with the qdisc's current
    /// occupancy after the event loop drains.
    pub fn check_conservation(&self, hop: u32, qlen_pkts: usize, now: Time) {
        let fresh = HopBooks::default();
        let books = self.hops.get(hop as usize).unwrap_or(&fresh);
        let t = books.counts.totals();
        let expected = books.baseline_pkts + t.enqueued - t.dequeued;
        if expected != qlen_pkts as u64 {
            self.hop_violation(
                hop,
                now,
                &format!(
                    "conservation broken: {} enqueued − {} dequeued (+{} baseline) \
                     implies {} packets queued, but the qdisc holds {}",
                    t.enqueued, t.dequeued, books.baseline_pkts, expected, qlen_pkts
                ),
            );
        }
        // Strict per-flow accounting is only sound when nothing predates
        // the auditor.
        if books.baseline_pkts == 0 {
            for (i, f) in books.counts.flows().iter().enumerate() {
                if f.dequeued > f.enqueued {
                    self.hop_violation(
                        hop,
                        now,
                        &format!(
                            "flow {i}: {} dequeued but only {} enqueued",
                            f.dequeued, f.enqueued
                        ),
                    );
                }
            }
        }
    }

    /// The internal-balance half of [`AuditSink::check_impairments`]:
    /// each direction of the impairment layer must satisfy
    /// `lost + passed = offered`. Used on its own for multi-hop runs,
    /// where the dequeue cross-check against hop 0's stream no longer
    /// applies (final-leg departures happen at each route's last hop).
    pub fn check_impairments_balance(&self, stats: &ImpairStats, now: Time) {
        if stats.fwd_lost + stats.fwd_passed() != stats.fwd_offered {
            self.violation(
                now,
                &format!(
                    "impairment fwd accounting broken: {} lost + {} passed != {} offered",
                    stats.fwd_lost,
                    stats.fwd_passed(),
                    stats.fwd_offered
                ),
            );
        }
        if stats.rev_lost + stats.rev_passed() != stats.rev_offered {
            self.violation(
                now,
                &format!(
                    "impairment rev accounting broken: {} lost + {} passed != {} offered",
                    stats.rev_lost,
                    stats.rev_passed(),
                    stats.rev_offered
                ),
            );
        }
    }

    /// Path-conservation cross-check for the impairment layer (see
    /// [`crate::impair`]): every dequeued packet must have received
    /// exactly one forward verdict, and each direction's internal
    /// accounting must balance (`lost + passed = offered`). Called by
    /// `SimCore::finish_audit` when the layer is attached. The dequeue
    /// cross-check needs both observers attached from the start of the
    /// run, so it is skipped for mid-run attaches (non-zero baseline).
    pub fn check_impairments(&self, stats: &ImpairStats, now: Time) {
        self.check_impairments_balance(stats, now);
        let Some(books) = self.hops.first() else {
            return;
        };
        let dequeued = books.counts.totals().dequeued;
        if books.baseline_pkts == 0 && stats.fwd_offered != dequeued {
            self.violation(
                now,
                &format!(
                    "impairment layer saw {} forward packets but {} were dequeued — \
                     a packet left the bottleneck without a path verdict",
                    stats.fwd_offered, dequeued
                ),
            );
        }
    }
}

impl TraceSink for AuditSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.on_hop_event(0, ev);
    }

    fn on_aqm_state(&mut self, t: Time, st: &AqmState) {
        self.on_hop_aqm_state(0, t, st);
    }

    fn on_hop_event(&mut self, hop: u32, ev: &TraceEvent) {
        // Record before checking so a violating event is itself the last
        // line of the flight-recorder dump.
        self.flight.push((hop, *ev));
        let t = ev.time();
        if t < self.last_event_t {
            self.hop_violation(
                hop,
                t,
                &format!("virtual clock went backwards (previous event at {})", self.last_event_t),
            );
        }
        self.last_event_t = t;
        self.events_seen += 1;
        match ev {
            TraceEvent::Enqueue { .. } => {
                self.books(hop).qlen_pkts += 1;
            }
            TraceEvent::Mark { prob, .. } => {
                // The matching admission arrives as a separate Enqueue
                // event (the Mark ⇒ Enqueue contract); only the
                // probability is checked here.
                self.check_prob(hop, t, "mark probability", *prob);
            }
            TraceEvent::Drop { prob, .. } => {
                self.check_prob(hop, t, "drop probability", *prob);
            }
            TraceEvent::Dequeue { flow, sojourn, .. } => {
                if *sojourn < Duration::ZERO {
                    self.hop_violation(
                        hop,
                        t,
                        &format!("negative sojourn {sojourn} on flow {}", flow.idx()),
                    );
                }
                let books = self.books(hop);
                books.qlen_pkts -= 1;
                let qlen = books.qlen_pkts;
                let strict = books.baseline_pkts == 0;
                let f = books.counts.flow(*flow);
                if qlen < 0 {
                    self.hop_violation(
                        hop,
                        t,
                        "queue depth went negative (dequeue with nothing queued)",
                    );
                }
                // This event is counted below, so compare with ≥.
                if strict && f.dequeued >= f.enqueued {
                    self.hop_violation(
                        hop,
                        t,
                        &format!(
                            "flow {}: dequeue #{} but only {} admissions",
                            flow.idx(),
                            f.dequeued + 1,
                            f.enqueued
                        ),
                    );
                }
            }
        }
        self.books(hop).counts.count(ev);
    }

    fn on_hop_aqm_state(&mut self, hop: u32, t: Time, st: &AqmState) {
        if t < self.last_probe_t {
            self.hop_violation(
                hop,
                t,
                &format!("AQM probe clock went backwards (previous probe at {})", self.last_probe_t),
            );
        }
        self.last_probe_t = t;
        self.probes_seen += 1;
        self.check_prob(hop, t, "p_prime", st.p_prime);
        self.check_prob(hop, t, "prob", st.prob);
        self.check_prob(hop, t, "scalable_prob", st.scalable_prob);
        for (name, v) in [("alpha_term", st.alpha_term), ("beta_term", st.beta_term)] {
            if !v.is_finite() {
                self.hop_violation(hop, t, &format!("{name} = {v} is not finite"));
            }
        }
        if !st.est_rate_bytes_per_sec.is_finite() || st.est_rate_bytes_per_sec < 0.0 {
            self.hop_violation(
                hop,
                t,
                &format!("estimated departure rate {} is negative", st.est_rate_bytes_per_sec),
            );
        }
        if st.qdelay < Duration::ZERO {
            self.hop_violation(hop, t, &format!("negative probed queue delay {}", st.qdelay));
        }
        if st.burst_allowance < Duration::ZERO {
            self.hop_violation(hop, t, &format!("negative burst allowance {}", st.burst_allowance));
        }
        // The squaring expectation describes the primary bottleneck's
        // AQM; other hops may run any family.
        if let (0, Some(cap)) = (hop, self.squared_cap) {
            let want = (st.p_prime * st.p_prime).min(cap);
            if (st.prob - want).abs() > EPS {
                self.hop_violation(
                    hop,
                    t,
                    &format!(
                        "squaring law broken: prob = {} but min(p_prime², cap) = \
                         min({}², {cap}) = {want}",
                        st.prob, st.p_prime
                    ),
                );
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn enq(t: u64, flow: u32, seq: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            t: Time::from_millis(t),
            flow: FlowId(flow),
            seq,
            ecn: Ecn::NotEct,
        }
    }

    fn deq(t: u64, flow: u32, seq: u64) -> TraceEvent {
        TraceEvent::Dequeue {
            t: Time::from_millis(t),
            flow: FlowId(flow),
            seq,
            sojourn: Duration::from_millis(1),
        }
    }

    /// Run `f`, which must trip the auditor seeded `seed`: the panic
    /// message, and the flight-recorder dump if the message names one. The
    /// dump is read and removed, so a passing test leaves no file behind;
    /// every test seeds its own auditor, so parallel tests never share a
    /// dump path.
    fn trip(seed: u64, f: impl FnOnce()) -> (String, Option<String>) {
        let path = std::env::temp_dir().join(format!("pi2_flight_seed{seed}.jsonl"));
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("auditor should have panicked");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string panic payload");
        let dump = msg.contains(&path.display().to_string()).then(|| {
            let dump = std::fs::read_to_string(&path).expect("the dump the message names");
            std::fs::remove_file(&path).expect("remove the dump");
            dump
        });
        assert!(!path.exists(), "{} left behind", path.display());
        (msg, dump)
    }

    #[test]
    fn clean_stream_passes_and_conserves() {
        let mut a = AuditSink::new(7).with_label("test");
        a.on_event(&enq(1, 0, 0));
        a.on_event(&enq(2, 1, 0));
        a.on_event(&deq(3, 0, 0));
        a.check_conservation(0, 1, Time::from_millis(3));
        assert_eq!(a.events_seen(), 3);
    }

    #[test]
    fn corrupted_counter_is_caught_with_a_replayable_seed() {
        // The seeded fault: a dequeue for a flow whose admission counter
        // never saw the packet — exactly what a corrupted counter or a
        // double-pop bug would produce.
        let seed = 0xDECAF_u64;
        let mut a = AuditSink::new(seed).with_label("pi2");
        a.on_event(&enq(1, 0, 0));
        let (msg, _) = trip(seed, || {
            a.on_event(&deq(2, 1, 0)); // flow 1 never enqueued anything
        });
        assert!(msg.contains("INVARIANT VIOLATION"), "{msg}");
        assert!(msg.contains(&format!("seed: {seed}")), "seed must be replayable: {msg}");
        assert!(msg.contains("flow 1"), "{msg}");
    }

    #[test]
    fn backwards_clock_is_a_violation() {
        let mut a = AuditSink::new(31);
        a.on_event(&enq(5, 0, 0));
        let (msg, _) = trip(31, || a.on_event(&enq(4, 0, 1)));
        assert!(msg.contains("clock went backwards"), "{msg}");
    }

    #[test]
    fn out_of_range_probability_is_a_violation() {
        let mut a = AuditSink::new(32);
        let (msg, _) = trip(32, || {
            a.on_event(&TraceEvent::Drop {
                t: Time::ZERO,
                flow: FlowId(0),
                seq: 0,
                prob: 1.5,
            });
        });
        assert!(msg.contains("outside [0, 1]"), "{msg}");
    }

    #[test]
    fn squaring_law_is_enforced_when_requested() {
        let mut a = AuditSink::new(33).expect_squared(0.25);
        let good = AqmState {
            p_prime: 0.3,
            prob: 0.09,
            ..AqmState::default()
        };
        a.on_aqm_state(Time::from_millis(32), &good);
        // Above the cap the applied probability must saturate at it.
        let capped = AqmState {
            p_prime: 0.9,
            prob: 0.25,
            ..AqmState::default()
        };
        a.on_aqm_state(Time::from_millis(64), &capped);
        let (msg, _) = trip(33, || {
            let bad = AqmState {
                p_prime: 0.3,
                prob: 0.3, // linear, not squared: a PIE probe on a PI2 path
                ..AqmState::default()
            };
            a.on_aqm_state(Time::from_millis(96), &bad);
        });
        assert!(msg.contains("squaring law broken"), "{msg}");
    }

    #[test]
    fn conservation_mismatch_is_a_violation() {
        let mut a = AuditSink::new(34);
        a.on_event(&enq(1, 0, 0));
        a.on_event(&enq(1, 0, 1));
        // Claim the queue is empty while two packets are unaccounted.
        let (msg, _) = trip(34, || a.check_conservation(0, 0, Time::from_millis(2)));
        assert!(msg.contains("conservation broken"), "{msg}");
        assert!(msg.contains("seed: 34"), "{msg}");
    }

    #[test]
    fn negative_queue_depth_is_a_violation() {
        let mut a = AuditSink::new(35);
        a.set_baseline_pkts(0, 0);
        let (msg, _) = trip(35, || a.on_event(&deq(1, 0, 0)));
        // Per-flow admission accounting trips first (a dequeue with no
        // admission) — both phrasings describe the same corruption.
        assert!(
            msg.contains("only 0 admissions") || msg.contains("queue depth went negative"),
            "{msg}"
        );
    }

    #[test]
    fn violation_dumps_the_flight_recorder_as_jsonl() {
        // Unique seed → unique default dump path, so this test needs no
        // env mutation (which would race parallel tests).
        let seed = 0xF11_887_u64;
        let mut a = AuditSink::new(seed);
        a.on_event(&enq(1, 0, 0));
        a.on_event(&enq(2, 0, 1));
        let (msg, dump) = trip(seed, || {
            a.on_event(&deq(3, 1, 0)); // flow 1 never enqueued anything
        });
        assert!(msg.contains("flight recorder"), "{msg}");
        let dump = dump.expect("the message names the dump");
        let lines: Vec<&str> = dump.lines().collect();
        // Two enqueues + the violating dequeue + the context record.
        assert_eq!(lines.len(), 4, "{dump}");
        assert!(lines[0].contains("\"ev\":\"enq\""));
        assert!(lines[0].ends_with(",\"hop\":0}"), "{dump}");
        assert!(lines[2].contains("\"ev\":\"deq\""), "violating event is last");
        assert!(lines[3].contains("\"ev\":\"violation\""));
        assert!(lines[3].contains(&format!("\"seed\":{seed}")));
    }

    #[test]
    fn each_hop_keeps_its_own_books() {
        let mut a = AuditSink::new(36);
        a.set_baseline_pkts(1, 1); // one packet predates the auditor at hop 1
        a.on_hop_event(1, &enq(1, 0, 0));
        a.on_hop_event(1, &deq(2, 0, 7));
        a.on_hop_event(1, &deq(3, 0, 0));
        a.check_conservation(1, 0, Time::from_millis(3));
        a.check_conservation(2, 0, Time::from_millis(3)); // a hop never seen is empty
        assert_eq!(a.events_seen(), 3);
        // Hop 1's admissions do not cover a departure at hop 2.
        let (msg, _) = trip(36, || a.on_hop_event(2, &deq(4, 0, 0)));
        assert!(msg.contains("hop 2: "), "{msg}");
        // Re-baselining restarts a hop's books: the counts seen so far no
        // longer enter its conservation sum.
        a.set_baseline_pkts(1, 4);
        a.check_conservation(1, 4, Time::from_millis(4));
    }

    #[test]
    fn mid_run_attach_uses_its_baseline() {
        let mut a = AuditSink::new(5);
        a.set_baseline_pkts(0, 2); // two packets predate the auditor
        a.on_event(&deq(1, 0, 0));
        a.on_event(&deq(2, 0, 1));
        a.check_conservation(0, 0, Time::from_millis(3));
    }
}
