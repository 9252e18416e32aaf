//! Property-based tests for the packet-level substrate.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_netsim::{
    Action, Aqm, AuditSink, BottleneckQueue, Decision, Ecn, FlowId, ImpairStats, ImpairmentConf,
    LinkImpairments, MonitorConfig, Packet, PassAqm, PathConf, Qdisc, QueueConfig, QueueSnapshot,
    Sim, SimConfig, TraceEvent, UdpCbrSource,
};
use pi2_simcore::{Duration, Rng, Time};
use proptest::prelude::*;

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop_oneof![
        Just(Ecn::NotEct),
        Just(Ecn::Ect0),
        Just(Ecn::Ect1),
        Just(Ecn::Ce),
    ]
}

proptest! {
    /// Byte and packet accounting is exact under arbitrary offer/pop
    /// interleavings, and FIFO order is preserved.
    #[test]
    fn queue_accounting_invariant(
        ops in prop::collection::vec((any::<bool>(), 40usize..2000, arb_ecn()), 1..300),
        seed in any::<u64>(),
    ) {
        let mut q = BottleneckQueue::new(
            QueueConfig { rate_bps: 10_000_000, buffer_bytes: 100_000 },
            Box::new(PassAqm),
        );
        let mut rng = Rng::new(seed);
        let mut model: std::collections::VecDeque<(u64, usize)> = Default::default();
        let mut bytes = 0usize;
        let mut seq = 0u64;
        let mut t = Time::ZERO;
        for (push, size, ecn) in ops {
            t += Duration::from_micros(100);
            if push {
                let d = q.offer(Packet::data(FlowId(0), seq, size, ecn, t), t, &mut rng);
                match d.action {
                    Action::Pass | Action::Mark => {
                        model.push_back((seq, size));
                        bytes += size;
                    }
                    Action::Drop => {
                        // Only overflow can drop under PassAqm.
                        prop_assert!(bytes + size > 100_000);
                    }
                }
                seq += 1;
            } else if let Some((pkt, sojourn)) = q.pop(t) {
                let (mseq, msize) = model.pop_front().unwrap();
                prop_assert_eq!(pkt.seq, mseq);
                prop_assert_eq!(pkt.size, msize);
                prop_assert!(sojourn >= Duration::ZERO);
                bytes -= msize;
            }
            prop_assert_eq!(q.len_bytes(), bytes);
            prop_assert_eq!(q.len_pkts(), model.len());
        }
    }

    /// The queue never exceeds its byte limit, whatever is thrown at it.
    #[test]
    fn buffer_limit_never_exceeded(
        sizes in prop::collection::vec(40usize..3000, 1..200),
        limit in 5_000usize..50_000,
        seed in any::<u64>(),
    ) {
        let mut q = BottleneckQueue::new(
            QueueConfig { rate_bps: 1_000_000, buffer_bytes: limit },
            Box::new(PassAqm),
        );
        let mut rng = Rng::new(seed);
        for (i, size) in sizes.iter().enumerate() {
            q.offer(
                Packet::data(FlowId(0), i as u64, *size, Ecn::NotEct, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
            prop_assert!(q.len_bytes() <= limit);
        }
    }

    /// Snapshot fields are consistent with the queue's own accessors.
    #[test]
    fn snapshot_consistency(sizes in prop::collection::vec(100usize..1500, 0..50)) {
        let mut q = BottleneckQueue::new(QueueConfig::default(), Box::new(PassAqm));
        let mut rng = Rng::new(1);
        for (i, size) in sizes.iter().enumerate() {
            q.offer(
                Packet::data(FlowId(0), i as u64, *size, Ecn::NotEct, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
        }
        let s = q.snapshot();
        prop_assert_eq!(s.qlen_bytes, q.len_bytes());
        prop_assert_eq!(s.qlen_pkts, q.len_pkts());
        prop_assert_eq!(s.link_rate_bps, q.link().rate_bps());
    }
}

/// A probabilistic AQM for decision-frequency checks.
struct FixedP(f64);
impl Aqm for FixedP {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        _snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        if rng.chance(self.0) {
            if pkt.ecn.is_ect() {
                Decision::mark(self.0)
            } else {
                Decision::drop(self.0)
            }
        } else {
            Decision::pass(self.0)
        }
    }
    fn name(&self) -> &'static str {
        "fixedp"
    }
}
pi2_simcore::ckpt_fields!(FixedP {});

proptest! {
    /// Marks only ever touch ECT packets; drops only Not-ECT (for an AQM
    /// following the mark-if-possible convention), and CE-marking
    /// rewrites the field to CE.
    #[test]
    fn mark_rewrites_to_ce(p in 0.1f64..0.9, seed in any::<u64>(), ecn in arb_ecn()) {
        let mut q = BottleneckQueue::new(QueueConfig::default(), Box::new(FixedP(p)));
        let mut rng = Rng::new(seed);
        for i in 0..100u64 {
            let d = q.offer(
                Packet::data(FlowId(0), i, 1500, ecn, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
            match d.action {
                Action::Mark => prop_assert!(ecn.is_ect()),
                Action::Drop => prop_assert!(!ecn.is_ect()),
                Action::Pass => {}
            }
        }
        // Everything admitted after a Mark decision must carry CE.
        let mut t = Time::ZERO;
        while let Some((pkt, _)) = q.pop(t) {
            t += Duration::from_micros(1);
            if ecn.is_ect() {
                prop_assert!(pkt.ecn == Ecn::Ce || pkt.ecn == ecn);
            } else {
                prop_assert_eq!(pkt.ecn, Ecn::NotEct);
            }
        }
    }
}

/// Arbitrary per-direction impairments spanning loss, duplication and
/// reordering jitter (up to 8 ms ≫ the test link's packet spacing).
fn arb_impair() -> impl Strategy<Value = ImpairmentConf> {
    (0.0f64..0.3, 0.0f64..0.2, 0i64..8).prop_map(|(loss, dup, jitter_ms)| ImpairmentConf {
        loss,
        dup,
        jitter: Duration::from_millis(jitter_ms),
    })
}

/// Everything observable about a short UDP run, minus the weather
/// layer's own accounting.
type RunDigest = (
    Vec<(u64, u64, u64, u64, u64)>, // per-flow deq pkts/bytes, marked, dropped, delivered
    usize,                          // sojourn sample count
    (u64, u64, u64, u64),           // counting-sink totals
    Vec<(f64, f64)>,                // queue-delay series
);

/// Run a 2 s, 2-flow CBR dumbbell with the invariant auditor attached
/// (it panics on any conservation violation) and an optional weather
/// layer. CBR sources keep the bottleneck saturated so drops, marks and
/// the impairment paths all see traffic.
fn run_weather_sim(imp: Option<LinkImpairments>, seed: u64) -> (RunDigest, Option<ImpairStats>) {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 2_000_000,
                buffer_bytes: 30_000,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        Box::new(PassAqm),
    );
    sim.core.enable_audit(AuditSink::new(seed));
    if let Some(i) = imp {
        sim.core.set_impairments(i);
    }
    for _ in 0..2 {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "udp",
            Time::ZERO,
            |id| Box::new(UdpCbrSource::new(id, 1_500_000, 1000, Ecn::NotEct)),
        );
    }
    sim.run_until(Time::from_secs(2));
    let t = sim.core.counters.totals();
    let digest = (
        (sim.core.monitor.flows.iter().enumerate())
            .map(|(i, f)| {
                let c = sim.core.counters.flow(FlowId(i as u32));
                (c.dequeued, f.dequeued_bytes, c.marked, c.dropped, f.delivered_pkts)
            })
            .collect(),
        sim.core.monitor.sojourn_ms.len(),
        (t.enqueued, t.marked, t.dropped, t.dequeued),
        sim.core.monitor.qdelay_series(),
    );
    (digest, sim.core.impairments().map(|i| i.stats()))
}

proptest! {
    /// The same weather seed gives a bit-identical impaired run —
    /// including its loss/duplication accounting.
    #[test]
    fn same_weather_seed_is_bit_identical(
        conf in arb_impair(),
        seed in any::<u64>(),
        wseed in any::<u64>(),
    ) {
        let imp = LinkImpairments::new(wseed).symmetric(conf);
        prop_assert_eq!(
            run_weather_sim(Some(imp), seed),
            run_weather_sim(Some(imp), seed)
        );
    }

    /// An attached all-zero weather layer is exact identity: every
    /// observable matches the run with no layer at all (the layer's
    /// accounting still counts offered packets, but loses and
    /// duplicates none).
    #[test]
    fn zero_rate_weather_is_exact_identity(seed in any::<u64>(), wseed in any::<u64>()) {
        let off = LinkImpairments::new(wseed);
        let (with_layer, stats) = run_weather_sim(Some(off), seed);
        let (without, none) = run_weather_sim(None, seed);
        prop_assert_eq!(with_layer, without);
        prop_assert!(none.is_none());
        let s = stats.expect("layer was attached");
        prop_assert_eq!((s.fwd_lost, s.fwd_dup, s.rev_lost, s.rev_dup), (0, 0, 0, 0));
        prop_assert!(s.fwd_offered > 0, "traffic flowed through the layer");
    }

    /// Conservation under loss + reordering + duplication, with the
    /// auditor attached (it panics the run on any enqueue/dequeue or
    /// impairment-accounting violation): the layer's books balance, its
    /// offered count equals the bottleneck's dequeues, and deliveries
    /// never exceed survivors + duplicates (stragglers may still be in
    /// flight when the clock stops).
    #[test]
    fn conservation_holds_under_weather(
        conf in arb_impair(),
        seed in any::<u64>(),
        wseed in any::<u64>(),
    ) {
        let imp = LinkImpairments::new(wseed).symmetric(conf);
        let (digest, stats) = run_weather_sim(Some(imp), seed);
        let s = stats.expect("layer was attached");
        prop_assert_eq!(s.fwd_lost + s.fwd_passed(), s.fwd_offered);
        prop_assert_eq!(s.rev_lost + s.rev_passed(), s.rev_offered);
        let (flows, _, totals, _) = digest;
        prop_assert_eq!(s.fwd_offered, totals.3, "offered == dequeued");
        let delivered: u64 = flows.iter().map(|f| f.4).sum();
        prop_assert!(
            delivered <= s.fwd_passed() + s.fwd_dup,
            "delivered {} > passed {} + dup {}",
            delivered, s.fwd_passed(), s.fwd_dup
        );
        if conf.loss < 0.3 {
            prop_assert!(delivered > 0, "a sub-30% loss link still delivers");
        }
    }
}

/// A plain FIFO hop (tail-drop only) for chain-building.
fn fifo_hop(rate_bps: u64, buffer_bytes: usize) -> Box<dyn Qdisc> {
    Box::new(BottleneckQueue::new(
        QueueConfig {
            rate_bps,
            buffer_bytes,
        },
        Box::new(PassAqm),
    ))
}

/// Run a random 2–4-hop chain (one end-to-end CBR flow plus per-hop
/// cross traffic) with the invariant auditor attached — `run_until`
/// finishes with the per-hop conservation checks, panicking on any
/// admission/departure imbalance. Returns the per-hop egress bytes of
/// the end-to-end flow, first hop first.
fn run_chain_sim(hops: u32, rates_mbps: &[u64], seed: u64) -> Vec<u64> {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: rates_mbps[0] * 1_000_000,
                buffer_bytes: 200_000,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        Box::new(PassAqm),
    );
    sim.core.enable_audit(AuditSink::new(seed));
    for h in 1..hops {
        let id = sim.add_hop(
            fifo_hop(rates_mbps[h as usize] * 1_000_000, 200_000),
            Duration::from_millis(2),
        );
        assert_eq!(id, h);
    }
    let e2e = sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "e2e",
        Time::ZERO,
        |id| Box::new(UdpCbrSource::new(id, 800_000, 1000, Ecn::NotEct)),
    );
    sim.set_route(e2e, (0..hops).collect());
    for h in 1..hops {
        let cross = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "cross",
            Time::ZERO,
            |id| Box::new(UdpCbrSource::new(id, 500_000, 700, Ecn::NotEct)),
        );
        sim.set_route(cross, vec![h]);
    }
    sim.run_until(Time::from_secs(2));
    (0..hops)
        .map(|h| sim.core.hop_flow_bytes(h)[e2e.idx()])
        .collect()
}

proptest! {
    /// Per-hop packet conservation on random chains: the auditor's
    /// admission/departure books balance at every hop (a violation
    /// panics the run), the end-to-end flow's egress bytes can only
    /// shrink along its route (each hop forwards at most what the
    /// previous one emitted), and the whole chain is deterministic.
    #[test]
    fn chain_conservation_holds_per_hop(
        rates in prop::collection::vec(1u64..10, 4..5),
        hops in 2u32..5,
        seed in any::<u64>(),
    ) {
        let bytes = run_chain_sim(hops, &rates, seed);
        prop_assert_eq!(bytes.len(), hops as usize);
        prop_assert!(bytes[0] > 0, "the e2e flow moved no traffic");
        for w in bytes.windows(2) {
            prop_assert!(
                w[1] <= w[0],
                "downstream hop emitted more than it could have received: {:?}",
                &bytes
            );
        }
        prop_assert_eq!(run_chain_sim(hops, &rates, seed), bytes, "determinism");
    }
}

/// Integers of every digit count, with the values where a decimal writer
/// changes width (or sign, read as `i64`) visited often.
fn arb_decimal() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(9),
        Just(10),
        Just(99),
        Just(100),
        Just(999),
        Just(1_000),
        Just(999_999),
        Just(u64::from(u32::MAX)),
        Just(u64::MAX),
        Just(i64::MIN as u64),
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
    ]
}

/// Floats by bit pattern (subnormals, huge exponents, NaN payloads), with
/// the values the shortest-round-trip printer is known for.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0),
        Just(0.1 + 0.2),
        Just(1e-7),
        Just(1e21),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        any::<u64>().prop_map(f64::from_bits),
        0.0f64..1.0,
    ]
}

/// The trace formats as the sinks rendered them with `format!` before
/// they wrote into a reused buffer: the reference the writers must equal
/// byte for byte.
mod reference {
    use super::*;
    use pi2_netsim::AqmState;

    pub fn jsonl(ev: &TraceEvent) -> String {
        match *ev {
            TraceEvent::Enqueue { t, flow, seq, ecn } => format!(
                "{{\"ev\":\"enq\",\"t_ns\":{},\"flow\":{},\"seq\":{seq},\"ecn\":\"{ecn:?}\"}}",
                t.as_nanos(),
                flow.0
            ),
            TraceEvent::Mark { t, flow, seq, prob } => format!(
                "{{\"ev\":\"mark\",\"t_ns\":{},\"flow\":{},\"seq\":{seq},\"prob\":{prob}}}",
                t.as_nanos(),
                flow.0
            ),
            TraceEvent::Drop { t, flow, seq, prob } => format!(
                "{{\"ev\":\"drop\",\"t_ns\":{},\"flow\":{},\"seq\":{seq},\"prob\":{prob}}}",
                t.as_nanos(),
                flow.0
            ),
            TraceEvent::Dequeue { t, flow, seq, sojourn } => format!(
                "{{\"ev\":\"deq\",\"t_ns\":{},\"flow\":{},\"seq\":{seq},\"sojourn_ns\":{}}}",
                t.as_nanos(),
                flow.0,
                sojourn.as_nanos()
            ),
        }
    }

    pub fn csv(ev: &TraceEvent) -> String {
        match *ev {
            TraceEvent::Enqueue { t, flow, seq, ecn } => {
                format!("enq,{},{},{seq},{ecn:?},,,,,,,,,,", t.as_nanos(), flow.0)
            }
            TraceEvent::Mark { t, flow, seq, prob } => {
                format!("mark,{},{},{seq},,{prob},,,,,,,,,", t.as_nanos(), flow.0)
            }
            TraceEvent::Drop { t, flow, seq, prob } => {
                format!("drop,{},{},{seq},,{prob},,,,,,,,,", t.as_nanos(), flow.0)
            }
            TraceEvent::Dequeue { t, flow, seq, sojourn } => format!(
                "deq,{},{},{seq},,,{},,,,,,,,",
                t.as_nanos(),
                flow.0,
                sojourn.as_nanos()
            ),
        }
    }

    pub fn aqm_jsonl(t: Time, st: &AqmState) -> String {
        format!(
            "{{\"ev\":\"aqm\",\"t_ns\":{},\"p_prime\":{},\"prob\":{},\"scalable_prob\":{},\
             \"alpha_term\":{},\"beta_term\":{},\"burst_ns\":{},\"est_rate_Bps\":{},\"qdelay_ns\":{}}}",
            t.as_nanos(),
            st.p_prime,
            st.prob,
            st.scalable_prob,
            st.alpha_term,
            st.beta_term,
            st.burst_allowance.as_nanos(),
            st.est_rate_bytes_per_sec,
            st.qdelay.as_nanos()
        )
    }

    pub fn aqm_csv(t: Time, st: &AqmState) -> String {
        format!(
            "aqm,{},,,,,,{},{},{},{},{},{},{},{}",
            t.as_nanos(),
            st.p_prime,
            st.prob,
            st.scalable_prob,
            st.alpha_term,
            st.beta_term,
            st.burst_allowance.as_nanos(),
            st.est_rate_bytes_per_sec,
            st.qdelay.as_nanos()
        )
    }

    fn ts_us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn ms(d: Duration) -> String {
        let ns = d.as_nanos().max(0) as u64;
        format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
    }

    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    pub fn counter(hop: u32, t: Time, name: &str, value: &str) -> String {
        format!(
            "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":\"{name}\",\
             \"args\":{{\"value\":{value}}}}}",
            hop + 1,
            ts_us(t.as_nanos())
        )
    }

    /// The records an enqueue, its dequeue, a mark, a drop and one AQM
    /// probe at `hop` produce, in that order.
    pub fn perfetto_records(
        hop: u32,
        t: Time,
        flow: FlowId,
        sojourn: Duration,
        prob: f64,
        st: &AqmState,
    ) -> Vec<String> {
        let instant = |name: &str| {
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":100,\"tid\":{},\"ts\":{},\
                 \"name\":\"{name}\",\"args\":{{\"hop\":{hop},\"prob\":{}}}}}",
                u64::from(flow.0) + 1,
                ts_us(t.as_nanos()),
                num(prob)
            )
        };
        vec![
            counter(hop, t, "queue_depth_pkts", "1"),
            counter(hop, t, "queue_depth_pkts", "0"),
            counter(hop, t, "sojourn_ms", &ms(sojourn)),
            instant("mark"),
            instant("drop"),
            counter(hop, t, "qdelay_ms", &ms(st.qdelay)),
            counter(hop, t, "p_prime", &num(st.p_prime)),
            counter(hop, t, "prob", &num(st.prob)),
            counter(hop, t, "scalable_prob", &num(st.scalable_prob)),
        ]
    }
}

proptest! {
    /// The buffer writers behind every trace format equal the `format!`
    /// renderings they replaced: `{}` on unsigned and signed integers of
    /// every width, `{:03}` / `{:06}` in Perfetto's fixed-point stamps,
    /// and `{}` on any float bit pattern — non-finite values still print
    /// as `NaN` / `inf` in JSONL and CSV and as `0` in Perfetto.
    #[test]
    fn trace_writers_equal_the_format_reference(
        ints in (arb_decimal(), arb_decimal(), arb_decimal(), arb_decimal()),
        floats in (arb_float(), arb_float(), arb_float(), arb_float()),
        ecn in arb_ecn(),
        hop in 0u32..98,
    ) {
        use pi2_netsim::trace::{aqm_state_csv, aqm_state_jsonl};
        use pi2_netsim::{AqmState, PerfettoSink, TraceSink};

        let (t_ns, seq, span, flow) = ints;
        let t = Time::from_nanos(t_ns);
        let sojourn = Duration::from_nanos(span as i64);
        let (prob, p_prime, beta_term, est_rate) = floats;
        let events = |flow| [
            TraceEvent::Enqueue { t, flow, seq, ecn },
            TraceEvent::Dequeue { t, flow, seq, sojourn },
            TraceEvent::Mark { t, flow, seq, prob },
            TraceEvent::Drop { t, flow, seq, prob },
        ];
        for ev in &events(FlowId(flow as u32)) {
            prop_assert_eq!(ev.jsonl(), reference::jsonl(ev));
            prop_assert_eq!(ev.csv(), reference::csv(ev));
        }
        let st = AqmState {
            p_prime,
            prob,
            scalable_prob: -prob,
            alpha_term: p_prime * 1e9,
            beta_term,
            burst_allowance: Duration::from_nanos(seq as i64),
            est_rate_bytes_per_sec: est_rate,
            qdelay: sojourn,
        };
        prop_assert_eq!(aqm_state_jsonl(t, &st), reference::aqm_jsonl(t, &st));
        prop_assert_eq!(aqm_state_csv(t, &st), reference::aqm_csv(t, &st));

        // The Perfetto sink keeps a table indexed by flow id: keep it small.
        let flow = FlowId(flow as u32 % 512);
        let mut sink = PerfettoSink::new(Vec::new());
        for ev in &events(flow) {
            if hop == 0 { sink.on_event(ev) } else { sink.on_hop_event(hop, ev) }
        }
        if hop == 0 { sink.on_aqm_state(t, &st) } else { sink.on_hop_aqm_state(hop, t, &st) }
        let want = reference::perfetto_records(hop, t, flow, sojourn, prob, &st);
        prop_assert_eq!(sink.records(), want.len() as u64);
        let got = String::from_utf8(sink.into_inner()).expect("utf8");
        prop_assert_eq!(got, format!("{{\"traceEvents\":[\n{}", want.join(",\n")));
    }
}
