//! The monitor's per-packet columns, probabilities and sojourns, kept as
//! runs (`RunColumn`), against the plain `f32` column they replace and
//! against what a run's trace saw: lossless for every `AqmKind`, never
//! bigger than the plain column (Curvy RED, whose probability changes on
//! every packet, included), and on a 1 Gb/s link one or two orders of
//! magnitude smaller, however long the run. A routed flow's probability
//! column holds its first hop's verdicts, one per packet. The layout
//! restores to a column that goes on as the one that never stopped, and
//! refuses a bad repeat entry by type.

use pi2::aqm::{CurvyRedConfig, FqConfig, PiConfig, StepMarkConfig};
use pi2::experiments::topology::scenario_for;
use pi2::experiments::{AqmKind, FlowGroup, Scenario, TopologyKind};
use pi2::netsim::{RunColumn, TraceEvent, TraceSink};
use pi2::prelude::*;
use pi2::simcore::{Ckpt, CkptError, CkptReader, CkptWriter};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs of 1 to 5 samples from a small alphabet, zeros of both signs and
/// a NaN among it, so neighbouring runs may hold one value.
fn run_heavy_column(rng: &mut Rng, n: usize) -> Vec<f32> {
    let alphabet = [0.0, -0.0, 0.25, 0.5, f32::NAN, 1.0];
    let mut col = Vec::new();
    while col.len() < n {
        let v = alphabet[rng.range_u64(0, alphabet.len() as u64) as usize];
        col.extend(std::iter::repeat_n(v, rng.range_u64(1, 6) as usize));
    }
    col.truncate(n);
    col
}

fn column_of(samples: &[f32]) -> RunColumn {
    let mut col = RunColumn::default();
    samples.iter().for_each(|&v| col.push(v));
    col
}

fn bits_of<'a>(samples: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
    samples.into_iter().map(|v| v.to_bits()).collect()
}

/// The runs, bit for bit (a NaN equals itself here).
fn runs_of(col: &RunColumn) -> Vec<(u32, u32)> {
    col.runs().map(|(v, count)| (v.to_bits(), count)).collect()
}

#[test]
fn a_run_column_gives_back_every_sample_and_never_outgrows_the_plain_one() {
    let mut rng = Rng::new(3);
    for n in [0, 1, 2, 3, 4, 7, 100, 5000] {
        let plain = run_heavy_column(&mut rng, n);
        let col = column_of(&plain);
        assert_eq!(bits_of(&col), bits_of(&plain), "n={n}");
        assert_eq!((col.len(), col.is_empty()), (n, n == 0));
        assert!(col.bytes() <= 4 * n, "n={n}: {} bytes", col.bytes());
        // A stretch of equal bits is one item if three or more long, else
        // that many plain values.
        let mut want = Vec::new();
        for run in plain.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
            let (v, len) = (run[0].to_bits(), run.len());
            want.extend(if len >= 3 { vec![(v, len as u32)] } else { vec![(v, 1); len] });
        }
        assert_eq!(runs_of(&col), want, "n={n}");
    }
    // Constant: one value and one repeat entry. Alternating: plain values.
    let col = column_of(&[0.125; 1000]);
    assert_eq!((runs_of(&col), col.bytes()), (vec![(0.125f32.to_bits(), 1000)], 12));
    let col = column_of(&[0.0, 1.0].repeat(500));
    assert_eq!((col.runs().count(), col.bytes()), (1000, 4000));
}

fn save(col: &RunColumn) -> Vec<u8> {
    let mut w = CkptWriter::new();
    col.save_ckpt(&mut w);
    w.into_bytes()
}

fn restore(blob: &[u8]) -> Result<RunColumn, CkptError> {
    let mut col = column_of(&[9.0; 4]);
    let mut r = CkptReader::new(blob);
    col.restore_ckpt(&mut r)?;
    r.finish()?;
    Ok(col)
}

#[test]
fn a_restored_run_column_goes_on_as_the_one_that_never_stopped() {
    let mut rng = Rng::new(5);
    let plain = run_heavy_column(&mut rng, 3000);
    for cut in [0, 1, 2, 3, 1499, 2999] {
        let (head, tail) = plain.split_at(cut);
        let mut restored = restore(&save(&column_of(head))).expect("a saved column restores");
        assert_eq!(save(&restored), save(&column_of(head)), "cut {cut}");
        tail.iter().for_each(|&v| restored.push(v));
        assert_eq!(save(&restored), save(&column_of(&plain)), "cut {cut}");
    }
}

#[test]
fn a_run_column_refuses_a_bad_repeat_as_corrupt() {
    // The layout: the values, then the `(index, count)` repeat entries,
    // each a list behind its length.
    let blob = |repeats: &[(u32, u32)]| {
        let mut w = CkptWriter::new();
        w.usize(3);
        [0.5, 0.25, 0.5].into_iter().for_each(|v| w.f32(v));
        w.usize(repeats.len());
        for &(at, count) in repeats {
            w.u32(at);
            w.u32(count);
        }
        w.into_bytes()
    };
    let col = restore(&blob(&[(0, 3), (2, 7)])).expect("a good column restores");
    let want = [&[0.5; 3][..], &[0.25], &[0.5; 7]].concat();
    assert_eq!(bits_of(&col), bits_of(&want));
    for (repeats, what) in [
        (&[(0, 0)][..], "a zero count"),
        (&[(0, 2)][..], "a run of two"),
        (&[(2, 3), (0, 3)][..], "indices out of order"),
        (&[(1, 3), (1, 4)][..], "one index twice"),
        (&[(3, 3)][..], "an index past the values"),
        (&[(u32::MAX, 3)][..], "an index past the values"),
    ] {
        let got = restore(&blob(repeats));
        assert!(matches!(got, Err(CkptError::Corrupt(_))), "{what}: {repeats:?}: {got:?}");
    }
}

/// What the trace of a one-hop run saw after warm-up, in order: per flow,
/// each verdict (the probability's bits for a mark or a drop, `None` for a
/// pass, whose probability no trace event carries), and the sojourn of
/// each departure, run-wide and per flow, as the monitor's `f32` bits.
#[derive(Default)]
struct Verdicts {
    warm_at: Time,
    flows: Vec<Vec<Option<u32>>>,
    /// A mark waiting for the admission of the same packet.
    marked: Option<(FlowId, u64, f64)>,
    sojourns: Vec<u32>,
    flow_sojourns: Vec<Vec<u32>>,
}

impl Verdicts {
    fn note(&mut self, t: Time, flow: FlowId, verdict: Option<f64>) {
        if t >= self.warm_at {
            let i = flow.idx();
            if self.flows.len() <= i {
                self.flows.resize(i + 1, Vec::new());
            }
            self.flows[i].push(verdict.map(|p| (p as f32).to_bits()));
        }
    }
}

impl TraceSink for Verdicts {
    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Mark { flow, seq, prob, .. } => self.marked = Some((flow, seq, prob)),
            TraceEvent::Drop { t, flow, prob, .. } => self.note(t, flow, Some(prob)),
            TraceEvent::Enqueue { t, flow, seq, .. } => {
                let mark = self.marked.take();
                let prob = mark.map(|(f, s, p)| {
                    assert_eq!((f, s), (flow, seq), "a mark is followed by its admission");
                    p
                });
                self.note(t, flow, prob);
            }
            TraceEvent::Dequeue { t, flow, sojourn, .. } if t >= self.warm_at => {
                let bits = (sojourn.as_millis_f64() as f32).to_bits();
                self.sojourns.push(bits);
                let i = flow.idx();
                if self.flow_sojourns.len() <= i {
                    self.flow_sojourns.resize(i + 1, Vec::new());
                }
                self.flow_sojourns[i].push(bits);
            }
            TraceEvent::Dequeue { .. } => {}
        }
    }
}

fn dumbbell(kind: AqmKind, rate_bps: u64, flows: usize, secs: u64) -> Scenario {
    let mut sc = Scenario::new(kind, rate_bps);
    let rtt = Duration::from_millis(20);
    sc.tcp.push(FlowGroup::new(flows, CcKind::Cubic, EcnSetting::NotEcn, "cubic", rtt));
    sc.tcp.push(FlowGroup::new(flows, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt));
    sc.duration = Time::from_secs(secs);
    sc.warmup = Duration::from_secs(secs as i64 / 3);
    sc.seed = 41;
    sc
}

/// Samples per run over `cols`, and the check that no column is bigger
/// than the plain one.
fn samples_per_run<'a>(cols: impl IntoIterator<Item = &'a RunColumn>) -> f64 {
    let (mut samples, mut runs) = (0, 0);
    for col in cols {
        assert!(col.bytes() <= 4 * col.len(), "{} bytes for {} samples", col.bytes(), col.len());
        samples += col.len();
        runs += col.runs().count();
    }
    samples as f64 / runs.max(1) as f64
}

/// Every flow's probability column.
fn prob_columns(sim: &Sim) -> impl Iterator<Item = &RunColumn> {
    sim.core.monitor.flows.iter().map(|f| &f.prob_samples)
}

/// Every flow's sojourn column.
fn flow_sojourn_columns(sim: &Sim) -> impl Iterator<Item = &RunColumn> {
    sim.core.monitor.flows.iter().map(|f| &f.sojourn_ms)
}

/// Each flow's probability column, and the run-wide and per-flow sojourn
/// columns, expanded, are what the trace saw, bit for bit and in order.
#[test]
fn every_aqm_kinds_columns_expand_to_the_probabilities_its_trace_saw() {
    const RATE: u64 = 10_000_000;
    let kinds = [
        AqmKind::pie_default(),
        AqmKind::pi2_default(),
        AqmKind::Pi(PiConfig::default()),
        AqmKind::coupled_default(),
        AqmKind::TailDrop,
        AqmKind::dualq_default(RATE),
        AqmKind::Fq(FqConfig::for_link(RATE)),
        AqmKind::Curvy(CurvyRedConfig::default()),
        AqmKind::FixedProb(0.02),
        AqmKind::StepMark(StepMarkConfig::default()),
    ];
    for kind in kinds {
        let name = kind.name();
        let mut sc = dumbbell(kind, RATE, 2, 6);
        sc.per_flow_sojourns = true;
        let verdicts = Rc::new(RefCell::new(Verdicts {
            warm_at: Time::ZERO + sc.warmup,
            ..Verdicts::default()
        }));
        let mut sim = sc.build().expect("a dumbbell builds");
        sim.core.add_trace_sink(Box::new(Rc::clone(&verdicts)));
        sim.run_until(sc.duration);
        let per_run = samples_per_run(prob_columns(&sim));
        let sojourns_per_run = samples_per_run([&sim.core.monitor.sojourn_ms]);
        // For its check that no per-flow column outgrows the plain one.
        samples_per_run(flow_sojourn_columns(&sim));
        let verdicts = verdicts.borrow();
        let whole = bits_of(&sim.core.monitor.sojourn_ms);
        assert_eq!(whole, verdicts.sojourns, "{name}: the run-wide sojourns");
        assert!(whole.len() > 2_000, "{name}: only {} sojourns", whole.len());
        let (mut samples, mut signals) = (0, 0);
        for (i, f) in sim.core.monitor.flows.iter().enumerate() {
            let seen = verdicts.flow_sojourns.get(i).map_or(&[][..], Vec::as_slice);
            assert_eq!(bits_of(&f.sojourn_ms), seen, "{name}: flow {i}'s sojourns");
            let seen = verdicts.flows.get(i).map_or(&[][..], Vec::as_slice);
            let col = bits_of(&f.prob_samples);
            assert_eq!(col.len(), seen.len(), "{name}: flow {i}'s sample count");
            samples += col.len();
            for (at, (&got, &want)) in col.iter().zip(seen).enumerate() {
                if let Some(want) = want {
                    assert_eq!(got, want, "{name}: flow {i}, sample {at}");
                    signals += 1;
                }
            }
        }
        assert!(samples > 2_000, "{name}: only {samples} samples");
        eprintln!(
            "{name}: {samples} samples, {per_run:.1} per run, {signals} signals checked; \
             {} sojourns, {sojourns_per_run:.1} per run",
            whole.len()
        );
    }
}

#[test]
fn a_curvy_red_column_is_no_bigger_than_the_plain_one() {
    let sc = dumbbell(AqmKind::Curvy(CurvyRedConfig::default()), 40_000_000, 1, 6);
    let mut sim = sc.build().expect("a dumbbell builds");
    sim.run_until(sc.duration);
    // The probability follows the instantaneous queue: neighbours differ.
    let per_run = samples_per_run(prob_columns(&sim));
    assert!(per_run < 1.5, "{per_run:.2} samples per run");
    let samples: usize = sim.core.monitor.flows.iter().map(|f| f.prob_samples.len()).sum();
    assert!(samples > 10_000, "only {samples} samples");
}

/// The bytes of `cols` over those of the plain columns they replace.
fn share_of_plain<'a>(cols: impl IntoIterator<Item = &'a RunColumn>) -> f64 {
    let (mut bytes, mut samples) = (0, 0);
    for col in cols {
        (bytes, samples) = (bytes + col.bytes(), samples + col.len());
    }
    bytes as f64 / (4 * samples.max(1)) as f64
}

#[test]
fn a_gigabit_coupled_cell_keeps_fifty_samples_per_run_and_longer_runs_keep_as_many() {
    // The bulk cell: coupled PI2 at 1 Gb/s, 10 Cubic + 10 DCTCP at 20 ms.
    // 2 667 packets reach the link between two 32 ms updates; each of the
    // 20 flows sees the probability of an update on about 130 of them, and
    // the ACK-clocked standing queue hands runs of packets one sojourn.
    for secs in [3, 9] {
        let mut sc = dumbbell(AqmKind::coupled_default(), 1_000_000_000, 10, secs);
        sc.per_flow_sojourns = true;
        let mut sim = sc.build().expect("a dumbbell builds");
        sim.run_until(sc.duration);
        let per_run = samples_per_run(prob_columns(&sim));
        assert!(per_run >= 50.0, "{secs} s: {per_run:.1} probabilities per run");
        let whole = &sim.core.monitor.sojourn_ms;
        let shares = [
            ("probability", share_of_plain(prob_columns(&sim))),
            ("run-wide sojourn", share_of_plain([whole])),
            ("per-flow sojourn", share_of_plain(flow_sojourn_columns(&sim))),
        ];
        eprintln!("{secs} s: {} sojourns, {shares:?}", whole.len());
        for (what, share) in shares {
            assert!(share < 1.0 / 20.0, "{secs} s: the {what} columns take {share:.3} of the plain");
        }
    }
}

/// A packet crossing three hops meets three controllers; its flow's
/// column keeps the first one's probability, so it holds one sample per
/// packet the flow sent after warm-up, while its drop and mark counts
/// take every hop's signal.
#[test]
fn a_routed_flows_probability_column_holds_one_sample_per_packet_sent() {
    let sc = scenario_for(TopologyKind::ParkingLot3, AqmKind::pi2_default(), 9);
    let r = sc.run();
    let signals: u64 = r.monitor.flows.iter().map(|f| f.dropped_postwarm + f.marked_postwarm).sum();
    assert!(signals > 0, "the cell must signal for its counts to mean anything");
    for (i, f) in r.monitor.flows.iter().enumerate() {
        let sent = f.sent_pkts_postwarm as usize;
        assert_eq!(f.prob_samples.len(), sent, "flow {i} ({}): samples against sends", f.label);
    }
    let long = &r.monitor.flows[0];
    eprintln!(
        "flow 0: {} samples, {:.1} per run",
        long.prob_samples.len(),
        samples_per_run([&long.prob_samples])
    );
}
