//! The monitor's probability columns, kept as runs (`RunColumn`), against
//! the plain `f32` column they replace and against what a run's trace saw:
//! lossless for every `AqmKind`, never bigger than the plain column (Curvy
//! RED, whose probability changes on every packet, included), and on a
//! 1 Gb/s link about two orders of magnitude smaller, however long the run.
//! Their checkpoint layout restores to a column that goes on as the one
//! that never stopped, and refuses a bad repeat entry by type.

use pi2::aqm::{CurvyRedConfig, FqConfig, PiConfig, StepMarkConfig};
use pi2::experiments::{AqmKind, FlowGroup, Scenario};
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

fn bits_of(samples: impl Iterator<Item = f32>) -> Vec<u32> {
    samples.map(f32::to_bits).collect()
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
        assert_eq!(bits_of(col.iter()), bits_of(plain.iter().copied()), "n={n}");
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
    assert_eq!(bits_of(col.iter()), bits_of(want.into_iter()));
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

/// Per flow, the post-warm-up verdicts at the bottleneck in order: the
/// probability's bits for a mark or a drop, `None` for a pass (whose
/// probability no trace event carries).
struct Verdicts {
    warm_at: Time,
    flows: Vec<Vec<Option<u32>>>,
    /// A mark waiting for the admission of the same packet.
    marked: Option<(FlowId, u64, f64)>,
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

/// Samples per run over every flow of a run, and the check that no
/// column is bigger than the plain one.
fn samples_per_run(sim: &Sim) -> f64 {
    let (mut samples, mut runs) = (0, 0);
    for f in &sim.core.monitor.flows {
        let col = &f.prob_samples;
        assert!(col.bytes() <= 4 * col.len(), "{} bytes for {} samples", col.bytes(), col.len());
        samples += col.len();
        runs += col.runs().count();
    }
    samples as f64 / runs.max(1) as f64
}

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
        let sc = dumbbell(kind, RATE, 2, 6);
        let verdicts = Rc::new(RefCell::new(Verdicts {
            warm_at: Time::ZERO + sc.warmup,
            flows: Vec::new(),
            marked: None,
        }));
        let mut sim = sc.build().expect("a dumbbell builds");
        sim.core.add_trace_sink(Box::new(Rc::clone(&verdicts)));
        sim.run_until(sc.duration);
        let per_run = samples_per_run(&sim);
        let verdicts = verdicts.borrow();
        let (mut samples, mut signals) = (0, 0);
        for (i, f) in sim.core.monitor.flows.iter().enumerate() {
            let seen = verdicts.flows.get(i).map_or(&[][..], Vec::as_slice);
            let col: Vec<u32> = f.prob_samples.iter().map(f32::to_bits).collect();
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
        eprintln!("{name}: {samples} samples, {per_run:.1} per run, {signals} signals checked");
    }
}

#[test]
fn a_curvy_red_column_is_no_bigger_than_the_plain_one() {
    let sc = dumbbell(AqmKind::Curvy(CurvyRedConfig::default()), 40_000_000, 1, 6);
    let mut sim = sc.build().expect("a dumbbell builds");
    sim.run_until(sc.duration);
    // The probability follows the instantaneous queue: neighbours differ.
    let per_run = samples_per_run(&sim);
    assert!(per_run < 1.5, "{per_run:.2} samples per run");
    let samples: usize = sim.core.monitor.flows.iter().map(|f| f.prob_samples.len()).sum();
    assert!(samples > 10_000, "only {samples} samples");
}

#[test]
fn a_gigabit_coupled_cell_keeps_fifty_samples_per_run_and_longer_runs_keep_as_many() {
    // 2 667 packets reach the link between two 32 ms updates; each of the
    // 20 flows sees the probability of an update on about 130 of them.
    for secs in [3, 9] {
        let sc = dumbbell(AqmKind::coupled_default(), 1_000_000_000, 10, secs);
        let mut sim = sc.build().expect("a dumbbell builds");
        sim.run_until(sc.duration);
        let per_run = samples_per_run(&sim);
        assert!(per_run >= 50.0, "{secs} s: {per_run:.1} samples per run");
    }
}
