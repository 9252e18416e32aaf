//! AQM conformance suite: behavioural contracts every drop/mark policy in
//! this crate must uphold, run against each implementation uniformly.

use pi2_aqm::{
    CoupledPi2, CoupledPi2Config, CurvyRed, CurvyRedConfig, Pi, Pi2, Pi2Config, PiConfig, Pie,
    PieConfig, StepMark, StepMarkConfig,
};
use pi2_netsim::{Action, Aqm, Ecn, FlowId, Packet, QueueSnapshot};
use pi2_simcore::{Duration, Rng, Time};

fn all_aqms() -> Vec<Box<dyn Aqm>> {
    vec![
        Box::new(Pi2::new(Pi2Config::default())),
        Box::new(Pie::new(PieConfig::paper_default())),
        Box::new(Pie::new(PieConfig::bare())),
        Box::new(Pi::new(PiConfig::default())),
        Box::new(CoupledPi2::new(CoupledPi2Config::default())),
        Box::new(CurvyRed::new(CurvyRedConfig::default())),
        Box::new(StepMark::new(StepMarkConfig::default())),
    ]
}

fn snap(delay_ms: u64) -> QueueSnapshot {
    let bytes = (delay_ms * 1250) as usize; // 10 Mb/s
    QueueSnapshot {
        qlen_bytes: bytes,
        qlen_pkts: (bytes / 1500).max(if delay_ms == 0 { 0 } else { 3 }),
        link_rate_bps: 10_000_000,
        last_sojourn: (delay_ms > 0).then(|| Duration::from_millis(delay_ms as i64)),
    }
}

fn pkt(ecn: Ecn) -> Packet {
    Packet::data(FlowId(0), 0, 1500, ecn, Time::ZERO)
}

/// Drive periodic updates for `secs` of virtual time at a given delay.
fn settle(aqm: &mut dyn Aqm, delay_ms: u64, secs: u64) {
    let Some(iv) = aqm.update_interval() else {
        // Stateless AQMs settle through enqueues instead.
        let mut rng = Rng::new(1);
        for i in 0..(secs * 100) {
            aqm.on_enqueue(&pkt(Ecn::NotEct), &snap(delay_ms), Time::from_millis(10 * i), &mut rng);
        }
        return;
    };
    let mut t = Time::ZERO;
    let end = Time::from_secs(secs);
    while t < end {
        t += iv;
        aqm.update(&snap(delay_ms), t);
    }
}

/// Contract 1: an empty, idle queue must produce no congestion signals.
#[test]
fn no_signals_on_an_empty_queue() {
    for mut aqm in all_aqms() {
        settle(aqm.as_mut(), 0, 30);
        let mut rng = Rng::new(2);
        for _ in 0..500 {
            let d = aqm.on_enqueue(&pkt(Ecn::NotEct), &snap(0), Time::from_secs(31), &mut rng);
            assert_eq!(
                d.action,
                Action::Pass,
                "{} signals on an empty queue",
                aqm.name()
            );
        }
    }
}

/// Contract 2: sustained deep congestion must produce signals.
#[test]
fn sustained_congestion_produces_signals() {
    for mut aqm in all_aqms() {
        settle(aqm.as_mut(), 200, 60); // 200 ms standing queue
        let mut rng = Rng::new(3);
        let mut signals = 0;
        for i in 0..2000u64 {
            let d = aqm.on_enqueue(
                &pkt(Ecn::Ect1),
                &snap(200),
                Time::from_secs(60) + Duration::from_micros(i as i64),
                &mut rng,
            );
            if d.action != Action::Pass {
                signals += 1;
            }
        }
        assert!(
            signals > 20,
            "{}: only {signals}/2000 signals under 200 ms standing queue",
            aqm.name()
        );
    }
}

/// Contract 3: decisions never mark Not-ECT packets (they may only drop
/// or pass them).
#[test]
fn not_ect_is_never_marked() {
    for mut aqm in all_aqms() {
        settle(aqm.as_mut(), 100, 60);
        let mut rng = Rng::new(4);
        for i in 0..2000u64 {
            let d = aqm.on_enqueue(
                &pkt(Ecn::NotEct),
                &snap(100),
                Time::from_secs(60) + Duration::from_micros(i as i64),
                &mut rng,
            );
            assert_ne!(d.action, Action::Mark, "{} marked Not-ECT", aqm.name());
        }
    }
}

/// Contract 4: the reported decision probability is a valid probability.
#[test]
fn decision_probabilities_are_valid() {
    for mut aqm in all_aqms() {
        settle(aqm.as_mut(), 150, 60);
        let mut rng = Rng::new(5);
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1] {
            for i in 0..200u64 {
                let d = aqm.on_enqueue(
                    &pkt(ecn),
                    &snap(150),
                    Time::from_secs(60) + Duration::from_micros(i as i64),
                    &mut rng,
                );
                assert!(
                    (0.0..=1.0).contains(&d.prob) && d.prob.is_finite(),
                    "{}: prob {}",
                    aqm.name(),
                    d.prob
                );
            }
        }
    }
}

/// Contract 5: recovery — after congestion clears, the signal rate must
/// return to (near) zero.
#[test]
fn signals_stop_after_congestion_clears() {
    for mut aqm in all_aqms() {
        settle(aqm.as_mut(), 150, 60); // drive probability up
        settle(aqm.as_mut(), 0, 120); // then a long idle period
        let mut rng = Rng::new(6);
        let mut signals = 0;
        for i in 0..1000u64 {
            let d = aqm.on_enqueue(
                &pkt(Ecn::Ect1),
                &snap(1), // near-empty queue
                Time::from_secs(180) + Duration::from_micros(i as i64),
                &mut rng,
            );
            if d.action != Action::Pass {
                signals += 1;
            }
        }
        assert!(
            signals < 100,
            "{}: {signals}/1000 signals after recovery",
            aqm.name()
        );
    }
}

/// Contract 6: determinism — identical inputs and RNG seeds give
/// identical decision sequences.
#[test]
fn decisions_are_deterministic() {
    for (mut a, mut b) in all_aqms().into_iter().zip(all_aqms()) {
        settle(a.as_mut(), 80, 30);
        settle(b.as_mut(), 80, 30);
        let mut ra = Rng::new(7);
        let mut rb = Rng::new(7);
        for i in 0..500u64 {
            let t = Time::from_secs(30) + Duration::from_micros(i as i64);
            let da = a.on_enqueue(&pkt(Ecn::Ect0), &snap(80), t, &mut ra);
            let db = b.on_enqueue(&pkt(Ecn::Ect0), &snap(80), t, &mut rb);
            assert_eq!(da.action, db.action, "{} diverged", a.name());
        }
    }
}
