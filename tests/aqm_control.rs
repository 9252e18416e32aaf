//! Cross-crate integration tests: do the AQMs actually control the queue
//! when driven by real TCP dynamics?

use pi2::prelude::*;

fn run_aqm(
    aqm: Box<dyn Aqm>,
    rate_bps: u64,
    rtt_ms: i64,
    flows: usize,
    cc: CcKind,
    ecn: EcnSetting,
    secs: u64,
    seed: u64,
) -> (pi2::netsim::Monitor, pi2::netsim::TraceCounts) {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps,
                buffer_bytes: 40_000 * 1500,
            },
            seed,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(secs as i64 / 4),
                ..MonitorConfig::default()
            },
        },
        aqm,
    );
    for _ in 0..flows {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            "tcp",
            Time::ZERO,
            move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default())),
        );
    }
    sim.run_until(Time::from_secs(secs));
    (sim.core.monitor.clone(), sim.core.counters.clone())
}

fn mean_sojourn_ms(m: &pi2::netsim::Monitor) -> f64 {
    let s = &m.sojourn_ms;
    assert!(!s.is_empty());
    s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64
}

#[test]
fn pi2_holds_reno_queue_near_target() {
    // 10 Mb/s, 100 ms RTT, 5 Reno flows — Figure 11a conditions.
    let (m, _) = run_aqm(
        Box::new(Pi2::new(Pi2Config::default())),
        10_000_000,
        100,
        5,
        CcKind::Reno,
        EcnSetting::NotEcn,
        100,
        1,
    );
    let mean = mean_sojourn_ms(&m);
    assert!(
        (5.0..45.0).contains(&mean),
        "PI2 mean queue delay {mean:.1} ms vs 20 ms target"
    );
    // Utilization must not be sacrificed.
    let util_samples = m.util_samples();
    let util: f64 = util_samples.iter().map(|&x| x as f64).sum::<f64>()
        / util_samples.len() as f64;
    assert!(util > 0.85, "utilization {util:.2}");
}

#[test]
fn pie_holds_reno_queue_near_target() {
    let (m, _) = run_aqm(
        Box::new(Pie::new(pi2::aqm::PieConfig::paper_default())),
        10_000_000,
        100,
        5,
        CcKind::Reno,
        EcnSetting::NotEcn,
        100,
        1,
    );
    let mean = mean_sojourn_ms(&m);
    assert!(
        (5.0..45.0).contains(&mean),
        "PIE mean queue delay {mean:.1} ms vs 20 ms target"
    );
}

#[test]
fn coupled_pi2_controls_dctcp() {
    let (m, counts) = run_aqm(
        Box::new(CoupledPi2::new(CoupledPi2Config::default())),
        10_000_000,
        20,
        2,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        60,
        2,
    );
    let mean = mean_sojourn_ms(&m);
    assert!(
        (2.0..45.0).contains(&mean),
        "coupled PI2 mean queue delay {mean:.1} ms"
    );
    // DCTCP must be controlled by marks, not drops.
    let f = counts.flows()[0];
    assert!(f.marked > 0, "expected ECN marks");
    assert_eq!(f.dropped, 0, "scalable traffic must not be AQM-dropped");
}

#[test]
fn taildrop_builds_a_standing_queue() {
    // Without an AQM the 60 MB buffer lets Reno build a huge queue —
    // the bufferbloat the paper's AQMs remove.
    let (m, _) = run_aqm(
        Box::new(PassAqm),
        10_000_000,
        100,
        5,
        CcKind::Reno,
        EcnSetting::NotEcn,
        60,
        3,
    );
    let mean = mean_sojourn_ms(&m);
    assert!(
        mean > 100.0,
        "tail-drop queue should be far above any AQM target, got {mean:.1} ms"
    );
}
