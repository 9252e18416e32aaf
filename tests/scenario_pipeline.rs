//! One way to build a run: every experiment family fills a `Scenario`,
//! and `Scenario::build` is the only place its `Sim` is assembled.
//!
//! Before that, `isolation`, `dualq`, `shortflows`, `ablation`,
//! `appendix_a`, `topology` and the Curvy RED ablation (`pi2fig
//! abl_curvy`) each assembled a `Sim` by hand. The digests below were
//! captured from those hand builders at commit 096c7a5 (each printed the digest of its finished
//! `Sim` for one short cell), before any of them was converted. A
//! `Scenario`-built cell has to reproduce its hand-built run in everything
//! it computes: the always-on counters, every per-flow account, the bits
//! of every recorded sojourn (pooled and per flow), every completion and
//! every hop's per-flow egress bytes.
//!
//! Three pins were re-captured since: the FQ isolation cell, the DualPI2
//! cell and the DualPI2 topology cell, in the commit after 21d3ed2 (which
//! still reproduced the hand-built digests). That commit made a qdisc
//! commit to a packet when the link starts sending it (`Qdisc::start_tx`);
//! before, DualPI2 and FQ chose again at `pop`, so the link could send a
//! packet other than the one whose length it had serialised — an L packet
//! that arrived while a C packet was on the wire left before it.
//!
//! The DualPI2 topology pin moved once more when DualPI2 began deriving
//! its native L ramp from the rate of the hop it is built for: its two
//! 40 Mb/s access hops had kept the 1.2–2.4 ms ramp of the 20 Mb/s link
//! the config was made for, where RFC 9332's floor gives them 1–2 ms.

use pi2::aqm::{CurvyRedConfig, FqConfig, PieConfig, StepMarkConfig};
use pi2::experiments::topology::TopologyKind;
use pi2::experiments::{
    ablation, appendix_a, isolation, shortflows, topology, AqmKind, FlowGroup, RunResult,
    Scenario,
};
use pi2::prelude::*;

/// FNV-1a over little-endian `u64` words (the `tests/lazy_timers.rs`
/// recipe, plus the per-flow sojourns and the per-hop bytes).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let t = r.counters.totals();
    d.word(t.enqueued)
        .word(t.marked)
        .word(t.dropped)
        .word(t.dequeued)
        .word(r.counters.aqm_updates);
    for (i, f) in r.monitor.flows.iter().enumerate() {
        let c = r.counters.flow(FlowId(i as u32));
        d.word(f.sent_pkts)
            .word(c.dropped)
            .word(c.marked)
            .word(c.dequeued)
            .word(f.dequeued_bytes)
            .word(f.dequeued_bytes_postwarm)
            .word(f.delivered_pkts)
            .word(f.delivered_bytes);
        d.word(f.sojourn_ms.len() as u64);
        for &s in &f.sojourn_ms {
            d.word(u64::from(s.to_bits()));
        }
    }
    d.word(r.monitor.sojourn_ms.len() as u64);
    for &s in &r.monitor.sojourn_ms {
        d.word(u64::from(s.to_bits()));
    }
    d.word(r.monitor.completions.len() as u64);
    for &(flow, start, end) in &r.monitor.completions {
        d.word(u64::from(flow.0))
            .word(start.as_nanos())
            .word(end.as_nanos());
    }
    d.word(r.hop_flow_bytes.len() as u64);
    for hop in &r.hop_flow_bytes {
        for &b in hop {
            d.word(b);
        }
    }
    d.0
}

fn pinned(name: &str, sc: &Scenario, expected: u64) -> RunResult {
    let r = sc.run();
    let got = digest(&r);
    assert_eq!(
        got, expected,
        "{name}: the Scenario-built run is not its hand-built one (got {got:#018x})"
    );
    r
}

const RTT: Duration = Duration::from_millis(10);

#[test]
fn isolation_cells_are_pinned() {
    let fq = AqmKind::Fq(FqConfig::for_link(40_000_000));
    let r = pinned(
        "isolation::run_fq",
        &isolation::scenario(fq, 40_000_000, RTT, (1, 1), 6, 0xf0),
        0x5452_6a47_5799_66ac,
    );
    // The per-flow recording the family relies on is on.
    assert!(r.monitor.flows.iter().all(|f| !f.sojourn_ms.is_empty()));
    pinned(
        "isolation::run_coupled",
        &isolation::scenario(AqmKind::coupled_default(), 40_000_000, RTT, (1, 1), 6, 0xf0),
        0xd390_b5d3_a24f_125f,
    );
}

#[test]
fn dualq_cell_is_pinned() {
    let dualpi2 = AqmKind::dualq_default(40_000_000);
    pinned(
        "dualq::run",
        &isolation::scenario(dualpi2, 40_000_000, RTT, (1, 2), 6, 0xd0a1),
        0x1a71_9661_ffa8_19c4,
    );
}

#[test]
fn shortflows_cell_is_pinned() {
    let w = shortflows::WebWorkload {
        duration: Time::from_secs(20),
        ..shortflows::WebWorkload::heavy(0x11eb)
    };
    let r = pinned(
        "shortflows::run_one",
        &shortflows::scenario(AqmKind::pi2_default(), &w),
        0x5913_bc11_8c44_ab25,
    );
    assert_eq!(r.monitor.flows.len(), 149);
    assert_eq!(r.monitor.completions.len(), 148);
}

#[test]
fn bursty_pie_cells_are_pinned() {
    pinned(
        "ablation::bare_pie_bursts (full PIE)",
        &ablation::burst_scenario(PieConfig::paper_default(), 0xb1),
        0x481c_ade3_1fbd_1b71,
    );
    pinned(
        "ablation::bare_pie_bursts (bare PIE)",
        &ablation::burst_scenario(PieConfig::bare(), 0xb1),
        0xef31_59df_867c_3614,
    );
}

#[test]
fn fixed_probability_cells_are_pinned() {
    let delayed = TcpConfig {
        delayed_ack: true,
        ..TcpConfig::default()
    };
    pinned(
        "ablation::delayed_ack_constant",
        &appendix_a::law_scenario(CcKind::Cubic, EcnSetting::NotEcn, delayed, 0.02, 5),
        0xf25b_a9be_b800_b7dc,
    );
    pinned(
        "appendix_a::measure",
        &appendix_a::law_scenario(
            CcKind::Dctcp,
            EcnSetting::Scalable,
            TcpConfig::default(),
            0.1,
            1,
        ),
        0x016d_509f_ce50_d096,
    );
}

#[test]
fn step_and_probabilistic_marking_cells_are_pinned() {
    let step = pinned(
        "appendix_a::step_vs_probabilistic (step)",
        &appendix_a::marking_scenario(AqmKind::StepMark(StepMarkConfig::default()), 0x57e9),
        0x82c9_32b0_b01b_98c6,
    );
    // The second run marks at the fraction the first one realised.
    let marked = step.counters.flows()[0].marked;
    let p_step = marked as f64 / step.monitor.flows[0].sent_pkts.max(1) as f64;
    pinned(
        "appendix_a::step_vs_probabilistic (probabilistic)",
        &appendix_a::marking_scenario(AqmKind::FixedProb(p_step), 0x57e9 + 1),
        0x7a41_4a61_02de_a37e,
    );
}

#[test]
fn topology_cells_are_pinned_per_hop_bytes_included() {
    let r = pinned(
        "topology::run_one (parking-lot-3, PI2)",
        &topology::scenario_for(TopologyKind::ParkingLot3, AqmKind::pi2_default(), 7),
        0x2107_e51c_8f92_d93a,
    );
    assert_eq!(r.hop_flow_bytes.len(), 3);
    assert_eq!(r.monitor.flows.len(), 1134);
    let r = pinned(
        "topology::run_one (access-core-2, DualPI2)",
        &topology::scenario_for(
            TopologyKind::AccessCore2,
            AqmKind::dualq_default(20_000_000),
            7,
        ),
        0x3366_62d2_6a00_a34b,
    );
    assert_eq!(r.hop_flow_bytes.len(), 3);
    assert_eq!(r.monitor.flows.len(), 374);
}

/// The five-flow row of `pi2fig abl_curvy`.
#[test]
fn curvy_red_cell_is_pinned() {
    let mut sc = Scenario::new(AqmKind::Curvy(CurvyRedConfig::default()), 10_000_000);
    sc.tcp.push(FlowGroup::new(
        5,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "reno",
        Duration::from_millis(100),
    ));
    sc.duration = Time::from_secs(80);
    sc.warmup = Duration::from_secs(20);
    sc.seed = 0xc0;
    pinned("abl_curvy", &sc, 0xc9d5_e012_61a9_dce0);
}
