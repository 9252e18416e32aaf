//! Drivers for the packet engine's layers: `simcore`, the `netsim` pools,
//! qdiscs, event loop, hops and checkpoint codec, the `core` AQMs and the
//! `transport` scoreboards and ACK path.

use super::{Group, NS};
use crate::workloads::{build_sim, bulk_scenario};
use pi2_aqm::{
    CoupledPi2, CoupledPi2Config, DualPi2, DualPi2Config, FixedProb, FqConfig, FqDrr, Pi2,
    Pi2Config, Pie, PieConfig,
};
use pi2_experiments::AqmKind;
use pi2_netsim::{
    Aqm, Ecn, FlowId, MonitorConfig, Packet, PathConf, Pool, Qdisc, QueueConfig, QueueSnapshot,
    Sim, SimConfig, Topology,
};
use pi2_simcore::{Duration, EventQueue, Rng, Time};
use pi2_transport::seqset::SeqSet;
use pi2_transport::{CcKind, EcnSetting, RangeSet, TcpConfig, TcpSource};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Events in flight in the wheel drivers.
const WHEEL_PENDING: usize = 10_000;

/// Pop one event, push one `delay` later, `ops` times, over a wheel
/// holding [`WHEEL_PENDING`] events.
fn wheel_cycle(g: &mut Group, name: &'static str, delays_ns: &[u64]) {
    let ops = 200_000u64;
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut i = 0usize;
    let mut next_delay = || {
        i = (i + 1) % delays_ns.len();
        Duration::from_nanos(delays_ns[i] as i64)
    };
    for _ in 0..WHEEL_PENDING {
        q.push(Time::ZERO + next_delay(), 0);
    }
    g.per_op(name, NS, ops, || {
        for _ in 0..ops {
            let (t, ev) = q.pop().expect("the wheel never drains");
            q.push(t + next_delay(), ev);
        }
    });
}

pub fn wheel_and_pool(g: &mut Group) {
    let mut rng = Rng::new(1);
    // The delay mix of a bulk run: serialization, half an RTT each way,
    // the 32 ms controller tick and the occasional 200 ms RTO.
    let bulk: Vec<u64> = (0..4096)
        .map(|_| match rng.range_u64(0, 100) {
            0..=39 => 12_000,
            40..=89 => 10_000_000 + rng.range_u64(0, 1_000_000),
            90..=97 => 32_000_000,
            _ => 200_000_000,
        })
        .collect();
    wheel_cycle(g, "simcore.wheel.push_pop_ns", &bulk);
    // Timers a second or more out: the cascade and overflow-list path.
    let far: Vec<u64> = (0..4096)
        .map(|_| rng.range_u64(1_000_000_000, 10_000_000_000))
        .collect();
    wheel_cycle(g, "simcore.wheel.far_timer_ns", &far);

    let ops = 500_000u64;
    let mut pool: Pool<Packet> = Pool::new();
    let mut live: VecDeque<u32> = VecDeque::new();
    let pkt = |seq| Packet::data(FlowId(0), seq, 1500, Ecn::NotEct, Time::ZERO);
    for seq in 0..1000 {
        live.push_back(pool.insert(pkt(seq)));
    }
    g.per_op("netsim.pool.insert_take_ns", NS, ops, || {
        for seq in 0..ops {
            live.push_back(pool.insert(pkt(seq)));
            let h = live.pop_front().expect("occupancy is steady");
            black_box(pool.take(h));
        }
    });
}

/// 100 Mb/s link: a 200-packet standing queue is 24 ms, just above the
/// 20 ms target, so the controllers hold a small non-zero probability.
const QDISC_RATE_BPS: u64 = 100_000_000;
const STANDING_PKTS: u64 = 200;

/// Offer one packet, pop one, over a standing queue, with the controller
/// ticking every 32 ms of simulated time.
fn offer_pop(g: &mut Group, name: &'static str, mut q: Box<dyn Qdisc>) {
    let ops = 100_000u64;
    let ser = Duration::serialization(1500, QDISC_RATE_BPS);
    let mut rng = Rng::new(7);
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    let mut next_update = Time::ZERO;
    let mut offer = |q: &mut dyn Qdisc, now: Time| {
        seq += 1;
        let flow = (seq % 20) as u32;
        let ecn = if flow.is_multiple_of(2) {
            Ecn::NotEct
        } else {
            Ecn::Ect1
        };
        q.offer(
            Packet::data(FlowId(flow), seq, 1500, ecn, now),
            now,
            &mut rng,
        )
    };
    for _ in 0..STANDING_PKTS {
        offer(q.as_mut(), now);
    }
    g.per_op(name, NS, ops, || {
        for _ in 0..ops {
            now += ser;
            if now >= next_update {
                q.update(now);
                next_update = now + Duration::from_millis(32);
            }
            black_box(offer(q.as_mut(), now));
            black_box(q.pop(now));
        }
    });
}

pub fn qdiscs(g: &mut Group) {
    let queue = QueueConfig {
        rate_bps: QDISC_RATE_BPS,
        buffer_bytes: 40_000 * 1500,
    };
    for (name, aqm) in [
        ("netsim.qdisc.pi2.offer_pop_ns", AqmKind::pi2_default()),
        ("netsim.qdisc.pie.offer_pop_ns", AqmKind::pie_default()),
        (
            "netsim.qdisc.coupled.offer_pop_ns",
            AqmKind::coupled_default(),
        ),
        (
            "netsim.qdisc.dualpi2.offer_pop_ns",
            AqmKind::dualq_default(QDISC_RATE_BPS),
        ),
    ] {
        offer_pop(g, name, aqm.build_qdisc(queue));
    }
    offer_pop(
        g,
        "netsim.qdisc.fq.offer_pop_ns",
        Box::new(FqDrr::new(FqConfig::for_link(QDISC_RATE_BPS))),
    );
}

/// A 30-packet standing queue on 10 Mb/s, 21 ms of sojourn: the operating
/// point of the repo's `bench_aqm_decision`.
fn snapshot() -> QueueSnapshot {
    QueueSnapshot {
        qlen_bytes: 45_000,
        qlen_pkts: 30,
        link_rate_bps: 10_000_000,
        last_sojourn: Some(Duration::from_millis(21)),
    }
}

fn decide_and_update(g: &mut Group, decide: &'static str, update: &'static str, aqm: &mut dyn Aqm) {
    let ops = 200_000u64;
    let snap = snapshot();
    for _ in 0..50 {
        aqm.update(&snap, Time::ZERO);
    }
    let mut rng = Rng::new(1);
    let pkts = [
        Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO),
        Packet::data(FlowId(1), 0, 1500, Ecn::Ect1, Time::ZERO),
    ];
    g.per_op(decide, NS, ops, || {
        for i in 0..ops as usize {
            black_box(aqm.on_enqueue(black_box(&pkts[i & 1]), &snap, Time::ZERO, &mut rng));
        }
    });
    g.per_op(update, NS, ops, || {
        for _ in 0..ops {
            aqm.update(&snap, Time::ZERO);
        }
        black_box(aqm.control_variable());
    });
}

pub fn aqm_decisions(g: &mut Group) {
    decide_and_update(
        g,
        "core.pi2.decide_ns",
        "core.pi2.update_ns",
        &mut Pi2::new(Pi2Config::default()),
    );
    decide_and_update(
        g,
        "core.pie.decide_ns",
        "core.pie.update_ns",
        &mut Pie::new(PieConfig::paper_default()),
    );
    decide_and_update(
        g,
        "core.coupled.decide_ns",
        "core.coupled.update_ns",
        &mut CoupledPi2::new(CoupledPi2Config::default()),
    );

    // DualPI2 is a whole qdisc: its decision is taken inside `offer`. Time
    // offers in batches and pop the batch back out untimed.
    let (batches, batch) = (2_000u64, 64u64);
    let mut q = DualPi2::new(DualPi2Config::for_link(QDISC_RATE_BPS));
    let mut rng = Rng::new(1);
    let ser = Duration::serialization(1500, QDISC_RATE_BPS);
    let mut now = Time::ZERO;
    let mut seq = 0u64;
    for _ in 0..STANDING_PKTS {
        seq += 1;
        q.offer(
            Packet::data(FlowId(0), seq, 1500, Ecn::NotEct, now),
            now,
            &mut rng,
        );
    }
    for _ in 0..50 {
        now += Duration::from_millis(32);
        q.update(now);
    }
    let mut offers_s = Vec::new();
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..batch {
            seq += 1;
            let ecn = if seq.is_multiple_of(2) {
                Ecn::NotEct
            } else {
                Ecn::Ect1
            };
            black_box(q.offer(
                Packet::data(FlowId((seq % 20) as u32), seq, 1500, ecn, now),
                now,
                &mut rng,
            ));
        }
        offers_s.push(t0.elapsed().as_secs_f64());
        for _ in 0..batch {
            now += ser;
            black_box(q.pop(now));
        }
    }
    // One sample per fifth of the batches, like the other drivers' five.
    for chunk in offers_s.chunks(offers_s.len() / 5) {
        let offers = (chunk.len() as u64 * batch) as f64;
        g.raw(
            "core.dualpi2.decide_ns",
            chunk.iter().sum::<f64>() * NS / offers,
        );
    }
    let ops = 200_000u64;
    g.per_op("core.dualpi2.update_ns", NS, ops, || {
        for _ in 0..ops {
            q.update(now);
        }
        black_box(q.control_variable());
    });
}

/// 1 000 holes: every other block of five sequence numbers is present.
const HOLES: u64 = 1_000;

pub fn scoreboards(g: &mut Group) {
    let ops = 3 * HOLES;
    let mut base = RangeSet::new();
    for i in 0..HOLES {
        base.insert_range(10 * i, 10 * i + 5);
    }
    g.per_op_with(
        "transport.rangeset.op_ns",
        NS,
        ops,
        || base.clone(),
        |mut set| {
            for i in 0..HOLES {
                black_box(set.contains(10 * i + 3));
                black_box(set.first_at_or_after(10 * i + 5));
                black_box(set.insert(10 * i + 7));
            }
        },
    );
    let mut base = SeqSet::new();
    for i in 0..HOLES {
        base.insert(10 * i);
    }
    g.per_op_with(
        "transport.seqset.op_ns",
        NS,
        ops,
        || base.clone(),
        |mut set| {
            for i in 0..HOLES {
                black_box(set.contains(10 * i));
                black_box(set.first_at_or_after(10 * i + 1));
                black_box(set.insert(10 * i + 5));
            }
        },
    );
}

/// Profiled runs behind each loop number: the timing rule wants three
/// samples for a median.
const PROFILED_RUNS: usize = 3;

/// Enter the loop profiler's mean nanoseconds per event of one class (0 for
/// a class that never ran) as one sample, so that the group's calibration
/// rescales it like any other host time.
fn class_sample(g: &mut Group, name: &'static str, sim: &Sim, class: &str) {
    let rows = sim.profiler().expect("profiler enabled").rows();
    let row = rows.iter().find(|r| r.class == class);
    g.raw(name, row.map_or(0.0, |r| r.ns_per_event));
}

/// One Reno flow with a 300-packet window clamp on 1 Gb/s, through a
/// fixed-probability dropper: the ACK handler with a big window and
/// nothing to repair, and the same handler in permanent SACK recovery
/// (where 2 % loss holds the window to a handful of packets). The clean
/// number grows with the clamp (see the README's findings); 300 packets is
/// four times a `bulk_run` flow's window at a cost the traced pass affords.
pub fn tcp_ack_path(g: &mut Group, seed: u64) {
    // At 2 % loss the window is a handful of packets: simulate longer to
    // see as many ACKs.
    let cases = [
        ("transport.tcp.on_ack_clean_ns", 0.0, 2),
        (
            "transport.tcp.on_ack_recovery_ns",
            0.02,
            if g.quick { 10 } else { 60 },
        ),
    ];
    for (run, (name, loss, secs)) in (0..PROFILED_RUNS as u64).flat_map(|r| cases.map(|c| (r, c))) {
        let seed = seed.wrapping_add(run);
        let cfg = SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed,
            monitor: MonitorConfig::default(),
        };
        let mut sim = Sim::new(cfg, Box::new(FixedProb::new(loss)));
        let tcp = TcpConfig {
            max_cwnd: 300.0,
            ..TcpConfig::default()
        };
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "reno",
            Time::ZERO,
            move |id| Box::new(TcpSource::new(id, CcKind::Reno, EcnSetting::NotEcn, tcp)),
        );
        sim.enable_profiler();
        sim.run_until(Time::from_secs(secs));
        class_sample(g, name, &sim, "ack");
    }
}

/// The loop profiler's per-class cost on the benchmark-built `bulk_run`
/// simulator, and the packet pool's high-water mark of the same run.
pub fn event_loop(g: &mut Group, seed: u64) {
    let sc = bulk_scenario(seed, if g.quick { 1 } else { 2 });
    for _ in 0..PROFILED_RUNS {
        let mut sim = build_sim(&sc);
        sim.enable_profiler();
        sim.run_until(sc.duration);
        for (name, class) in [
            ("netsim.loop.dequeue_ns", "dequeue"),
            ("netsim.loop.deliver_ns", "deliver"),
            ("netsim.loop.ack_ns", "ack"),
            ("netsim.loop.timer_ns", "timer"),
            ("netsim.loop.aqm_update_ns", "aqm_update"),
            ("netsim.loop.sample_ns", "sample"),
        ] {
            class_sample(g, name, &sim, class);
        }
        g.exact(
            "netsim.pool.high_water",
            sim.core.packets.high_water() as f64,
        );
    }
}

/// Host seconds per event of two Cubic and two DCTCP flows over `hops`
/// 100 Mb/s PI2 hops in series (5 ms apart).
fn chain_s_per_event(seed: u64, hops: usize, secs: u64) -> f64 {
    let queue = QueueConfig {
        rate_bps: 100_000_000,
        buffer_bytes: 40_000 * 1500,
    };
    let aqm = AqmKind::pi2_default();
    let cfg = SimConfig {
        queue,
        seed,
        monitor: MonitorConfig::default(),
    };
    let mut sim = Sim::with_qdisc(cfg, aqm.build_qdisc(queue));
    let topo = Topology::parking_lot(hops, Duration::from_millis(5));
    topo.install(&mut sim.core, |_| aqm.build_qdisc(queue));
    for (cc, ecn) in [
        (CcKind::Cubic, EcnSetting::NotEcn),
        (CcKind::Dctcp, EcnSetting::Scalable),
    ] {
        for _ in 0..2 {
            let id = sim.add_flow(
                PathConf::symmetric(Duration::from_millis(40)),
                "long",
                Time::ZERO,
                move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default())),
            );
            sim.set_route(id, topo.path("e2e").to_vec());
        }
    }
    let t0 = Instant::now();
    sim.run_until(Time::from_secs(secs));
    t0.elapsed().as_secs_f64() / sim.core.events.popped() as f64
}

pub fn hop_cost(g: &mut Group, seed: u64) {
    let secs = if g.quick { 1 } else { 3 };
    let ratios: Vec<f64> = (0..3)
        .map(|_| chain_s_per_event(seed, 3, secs) / chain_s_per_event(seed, 1, secs))
        .collect();
    g.exact("netsim.hop.cost_ratio", pi2_bench::perf::median(&ratios));
}

/// `Sim::save` and `Sim::restore` of the `bulk_run` simulator one
/// simulated second in, when the monitor holds ~80 k packets of samples.
pub fn checkpoint(g: &mut Group, seed: u64) {
    let sc = bulk_scenario(seed, 1);
    let mut sim = build_sim(&sc);
    sim.run_until(sc.duration);
    let blob = sim.save();
    let mb = blob.len() as f64 / 1e6;
    g.exact("netsim.ckpt.blob_mb", mb);
    g.throughput_with(
        "netsim.ckpt.save_mb_s",
        mb,
        || (),
        |()| {
            black_box(sim.save());
        },
    );
    g.throughput_with(
        "netsim.ckpt.restore_mb_s",
        mb,
        || build_sim(&sc),
        |mut fresh| {
            fresh
                .restore(&blob)
                .expect("a blob restores into the build that saved it");
        },
    );
}
