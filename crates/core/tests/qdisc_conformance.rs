//! Qdisc conformance: structural contracts every queueing discipline
//! (FIFO bottleneck, DualPI2, FQ-DRR) must uphold.

use pi2_aqm::{DualPi2, DualPi2Config, FqConfig, FqDrr, Pi2, Pi2Config};
use pi2_netsim::{Action, BottleneckQueue, Ecn, FlowId, Packet, Qdisc, QueueConfig};
use pi2_simcore::{Duration, Rng, Time};

fn all_qdiscs() -> Vec<Box<dyn Qdisc>> {
    vec![
        Box::new(BottleneckQueue::new(
            QueueConfig {
                rate_bps: 10_000_000,
                buffer_bytes: 1_000_000,
            },
            Box::new(Pi2::new(Pi2Config::default())),
        )),
        Box::new(DualPi2::new(DualPi2Config {
            buffer_bytes: 1_000_000,
            ..DualPi2Config::for_link(10_000_000)
        })),
        Box::new(FqDrr::new(FqConfig {
            buffer_bytes: 1_000_000,
            per_flow_delay_cap: None,
            ..FqConfig::for_link(10_000_000)
        })),
    ]
}

fn mixed_packet(rng: &mut Rng, seq: u64) -> Packet {
    let ecn = match rng.range_u64(0, 3) {
        0 => Ecn::NotEct,
        1 => Ecn::Ect0,
        _ => Ecn::Ect1,
    };
    let flow = FlowId(rng.range_u64(0, 4) as u32);
    let size = 100 + rng.range_u64(0, 1400) as usize;
    Packet::data(flow, seq, size, ecn, Time::ZERO)
}

/// Contract 1: exact byte/packet conservation across arbitrary
/// offer/pop interleavings.
#[test]
fn qdisc_conserves_bytes_and_packets() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(11);
        let mut in_bytes: i64 = 0;
        let mut in_pkts: i64 = 0;
        let mut t = Time::ZERO;
        for i in 0..3000u64 {
            t += Duration::from_micros(300);
            if rng.chance(0.6) {
                let pkt = mixed_packet(&mut rng, i);
                let size = pkt.size as i64;
                let d = q.offer(pkt, t, &mut rng);
                if d.action != Action::Drop {
                    in_bytes += size;
                    in_pkts += 1;
                }
            } else if let Some((pkt, sojourn)) = q.pop(t) {
                in_bytes -= pkt.size as i64;
                in_pkts -= 1;
                assert!(sojourn >= Duration::ZERO);
            }
            assert_eq!(q.len_bytes() as i64, in_bytes, "{} bytes", q.stats().enqueued);
            assert_eq!(q.len_pkts() as i64, in_pkts);
        }
        // Drain completely.
        while q.pop(t).is_some() {
            t += Duration::from_micros(100);
        }
        assert_eq!(q.len_bytes(), 0);
        assert!(q.is_empty());
    }
}

/// Contract 2: the buffer limit binds.
#[test]
fn qdisc_respects_its_buffer() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(12);
        for i in 0..2000u64 {
            q.offer(
                Packet::data(FlowId(0), i, 1500, Ecn::NotEct, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
            assert!(q.len_bytes() <= 1_000_000);
        }
        assert!(q.stats().overflowed > 0 || q.stats().aqm_dropped > 0);
    }
}

/// Contract 3: pop on empty is None and harmless; rate changes apply.
#[test]
fn qdisc_edge_cases() {
    for mut q in all_qdiscs() {
        assert!(q.pop(Time::ZERO).is_none());
        assert_eq!(q.head_size(), None);
        assert_eq!(q.rate_bps(), 10_000_000);
        q.set_rate_bps(25_000_000);
        assert_eq!(q.rate_bps(), 25_000_000);
        assert!(q.monitor_delay() == Duration::ZERO);
        assert!(q.control_variable().is_finite());
    }
}

/// Contract 4: stats counters are consistent with observed behaviour.
#[test]
fn qdisc_stats_add_up() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(13);
        let mut admitted = 0u64;
        let mut t = Time::ZERO;
        for i in 0..500u64 {
            t += Duration::from_micros(500);
            let d = q.offer(mixed_packet(&mut rng, i), t, &mut rng);
            if d.action != Action::Drop {
                admitted += 1;
            }
        }
        assert_eq!(q.stats().enqueued, admitted);
        let mut popped = 0;
        while q.pop(t).is_some() {
            t += Duration::from_micros(100);
            popped += 1;
        }
        assert_eq!(q.stats().dequeued, popped);
        assert_eq!(q.stats().dequeued, admitted);
    }
}

/// Contract 5: the size `head_size()` announces is the size of the packet
/// the next `pop()` returns — the link serialises the announced length.
/// `FqDrr` (last in `all_qdiscs`) is left out: its `head_size` skips the
/// deficit top-ups that `pop` performs, by its own doc comment, and an
/// exact answer needs the qdisc to commit to a packet when transmission
/// starts (ROADMAP item 4).
#[test]
fn qdisc_announces_the_size_it_pops() {
    for mut q in all_qdiscs().into_iter().take(2) {
        let mut rng = Rng::new(14);
        let mut t = Time::ZERO;
        let mut pops = 0;
        for i in 0..6000u64 {
            t += Duration::from_micros(300);
            if rng.chance(0.55) {
                q.offer(mixed_packet(&mut rng, i), t, &mut rng);
            } else {
                let announced = q.head_size();
                let popped = q.pop(t).map(|(pkt, _)| pkt.size);
                assert_eq!(announced, popped, "pop {pops} at {t}");
                pops += 1;
            }
        }
        assert!(pops > 2000);
    }
}
