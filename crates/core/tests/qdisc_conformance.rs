//! Qdisc conformance: structural contracts every queueing discipline
//! (FIFO bottleneck, DualPI2, FQ-DRR) must uphold.

use pi2_aqm::{DualPi2, DualPi2Config, FqConfig, FqDrr, Pi2, Pi2Config};
use pi2_netsim::{Action, BottleneckQueue, Ecn, FlowId, Packet, Qdisc, QueueConfig};
use pi2_simcore::{CkptError, CkptReader, CkptWriter, Duration, Rng, Time};
use std::collections::HashMap;

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
/// offer/pop interleavings. Along the way the controller ticks, and the
/// control variable it reports is the `p'` of its probe.
#[test]
fn qdisc_conserves_bytes_and_packets() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(11);
        let mut in_bytes: i64 = 0;
        let mut in_pkts: i64 = 0;
        let mut t = Time::ZERO;
        let mut p_moved = false;
        for i in 0..3000u64 {
            t += Duration::from_micros(300);
            if i % 100 == 99 {
                q.update(t);
                let p_prime = q.probe().p_prime;
                assert_eq!(q.control_variable().to_bits(), p_prime.to_bits());
                p_moved |= p_prime > 0.0;
            }
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
            assert_eq!(q.len_bytes() as i64, in_bytes);
            assert_eq!(q.len_pkts() as i64, in_pkts);
        }
        // Drain completely.
        while q.pop(t).is_some() {
            t += Duration::from_micros(100);
        }
        assert_eq!((q.len_bytes(), q.len_pkts()), (0, 0));
        // A controller that ticks has moved off zero, so the equality
        // above compared a live p'.
        assert_eq!(p_moved, q.update_interval().is_some());
    }
}

/// Contract 2: the buffer limit binds, and an overflow is reported as a
/// drop with probability 1. (No controller has ticked, so every drop here
/// is an overflow.)
#[test]
fn qdisc_respects_its_buffer() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(12);
        let mut drops = 0;
        for i in 0..2000u64 {
            let d = q.offer(
                Packet::data(FlowId(0), i, 1500, Ecn::NotEct, Time::ZERO),
                Time::ZERO,
                &mut rng,
            );
            if d.action == Action::Drop {
                assert_eq!(d.prob, 1.0);
                drops += 1;
            }
            assert!(q.len_bytes() <= 1_000_000);
        }
        assert_eq!(drops, 2000 - 1_000_000 / 1500);
    }
}

/// Contract 3: pop on empty is None and harmless; rate changes apply.
#[test]
fn qdisc_edge_cases() {
    for mut q in all_qdiscs() {
        assert!(q.pop(Time::ZERO).is_none());
        assert_eq!(q.start_tx(), None);
        assert_eq!(q.link().rate_bps(), 10_000_000);
        q.link_mut().set_rate_bps(25_000_000);
        assert_eq!(q.link().rate_bps(), 25_000_000);
        assert!(q.monitor_delay() == Duration::ZERO);
        assert!(q.control_variable().is_finite());
    }
}

/// Contract 4: what the queue returns adds up — every admitted packet is
/// popped once, a Mark verdict leaves as CE, and the link counts exactly
/// the admitted bytes as sent.
#[test]
fn qdisc_stats_add_up() {
    for mut q in all_qdiscs() {
        let mut rng = Rng::new(13);
        let mut admitted = HashMap::new();
        let mut admitted_bytes = 0u64;
        let mut t = Time::ZERO;
        for i in 0..500u64 {
            t += Duration::from_micros(500);
            let pkt = mixed_packet(&mut rng, i);
            let size = pkt.size;
            let d = q.offer(pkt, t, &mut rng);
            if d.action != Action::Drop {
                admitted.insert(i, d.action);
                admitted_bytes += size as u64;
            }
        }
        let mut popped = 0;
        while let Some((pkt, _)) = q.pop(t) {
            t += Duration::from_micros(100);
            popped += 1;
            let verdict = admitted.remove(&pkt.seq).expect("popped once, after admission");
            if verdict == Action::Mark {
                assert_eq!(pkt.ecn, Ecn::Ce);
            }
        }
        assert!(popped > 0 && admitted.is_empty(), "{} never popped", admitted.len());
        assert_eq!(q.link().dequeued_bytes(), admitted_bytes);
    }
}

/// `SimCore`'s call order up to a departure: the link frees and `start_tx`
/// commits to a packet (on an idle link the next arrival restarts it),
/// then zero to two packets arrive while it is on the wire. Returns the
/// announced size and its serialisation time, with `t` moved to the end
/// of it.
fn start_and_offer(q: &mut dyn Qdisc, rng: &mut Rng, t: &mut Time, seq: &mut u64) -> (usize, Duration) {
    loop {
        if let Some(announced) = q.start_tx() {
            let ser = Duration::serialization(announced, q.link().rate_bps());
            for _ in 0..rng.range_u64(0, 3) {
                q.offer(mixed_packet(rng, *seq), *t + ser / 2, rng);
                *seq += 1;
            }
            *t += ser;
            return (announced, ser);
        }
        *t += Duration::from_micros(300);
        q.offer(mixed_packet(rng, *seq), *t, rng);
        *seq += 1;
    }
}

/// Contract 5: `pop` at the end of a serialisation returns the packet
/// `start_tx` committed to — the announced size, and a sojourn no shorter
/// than its own serialisation.
#[test]
fn qdisc_sends_the_packet_it_announced() {
    for mut q in all_qdiscs() {
        let (mut rng, mut t, mut seq) = (Rng::new(14), Time::ZERO, 0);
        for pops in 0..5000 {
            let (announced, ser) = start_and_offer(q.as_mut(), &mut rng, &mut t, &mut seq);
            let (pkt, sojourn) = q.pop(t).expect("a committed packet is queued");
            assert_eq!(pkt.size, announced, "pop {pops} at {t}");
            assert!(sojourn >= ser, "pop {pops} at {t}: sojourn {sojourn} < {ser}");
        }
    }
}

/// Contract 6: a checkpoint taken while a packet is on the wire restores
/// into a fresh qdisc that sends that packet next.
#[test]
fn a_restored_qdisc_sends_the_packet_on_the_wire() {
    for (i, mut q) in all_qdiscs().into_iter().enumerate() {
        let (mut rng, mut t, mut seq) = (Rng::new(15), Time::ZERO, 0);
        for pops in 0..2000 {
            start_and_offer(q.as_mut(), &mut rng, &mut t, &mut seq);
            let mut w = CkptWriter::new();
            q.save_ckpt(&mut w);
            let mut restored = all_qdiscs().swap_remove(i);
            restored.restore_ckpt(&mut CkptReader::new(&w.into_bytes())).expect("restores");
            let sent = q.pop(t).map(|(pkt, sojourn)| (pkt.flow, pkt.seq, sojourn));
            let resent = restored.pop(t).map(|(pkt, sojourn)| (pkt.flow, pkt.seq, sojourn));
            assert_eq!(sent, resent, "pop {pops} at {t}");
        }
    }
}

/// Contract 6, refused: a DualPI2 blob whose packet on the wire names an
/// empty queue would leave the link idle for good, so it does not restore.
#[test]
fn dualpi2_refuses_a_packet_on_the_wire_from_an_empty_queue() {
    let dualpi2 = || all_qdiscs().swap_remove(1);
    let mut q = dualpi2();
    let mut rng = Rng::new(16);
    q.offer(Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO), Time::ZERO, &mut rng);
    assert_eq!(q.start_tx(), Some(1500));
    let mut w = CkptWriter::new();
    q.save_ckpt(&mut w);
    let mut blob = w.into_bytes();
    assert!(dualpi2().restore_ckpt(&mut CkptReader::new(&blob)).is_ok());
    // The blob ends with which queue is on the wire: point it at the empty
    // L queue.
    *blob.last_mut().unwrap() = 1;
    assert!(matches!(
        dualpi2().restore_ckpt(&mut CkptReader::new(&blob)),
        Err(CkptError::Corrupt(_))
    ));
}
