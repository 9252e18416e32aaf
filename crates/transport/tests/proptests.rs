//! Property-based tests for the congestion controls and TCP machinery.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_netsim::{MonitorConfig, PassAqm, PathConf, QueueConfig, Sim, SimConfig};
use pi2_simcore::{Duration, Time};
use pi2_transport::seqset::SeqSet;
use pi2_transport::{CcKind, EcnSetting, RangeSet, TcpConfig, TcpSource};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_cc() -> impl Strategy<Value = CcKind> {
    prop_oneof![
        Just(CcKind::Reno),
        Just(CcKind::Cubic),
        Just(CcKind::Dctcp),
        Just(CcKind::ScalableHalfPkt),
    ]
}

/// One step of a scoreboard's life: what to do, where (as an offset into
/// the live window, so the edits follow the window up the sequence space
/// and the ring behind the set wraps), and how much.
fn arb_set_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..8, 0u64..10_000, 0u64..40), 1..1500)
}

/// The members of `model` in `[start, end)`, as maximal runs of absent
/// sequence numbers.
fn model_gaps(model: &BTreeSet<u64>, start: u64, end: u64) -> Vec<(u64, u64)> {
    let mut gaps: Vec<(u64, u64)> = Vec::new();
    for seq in (start..end).filter(|seq| !model.contains(seq)) {
        match gaps.last_mut() {
            Some(last) if last.1 == seq => last.1 += 1,
            _ => gaps.push((seq, seq + 1)),
        }
    }
    gaps
}

proptest! {
    /// `SeqSet` against a `BTreeSet` through a long recovery: appends at
    /// the tail, trims from the bottom, inserts and removals in the
    /// middle, one member or a run at a time.
    #[test]
    fn seqset_matches_a_btreeset_model(ops in arb_set_ops()) {
        let mut set = SeqSet::new();
        let mut model = BTreeSet::new();
        let (mut lo, mut hi) = (0u64, 0u64);
        for (kind, at, len) in ops {
            let inside = lo + at % (hi - lo + 3);
            match kind {
                0 | 1 => {
                    // Mark a run of holes just past everything marked.
                    let start = hi + at % 3;
                    set.insert_run(start, start + len % 8);
                    model.extend(start..start + len % 8);
                }
                2 => prop_assert_eq!(set.insert(inside), model.insert(inside)),
                3 => prop_assert_eq!(set.remove(inside), model.remove(&inside)),
                4 => {
                    set.insert_run(inside, inside + len % 8);
                    model.extend(inside..inside + len % 8);
                }
                5 => {
                    set.remove_range(inside, inside + len);
                    model.retain(|&m| m < inside || m >= inside + len);
                }
                _ => {
                    lo += at % 16;
                    set.remove_below(lo);
                    model.retain(|&m| m >= lo);
                }
            }
            hi = hi.max(lo).max(model.last().map_or(0, |&m| m + 1));
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.contains(inside), model.contains(&inside));
            prop_assert_eq!(
                set.first_at_or_after(inside),
                model.range(inside..).next().copied()
            );
        }
        prop_assert!(set.iter().copied().eq(model.iter().copied()));
        // What a checkpoint does: the members ascending, inserted again
        // in that order.
        let mut restored = SeqSet::new();
        for &seq in set.iter() {
            prop_assert!(restored.insert(seq));
        }
        prop_assert!(restored.iter().eq(set.iter()));
    }

    /// `RangeSet` against a `BTreeSet` the same way: arrivals at the tail,
    /// the lowest block consumed or trimmed, holes filled in the middle,
    /// blocks that absorb no, one or many ranges, and the walk over the
    /// gaps of a window.
    #[test]
    fn rangeset_matches_a_btreeset_model(ops in arb_set_ops()) {
        let mut set = RangeSet::new();
        let mut model = BTreeSet::new();
        let (mut lo, mut hi) = (0u64, 0u64);
        for (kind, at, len) in ops {
            let inside = lo + at % (hi - lo + 3);
            match kind {
                0 | 1 => {
                    // In-order arrival past a hole, or right behind the
                    // last arrival.
                    let seq = hi + at % 3;
                    prop_assert_eq!(set.insert(seq), model.insert(seq));
                }
                2 => prop_assert_eq!(set.insert(inside), model.insert(inside)),
                3 | 4 => {
                    set.insert_range(inside, inside + len);
                    model.extend(inside..inside + len);
                }
                5 => {
                    // Only a block that starts exactly there is taken.
                    let first = model.first().copied().unwrap_or(lo);
                    let start = first + at % 2;
                    let run = (first..).take_while(|seq| model.contains(seq)).count() as u64;
                    let expect = (start == first && run > 0).then_some((first, first + run));
                    prop_assert_eq!(set.take_leading(start), expect);
                    if expect.is_some() {
                        model.retain(|&m| m >= first + run);
                    }
                }
                6 => {
                    let found: Vec<_> = set.gaps(inside, inside + len).collect();
                    prop_assert_eq!(found, model_gaps(&model, inside, inside + len));
                }
                _ => {
                    lo += at % 16;
                    let below = model.range(..lo).count() as u64;
                    prop_assert_eq!(set.remove_below(lo), below);
                    model.retain(|&m| m >= lo);
                }
            }
            hi = hi.max(lo).max(model.last().map_or(0, |&m| m + 1));
            prop_assert_eq!(set.len(), model.len() as u64);
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.contains(inside), model.contains(&inside));
            prop_assert_eq!(set.find(inside).is_some(), model.contains(&inside));
            prop_assert_eq!(set.max(), model.last().copied());
            prop_assert_eq!(
                set.first_at_or_after(inside),
                model.range(inside..).next().copied()
            );
        }
        // Disjoint, ascending, never touching, and the same members.
        let ranges: Vec<_> = set.ranges().iter().copied().collect();
        prop_assert!(ranges.iter().all(|&(s, e)| s < e));
        prop_assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
        prop_assert_eq!(set.range_count(), ranges.len());
        let members = ranges.iter().flat_map(|&(s, e)| s..e);
        prop_assert!(members.eq(model.iter().copied()));
        // What a checkpoint does: the ranges ascending, inserted again in
        // that order.
        let mut restored = RangeSet::new();
        for &(s, e) in &ranges {
            restored.insert_range(s, e);
        }
        prop_assert_eq!(restored.ranges(), set.ranges());
        prop_assert_eq!(restored.len(), set.len());
    }

    /// Every congestion control keeps a positive, finite window under
    /// arbitrary event sequences.
    #[test]
    fn cwnd_always_positive_and_finite(
        kind in arb_cc(),
        events in prop::collection::vec(0u8..4, 1..400),
    ) {
        let mut cc = kind.build(10.0);
        let rtt = Duration::from_millis(50);
        let mut now = Time::ZERO;
        for e in events {
            now += Duration::from_millis(10);
            match e {
                0 => cc.on_ack(1, 0, 1, rtt, now),
                1 => cc.on_ack(1, 1, 1, rtt, now),
                2 => cc.on_loss(now),
                _ => cc.on_rto(now),
            }
            let w = cc.cwnd();
            prop_assert!(w.is_finite() && w > 0.0, "{}: cwnd {w}", cc.name());
            prop_assert!(cc.ssthresh() > 0.0);
        }
    }

    /// Growth monotonicity: ACKs without marks never shrink the window.
    #[test]
    fn acks_without_marks_never_shrink(kind in arb_cc(), n in 1u64..500) {
        let mut cc = kind.build(10.0);
        let rtt = Duration::from_millis(20);
        let mut now = Time::ZERO;
        let mut prev = cc.cwnd();
        for _ in 0..n {
            now += Duration::from_millis(1);
            cc.on_ack(1, 0, 1, rtt, now);
            // DCTCP's window-boundary bookkeeping runs on ACKs but must
            // not reduce the window when no marks ever arrived.
            prop_assert!(cc.cwnd() >= prev - 1e-9, "{} shrank", cc.name());
            prev = cc.cwnd();
        }
    }

    /// Congestion events reduce the window (down to the floor).
    #[test]
    fn losses_reduce_window(kind in arb_cc(), w0 in 10.0f64..1000.0) {
        let mut cc = kind.build(w0);
        cc.on_loss(Time::ZERO);
        prop_assert!(cc.cwnd() < w0 || w0 <= 2.0);
    }

    /// End-to-end delivery: every data-limited flow completes over a clean
    /// link, delivering each packet exactly once, for any (size, RTT).
    #[test]
    fn short_flow_always_completes(
        pkts in 1u64..400,
        rtt_ms in 1i64..200,
        kind in arb_cc(),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps: 50_000_000,
                    buffer_bytes: usize::MAX,
                },
                seed,
                monitor: MonitorConfig::default(),
            },
            Box::new(PassAqm),
        );
        let ecn = if kind.is_scalable() {
            EcnSetting::Scalable
        } else {
            EcnSetting::NotEcn
        };
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            "f",
            Time::ZERO,
            move |id| {
                Box::new(TcpSource::new(
                    id,
                    kind,
                    ecn,
                    TcpConfig {
                        data_limit: Some(pkts),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(120));
        let acc = sim.core.monitor.flow(id);
        prop_assert_eq!(acc.sent_pkts, pkts, "exactly the data limit sent");
        prop_assert_eq!(acc.delivered_pkts, pkts);
        prop_assert_eq!(sim.core.monitor.completions.len(), 1);
    }

    /// Lossy-path delivery: even with a tiny buffer, a flow eventually
    /// delivers all in-order data (retransmissions fill every hole).
    #[test]
    fn flow_survives_small_buffers(
        rtt_ms in 5i64..100,
        buffer_pkts in 5usize..40,
        seed in any::<u64>(),
    ) {
        let pkts = 300u64;
        let mut sim = Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps: 10_000_000,
                    buffer_bytes: buffer_pkts * 1500,
                },
                seed,
                monitor: MonitorConfig::default(),
            },
            Box::new(PassAqm),
        );
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            "f",
            Time::ZERO,
            move |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(pkts),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(300));
        let m = &sim.core.monitor;
        prop_assert_eq!(m.completions.len(), 1, "flow did not complete");
        prop_assert!(m.flow(id).delivered_pkts >= pkts);
    }
}
