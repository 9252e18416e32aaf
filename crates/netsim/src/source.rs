//! Unresponsive traffic sources.
//!
//! The paper's "Mixture of TCP and UDP traffic" experiments (Figures 11c
//! and 14b) add two 6 Mb/s UDP flows to a 10 Mb/s bottleneck — deliberate
//! overload that exercises the AQM's maximum-probability cap and the
//! tail-drop backstop. [`UdpCbrSource`] reproduces that iperf-style
//! constant-bit-rate load.

use crate::packet::{Ecn, FlowId, Packet};
use crate::sim::{SimCore, Source, TimerKind};
use crate::timer::LazyTimer;
use pi2_simcore::{ckpt_fields, Duration, Time};

/// A constant-bit-rate UDP sender. It never reacts to congestion: packets
/// are emitted on a fixed tick regardless of drops, like `iperf -u`.
pub struct UdpCbrSource {
    id: FlowId,
    rate_bps: u64,
    pkt_size: usize,
    ecn: Ecn,
    seq: u64,
    active: bool,
    send_timer: LazyTimer,
}

impl UdpCbrSource {
    /// Create a CBR source sending `rate_bps` in packets of `pkt_size`
    /// bytes. UDP probes in the paper are Not-ECT, but the ECN field is
    /// configurable for overload tests on ECN traffic.
    pub fn new(id: FlowId, rate_bps: u64, pkt_size: usize, ecn: Ecn) -> Self {
        assert!(rate_bps > 0, "CBR rate must be positive");
        assert!(pkt_size > 0, "packet size must be positive");
        UdpCbrSource {
            id,
            rate_bps,
            pkt_size,
            ecn,
            seq: 0,
            active: false,
            send_timer: LazyTimer::new(id, TimerKind::Send),
        }
    }

    fn interval(&self) -> Duration {
        Duration::serialization(self.pkt_size, self.rate_bps)
    }

    fn send_and_rearm(&mut self, core: &mut SimCore) {
        let pkt = Packet::data(self.id, self.seq, self.pkt_size, self.ecn, core.now());
        self.seq += 1;
        core.send_packet(pkt);
        let interval = self.interval();
        self.send_timer.arm(core, interval);
    }
}

impl Source for UdpCbrSource {
    fn on_start(&mut self, core: &mut SimCore) {
        if self.active {
            return;
        }
        self.active = true;
        self.send_and_rearm(core);
    }

    fn on_stop(&mut self, _core: &mut SimCore) {
        self.active = false;
        self.send_timer.cancel();
    }

    fn on_deliver(&mut self, _pkt: Packet, _core: &mut SimCore) {
        // UDP has no feedback channel.
    }

    fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
        if kind == TimerKind::Send && self.send_timer.wake(core, id) {
            self.send_and_rearm(core);
        }
    }
}

ckpt_fields!(UdpCbrSource { seq, active, send_timer });

/// An on-off CBR source: bursts at `rate_bps` for `on` time, sleeps for
/// `off`, repeats. The workload PIE's burst allowance was designed for —
/// transient bursts arriving at an otherwise idle queue.
pub struct OnOffCbrSource {
    id: FlowId,
    rate_bps: u64,
    pkt_size: usize,
    on: Duration,
    off: Duration,
    seq: u64,
    active: bool,
    /// True while inside an ON period.
    bursting: bool,
    period_start: Time,
    send_timer: LazyTimer,
}

impl OnOffCbrSource {
    /// Create an on-off source (Not-ECT, like a hardware video burst).
    pub fn new(id: FlowId, rate_bps: u64, pkt_size: usize, on: Duration, off: Duration) -> Self {
        assert!(rate_bps > 0 && pkt_size > 0);
        assert!(on > Duration::ZERO && off >= Duration::ZERO);
        OnOffCbrSource {
            id,
            rate_bps,
            pkt_size,
            on,
            off,
            seq: 0,
            active: false,
            bursting: false,
            period_start: Time::ZERO,
            send_timer: LazyTimer::new(id, TimerKind::Send),
        }
    }

    fn interval(&self) -> Duration {
        Duration::serialization(self.pkt_size, self.rate_bps)
    }

    fn tick(&mut self, core: &mut SimCore) {
        let now = core.now();
        if self.bursting {
            if now.saturating_since(self.period_start) >= self.on {
                // Burst over: sleep until the next period.
                self.bursting = false;
                self.period_start = now;
                self.send_timer.arm(core, self.off);
                return;
            }
            let pkt = Packet::data(self.id, self.seq, self.pkt_size, Ecn::NotEct, now);
            self.seq += 1;
            core.send_packet(pkt);
            let interval = self.interval();
            self.send_timer.arm(core, interval);
        } else {
            // Waking from the OFF period.
            self.bursting = true;
            self.period_start = now;
            self.tick(core);
        }
    }
}

impl Source for OnOffCbrSource {
    fn on_start(&mut self, core: &mut SimCore) {
        if self.active {
            return;
        }
        self.active = true;
        self.bursting = true;
        self.period_start = core.now();
        self.tick(core);
    }

    fn on_stop(&mut self, _core: &mut SimCore) {
        self.active = false;
        self.send_timer.cancel();
    }

    fn on_deliver(&mut self, _pkt: Packet, _core: &mut SimCore) {}

    fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
        if kind == TimerKind::Send && self.send_timer.wake(core, id) {
            self.tick(core);
        }
    }
}

ckpt_fields!(OnOffCbrSource { seq, active, bursting, period_start, send_timer });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::PassAqm;
    use crate::queue::QueueConfig;
    use crate::sim::{PathConf, Sim, SimConfig};
    use pi2_simcore::Time;

    #[test]
    fn cbr_rate_is_accurate() {
        let mut sim = Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps: 100_000_000, // uncongested
                    buffer_bytes: usize::MAX,
                },
                ..SimConfig::default()
            },
            Box::new(PassAqm),
        );
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "udp",
            Time::ZERO,
            |id| Box::new(UdpCbrSource::new(id, 6_000_000, 1500, Ecn::NotEct)),
        );
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.monitor.flow(crate::packet::FlowId(0));
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 6.0).abs() < 0.05, "CBR rate {mbps} Mb/s");
    }

    #[test]
    fn onoff_duty_cycle_is_respected() {
        let mut sim = Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps: 100_000_000,
                    buffer_bytes: usize::MAX,
                },
                ..SimConfig::default()
            },
            Box::new(PassAqm),
        );
        // 8 Mb/s bursts, 100 ms on / 400 ms off => 20% duty => 1.6 Mb/s avg.
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "burst",
            Time::ZERO,
            |id| {
                Box::new(OnOffCbrSource::new(
                    id,
                    8_000_000,
                    1000,
                    Duration::from_millis(100),
                    Duration::from_millis(400),
                ))
            },
        );
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.monitor.flow(crate::packet::FlowId(0));
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 1.6).abs() < 0.15, "on-off average {mbps:.2} Mb/s");
    }

    #[test]
    fn stop_halts_emission() {
        let mut sim = Sim::new(SimConfig::default(), Box::new(PassAqm));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "udp",
            Time::ZERO,
            |id| Box::new(UdpCbrSource::new(id, 1_000_000, 1000, Ecn::NotEct)),
        );
        sim.stop_flow_at(id, Time::from_secs(1));
        sim.run_until(Time::from_secs(3));
        let sent_at_stop = sim.core.monitor.flow(id).sent_pkts;
        // ~125 packets in the first second, none after.
        assert!(sent_at_stop > 100 && sent_at_stop < 150, "{sent_at_stop}");
    }
}
