//! ACK-clocked TCP sender/receiver machinery.
//!
//! One [`TcpSource`] holds both endpoints of a flow; the simulated network
//! between them is the event queue (data packets traverse the bottleneck,
//! ACKs return over the uncongested reverse path). The machinery provides
//! what the congestion-control algorithms in [`crate::cc`] assume from the
//! Linux stack:
//!
//! * sliding-window transmission clocked by cumulative ACKs;
//! * SACK-based loss recovery (RFC 2018/6675 scoreboard, as in the
//!   paper's Linux 3.18 testbed);
//! * RFC 6298 RTT estimation and exponential-backoff RTO;
//! * once-per-RTT gating of Classic congestion events (loss and ECE), with
//!   Scalable marks delivered per-ACK through cumulative CE counters;
//! * ECN negotiation: Classic flows send ECT(0), Scalable flows send
//!   ECT(1) (the paper's modified DCTCP).

use crate::cc::{CcKind, CongestionControl};
use crate::rangeset::RangeSet;
use crate::seqset::SeqSet;
use pi2_netsim::{Ack, Ecn, FlowId, LazyTimer, Packet, SimCore, Source, TimerKind};
use pi2_simcore::{ckpt_fields, Duration, Time};

/// A window in whole packets, at least one. `as u64` truncates and
/// `max(1.0)` absorbs a negative or NaN window, so no `floor` first: that
/// is a libm call per ACK and send at the x86-64 baseline (no SSE4.1).
fn whole_packets(window: f64) -> u64 {
    window.max(1.0) as u64
}

/// How the flow uses ECN.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EcnSetting {
    /// No ECN: congestion is signalled by drop only.
    NotEcn,
    /// Classic ECN (RFC 3168): packets carry ECT(0); a mark is treated
    /// like a loss, once per RTT.
    Classic,
    /// Scalable ECN: packets carry ECT(1); marks feed the per-ACK counters
    /// consumed by DCTCP-style controls.
    Scalable,
}

impl EcnSetting {
    fn codepoint(self) -> Ecn {
        match self {
            EcnSetting::NotEcn => Ecn::NotEct,
            EcnSetting::Classic => Ecn::Ect0,
            EcnSetting::Scalable => Ecn::Ect1,
        }
    }
}

/// Static TCP configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// On-wire segment size in bytes (all rates in the paper are measured
    /// on the wire, so headers are folded in).
    pub mss: usize,
    /// Initial congestion window in packets (Linux default 10).
    pub initial_cwnd: f64,
    /// RTO floor (Linux: 200 ms).
    pub min_rto: Duration,
    /// RTO ceiling.
    pub max_rto: Duration,
    /// Stop after sending this many packets (short flows); `None` for a
    /// long-running flow.
    pub data_limit: Option<u64>,
    /// Receive-window clamp in packets. The paper's footnote 5 describes a
    /// Linux bug capping the BDP at 1 MB; setting this low reproduces that
    /// artefact, the default leaves the window effectively unclamped.
    pub max_cwnd: f64,
    /// Delayed ACKs (RFC 1122): acknowledge every second in-order segment,
    /// with a 40 ms delayed-ACK timer, immediate ACKs on out-of-order or
    /// CE-marked data (the DCTCP receiver rule). Off by default — the
    /// idealized per-packet feedback matches the paper's Appendix A laws
    /// exactly; on, the effective CReno constant drops toward 1.19 (see
    /// the delayed-ACK ablation).
    pub delayed_ack: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1500,
            initial_cwnd: 10.0,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            data_limit: None,
            max_cwnd: 1e9,
            delayed_ack: false,
        }
    }
}

/// Delayed-ACK timer identifier (within [`TimerKind::User`]).
const DELACK_TIMER: u32 = 1;
/// Linux's delayed-ACK timeout.
const DELACK_DELAY: Duration = Duration::from_millis(40);

/// A TCP flow endpoint pair implementing [`Source`].
pub struct TcpSource {
    id: FlowId,
    cfg: TcpConfig,
    ecn: EcnSetting,
    cc: Box<dyn CongestionControl>,
    active: bool,

    // --- sender state ---
    snd_una: u64,
    snd_nxt: u64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    /// SACK scoreboard: sequences the receiver holds above `snd_una`.
    sacked: RangeSet,
    /// Sequences deemed lost (unsacked holes below the highest SACK; valid
    /// because the simulated path never reorders).
    lost: SeqSet,
    /// Lost sequences whose retransmission is currently in flight.
    rtx_out: SeqSet,
    /// Everything below this was already classified by `mark_lost_holes`,
    /// so each call scans only the newly-eligible window instead of
    /// re-walking the scoreboard from `snd_una`. Reset when the scoreboard
    /// restarts (RTO, recovery entry).
    lost_below: u64,
    /// `next_repair` cursor: every lost sequence below this is already in
    /// `rtx_out`, and nothing at or above it is. Reset with `lost_below`.
    repair_from: u64,
    /// Classic congestion events are ignored until `snd_una` passes this
    /// sequence (one reaction per window in flight — the RFC 5681 /
    /// RFC 3168 rule).
    cong_gate: u64,
    /// Re-armed on every ACK of new data; almost never comes due.
    rto_timer: LazyTimer,
    rto_backoff: u32,
    srtt: Option<Duration>,
    rttvar: Duration,
    base_rtt: Duration,
    /// Receiver counters as last seen by the sender, for per-ACK deltas.
    seen_ce_total: u64,
    seen_pkts_total: u64,

    // --- receiver state ---
    rcv_nxt: u64,
    ooo: RangeSet,
    ce_total: u64,
    pkts_total: u64,
    /// Delayed-ACK state: in-order segments received since the last ACK.
    unacked_segs: u32,
    /// ECE pending for the next ACK (a CE arrived since the last ACK).
    ece_pending: bool,
    /// Timestamp/retransmit echo pending for the next ACK.
    pending_echo: Option<(Time, bool)>,
    /// CE state of the previous data packet, for the DCTCP receiver's
    /// immediate-ACK-on-change rule.
    last_ce_state: bool,
    delack_timer: LazyTimer,

    /// Set when a size-limited flow finishes (all data acknowledged).
    pub completed_at: Option<Time>,
    started_at: Time,
}

impl TcpSource {
    /// Create a TCP flow with the given congestion control and ECN mode.
    ///
    /// The canonical pairings from the paper: `(Reno|Cubic, NotEcn)` for
    /// drop-based Classic, `(Cubic, Classic)` for ECN-Cubic, and
    /// `(Dctcp, Scalable)` for the modified DCTCP.
    pub fn new(id: FlowId, cc: CcKind, ecn: EcnSetting, cfg: TcpConfig) -> Self {
        TcpSource::with_cc(id, cc.build(cfg.initial_cwnd), ecn, cfg)
    }

    /// Create a TCP flow with a custom congestion-control instance.
    pub fn with_cc(
        id: FlowId,
        cc: Box<dyn CongestionControl>,
        ecn: EcnSetting,
        cfg: TcpConfig,
    ) -> Self {
        TcpSource {
            id,
            cfg,
            ecn,
            cc,
            active: false,
            snd_una: 0,
            snd_nxt: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            sacked: RangeSet::new(),
            lost: SeqSet::new(),
            rtx_out: SeqSet::new(),
            lost_below: 0,
            repair_from: 0,
            cong_gate: 0,
            rto_timer: LazyTimer::new(id, TimerKind::Rto),
            rto_backoff: 0,
            srtt: None,
            rttvar: Duration::ZERO,
            base_rtt: Duration::from_millis(100),
            seen_ce_total: 0,
            seen_pkts_total: 0,
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            ce_total: 0,
            pkts_total: 0,
            unacked_segs: 0,
            ece_pending: false,
            pending_echo: None,
            last_ce_state: false,
            delack_timer: LazyTimer::new(id, TimerKind::User(DELACK_TIMER)),
            completed_at: None,
            started_at: Time::ZERO,
        }
    }

    /// The current congestion window (packets), for observability.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Flow completion time of a size-limited flow: start-to-last-ACK
    /// elapsed time, `None` while data is still outstanding (or for an
    /// unlimited flow, which never completes).
    pub fn fct(&self) -> Option<Duration> {
        self.completed_at.map(|done| done - self.started_at)
    }

    /// The smoothed RTT estimate, if one exists.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    fn rtt_estimate(&self) -> Duration {
        self.srtt.unwrap_or(self.base_rtt)
    }

    fn rto(&self) -> Duration {
        let base = match self.srtt {
            Some(srtt) => srtt + (self.rttvar * 4).max(Duration::from_millis(1)),
            None => Duration::from_secs(1),
        };
        let backed = base * (1i64 << self.rto_backoff.min(16));
        backed.max(self.cfg.min_rto).min(self.cfg.max_rto)
    }

    fn sample_rtt(&mut self, sample: Duration) {
        // RFC 6298.
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = srtt - sample;
                let abs_err = if err.is_negative() { Duration::ZERO - err } else { err };
                self.rttvar = (self.rttvar * 3 + abs_err) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
    }

    fn arm_rto(&mut self, core: &mut SimCore) {
        let rto = self.rto();
        self.rto_timer.arm(core, rto);
    }

    /// RFC 6675 pipe estimate: packets believed to be in the network.
    /// `outstanding − sacked − (lost not yet retransmitted)`.
    fn pipe(&self) -> u64 {
        let outstanding = self.snd_nxt - self.snd_una;
        let sacked = self.sacked.len();
        let lost_unrepaired = (self.lost.len() - self.rtx_out.len()) as u64;
        outstanding.saturating_sub(sacked).saturating_sub(lost_unrepaired)
    }

    /// Fold a SACK-block update into the scoreboard.
    ///
    /// Between ACKs `lost` never overlaps `sacked` (holes are marked only
    /// where nothing is SACKed, and a timeout clears both) and `rtx_out`
    /// is a subset of `lost`. So the only losses a block can repair are
    /// among the sequences it newly covers: the gaps it closes.
    fn apply_sack(&mut self, ack: &Ack) {
        for &(s, e) in ack.sack.iter().flatten() {
            let (s, e) = (s.max(self.snd_una), e.min(self.snd_nxt));
            // A hole that gets SACKed was repaired: it is no longer lost.
            for (gs, ge) in self.sacked.gaps(s, e) {
                self.lost.remove_range(gs, ge);
                self.rtx_out.remove_range(gs, ge);
            }
            self.sacked.insert_range(s, e);
            debug_assert!(
                self.lost.first_at_or_after(s).is_none_or(|seq| seq >= e),
                "a lost sequence inside SACKed [{s}, {e})"
            );
        }
    }

    /// Mark unsacked sequences as lost per the RFC 6675 `IsLost` rule: a
    /// hole counts as lost only once `DUP_THRESH` SACKed segments lie
    /// above it. On an in-order path this converges to "every hole below
    /// the highest SACK" within two more ACKs; under path reordering
    /// (the impairment layer's jitter knob) it keeps segments that are
    /// merely late — fewer than `DUP_THRESH` deep — from being
    /// retransmitted spuriously.
    fn mark_lost_holes(&mut self) {
        const DUP_THRESH: u64 = 3;
        // The DUP_THRESH-th-highest SACKed sequence: exactly the holes
        // strictly below it have >= DUP_THRESH SACKed segments above.
        let mut need = DUP_THRESH;
        let mut cutoff = None;
        for &(s, e) in self.sacked.ranges().iter().rev() {
            if e - s >= need {
                cutoff = Some(e - need);
                break;
            }
            need -= e - s;
        }
        let Some(cutoff) = cutoff else {
            return;
        };
        // Everything below `lost_below` was classified on a previous call
        // (and holes that got SACKed since were pulled out of `lost` by
        // `apply_sack` — they must not return). Only the newly-eligible
        // window needs scanning, as whole hole runs between SACK ranges.
        let from = self.snd_una.max(self.lost_below);
        if from >= cutoff {
            return;
        }
        for (s, e) in self.sacked.gaps(from, cutoff) {
            self.lost.insert_run(s, e);
        }
        self.lost_below = cutoff;
    }

    /// What holds between ACKs and `apply_sack` relies on. A checkpoint
    /// that says otherwise would not fail, it would repair the wrong
    /// segments — so restoring one is an error.
    fn check_invariants(&self) -> Result<(), &'static str> {
        let in_window = |lo: Option<u64>, hi: Option<u64>| {
            lo.is_none_or(|lo| lo >= self.snd_una) && hi.is_none_or(|hi| hi < self.snd_nxt)
        };
        if self.snd_una > self.snd_nxt {
            Err("snd_una ahead of snd_nxt")
        } else if !in_window(self.sacked.first_at_or_after(0), self.sacked.max())
            || !in_window(
                self.lost.first_at_or_after(0),
                self.lost.iter().next_back().copied(),
            )
        {
            Err("scoreboard entry outside [snd_una, snd_nxt)")
        } else if self.lost.iter().any(|&seq| self.sacked.contains(seq)) {
            Err("lost sequence is also SACKed")
        } else if self.rtx_out.iter().any(|&seq| !self.lost.contains(seq)) {
            Err("retransmission in flight for a sequence not lost")
        } else if self
            .ooo
            .first_at_or_after(0)
            .is_some_and(|seq| seq <= self.rcv_nxt)
        {
            Err("out-of-order store reaches down to rcv_nxt")
        } else {
            Ok(())
        }
    }

    /// The lowest lost sequence whose retransmission is not in flight.
    ///
    /// Cursor invariant: `try_send` repairs losses in ascending order and
    /// bumps `repair_from` past each, so everything below the cursor is in
    /// `rtx_out` and nothing at or above it is — no membership probing.
    fn next_repair(&self) -> Option<u64> {
        self.lost.first_at_or_after(self.repair_from)
    }

    fn drop_scoreboard_below(&mut self, cutoff: u64) {
        // Steady state (no loss episode in flight) keeps all three sets
        // empty; skip the per-set calls on the every-ACK path.
        if self.sacked.is_empty() && self.lost.is_empty() && self.rtx_out.is_empty() {
            return;
        }
        self.sacked.remove_below(cutoff);
        self.lost.remove_below(cutoff);
        self.rtx_out.remove_below(cutoff);
    }

    fn data_exhausted(&self) -> bool {
        matches!(self.cfg.data_limit, Some(limit) if self.snd_nxt >= limit)
    }

    fn send_segment(&mut self, core: &mut SimCore, seq: u64, retransmit: bool) {
        let mut pkt = Packet::data(self.id, seq, self.cfg.mss, self.ecn.codepoint(), core.now());
        pkt.retransmit = retransmit;
        core.send_packet(pkt);
    }

    fn try_send(&mut self, core: &mut SimCore) {
        if !self.active {
            return;
        }
        let cwnd = whole_packets(self.cc.cwnd().min(self.cfg.max_cwnd));
        // RFC 6675: repairs first, then new data, all bounded by pipe.
        while self.pipe() < cwnd {
            if let Some(seq) = self.next_repair() {
                self.rtx_out.insert(seq);
                self.repair_from = seq + 1;
                self.send_segment(core, seq, true);
            } else if !self.data_exhausted() {
                let seq = self.snd_nxt;
                self.snd_nxt += 1;
                self.send_segment(core, seq, false);
            } else {
                break;
            }
        }
        if !self.rto_timer.is_armed() && self.snd_nxt > self.snd_una {
            self.arm_rto(core);
        }
    }

    /// True when the once-per-RTT Classic congestion gate is open.
    fn gate_open(&self) -> bool {
        self.snd_una >= self.cong_gate
    }

    fn classic_congestion_event(&mut self, now: Time, loss: bool) {
        if loss {
            self.cc.on_loss(now);
        } else {
            self.cc.on_ecn(now);
        }
        // Provisionally close the gate at the current snd_nxt; on_ack
        // re-raises it after try_send so the gate covers the *whole*
        // window of data including segments sent in response to this very
        // ACK (RFC 3168's "once per window of data" — without the
        // re-raise, a floor-sized window reacts nearly twice per RTT).
        self.cong_gate = self.snd_nxt;
    }

    fn handle_receiver_side(&mut self, pkt: &Packet, core: &mut SimCore) {
        self.pkts_total += 1;
        let was_ce = pkt.ecn == Ecn::Ce;
        if was_ce {
            self.ce_total += 1;
        }
        let in_order = pkt.seq == self.rcv_nxt;
        if in_order {
            self.rcv_nxt += 1;
            if let Some((_, end)) = self.ooo.take_leading(self.rcv_nxt) {
                self.rcv_nxt = end;
            }
        } else if pkt.seq > self.rcv_nxt {
            self.ooo.insert(pkt.seq);
        }
        self.ece_pending |= was_ce;
        self.pending_echo = Some((pkt.sent_at, pkt.retransmit));
        self.unacked_segs += 1;
        // RFC 1122 delayed ACKs, with immediate ACKs for out-of-order data
        // (fast retransmit depends on prompt dupacks) and on CE-state
        // change (the DCTCP receiver rule, so Scalable feedback stays
        // timely).
        let must_ack_now = !self.cfg.delayed_ack
            || !in_order
            || !self.ooo.is_empty()
            || was_ce != self.last_ce_state
            || self.unacked_segs >= 2;
        self.last_ce_state = was_ce;
        if must_ack_now {
            self.emit_ack(pkt.seq, core);
        } else if !self.delack_timer.is_armed() {
            self.delack_timer.arm(core, DELACK_DELAY);
        }
    }

    /// Send the (possibly delayed) cumulative ACK.
    fn emit_ack(&mut self, just_received: u64, core: &mut SimCore) {
        let (echo_ts, echo_rtx) = self.pending_echo.unwrap_or((core.now(), true));
        core.send_ack(Ack {
            flow: self.id,
            cum_seq: self.rcv_nxt,
            ece: self.ece_pending,
            ce_total: self.ce_total,
            pkts_total: self.pkts_total,
            echo_ts,
            echo_rtx,
            sack: self.sack_blocks(just_received),
        });
        self.unacked_segs = 0;
        self.ece_pending = false;
        self.pending_echo = None;
        self.delack_timer.cancel();
    }

    /// RFC 2018 block selection: the block containing the most recently
    /// received sequence first, then the highest remaining blocks.
    fn sack_blocks(&self, just_received: u64) -> [Option<(u64, u64)>; 3] {
        let mut out = Ack::NO_SACK;
        if self.ooo.is_empty() {
            return out;
        }
        let mut idx = 0;
        let first = self.ooo.find(just_received);
        if let Some(r) = first {
            out[0] = Some(r);
            idx = 1;
        }
        for &(s, e) in self.ooo.ranges().iter().rev() {
            if idx >= 3 {
                break;
            }
            if first == Some((s, e)) {
                continue;
            }
            out[idx] = Some((s, e));
            idx += 1;
        }
        out
    }
}

impl Source for TcpSource {
    fn on_start(&mut self, core: &mut SimCore) {
        if self.active {
            return;
        }
        self.active = true;
        self.started_at = core.now();
        self.base_rtt = core.path(self.id).base_rtt();
        self.try_send(core);
    }

    fn on_stop(&mut self, _core: &mut SimCore) {
        self.active = false;
        self.rto_timer.cancel();
    }

    fn on_deliver(&mut self, pkt: Packet, core: &mut SimCore) {
        self.handle_receiver_side(&pkt, core);
    }

    fn on_ack(&mut self, ack: Ack, core: &mut SimCore) {
        let now = core.now();
        let gate_before = self.cong_gate;
        // Mark/receive deltas from the receiver's cumulative counters.
        // The watermarks must only move forward: a reordered (stale) ACK
        // carries older totals, and assigning them directly would roll the
        // watermark back so the next fresh ACK re-counts marks the CC
        // already saw (inflating DCTCP's α). The saturating_sub already
        // yields 0 deltas for stale ACKs.
        let marked = ack.ce_total.saturating_sub(self.seen_ce_total);
        let received = ack.pkts_total.saturating_sub(self.seen_pkts_total);
        self.seen_ce_total = self.seen_ce_total.max(ack.ce_total);
        self.seen_pkts_total = self.seen_pkts_total.max(ack.pkts_total);

        if !ack.echo_rtx {
            self.sample_rtt(now.saturating_since(ack.echo_ts));
        }

        self.apply_sack(&ack);

        if ack.cum_seq > self.snd_una {
            // New data acknowledged.
            let acked = ack.cum_seq - self.snd_una;
            self.snd_una = ack.cum_seq;
            self.rto_backoff = 0;
            self.drop_scoreboard_below(self.snd_una);
            if self.in_recovery {
                if self.snd_una >= self.recover {
                    self.in_recovery = false;
                    self.dupacks = 0;
                } else {
                    // The new hole (if any) at snd_una is below the highest
                    // SACK and will be marked lost and repaired by try_send.
                    self.mark_lost_holes();
                }
            } else {
                self.dupacks = 0;
            }
            self.cc.on_ack(acked, marked, received, self.rtt_estimate(), now);
            if ack.ece && self.ecn == EcnSetting::Classic && self.gate_open() {
                self.classic_congestion_event(now, false);
            }
            // Restart the retransmission timer for remaining data.
            if self.snd_nxt > self.snd_una {
                self.arm_rto(core);
            } else {
                self.rto_timer.cancel();
            }
            if let Some(limit) = self.cfg.data_limit {
                if self.snd_una >= limit && self.completed_at.is_none() {
                    self.completed_at = Some(now);
                    core.monitor.record_completion(self.id, self.started_at, now);
                    self.active = false;
                    self.rto_timer.cancel();
                    return;
                }
            }
        } else if ack.cum_seq == self.snd_una && self.snd_nxt > self.snd_una {
            // Duplicate ACK.
            self.dupacks += 1;
            // Scalable marks still arrive on duplicates.
            self.cc.on_ack(0, marked, received, self.rtt_estimate(), now);
            if ack.ece && self.ecn == EcnSetting::Classic && self.gate_open() {
                self.classic_congestion_event(now, false);
            }
            let sack_trigger = self.sacked.len() >= 3;
            if !self.in_recovery && (self.dupacks >= 3 || sack_trigger) {
                if self.gate_open() {
                    self.classic_congestion_event(now, true);
                }
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                // Fresh episode: the scan cursors restart. The scoreboard
                // sets need not be empty here: an episode ends once
                // `snd_una` reaches `recover`, and holes above it can stay
                // in `lost` with their repairs in `rtx_out`. From cursor 0
                // `try_send` re-sends those repairs, uncharged against cwnd
                // since `rtx_out` already holds them (ROADMAP item 21).
                self.lost_below = 0;
                self.repair_from = 0;
                self.mark_lost_holes();
                // If nothing is SACKed yet (pure dupack entry), the
                // first unacked segment is the presumed loss.
                if self.lost.is_empty() {
                    self.lost.insert(self.snd_una);
                }
                self.arm_rto(core);
            } else if self.in_recovery {
                self.mark_lost_holes();
            }
        }
        self.try_send(core);
        if self.cong_gate != gate_before {
            // A congestion event fired during this ACK: extend the gate
            // over the segments try_send just emitted.
            self.cong_gate = self.snd_nxt;
        }
    }

    fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
        if kind == TimerKind::User(DELACK_TIMER) {
            // Delayed-ACK timeout: flush the pending ACK, if still pending.
            if self.delack_timer.wake(core, id) && self.unacked_segs > 0 {
                self.emit_ack(self.rcv_nxt.saturating_sub(1), core);
            }
            return;
        }
        // A timeout that finds the flow stopped is left standing: the
        // restarted flow then sends without a timer until recovery or the
        // next ACK of new data arms one.
        if kind != TimerKind::Rto || !self.rto_timer.wake(core, id) || !self.active {
            return;
        }
        self.rto_timer.cancel();
        if self.snd_nxt == self.snd_una {
            return; // nothing outstanding
        }
        let now = core.now();
        self.cc.on_rto(now);
        self.rto_backoff += 1;
        self.in_recovery = false;
        self.dupacks = 0;
        // The scoreboard may be stale (e.g. the retransmission itself was
        // lost); RFC 6582/6675 restart from scratch after a timeout.
        self.sacked.clear();
        self.lost.clear();
        self.rtx_out.clear();
        self.lost_below = 0;
        self.repair_from = 0;
        self.cong_gate = self.snd_nxt;
        self.send_segment(core, self.snd_una, true);
        self.arm_rto(core);
    }
}

// Every mutable field — both endpoints' state plus the congestion
// controller — in declaration order. `id`, `cfg` and `ecn` are
// construction-time configuration and are not written; the restoring side
// must be built with the same values.
ckpt_fields!(TcpSource {
    cc,
    active,
    snd_una,
    snd_nxt,
    dupacks,
    in_recovery,
    recover,
    sacked,
    lost,
    rtx_out,
    lost_below,
    repair_from,
    cong_gate,
    rto_timer,
    rto_backoff,
    srtt,
    rttvar,
    base_rtt,
    seen_ce_total,
    seen_pkts_total,
    rcv_nxt,
    ooo,
    ce_total,
    pkts_total,
    unacked_segs,
    ece_pending,
    pending_echo,
    last_ce_state,
    delack_timer,
    completed_at,
    started_at,
} check TcpSource::check_invariants);

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{
        Aqm, Decision, MonitorConfig, PassAqm, PathConf, QueueConfig, QueueSnapshot, Sim,
        SimConfig,
    };
    use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter, Rng};

    fn sim_with(rate_bps: u64, buffer_bytes: usize, aqm: Box<dyn Aqm>) -> Sim {
        Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps,
                    buffer_bytes,
                },
                seed: 11,
                monitor: MonitorConfig::default(),
            },
            aqm,
        )
    }

    fn add_tcp(sim: &mut Sim, cc: CcKind, ecn: EcnSetting, rtt_ms: i64, label: &str) -> FlowId {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            label,
            Time::ZERO,
            move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default())),
        )
    }

    #[test]
    fn whole_packets_is_the_floored_window_it_replaced() {
        let windows = [f64::NAN, -1.5, -0.0, 0.0, 0.99, 1.0, 1.99, 2.0, 1e30, f64::INFINITY];
        for w in windows.into_iter().chain((0..4000).map(|i| i as f64 * 0.37 - 3.0)) {
            assert_eq!(whole_packets(w), w.floor().max(1.0) as u64, "window {w}");
        }
        assert_eq!(whole_packets(f64::NAN), 1);
        assert_eq!(whole_packets(1.99), 1);
        assert_eq!(whole_packets(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn fills_the_pipe_without_losses() {
        // 10 Mb/s, large buffer, no AQM: a single Reno flow must reach
        // (nearly) full utilization.
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        let id = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "reno");
        sim.run_until(Time::from_secs(30));
        let acc = sim.core.monitor.flow(id);
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 30.0 / 1e6;
        assert!(mbps > 9.0, "throughput only {mbps:.2} Mb/s");
    }

    #[test]
    fn recovers_from_tail_drops() {
        // Small buffer forces periodic loss; the flow must keep delivering
        // data in order, with retransmissions filling every hole.
        let mut sim = sim_with(10_000_000, 30_000, Box::new(PassAqm));
        let id = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "reno");
        sim.run_until(Time::from_secs(30));
        let acc = sim.core.monitor.flow(id);
        assert!(sim.core.counters.flow(id).dropped > 0, "expected drops with a 30 kB buffer");
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 30.0 / 1e6;
        assert!(mbps > 8.0, "throughput only {mbps:.2} Mb/s with losses");
    }

    #[test]
    fn utilization_suffers_with_tiny_buffer_and_long_rtt() {
        // Sanity: a sub-BDP buffer with Reno cannot sustain full rate.
        let mut sim = sim_with(50_000_000, 10_000, Box::new(PassAqm));
        let id = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 100, "reno");
        sim.run_until(Time::from_secs(30));
        let acc = sim.core.monitor.flow(id);
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 30.0 / 1e6;
        assert!(mbps < 45.0, "expected underutilization, got {mbps:.2} Mb/s");
    }

    /// An AQM that CE-marks every ECT packet: ECN-capable flows should see
    /// marks, not drops, and still make progress.
    struct MarkAll;
    impl Aqm for MarkAll {
        fn on_enqueue(
            &mut self,
            pkt: &Packet,
            _snap: &QueueSnapshot,
            _now: Time,
            _rng: &mut Rng,
        ) -> Decision {
            if pkt.ecn.is_ect() {
                Decision::mark(1.0)
            } else {
                Decision::pass(0.0)
            }
        }
        fn name(&self) -> &'static str {
            "markall"
        }
    }
    ckpt_fields!(MarkAll {});

    #[test]
    fn classic_ecn_reacts_once_per_rtt() {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(MarkAll));
        let id = add_tcp(&mut sim, CcKind::Cubic, EcnSetting::Classic, 40, "ecn-cubic");
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.counters.flow(id);
        assert_eq!(acc.dropped, 0);
        assert!(acc.marked > 0);
        // Marked on every packet, yet the flow must still deliver data:
        // the once-per-RTT gate prevents collapse to zero.
        assert!(acc.dequeued > 100, "delivered {}", acc.dequeued);
    }

    #[test]
    fn dctcp_alpha_saturates_under_full_marking() {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(MarkAll));
        let id = add_tcp(&mut sim, CcKind::Dctcp, EcnSetting::Scalable, 40, "dctcp");
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.counters.flow(id);
        assert!(acc.marked > 0);
        assert!(acc.dequeued > 100);
    }

    #[test]
    fn short_flow_completes() {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "short",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(100),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        let _ = id;
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.monitor.flow(id);
        assert_eq!(acc.sent_pkts, 100, "exactly the data limit is sent");
        assert_eq!(acc.delivered_pkts, 100);
        let (_, started, completed) = sim.core.monitor.completions[0];
        assert!(completed > started, "completion recorded with ordering");
    }

    #[test]
    fn fct_is_none_until_completion_then_start_to_last_ack() {
        let mut src = TcpSource::new(
            FlowId(0),
            CcKind::Reno,
            EcnSetting::NotEcn,
            TcpConfig {
                data_limit: Some(10),
                ..TcpConfig::default()
            },
        );
        assert_eq!(src.fct(), None, "nothing completed yet");
        src.started_at = Time::from_secs(2);
        src.completed_at = Some(Time::from_millis(2750));
        assert_eq!(src.fct(), Some(Duration::from_millis(750)));
    }

    #[test]
    fn rto_recovers_when_whole_window_is_lost() {
        /// Drops everything in a time window — simulates an outage.
        struct Outage {
            from: Time,
            to: Time,
        }
        impl Aqm for Outage {
            fn on_enqueue(
                &mut self,
                _pkt: &Packet,
                _snap: &QueueSnapshot,
                now: Time,
                _rng: &mut Rng,
            ) -> Decision {
                if now >= self.from && now < self.to {
                    Decision::drop(1.0)
                } else {
                    Decision::pass(0.0)
                }
            }
            fn name(&self) -> &'static str {
                "outage"
            }
        }
        ckpt_fields!(Outage {});
        let mut sim = sim_with(
            10_000_000,
            usize::MAX,
            Box::new(Outage {
                from: Time::from_secs(2),
                to: Time::from_millis(2600),
            }),
        );
        let id = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "reno");
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.monitor.flow(id);
        // The flow must survive the outage and keep transferring afterwards.
        let late_bytes = acc.dequeued_bytes;
        assert!(sim.core.counters.flow(id).dropped > 0);
        assert!(
            late_bytes > 5_000_000,
            "flow stalled after outage: {late_bytes} bytes total"
        );
    }

    #[test]
    fn srtt_converges_to_base_rtt_when_unloaded() {
        let mut sim = sim_with(100_000_000, usize::MAX, Box::new(PassAqm));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(50)),
            "probe",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(200),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(5));
        // The queue stays near-empty at 100 Mb/s, so per-packet sojourn is
        // just serialization: srtt ≈ 50 ms. We can't reach into the source
        // (owned by Sim), but the monitor's sojourn samples confirm the
        // unloaded premise.
        let max_sojourn = sim
            .core
            .monitor
            .sojourn_ms
            .iter()
            .cloned()
            .fold(0.0f32, f32::max);
        assert!(max_sojourn < 5.0, "queue built up unexpectedly: {max_sojourn} ms");
    }

    /// Drops one contiguous burst of sequence numbers, once.
    struct BurstLoss {
        from: u64,
        to: u64,
    }
    impl Aqm for BurstLoss {
        fn on_enqueue(
            &mut self,
            pkt: &Packet,
            _snap: &QueueSnapshot,
            _now: Time,
            _rng: &mut Rng,
        ) -> Decision {
            if !pkt.retransmit && pkt.seq >= self.from && pkt.seq < self.to {
                Decision::drop(1.0)
            } else {
                Decision::pass(0.0)
            }
        }
        fn name(&self) -> &'static str {
            "burstloss"
        }
    }
    ckpt_fields!(BurstLoss {});

    /// The regression behind SACK: a burst of losses from one window must
    /// heal in a handful of RTTs, not one hole per RTT (200 holes at
    /// 100 ms would be ~20 s).
    #[test]
    fn sack_heals_burst_loss_quickly() {
        let mut sim = sim_with(
            100_000_000,
            usize::MAX,
            Box::new(BurstLoss { from: 200, to: 400 }),
        );
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(100)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Cubic,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(2000),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(300));
        let &(_, start, end) = sim.core.monitor.completions.first().expect("flow must complete");
        let fct = (end - start).as_secs_f64();
        assert!(
            fct < 10.0,
            "SACK took {fct:.1} s to move 2000 pkts over a 200-loss burst"
        );
    }

    #[test]
    fn sack_delivery_is_exactly_once() {
        // Under burst loss with SACK, the receiver must still see every
        // packet (retransmissions fill each hole exactly).
        let mut sim = sim_with(
            10_000_000,
            usize::MAX,
            Box::new(BurstLoss { from: 50, to: 120 }),
        );
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(500),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(60));
        let acc = sim.core.monitor.flow(id);
        assert_eq!(sim.core.monitor.completions.len(), 1);
        // 500 data packets + 70 retransmissions offered; 70 originals lost.
        assert_eq!(acc.sent_pkts, 570);
        assert_eq!(acc.delivered_pkts, 500);
    }

    #[test]
    fn delayed_acks_halve_the_ack_rate() {
        // Count ACK arrivals via the monitor? ACKs don't traverse the
        // bottleneck; instead compare the throughput cost: a delayed-ACK
        // flow still fills the pipe (the sender sends bursts of 2 per
        // ACK), and the flow completes.
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        delayed_ack: true,
                        data_limit: Some(2000),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(60));
        let acc = sim.core.monitor.flow(id);
        assert_eq!(acc.delivered_pkts, 2000);
        assert_eq!(sim.core.monitor.completions.len(), 1);
    }

    #[test]
    fn delayed_ack_timer_flushes_odd_tail() {
        // A 1-packet flow: with delayed ACKs the single segment must still
        // be acknowledged (by the 40 ms timer), completing the flow well
        // before any RTO.
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        delayed_ack: true,
                        data_limit: Some(1),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(5));
        let (_, start, end) = sim.core.monitor.completions[0];
        let fct = (end - start).as_millis_f64();
        // base RTT 10 ms + ~1.2 ms serialization + 40 ms delack << RTO.
        assert!((45.0..80.0).contains(&fct), "FCT {fct:.1} ms");
    }

    #[test]
    fn delayed_acks_keep_dctcp_feedback_timely() {
        // CE-state changes must bypass the delay (the DCTCP receiver
        // rule): under MarkAll the state is constant-CE, so the change
        // rule fires once; the every-2nd-segment rule still bounds
        // feedback lag, and the flow must remain controlled.
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(MarkAll));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Dctcp,
                    EcnSetting::Scalable,
                    TcpConfig {
                        delayed_ack: true,
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.counters.flow(id);
        assert!(acc.marked > 0);
        assert!(acc.dequeued > 100);
    }

    /// A congestion control that records every event it receives, for
    /// asserting the machinery's gating behaviour precisely.
    struct SpyCc {
        inner: crate::cc::Reno,
        log: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>,
    }
    impl crate::cc::CongestionControl for SpyCc {
        fn cwnd(&self) -> f64 {
            self.inner.cwnd()
        }
        fn ssthresh(&self) -> f64 {
            self.inner.ssthresh()
        }
        fn on_ack(&mut self, a: u64, m: u64, r: u64, rtt: Duration, now: Time) {
            self.inner.on_ack(a, m, r, rtt, now);
        }
        fn on_loss(&mut self, now: Time) {
            self.log.borrow_mut().push("loss");
            self.inner.on_loss(now);
        }
        fn on_ecn(&mut self, now: Time) {
            self.log.borrow_mut().push("ecn");
            self.inner.on_ecn(now);
        }
        fn on_rto(&mut self, now: Time) {
            self.log.borrow_mut().push("rto");
            self.inner.on_rto(now);
        }
        fn name(&self) -> &'static str {
            "spy"
        }
        fn steady_state_window(&self, p: f64, rtt: Duration) -> Option<f64> {
            self.inner.steady_state_window(p, rtt)
        }
    }
    ckpt_fields!(SpyCc { inner });

    /// RFC 3168: under continuous CE marking, the Classic sender must
    /// react at most once per round trip, not once per mark.
    #[test]
    fn classic_ecn_gate_is_once_per_rtt() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = std::rc::Rc::clone(&log);
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(MarkAll));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(100)),
            "f",
            Time::ZERO,
            move |id| {
                Box::new(TcpSource::with_cc(
                    id,
                    Box::new(SpyCc {
                        inner: crate::cc::Reno::new(10.0),
                        log: log2,
                    }),
                    EcnSetting::Classic,
                    TcpConfig::default(),
                ))
            },
        );
        sim.run_until(Time::from_secs(10));
        let events = log.borrow();
        let ecn_events = events.iter().filter(|e| **e == "ecn").count();
        // 10 s / 100 ms = 100 RTTs: at most ~one reaction per RTT, despite
        // thousands of marks.
        assert!(
            (5..=110).contains(&ecn_events),
            "{ecn_events} ECE reactions in 100 RTTs"
        );
        assert_eq!(events.iter().filter(|e| **e == "loss").count(), 0);
    }

    // --- lazy timers: what sits in the wheel on the RTO's behalf.

    /// Times of the pending RTO events, in pop order.
    fn pending_rto_events(sim: &Sim) -> Vec<Time> {
        sim.core
            .events
            .entries_sorted()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.event,
                    pi2_netsim::Event::Timer {
                        kind: TimerKind::Rto,
                        ..
                    }
                )
            })
            .map(|e| e.time)
            .collect()
    }

    /// Step until the pending RTO events differ from `from`.
    fn step_until_rto_events_change(sim: &mut Sim, from: &[Time]) -> Vec<Time> {
        loop {
            assert!(sim.step(), "the run ended with RTO events still {from:?}");
            let now = pending_rto_events(sim);
            if now != from {
                return now;
            }
        }
    }

    /// A sender without an RTT sample arms a 1 s RTO; its first ACK brings
    /// the RTO down to the 200 ms floor, a deadline *before* the event
    /// standing in for the timer. That is the one case where arming must
    /// push at once. With everything after the first window lost, the
    /// timeout must then fire at exactly the last ACK plus the RTO, and
    /// the superseded 1 s stand-in must pass as a no-op.
    #[test]
    fn rto_shrinking_below_a_pending_standin_fires_at_the_earlier_deadline() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = std::rc::Rc::clone(&log);
        let mut sim = sim_with(
            10_000_000,
            usize::MAX,
            Box::new(BurstLoss {
                from: 10,
                to: u64::MAX,
            }),
        );
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            move |id| {
                Box::new(TcpSource::with_cc(
                    id,
                    Box::new(SpyCc {
                        inner: crate::cc::Reno::new(10.0),
                        log: log2,
                    }),
                    EcnSetting::NotEcn,
                    TcpConfig::default(),
                ))
            },
        );
        let armed = step_until_rto_events_change(&mut sim, &[]);
        assert_eq!(armed, [Time::from_secs(1)], "initial RTO without an RTT sample");
        let shrunk = step_until_rto_events_change(&mut sim, &armed);
        let first_ack = sim.core.now();
        let floor = TcpConfig::default().min_rto;
        assert_eq!(shrunk, [first_ack + floor, Time::from_secs(1)]);
        // Nine more ACKs move the deadline, not the wheel.
        while log.borrow().is_empty() {
            assert_eq!(pending_rto_events(&sim).len(), 2);
            assert!(sim.step());
        }
        assert_eq!(*log.borrow(), ["rto"]);
        // Ten 1500-byte packets drain at 1.2 ms each: the last ACK of the
        // window arrives 10.8 ms after the first.
        let last_ack = first_ack + Duration::from_micros(10_800);
        assert_eq!(sim.core.now(), last_ack + floor);
        // The backed-off timer is re-armed past the superseded stand-in,
        // which pops at 1 s without a second timeout to its name.
        sim.run_until(Time::from_secs(1));
        let rtos = log.borrow().iter().filter(|e| **e == "rto").count();
        assert!(pending_rto_events(&sim).iter().all(|&t| t > Time::from_secs(1)));
        sim.run_until(Time::from_secs(3));
        let later = log.borrow().iter().filter(|e| **e == "rto").count();
        assert!(later > rtos, "the backed-off timer must keep firing");
        assert_eq!(pending_rto_events(&sim).len(), 1);
    }

    /// Stopping a flow cancels its RTO but cannot recall the stand-in;
    /// restarting it while that stand-in is pending arms the timer again
    /// without a second event.
    #[test]
    fn restart_with_a_standin_pending_pushes_no_second_event() {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        let id = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "reno");
        // Off and on at one instant: no ACK arms the timer in between, so
        // it is the restart's own `try_send` that finds it unarmed.
        sim.stop_flow_at(id, Time::from_millis(1500));
        sim.start_flow_at(id, Time::from_millis(1500));
        sim.run_until(Time::from_millis(1490));
        // Event by event across the stop and the restart: the one stand-in
        // is all the wheel ever holds for this timer.
        while sim.core.now() < Time::from_millis(1540) {
            assert_eq!(pending_rto_events(&sim).len(), 1, "at {}", sim.core.now());
            assert!(sim.step());
        }
        sim.run_until(Time::from_secs(4));
        assert_eq!(pending_rto_events(&sim).len(), 1);
        let mbps = sim.core.monitor.flow(id).dequeued_bytes as f64 * 8.0 / 4.0 / 1e6;
        assert!(mbps > 8.0, "the restarted flow stalled: {mbps:.2} Mb/s");
    }

    /// A finished flow leaves one stand-in behind; it wakes once, finds
    /// nothing armed and is gone.
    #[test]
    fn an_idle_flow_leaves_one_noop_wakeup_behind() {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(1500),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        while sim.core.monitor.completions.is_empty() {
            assert!(sim.step(), "the flow never completed");
        }
        let done = sim.core.now();
        assert!(done > Time::from_secs(1), "finished before the 1 s stand-in passed");
        let left = pending_rto_events(&sim);
        assert_eq!(left.len(), 1, "{left:?}");
        assert!(left[0] <= done + TcpConfig::default().min_rto);
        // After it: only the 1 s sample tick keeps the queue alive.
        sim.run_until(left[0]);
        assert_eq!(sim.core.events.len(), 1);
    }

    #[test]
    fn max_cwnd_clamps_throughput() {
        // 100 Mb/s, 100 ms: unclamped Reno would fill the pipe; a 100 kB
        // clamp caps the rate at ~8 Mb/s.
        let mut sim = sim_with(100_000_000, usize::MAX, Box::new(PassAqm));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(100)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        max_cwnd: 100_000.0 / 1500.0,
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(20));
        let acc = sim.core.monitor.flow(id);
        let mbps = acc.dequeued_bytes as f64 * 8.0 / 20.0 / 1e6;
        // 66 pkts / 100 ms = 660 pps = 7.9 Mb/s.
        assert!((6.0..9.5).contains(&mbps), "clamped rate {mbps:.1} Mb/s");
    }

    #[test]
    fn two_flows_share_roughly_fairly() {
        let mut sim = sim_with(10_000_000, 60_000, Box::new(PassAqm));
        let a = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "a");
        let b = add_tcp(&mut sim, CcKind::Reno, EcnSetting::NotEcn, 40, "b");
        sim.run_until(Time::from_secs(60));
        let ta = sim.core.monitor.flow(a).dequeued_bytes as f64;
        let tb = sim.core.monitor.flow(b).dequeued_bytes as f64;
        let ratio = ta.max(tb) / ta.min(tb);
        assert!(ratio < 1.6, "same-CC same-RTT flows diverged: ratio {ratio:.2}");
    }

    // --- edge cases the impairment layer exposes: reordered, duplicated
    // --- and lost ACKs, and the Karn/watermark rules that absorb them.

    /// A sender driven by hand-crafted ACKs: the flow is registered with
    /// the core (for path lookup and event sinks) but the sim is never
    /// stepped, so the test controls exactly which ACKs arrive in which
    /// order.
    fn bench_sender(cc: CcKind) -> (Sim, TcpSource) {
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(PassAqm));
        let id = sim
            .core
            .register_flow(PathConf::symmetric(Duration::from_millis(40)), "crafted");
        let mut src = TcpSource::new(id, cc, EcnSetting::Scalable, TcpConfig::default());
        src.on_start(&mut sim.core);
        (sim, src)
    }

    fn ack(cum_seq: u64, ce_total: u64, pkts_total: u64, echo_rtx: bool) -> Ack {
        Ack {
            flow: FlowId(0),
            cum_seq,
            ece: false,
            ce_total,
            pkts_total,
            echo_ts: Time::ZERO,
            echo_rtx,
            sack: Ack::NO_SACK,
        }
    }

    /// Karn's algorithm: an ACK echoing a retransmitted segment must not
    /// feed the RTT estimator (the echo is ambiguous — it may answer
    /// either transmission).
    #[test]
    fn karn_excludes_retransmit_echoes_from_rtt() {
        let (mut sim, mut src) = bench_sender(CcKind::Reno);
        src.on_ack(ack(1, 0, 1, true), &mut sim.core);
        assert!(src.srtt().is_none(), "retransmit echo produced an RTT sample");
        src.on_ack(ack(2, 0, 2, false), &mut sim.core);
        assert!(src.srtt().is_some(), "clean echo must be sampled");
    }

    /// A reordered (stale) ACK carries older cumulative counters; it must
    /// not roll the sender's watermarks back, or the next fresh ACK would
    /// re-count marks the congestion control already consumed.
    #[test]
    fn stale_ack_does_not_roll_back_mark_watermarks() {
        let (mut sim, mut src) = bench_sender(CcKind::Dctcp);
        src.on_ack(ack(5, 10, 20, false), &mut sim.core);
        assert_eq!((src.seen_ce_total, src.seen_pkts_total), (10, 20));
        // A stale ACK from before the previous one: older cum_seq, older
        // totals. Watermarks must hold.
        src.on_ack(ack(3, 4, 8, false), &mut sim.core);
        assert_eq!(
            (src.seen_ce_total, src.seen_pkts_total),
            (10, 20),
            "stale ACK rolled the watermarks back"
        );
        // The next fresh ACK advances by exactly its own contribution.
        src.on_ack(ack(6, 11, 22, false), &mut sim.core);
        assert_eq!((src.seen_ce_total, src.seen_pkts_total), (11, 22));
    }

    /// The RFC 6675 IsLost rule: a hole is lost only once DUP_THRESH (3)
    /// SACKed segments lie above it; shallower holes are presumed
    /// reordered, not lost.
    #[test]
    fn mark_lost_holes_respects_dup_thresh() {
        let mut src = TcpSource::new(
            FlowId(0),
            CcKind::Reno,
            EcnSetting::NotEcn,
            TcpConfig::default(),
        );
        src.snd_nxt = 10;
        // Two SACKed segments above the hole at 0: below threshold.
        src.sacked.insert_range(1, 3);
        src.mark_lost_holes();
        assert!(src.lost.is_empty(), "2 SACKed segments must not mark a loss");
        // A third SACKed segment crosses the threshold for seq 0 only.
        src.sacked.insert_range(3, 4);
        src.mark_lost_holes();
        assert_eq!(src.lost.iter().copied().collect::<Vec<_>>(), vec![0]);
        // Split scoreboard: {2..4, 6..8} puts 4 SACKed segments above the
        // low holes but only 2 above the hole at 4..6, which stays unlost.
        // Resetting the scoreboard by hand means resetting its scan cursor
        // too (in real runs only the RTO/recovery-entry paths do this).
        src.lost.clear();
        src.lost_below = 0;
        src.sacked = RangeSet::new();
        src.sacked.insert_range(2, 4);
        src.sacked.insert_range(6, 8);
        src.mark_lost_holes();
        assert_eq!(
            src.lost.iter().copied().collect::<Vec<_>>(),
            vec![0, 1],
            "only holes with >= 3 SACKed segments above are lost"
        );
    }

    /// SACK loss recovery must deliver exactly-once even when the reverse
    /// path duplicates and reorders the ACK stream (weather-layer jitter
    /// and duplication on a lossy bottleneck).
    #[test]
    fn sack_recovery_survives_reordered_and_duplicated_acks() {
        use pi2_netsim::{ImpairmentConf, LinkImpairments};
        let mut sim = sim_with(10_000_000, 30_000, Box::new(PassAqm));
        sim.core.set_impairments(LinkImpairments::new(0xACED).reverse(ImpairmentConf {
            loss: 0.0,
            dup: 0.05,
            jitter: Duration::from_millis(3),
        }));
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            "f",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(2000),
                        ..TcpConfig::default()
                    },
                ))
            },
        );
        sim.run_until(Time::from_secs(60));
        let acc = sim.core.monitor.flow(id);
        let s = sim.core.impairments().expect("weather attached").stats();
        assert!(s.rev_dup > 0, "duplication never fired: {s:?}");
        assert!(sim.core.counters.flow(id).dropped > 0, "30 kB buffer must overflow");
        assert_eq!(acc.delivered_pkts, 2000, "exactly-once delivery broken");
        assert_eq!(sim.core.monitor.completions.len(), 1);
    }

    // --- the scoreboard's invariants: checked against the whole-set
    // --- filter `apply_sack` used to run, and enforced on restore.

    /// What `apply_sack` did before it learnt to look only at the gaps a
    /// block closes: insert every block, then drop from `lost` and
    /// `rtx_out` whatever the whole of `sacked` now covers.
    fn apply_sack_by_filtering(src: &TcpSource, ack: &Ack) -> (Vec<u64>, Vec<u64>) {
        let mut sacked = src.sacked.clone();
        for &(s, e) in ack.sack.iter().flatten() {
            sacked.insert_range(s.max(src.snd_una), e.min(src.snd_nxt));
        }
        let keep = |set: &SeqSet| {
            set.iter()
                .copied()
                .filter(|&seq| !sacked.contains(seq))
                .collect()
        };
        (keep(&src.lost), keep(&src.rtx_out))
    }

    /// A sender that checks itself against the reference on every ACK.
    struct Checked {
        inner: TcpSource,
        /// ACKs that carried blocks, and sequences they took out of `lost`.
        seen: std::rc::Rc<std::cell::Cell<(u64, u64)>>,
    }

    impl Source for Checked {
        fn on_start(&mut self, core: &mut SimCore) {
            self.inner.on_start(core);
        }
        fn on_stop(&mut self, core: &mut SimCore) {
            self.inner.on_stop(core);
        }
        fn on_deliver(&mut self, pkt: Packet, core: &mut SimCore) {
            self.inner.on_deliver(pkt, core);
        }
        fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
            self.inner.on_timer(kind, id, core);
        }
        fn on_ack(&mut self, ack: Ack, core: &mut SimCore) {
            let src = &mut self.inner;
            // Applying an ACK's blocks a second time changes nothing, so
            // doing it here, ahead of `on_ack`, leaves the run as it was.
            let expected = apply_sack_by_filtering(src, &ack);
            let lost_before = src.lost.len();
            src.apply_sack(&ack);
            let members = |set: &SeqSet| set.iter().copied().collect::<Vec<_>>();
            assert_eq!((members(&src.lost), members(&src.rtx_out)), expected);
            if ack.sack[0].is_some() {
                let (acks, repaired) = self.seen.get();
                let repaired = repaired + (lost_before - src.lost.len()) as u64;
                self.seen.set((acks + 1, repaired));
            }
            src.on_ack(ack, core);
            assert_eq!(src.check_invariants(), Ok(()));
            let in_network = (src.snd_una..src.snd_nxt)
                .filter(|&seq| !src.sacked.contains(seq))
                .filter(|&seq| !src.lost.contains(seq) || src.rtx_out.contains(seq))
                .count();
            assert_eq!(src.pipe(), in_network as u64);
        }
    }
    ckpt_fields!(Checked { inner });

    /// A lossy bottleneck under a path that loses, duplicates and
    /// reorders in both directions: after every ACK the scoreboard is what
    /// filtering the whole of it would have left, its invariants hold and
    /// `pipe()` matches a recount from nothing.
    #[test]
    fn scoreboard_matches_the_whole_set_filter_on_every_ack() {
        use pi2_netsim::{ImpairmentConf, LinkImpairments};
        let mut sim = sim_with(50_000_000, 150_000, Box::new(PassAqm));
        // Mild on the data path, or spurious recoveries keep the windows
        // too small to overflow the buffer; rough on the ACK path.
        sim.core.set_impairments(
            LinkImpairments::new(0x5eed)
                .forward(ImpairmentConf {
                    loss: 0.001,
                    dup: 0.005,
                    jitter: Duration::from_micros(300),
                })
                .reverse(ImpairmentConf {
                    loss: 0.05,
                    dup: 0.05,
                    jitter: Duration::from_millis(4),
                }),
        );
        let seen = std::rc::Rc::new(std::cell::Cell::new((0, 0)));
        for cc in [CcKind::Reno, CcKind::Cubic] {
            let seen = std::rc::Rc::clone(&seen);
            sim.add_flow(
                PathConf::symmetric(Duration::from_millis(30)),
                "checked",
                Time::ZERO,
                move |id| {
                    let inner = TcpSource::new(id, cc, EcnSetting::NotEcn, TcpConfig::default());
                    Box::new(Checked { inner, seen })
                },
            );
        }
        sim.run_until(Time::from_secs(20));
        let (acks, repaired) = seen.get();
        assert!(
            sim.core.counters.totals().dropped > 300,
            "buffer never overflowed"
        );
        assert!(acks > 4_000, "only {acks} ACKs carried blocks");
        assert!(
            repaired > 400,
            "only {repaired} losses were repaired by a block"
        );
    }

    /// A sender in the middle of a recovery: `[4, 7)` and `[8, 10)` SACKed,
    /// 3 and 7 lost, 3 resent.
    fn mid_recovery() -> TcpSource {
        let (mut sim, mut src) = bench_sender(CcKind::Reno);
        // The second, duplicate ACK enters recovery.
        for _ in 0..2 {
            let sack = [Some((4, 7)), Some((8, 10)), None];
            src.on_ack(
                Ack {
                    sack,
                    ..ack(3, 0, 8, false)
                },
                &mut sim.core,
            );
        }
        assert!(src.in_recovery && src.lost.contains(3));
        src.lost.insert(7);
        src.rtx_out.insert(3);
        assert_eq!(src.check_invariants(), Ok(()));
        src.ooo.insert_range(4, 7);
        src.rcv_nxt = 3;
        src
    }

    fn restored(from: &TcpSource) -> Result<(), CkptError> {
        let mut w = CkptWriter::new();
        from.save_ckpt(&mut w);
        let blob = w.into_bytes();
        let mut into = TcpSource::new(FlowId(0), CcKind::Reno, EcnSetting::Scalable, from.cfg);
        into.restore_ckpt(&mut CkptReader::new(&blob))
    }

    /// One blob per rule `apply_sack` leans on, each saved from a state
    /// bent just far enough to break it: restore must name the rule, not
    /// carry on with a scoreboard that repairs the wrong segments.
    #[test]
    fn restore_rejects_a_scoreboard_that_breaks_its_invariants() {
        assert_eq!(restored(&mid_recovery()), Ok(()));
        type Bend = fn(&mut TcpSource);
        let bent: [(Bend, &str); 7] = [
            (|s| s.snd_una = s.snd_nxt + 1, "snd_una ahead of snd_nxt"),
            (|s| s.lost.insert_run(4, 5), "lost sequence is also SACKed"),
            (
                |s| s.rtx_out.insert_run(5, 6),
                "retransmission in flight for a sequence not lost",
            ),
            (
                |s| s.lost.insert_run(2, 3),
                "scoreboard entry outside [snd_una, snd_nxt)",
            ),
            (
                |s| s.sacked.insert_range(s.snd_nxt, s.snd_nxt + 1),
                "scoreboard entry outside [snd_una, snd_nxt)",
            ),
            (
                |s| s.ooo.insert_range(3, 4),
                "out-of-order store reaches down to rcv_nxt",
            ),
            (
                |s| s.rcv_nxt = 5,
                "out-of-order store reaches down to rcv_nxt",
            ),
        ];
        for (bend, rule) in bent {
            let mut src = mid_recovery();
            bend(&mut src);
            assert_eq!(restored(&src), Err(CkptError::Corrupt(rule)));
        }
    }

    /// DCTCP's α derives from cumulative receiver counters, so losing a
    /// fifth of the ACK stream must neither lose marks nor stall the flow.
    #[test]
    fn dctcp_alpha_survives_ack_loss() {
        use pi2_netsim::{ImpairmentConf, LinkImpairments};
        let mut sim = sim_with(10_000_000, usize::MAX, Box::new(MarkAll));
        sim.core.set_impairments(LinkImpairments::new(0xD07).reverse(ImpairmentConf {
            loss: 0.2,
            dup: 0.0,
            jitter: Duration::ZERO,
        }));
        let id = add_tcp(&mut sim, CcKind::Dctcp, EcnSetting::Scalable, 40, "dctcp");
        sim.run_until(Time::from_secs(10));
        let acc = sim.core.counters.flow(id);
        let s = sim.core.impairments().expect("weather attached").stats();
        assert!(s.rev_lost > 0, "ACK loss never fired: {s:?}");
        assert!(acc.marked > 0);
        // Under full marking a healthy DCTCP still delivers; a double-
        // counting α would collapse cwnd to the floor and starve the flow.
        assert!(
            acc.dequeued > 100,
            "flow starved under ACK loss: {} pkts",
            acc.dequeued
        );
    }
}
