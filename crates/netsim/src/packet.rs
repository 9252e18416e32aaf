//! Packets and the ECN field.
//!
//! The paper's coexistence mechanism hinges entirely on the two-bit ECN
//! field in the IP header (Section 5): Scalable traffic sets ECT(1),
//! Classic ECN traffic sets ECT(0), and both share the CE codepoint for
//! "congestion experienced". The AQM classifies packets by this field to
//! decide whether to apply the linear probability `p'` (Scalable) or its
//! square (Classic).

use pi2_simcore::{ckpt_fields, Ckpt, CkptError, CkptReader, CkptWriter, Time};

/// Identifier of a flow registered with the simulator.
///
/// Flow ids are dense indices assigned in registration order, so they can
/// index per-flow tables directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FlowId(pub u32);

ckpt_fields!(FlowId { 0 });

impl FlowId {
    /// The id as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The two-bit ECN field of the IP header (RFC 3168 / the L4S proposal the
/// paper anticipates).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Not ECN-capable transport: congestion must be signalled by drop.
    #[default]
    NotEct,
    /// ECN-capable, Classic semantics (a mark means the same as a drop).
    Ect0,
    /// ECN-capable, Scalable semantics (the paper's modified DCTCP sets
    /// this; the identifier the IETF later standardized for L4S).
    Ect1,
    /// Congestion Experienced: the AQM has marked this packet.
    Ce,
}

impl Ecn {
    /// The codepoint's name in serialized traces (its `Debug` text).
    pub fn name(self) -> &'static str {
        match self {
            Ecn::NotEct => "NotEct",
            Ecn::Ect0 => "Ect0",
            Ecn::Ect1 => "Ect1",
            Ecn::Ce => "Ce",
        }
    }

    /// True if the packet may be CE-marked instead of dropped.
    pub fn is_ect(self) -> bool {
        !matches!(self, Ecn::NotEct)
    }

    /// True if the packet belongs to the Scalable (L4S) class.
    ///
    /// CE counts as Scalable here, mirroring the paper's single-queue
    /// classifier (Figure 9: "ECT(1) or CE" go to the Scalable branch).
    /// A CE packet was already marked upstream, and in the paper's
    /// experiments only Scalable senders run a marking-heavy regime, so
    /// treating ambiguous CE as Scalable is the safe choice.
    pub fn is_scalable(self) -> bool {
        matches!(self, Ecn::Ect1 | Ecn::Ce)
    }
}

/// A one-byte tag per codepoint.
impl Ckpt for Ecn {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.u8(match self {
            Ecn::NotEct => 0,
            Ecn::Ect0 => 1,
            Ecn::Ect1 => 2,
            Ecn::Ce => 3,
        });
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        *self = match r.u8()? {
            0 => Ecn::NotEct,
            1 => Ecn::Ect0,
            2 => Ecn::Ect1,
            3 => Ecn::Ce,
            _ => return Err(CkptError::Corrupt("unknown ECN tag")),
        };
        Ok(())
    }
}

/// A data packet traversing the bottleneck.
///
/// ACKs do not use this type — the reverse path is uncongested, so
/// acknowledgements travel as [`crate::sim::Ack`] events with a pure delay.
#[derive(Clone, Debug, Default)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Sequence number in packets (each flow uses a fixed segment size).
    pub seq: u64,
    /// On-wire size in bytes, headers included.
    pub size: usize,
    /// ECN field; the AQM may rewrite ECT(x) to CE.
    pub ecn: Ecn,
    /// When the sender handed the packet to the bottleneck.
    pub sent_at: Time,
    /// True for retransmissions (excluded from goodput accounting).
    pub retransmit: bool,
    /// True when this copy was injected by the path impairment layer's
    /// duplication knob ([`crate::impair::LinkImpairments`]); the original
    /// keeps `false`, so receivers and tests can tell the copies apart.
    pub path_dup: bool,
}

ckpt_fields!(Packet { flow, seq, size, ecn, sent_at, retransmit, path_dup });

impl Packet {
    /// Convenience constructor for a fresh data packet.
    pub fn data(flow: FlowId, seq: u64, size: usize, ecn: Ecn, now: Time) -> Self {
        Packet {
            flow,
            seq,
            size,
            ecn,
            sent_at: now,
            retransmit: false,
            path_dup: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_round_trips_every_field() {
        let mut pkt = Packet::data(FlowId(7), 42, 1500, Ecn::Ect1, Time::from_millis(3));
        pkt.retransmit = true;
        pkt.path_dup = true;
        let mut w = CkptWriter::new();
        pkt.save_ckpt(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let mut back = Packet::default();
        back.restore_ckpt(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.flow, pkt.flow);
        assert_eq!(back.seq, pkt.seq);
        assert_eq!(back.size, pkt.size);
        assert_eq!(back.ecn, pkt.ecn);
        assert_eq!(back.sent_at, pkt.sent_at);
        assert_eq!(back.retransmit, pkt.retransmit);
        assert_eq!(back.path_dup, pkt.path_dup);
    }

    #[test]
    fn bad_ecn_tag_is_corrupt() {
        let mut ecn = Ecn::NotEct;
        assert!(matches!(
            ecn.restore_ckpt(&mut CkptReader::new(&[9])),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn ect_classification() {
        assert!(!Ecn::NotEct.is_ect());
        assert!(Ecn::Ect0.is_ect());
        assert!(Ecn::Ect1.is_ect());
        assert!(Ecn::Ce.is_ect());
    }

    #[test]
    fn names_are_the_debug_text() {
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(ecn.name(), format!("{ecn:?}"));
        }
    }

    #[test]
    fn scalable_classification_follows_figure_9() {
        assert!(Ecn::Ect1.is_scalable());
        assert!(Ecn::Ce.is_scalable());
        assert!(!Ecn::Ect0.is_scalable());
        assert!(!Ecn::NotEct.is_scalable());
    }

    #[test]
    fn flow_id_indexes() {
        assert_eq!(FlowId(7).idx(), 7);
    }

    #[test]
    fn data_packet_defaults() {
        let p = Packet::data(FlowId(1), 42, 1500, Ecn::Ect0, Time::from_millis(3));
        assert_eq!(p.seq, 42);
        assert!(!p.retransmit);
        assert!(!p.path_dup);
        assert_eq!(p.sent_at, Time::from_millis(3));
    }
}
