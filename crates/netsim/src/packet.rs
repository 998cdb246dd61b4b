//! Packet representation.
//!
//! The simulator models packets as metadata only — no payload bytes are
//! carried, because every consumer in this reproduction (congestion
//! control, queues, the WF attacker) operates on sizes, directions and
//! times. Transport correctness (exact byte-stream delivery) is checked at
//! the TCP layer with sequence-number accounting instead of real buffers.

use crate::time::Nanos;

/// Identifies one transport flow (5-tuple stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

/// What kind of transport PDU this wire packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// TCP data segment carrying `payload` bytes of the stream
    /// starting at `seq`.
    TcpData,
    /// Pure TCP ACK (no payload).
    TcpAck,
    /// TCP connection setup (SYN / SYN-ACK).
    TcpSyn,
    TcpSynAck,
    /// TCP connection teardown.
    TcpFin,
    /// QUIC handshake datagram (Initial/Handshake flights).
    QuicInit,
    /// QUIC/UDP datagram carrying stream payload.
    QuicData,
    /// QUIC ACK-only datagram.
    QuicAck,
    /// Padding (dummy) packet injected by a defense; carries no
    /// application payload.
    Padding,
    /// Multipath session setup datagram (client→server hello and the
    /// server's echo back).
    MuxInit,
    /// Multipath datagram carrying sequenced stream payload over one
    /// pipe (`meta.pipe` selects the leg).
    MuxData,
    /// XOR-parity repair datagram covering one FEC group of `MuxData`
    /// packets; carries no forward application payload itself.
    MuxParity,
    /// Multipath ACK-only datagram (cumulative ack + per-pipe receipt
    /// count for liveness scoring).
    MuxAck,
}

impl PacketKind {
    pub(crate) fn is_ack(self) -> bool {
        matches!(
            self,
            PacketKind::TcpAck | PacketKind::QuicAck | PacketKind::MuxAck
        )
    }
}

/// Metadata attached by the stack for observability and for Stob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// 1-based index of the TSO segment this packet was split from
    /// (0 = not produced by TSO).
    pub tso_burst: u64,
    /// True if this wire packet is a retransmission.
    pub retransmit: bool,
    /// True if a Stob/defense decision altered this packet's size or
    /// departure time.
    pub shaped: bool,
    /// One SACK block carried by this ACK: `[lo, hi)` in the peer's
    /// sequence space (a single-block stand-in for RFC 2018).
    pub sack: Option<(u64, u64)>,
    /// Multipath leg this packet is routed over (`None` = the default
    /// single path). Set by a multipath transport; the delivery layer
    /// routes tagged packets through the matching provisioned pipe.
    pub pipe: Option<u8>,
}

/// One wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique id (monotone in creation order).
    pub(crate) id: u64,
    pub flow: FlowId,
    pub kind: PacketKind,
    /// Transport sequence number of the first payload byte (TCP) or
    /// packet number (QUIC).
    pub seq: u64,
    /// Cumulative ACK number carried (TCP) / largest acked (QUIC).
    pub ack: u64,
    /// Application payload bytes in this packet.
    pub payload: u32,
    /// Total on-wire size including all headers, in bytes.
    pub wire_len: u32,
    /// Receive-window advertisement carried by this packet (bytes).
    pub rwnd: u64,
    /// Time the packet left the sender NIC.
    pub sent_at: Nanos,
    pub meta: PacketMeta,
}

/// Fixed header overhead we charge per packet: Ethernet (14) + IPv4 (20) +
/// TCP (20 + 12 timestamp option) = 66 bytes.
pub(crate) const TCP_OVERHEAD: u32 = 66;

/// The conventional Ethernet wire MTU: a 1500-byte IP packet plus the
/// 14-byte Ethernet header. The largest packet the trace generators,
/// the defenses' re-chunking and padding, and the replay pipeline emit.
pub const MTU_WIRE: u32 = 1514;

impl Packet {
    /// Build a TCP data segment wire packet.
    pub fn tcp_data(flow: FlowId, seq: u64, ack: u64, payload: u32) -> Packet {
        Packet {
            id: 0,
            flow,
            kind: PacketKind::TcpData,
            seq,
            ack,
            payload,
            wire_len: payload + TCP_OVERHEAD,
            rwnd: 0,
            sent_at: Nanos::ZERO,
            meta: PacketMeta::default(),
        }
    }

    /// Build a pure TCP ACK.
    pub fn tcp_ack(flow: FlowId, seq: u64, ack: u64) -> Packet {
        Packet {
            id: 0,
            flow,
            kind: PacketKind::TcpAck,
            seq,
            ack,
            payload: 0,
            wire_len: TCP_OVERHEAD,
            rwnd: 0,
            sent_at: Nanos::ZERO,
            meta: PacketMeta::default(),
        }
    }

    /// End of the payload byte range.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_data_wire_len_includes_headers() {
        let p = Packet::tcp_data(FlowId(1), 0, 0, 1448);
        assert_eq!(p.wire_len, 1448 + TCP_OVERHEAD);
        assert_eq!(p.seq_end(), 1448);
        assert!(!p.kind.is_ack());
    }

    #[test]
    fn ack_has_no_payload() {
        let p = Packet::tcp_ack(FlowId(1), 5, 1000);
        assert_eq!(p.payload, 0);
        assert_eq!(p.wire_len, TCP_OVERHEAD);
        assert!(p.kind.is_ack());
    }

    #[test]
    fn padding_is_not_payload() {
        assert!(!PacketKind::Padding.is_ack());
    }
}
