//! Vantage-point packet capture — the simulator's `tcpdump`.
//!
//! The paper's §3 methodology captures traffic at the client access link
//! and keeps only *timestamps and directions* (plus sizes, which we retain
//! for the size-aware experiments). `Capture` records exactly the view a
//! passive on-path eavesdropper gets: wire sizes after all stack
//! processing, at the instant packets cross the observation point.

use crate::packet::{Packet, PacketKind};
use crate::time::Nanos;

/// Direction relative to the monitored client: `Out` = client→server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    Out,
    In,
}

impl Direction {
    /// +1 for outgoing, -1 for incoming — the signed convention used by
    /// the WF feature literature.
    pub fn sign(self) -> i8 {
        match self {
            Direction::Out => 1,
            Direction::In => -1,
        }
    }
}

/// One captured packet, as the eavesdropper sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRecord {
    pub ts: Nanos,
    pub dir: Direction,
    /// On-wire bytes (headers included) — what a pcap records.
    pub wire_len: u32,
    pub kind: PacketKind,
    /// Multipath leg the packet was tagged for, if any — lets a single
    /// vantage point be sliced into per-leg observer views.
    pub(crate) pipe: Option<u8>,
}

/// A capture holds one record per packet it saw, so a field added here
/// is paid on every one of them.
const _: () = assert!(
    std::mem::size_of::<CaptureRecord>() == 16,
    "CaptureRecord outgrew its 16 bytes"
);

/// An append-only capture buffer at one observation point.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    pub records: Vec<CaptureRecord>,
}

impl Capture {
    pub fn new() -> Self {
        Capture::default()
    }

    /// Observe a packet crossing the vantage point at time `ts`.
    pub fn observe(&mut self, ts: Nanos, dir: Direction, pkt: &Packet) {
        self.records.push(CaptureRecord {
            ts,
            dir,
            wire_len: pkt.wire_len,
            kind: pkt.kind,
            pipe: pkt.meta.pipe,
        });
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes seen in a given direction.
    pub fn bytes(&self, dir: Direction) -> u64 {
        self.records
            .iter()
            .filter(|r| r.dir == dir)
            .map(|r| r.wire_len as u64)
            .sum()
    }

    /// Duration between first and last record.
    pub fn duration(&self) -> Nanos {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.ts - a.ts,
            _ => Nanos::ZERO,
        }
    }

    /// Keep only data-bearing packets (drop pure ACKs), the common
    /// preprocessing for WF datasets captured at the client side.
    pub fn without_acks(&self) -> Capture {
        Capture {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| !r.kind.is_ack())
                .collect(),
        }
    }

    /// The sub-capture an observer tapping only multipath leg `pipe`
    /// would have recorded: packets tagged for that leg, untagged
    /// (single-path) packets excluded. Timestamps are kept as observed
    /// at this vantage point.
    pub fn for_pipe(&self, pipe: u8) -> Capture {
        Capture {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.pipe == Some(pipe))
                .collect(),
        }
    }

    /// Check the invariant every capture must satisfy: timestamps
    /// non-decreasing.
    pub fn is_time_ordered(&self) -> bool {
        self.records.windows(2).all(|w| w[0].ts <= w[1].ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};

    #[test]
    fn observe_records_wire_view() {
        let mut c = Capture::new();
        let p = Packet::tcp_data(FlowId(3), 0, 0, 1448);
        c.observe(Nanos(100), Direction::In, &p);
        assert_eq!(c.len(), 1);
        let r = c.records[0];
        assert_eq!(r.ts, Nanos(100));
        assert_eq!(r.dir, Direction::In);
        assert_eq!(r.wire_len, 1514);
    }

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::Out.sign(), 1);
        assert_eq!(Direction::In.sign(), -1);
    }

    #[test]
    fn byte_totals_per_direction() {
        let mut c = Capture::new();
        c.observe(
            Nanos(0),
            Direction::Out,
            &Packet::tcp_data(FlowId(1), 0, 0, 100),
        );
        c.observe(
            Nanos(1),
            Direction::In,
            &Packet::tcp_data(FlowId(1), 0, 0, 1000),
        );
        c.observe(Nanos(2), Direction::In, &Packet::tcp_ack(FlowId(1), 0, 0));
        assert_eq!(c.bytes(Direction::Out), 166);
        assert_eq!(c.bytes(Direction::In), 1066 + 66);
    }

    #[test]
    fn ack_filtering() {
        let mut c = Capture::new();
        c.observe(
            Nanos(0),
            Direction::Out,
            &Packet::tcp_data(FlowId(1), 0, 0, 10),
        );
        c.observe(Nanos(1), Direction::In, &Packet::tcp_ack(FlowId(1), 0, 10));
        let d = c.without_acks();
        assert_eq!(d.len(), 1);
        assert_eq!(d.records[0].dir, Direction::Out);
    }

    #[test]
    fn duration_and_ordering() {
        let mut c = Capture::new();
        assert_eq!(c.duration(), Nanos::ZERO);
        c.observe(Nanos(10), Direction::Out, &Packet::tcp_ack(FlowId(1), 0, 0));
        c.observe(Nanos(250), Direction::In, &Packet::tcp_ack(FlowId(1), 0, 0));
        assert_eq!(c.duration(), Nanos(240));
        assert!(c.is_time_ordered());
    }
}
