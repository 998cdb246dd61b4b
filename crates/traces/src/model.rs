//! The trace model: what a passive eavesdropper keeps from a pcap.
//!
//! §3: "extracted packet timestamps and directions". We also retain the
//! wire size (the paper's splitting countermeasure manipulates sizes, so
//! the defended trace generator needs them), but the attack can be
//! configured to ignore sizes for strict parity with the paper.

use netsim::{Capture, Direction, Nanos};
use stob::defense::{flow_duration, normalize_flow};

/// One packet as the eavesdropper records it: the defense layer's
/// packet type under the name this crate has always used, so a trace's
/// packets go into and come out of the shaping kernel without a
/// conversion.
pub type TracePacket = stob::defense::FlowPkt;

/// A full visit trace with its ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub packets: Vec<TracePacket>,
    /// Site index (class label).
    pub label: usize,
    /// Visit number within the site (provenance).
    pub visit: usize,
}

impl Trace {
    pub fn new(label: usize, visit: usize, packets: Vec<TracePacket>) -> Self {
        Trace {
            packets,
            label,
            visit,
        }
    }

    /// Convert a vantage-point capture into a normalized trace
    /// (timestamps rebased to the first packet).
    pub(crate) fn from_capture(cap: &Capture, label: usize, visit: usize) -> Self {
        let t0 = cap.records.first().map(|r| r.ts).unwrap_or(Nanos::ZERO);
        let packets = cap
            .records
            .iter()
            .map(|r| TracePacket::new(r.ts - t0, r.dir, r.wire_len))
            .collect();
        Trace {
            packets,
            label,
            visit,
        }
    }

    pub fn len(&self) -> usize {
        self.packets.len()
    }
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total bytes in a direction.
    pub fn bytes(&self, dir: Direction) -> u64 {
        self.packets
            .iter()
            .filter(|p| p.dir == dir)
            .map(|p| p.size as u64)
            .sum()
    }

    /// Total download size — the paper's sanitization statistic.
    pub fn download_bytes(&self) -> u64 {
        self.bytes(Direction::In)
    }

    pub fn duration(&self) -> Nanos {
        flow_duration(&self.packets)
    }

    /// First `n` packets (the censorship-setting truncation of §3).
    /// `n == 0` means the whole trace.
    pub fn truncated(&self, n: usize) -> Trace {
        let keep = if n == 0 { self.packets.len() } else { n };
        Trace {
            packets: self.packets.iter().copied().take(keep).collect(),
            label: self.label,
            visit: self.visit,
        }
    }

    /// Timestamps must be non-decreasing and start at zero.
    pub fn is_well_formed(&self) -> bool {
        if let Some(first) = self.packets.first() {
            if first.ts != Nanos::ZERO {
                return false;
            }
        }
        self.packets.windows(2).all(|w| w[0].ts <= w[1].ts)
    }

    /// Inter-arrival times in seconds (length = len-1).
    #[cfg(test)]
    pub(crate) fn iats(&self) -> Vec<f64> {
        self.packets
            .windows(2)
            .map(|w| (w[1].ts - w[0].ts).as_secs_f64())
            .collect()
    }

    /// Re-sort packets by timestamp (stable), then rebase to zero. Used
    /// after defenses shift timings.
    pub fn normalize(&mut self) {
        normalize_flow(&mut self.packets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FlowId, Packet};

    fn trace() -> Trace {
        Trace::new(
            0,
            0,
            vec![
                TracePacket::new(Nanos(0), Direction::Out, 583),
                TracePacket::new(Nanos(1000), Direction::In, 1514),
                TracePacket::new(Nanos(2000), Direction::In, 1514),
                TracePacket::new(Nanos(3000), Direction::Out, 66),
            ],
        )
    }

    #[test]
    fn byte_accounting_by_direction() {
        let t = trace();
        assert_eq!(t.bytes(Direction::Out), 649);
        assert_eq!(t.download_bytes(), 3028);
        assert_eq!(t.duration(), Nanos(3000));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn signed_size_convention() {
        let t = trace();
        assert_eq!(t.packets[0].signed_size(), 583);
        assert_eq!(t.packets[1].signed_size(), -1514);
    }

    #[test]
    fn truncation() {
        let t = trace();
        assert_eq!(t.truncated(2).len(), 2);
        assert_eq!(t.truncated(0).len(), 4, "0 means whole trace");
        assert_eq!(t.truncated(100).len(), 4);
        assert_eq!(t.truncated(2).label, t.label);
    }

    #[test]
    fn from_capture_rebases_time() {
        let mut cap = Capture::new();
        let p = Packet::tcp_data(FlowId(1), 0, 0, 100);
        cap.observe(Nanos(5_000), Direction::Out, &p);
        cap.observe(Nanos(7_000), Direction::In, &p);
        let t = Trace::from_capture(&cap, 3, 9);
        assert_eq!(t.packets[0].ts, Nanos(0));
        assert_eq!(t.packets[1].ts, Nanos(2_000));
        assert_eq!(t.label, 3);
        assert_eq!(t.visit, 9);
        assert!(t.is_well_formed());
    }

    #[test]
    fn well_formedness_detects_disorder() {
        let mut t = trace();
        assert!(t.is_well_formed());
        t.packets.swap(1, 2); // timestamps now out of order
        assert!(!t.is_well_formed());
        t.normalize();
        assert!(t.is_well_formed());
        // A nonzero first timestamp is also malformed until rebased.
        let mut u = trace();
        for p in &mut u.packets {
            p.ts += Nanos(500);
        }
        assert!(!u.is_well_formed());
        u.normalize();
        assert!(u.is_well_formed());
    }

    #[test]
    fn iats() {
        let t = trace();
        let iats = t.iats();
        assert_eq!(iats.len(), 3);
        assert!((iats[0] - 1e-6).abs() < 1e-12);
    }
}
