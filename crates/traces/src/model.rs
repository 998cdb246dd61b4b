//! The trace model: what a passive eavesdropper keeps from a pcap.
//!
//! §3: "extracted packet timestamps and directions". We also retain the
//! wire size (the paper's splitting countermeasure manipulates sizes, so
//! the defended trace generator needs them), but the attack can be
//! configured to ignore sizes for strict parity with the paper.

use netsim::json::{Json, JsonError};
use netsim::{Capture, Direction, Nanos};

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
    pub fn from_capture(cap: &Capture, label: usize, visit: usize) -> Self {
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
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.ts - a.ts,
            _ => Nanos::ZERO,
        }
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
    pub fn iats(&self) -> Vec<f64> {
        self.packets
            .windows(2)
            .map(|w| (w[1].ts - w[0].ts).as_secs_f64())
            .collect()
    }

    /// JSON form `{label, visit, packets: [[ts, dir, size], ...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("label", self.label)
            .set("visit", self.visit)
            .set(
                "packets",
                Json::Arr(self.packets.iter().map(|p| p.to_json()).collect()),
            )
    }

    /// Parse the [`Trace::to_json`] form back.
    pub fn from_json(v: &Json) -> Result<Trace, JsonError> {
        let packets = v
            .req_arr("packets")?
            .iter()
            .map(TracePacket::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace {
            packets,
            label: v.req_u64("label")? as usize,
            visit: v.req_u64("visit")? as usize,
        })
    }

    /// Re-sort packets by timestamp (stable), then rebase to zero. Used
    /// after defenses shift timings.
    pub fn normalize(&mut self) {
        self.packets.sort_by_key(|p| p.ts);
        if let Some(first) = self.packets.first() {
            let t0 = first.ts;
            if !t0.is_zero() {
                for p in &mut self.packets {
                    p.ts -= t0;
                }
            }
        }
    }
}

/// Struct-of-arrays view of a [`Trace`]: parallel `ts`/`dir`/`size`
/// columns with the same accessor surface as the row form.
///
/// The row layout ([`Trace`], `Vec<TracePacket>`) is what the defenses
/// and the stack naturally produce; the hot readers (feature extraction,
/// emulate-path reference banks) scan one column at a time, where a
/// columnar layout is cache-friendly — scanning `ts` touches 8 bytes per
/// packet instead of a 16-byte struct with padding. Conversion is
/// lossless in both directions ([`TraceCols::from_trace`] /
/// [`TraceCols::to_trace`]), and `fill_from` reuses the column buffers so
/// a batch consumer allocates once, not per trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCols {
    pub label: usize,
    pub visit: usize,
    ts: Vec<Nanos>,
    dir: Vec<Direction>,
    size: Vec<u32>,
}

impl TraceCols {
    pub fn new() -> Self {
        TraceCols::default()
    }

    pub fn from_trace(t: &Trace) -> Self {
        let mut c = TraceCols::new();
        c.fill_from(t);
        c
    }

    /// Refill the columns from `t`, reusing the existing allocations.
    pub fn fill_from(&mut self, t: &Trace) {
        self.label = t.label;
        self.visit = t.visit;
        self.ts.clear();
        self.dir.clear();
        self.size.clear();
        self.ts.reserve(t.len());
        self.dir.reserve(t.len());
        self.size.reserve(t.len());
        for p in &t.packets {
            self.ts.push(p.ts);
            self.dir.push(p.dir);
            self.size.push(p.size);
        }
    }

    /// Back to the row representation (exact inverse of `from_trace`).
    pub fn to_trace(&self) -> Trace {
        Trace {
            packets: (0..self.len()).map(|i| self.packet(i)).collect(),
            label: self.label,
            visit: self.visit,
        }
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    pub fn ts(&self) -> &[Nanos] {
        &self.ts
    }
    pub fn dirs(&self) -> &[Direction] {
        &self.dir
    }
    pub fn sizes(&self) -> &[u32] {
        &self.size
    }

    /// Row view of packet `i`.
    pub fn packet(&self, i: usize) -> TracePacket {
        TracePacket::new(self.ts[i], self.dir[i], self.size[i])
    }

    /// Total bytes in a direction (same as [`Trace::bytes`]).
    pub fn bytes(&self, dir: Direction) -> u64 {
        self.dir
            .iter()
            .zip(&self.size)
            .filter(|(d, _)| **d == dir)
            .map(|(_, s)| *s as u64)
            .sum()
    }

    /// Same as [`Trace::duration`].
    pub fn duration(&self) -> Nanos {
        match (self.ts.first(), self.ts.last()) {
            (Some(a), Some(b)) => *b - *a,
            _ => Nanos::ZERO,
        }
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

    #[test]
    fn soa_round_trips_losslessly_and_matches_accessors() {
        let t = trace();
        let c = TraceCols::from_trace(&t);
        assert_eq!(c.len(), t.len());
        assert_eq!(c.to_trace(), t, "row -> columns -> row is lossless");
        assert_eq!(c.bytes(Direction::Out), t.bytes(Direction::Out));
        assert_eq!(c.bytes(Direction::In), t.bytes(Direction::In));
        assert_eq!(c.duration(), t.duration());
        for i in 0..t.len() {
            assert_eq!(c.packet(i), t.packets[i]);
            assert_eq!(c.ts()[i], t.packets[i].ts);
            assert_eq!(c.dirs()[i], t.packets[i].dir);
            assert_eq!(c.sizes()[i], t.packets[i].size);
        }
    }

    #[test]
    fn soa_fill_from_reuses_and_replaces() {
        let t = trace();
        let mut c = TraceCols::from_trace(&t);
        let small = t.truncated(1);
        c.fill_from(&small);
        assert_eq!(c.len(), 1);
        assert_eq!(c.to_trace(), small);
        let empty = Trace::new(7, 3, vec![]);
        c.fill_from(&empty);
        assert!(c.is_empty());
        assert_eq!(c.to_trace(), empty);
        assert_eq!(c.duration(), Nanos::ZERO);
    }

    #[test]
    fn json_round_trip() {
        let t = trace();
        let s = t.to_json().to_string_compact();
        let back = Trace::from_json(&Json::parse(&s).expect("parse")).expect("de");
        assert_eq!(back, t);
    }

    #[test]
    fn json_rejects_malformed_packets() {
        let v = Json::parse(r#"{"label":0,"visit":0,"packets":[[1,"x",5]]}"#).expect("parse");
        assert!(Trace::from_json(&v).is_err(), "bad direction code");
        let v = Json::parse(r#"{"label":0,"packets":[]}"#).expect("parse");
        assert!(Trace::from_json(&v).is_err(), "missing visit");
    }

    #[test]
    fn json_rejects_sizes_beyond_u32_instead_of_truncating() {
        let max = Json::parse(&format!("[0,\"i\",{}]", u32::MAX)).expect("parse");
        let p = TracePacket::from_json(&max).expect("u32::MAX is a valid size");
        assert_eq!(p.size, u32::MAX);
        // 2^32 + 1514 used to parse as a 1,514-byte packet.
        for too_big in [u64::from(u32::MAX) + 1, (1 << 32) + 1514] {
            let v = Json::parse(&format!("[0,\"i\",{too_big}]")).expect("parse");
            assert!(TracePacket::from_json(&v).is_err(), "size {too_big}");
            let t = Json::parse(&format!(
                r#"{{"label":0,"visit":0,"packets":[[0,"i",{too_big}]]}}"#
            ))
            .expect("parse");
            assert!(Trace::from_json(&t).is_err(), "trace with size {too_big}");
        }
        // The widest legal packet still round-trips through a trace.
        let t = Trace::new(1, 2, vec![p, TracePacket::new(Nanos(9), Direction::Out, 0)]);
        let s = t.to_json().to_string_compact();
        assert_eq!(
            Trace::from_json(&Json::parse(&s).expect("parse")).expect("de"),
            t
        );
    }
}
