//! QUIC-lite: the third column of Figure 1.
//!
//! The paper stresses that moving to QUIC does not restore application
//! control over the packet sequence: QUIC provides a *stream* abstraction,
//! sizes its own packets from PMTU discovery, schedules datagram handoff
//! to UDP from its own congestion controller, and (with UDP GSO / the
//! emerging QUIC NIC offload, §2.3) batches datagrams that then leave at
//! line rate. This module models exactly those properties:
//!
//! * stream bytes are packetized into `max_datagram`-sized UDP datagrams
//!   chosen by the transport, not the app,
//! * a GSO-style batch (several datagrams handed down as one segment)
//!   plays the role TSO plays for TCP, and passes through the same
//!   [`crate::shaper::Shaper`] hooks so Stob policies apply to QUIC too,
//! * acknowledgments are packet-number based, with packet-threshold loss
//!   detection (RFC 9002's `kPacketThreshold = 3`) and a PTO timer,
//! * the congestion-control trait is shared with TCP, and the receive
//!   frontiers (packet numbers, stream offsets) and the PTO are the
//!   crate-private `seq` types TCP uses.
//!
//! Wire-field conventions (the model is metadata-only): on `QuicData`
//! packets `seq` is the *packet number* and `ack` carries the *stream
//! offset* of the payload (standing in for the STREAM frame header). On
//! `QuicAck` packets `ack` is the largest received packet number and
//! `seq` the contiguous floor (all packet numbers below it received) —
//! a two-value stand-in for QUIC's ACK ranges.

use crate::cc::{make_cc, AckInfo, CongestionControl};
use crate::config::StackConfig;
use crate::cpu::Cpu;
use crate::egress::{EgressLabels, EgressPipeline, FlowStats, TransportCore};
use crate::qdisc::SegDesc;
use crate::seq::{Deadline, Due, Reassembly};
use crate::shaper::{BoxShaper, ShapeCtx};
use crate::tcp::{TcpAction, TimerKind};
use netsim::{FlowId, Nanos, Packet, PacketKind};
use std::collections::BTreeMap;

/// QUIC short-header + UDP + IP + Ethernet overhead per datagram.
pub const QUIC_WIRE_OVERHEAD: u32 = 60;
/// Max payload per datagram after PMTU discovery on an Ethernet path.
pub const DEFAULT_MAX_DATAGRAM: u32 = 1350;
/// RFC 9002 packet reordering threshold.
const PACKET_THRESHOLD: u64 = 3;
/// Datagrams per GSO batch.
const GSO_BATCH: u32 = 16;
/// Header bytes we charge when converting datagram payload to an
/// "IP packet size" for the shaper hook (UDP 8 + IP 20 + QUIC short 18).
const DGRAM_HDR: u32 = 46;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuicState {
    Closed,
    Connecting,
    Established,
}

#[derive(Debug, Clone, Copy)]
struct SentPacket {
    offset: u64,
    len: u32,
    sent_at: Nanos,
    is_retx: bool,
}

/// One endpoint of a QUIC-lite connection (single stream).
pub struct QuicConn {
    pub flow: FlowId,
    pub cfg: StackConfig,
    pub state: QuicState,
    is_client: bool,
    cc: Box<dyn CongestionControl>,
    /// Shared egress pipeline: owns the shaper, pacing clock, CPU charge
    /// and tracer hookup (see [`crate::egress`]).
    pub egress: EgressPipeline,
    max_datagram: u32,

    // ---- send side ----
    app_written: u64,
    /// Next fresh stream byte to packetize.
    snd_offset: u64,
    next_pkt_num: u64,
    unacked: BTreeMap<u64, SentPacket>,
    /// Stream ranges awaiting retransmission.
    retx_queue: Vec<(u64, u32)>,
    inflight_bytes: u64,
    pto: Deadline,
    srtt: Option<Nanos>,

    // ---- receive side ----
    largest_recv: Option<u64>,
    /// Packet numbers, as `(num, 1)` fragments: `pns.next()` is the
    /// contiguous floor the ACK reports.
    pns: Reassembly,
    /// Stream bytes: `stream.next()` is the delivered prefix.
    stream: Reassembly,
    ack_counter: u32,

    /// `shaped_segs` is read off the egress pipeline in `flow_stats`.
    pub stats: FlowStats,
}

impl QuicConn {
    pub fn new(flow: FlowId, cfg: StackConfig, is_client: bool) -> Self {
        let cc = make_cc(cfg.cc, DEFAULT_MAX_DATAGRAM, cfg.init_cwnd_segs);
        QuicConn {
            flow,
            state: QuicState::Closed,
            is_client,
            cc,
            egress: EgressPipeline::new(EgressLabels::QUIC),
            max_datagram: DEFAULT_MAX_DATAGRAM,
            app_written: 0,
            snd_offset: 0,
            next_pkt_num: 0,
            unacked: BTreeMap::new(),
            retx_queue: Vec::new(),
            inflight_bytes: 0,
            pto: Deadline::new(TimerKind::Rto),
            srtt: None,
            largest_recv: None,
            pns: Reassembly::default(),
            stream: Reassembly::default(),
            ack_counter: 0,
            stats: FlowStats::default(),
            cfg,
        }
    }

    pub fn established(&self) -> bool {
        self.state == QuicState::Established
    }
    pub fn delivered(&self) -> u64 {
        self.stream.next()
    }
    pub fn inflight(&self) -> u64 {
        self.inflight_bytes
    }
    pub fn fully_acked(&self) -> bool {
        self.unacked.is_empty() && self.retx_queue.is_empty()
    }

    /// A datagram of `payload` stream bytes on the wire.
    fn dgram(&self, kind: PacketKind, seq: u64, ack: u64, payload: u32) -> Packet {
        let mut p = Packet::tcp_data(self.flow, seq, ack, payload);
        p.kind = kind;
        p.wire_len = payload + QUIC_WIRE_OVERHEAD;
        p.rwnd = self.cfg.recv_wnd;
        p
    }

    fn shape_ctx(&self, now: Nanos) -> ShapeCtx {
        ShapeCtx {
            flow: self.flow,
            now,
            cwnd: self.cc.cwnd(),
            pacing_rate_bps: self.pacing_rate_bps(),
            in_slow_start: self.cc.in_slow_start(),
            bytes_sent: self.snd_offset,
            pkts_sent: self.stats.pkts_sent,
            segs_sent: self.stats.segs_sent,
            mtu_ip: self.max_datagram + DGRAM_HDR,
            mss: self.max_datagram,
        }
    }

    fn arm_pto(&mut self, now: Nanos) -> Option<TcpAction> {
        let pto = self
            .srtt
            .map(|s| s * 2 + Nanos::from_millis(10))
            .unwrap_or(self.cfg.init_rto);
        self.pto.arm(now + pto.max(self.cfg.min_rto))
    }

    fn process_ack(
        &mut self,
        largest: u64,
        contig_floor: u64,
        now: Nanos,
        acts: &mut Vec<TcpAction>,
    ) {
        let mut newly_acked = 0u64;
        let mut rtt = None;
        let acked: Vec<u64> = self
            .unacked
            .range(..contig_floor)
            .map(|(&n, _)| n)
            .chain(self.unacked.contains_key(&largest).then_some(largest))
            .collect();
        for n in acked {
            if let Some(sp) = self.unacked.remove(&n) {
                newly_acked += sp.len as u64;
                self.inflight_bytes = self.inflight_bytes.saturating_sub(sp.len as u64);
                if n == largest && !sp.is_retx {
                    rtt = Some(now - sp.sent_at);
                }
            }
        }
        if let Some(r) = rtt {
            self.srtt = Some(match self.srtt {
                None => r,
                Some(s) => (s * 7 + r) / 8,
            });
        }
        if newly_acked > 0 {
            self.cc.on_ack(&AckInfo {
                newly_acked,
                rtt,
                now,
                inflight: self.inflight_bytes,
            });
            netsim::tm_histo!("stack.cc.cwnd_bytes").record(self.cc.cwnd());
            let ctx = self.shape_ctx(now);
            self.egress.on_ack(&ctx);
            if self.unacked.is_empty() {
                self.pto.disarm();
            } else {
                acts.extend(self.arm_pto(now));
            }
        }
        // Packet-threshold loss detection, head-hole only: our two-value
        // ACK cannot distinguish "received above the floor" from "lost
        // above the floor", so only the *first* unacked packet — the hole
        // the contiguous floor is stuck on — may be declared lost, and
        // only once the largest acked is PACKET_THRESHOLD past it
        // (RFC 9002's reordering window). Holes are repaired head-first,
        // like NewReno; the floor then jumps and exposes the next hole.
        if let Some((&head, _)) = self.unacked.iter().next() {
            if largest >= head + PACKET_THRESHOLD {
                self.cc.on_loss(now, self.inflight_bytes);
                let sp = self.unacked.remove(&head).expect("head tracked");
                self.inflight_bytes = self.inflight_bytes.saturating_sub(sp.len as u64);
                self.retx_queue.push((sp.offset, sp.len));
            }
        }
    }

    fn make_ack(&self) -> Packet {
        let largest = self.largest_recv.unwrap_or(0);
        self.dgram(PacketKind::QuicAck, self.pns.next(), largest, 0)
    }
}

impl TransportCore for QuicConn {
    /// Client handshake start: a padded Initial datagram (QUIC requires
    /// Initials to be at least 1200 bytes).
    fn connect(&mut self, _now: Nanos) -> Vec<TcpAction> {
        assert!(self.is_client && self.state == QuicState::Closed);
        self.state = QuicState::Connecting;
        let mut p = self.dgram(PacketKind::QuicInit, 0, 0, 0);
        p.wire_len = 1200 + QUIC_WIRE_OVERHEAD;
        vec![TcpAction::SendCtl(p)]
    }

    fn input(&mut self, pkt: &Packet, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        let mut acts = Vec::new();
        match pkt.kind {
            PacketKind::QuicInit => match (self.is_client, self.state) {
                (false, QuicState::Closed) => {
                    // Server: respond with its handshake flight and
                    // consider the connection up (1-RTT model).
                    self.state = QuicState::Established;
                    let mut resp = pkt.clone();
                    resp.wire_len = 3700 + QUIC_WIRE_OVERHEAD;
                    resp.rwnd = self.cfg.recv_wnd;
                    acts.push(TcpAction::Connected);
                    acts.push(TcpAction::SendCtl(resp));
                }
                (true, QuicState::Connecting) => {
                    self.state = QuicState::Established;
                    acts.push(TcpAction::Connected);
                }
                _ => {}
            },
            PacketKind::QuicAck => {
                let _ = cpu.charge(now, cpu.model.per_ack_rx);
                self.process_ack(pkt.ack, pkt.seq, now, &mut acts);
            }
            PacketKind::QuicData => {
                let _ = cpu.charge(now, cpu.model.per_data_rx);
                let num = pkt.seq;
                self.largest_recv = Some(self.largest_recv.map_or(num, |l| l.max(num)));
                self.pns.accept(num, 1);
                // Offset-based stream reassembly (`ack` is the offset).
                let newly = self.stream.accept(pkt.ack, pkt.payload as u64);
                if let Some(n @ 1..) = newly {
                    self.stats.bytes_delivered += n;
                    acts.push(TcpAction::Deliver(n));
                }
                self.ack_counter += 1;
                // Immediate ACK on reordering (RFC 9000 §13.2.1), else
                // every second packet.
                let out_of_order = !self.pns.ooo().is_empty() || num + 1 < self.pns.next();
                if out_of_order || self.ack_counter >= self.cfg.delack_segs {
                    self.ack_counter = 0;
                    acts.push(TcpAction::SendCtl(self.make_ack()));
                    self.stats.acks_sent += 1;
                }
            }
            _ => {}
        }
        acts
    }

    /// Packetize and emit what congestion control permits, batching up to
    /// a GSO segment at a time.
    fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        let mut acts = Vec::new();
        if self.state != QuicState::Established {
            return acts;
        }
        loop {
            if self.retx_queue.is_empty() && self.app_written == self.snd_offset {
                break;
            }
            if self.inflight_bytes >= self.cc.cwnd() {
                break;
            }
            let ctx = self.shape_ctx(now);
            // GSO batch size through the shared pipeline (stage ② — the
            // batch proposal is the fixed GSO_BATCH, not CC-autosized).
            let batch_max = self.egress.segment_pkts(&ctx, GSO_BATCH);
            let mut shaped = batch_max != GSO_BATCH;
            let mut pkts = Vec::new();
            let mut batch_payload = 0u64;
            for i in 0..batch_max {
                if self.inflight_bytes + batch_payload >= self.cc.cwnd() {
                    break;
                }
                // Prefer retransmissions, then fresh stream data.
                let (offset, want, is_retx) = if let Some((off, len)) = self.retx_queue.pop() {
                    (off, len, true)
                } else {
                    let fresh = self.app_written - self.snd_offset;
                    if fresh == 0 {
                        break;
                    }
                    (
                        self.snd_offset,
                        fresh.min(self.max_datagram as u64) as u32,
                        false,
                    )
                };
                let proposed_ip = want.min(self.max_datagram) + DGRAM_HDR;
                let shaped_ip =
                    self.egress
                        .packet_ip_size(&ctx, i, proposed_ip, DGRAM_HDR + 1, proposed_ip);
                shaped |= shaped_ip != proposed_ip;
                let len = shaped_ip - DGRAM_HDR;
                if is_retx {
                    if len < want {
                        // Shrunk retransmission: requeue the tail.
                        self.retx_queue.push((offset + len as u64, want - len));
                    }
                    self.stats.retransmits += 1;
                } else {
                    self.snd_offset += len as u64;
                }
                let num = self.next_pkt_num;
                self.next_pkt_num += 1;
                // `ack` carries the stream offset (see module docs).
                let mut p = self.dgram(PacketKind::QuicData, num, offset, len);
                p.meta.tso_burst = self.stats.segs_sent + 1;
                p.meta.retransmit = is_retx;
                self.unacked.insert(
                    num,
                    SentPacket {
                        offset,
                        len,
                        sent_at: now,
                        is_retx,
                    },
                );
                batch_payload += len as u64;
                pkts.push(p);
            }
            if pkts.is_empty() {
                break;
            }
            self.inflight_bytes += batch_payload;
            self.stats.pkts_sent += pkts.len() as u64;
            self.stats.segs_sent += 1;
            // Stages ④–⑥: CPU charge, pacing gate, shaper extra delay
            // and pacing-clock advance, all in the shared pipeline.
            let wire: u64 = pkts.iter().map(|p| p.wire_len as u64).sum();
            let npkts = pkts.len() as u32;
            let paced =
                self.egress
                    .pace_segment(&ctx, now, cpu, batch_payload, npkts, wire, shaped);
            let eligible = paced.eligible;
            acts.push(TcpAction::SendSeg(SegDesc::new(self.flow, pkts, eligible)));
            acts.extend(self.arm_pto(now));
        }
        acts
    }

    /// PTO timer fired.
    fn on_timer(&mut self, kind: TimerKind, gen: u64, now: Nanos) -> Vec<TcpAction> {
        if kind != TimerKind::Rto {
            return Vec::new();
        }
        match self.pto.due(gen, now) {
            Due::Stale => return Vec::new(),
            Due::Rearm(act) => return vec![act],
            Due::Fire => {}
        }
        // Re-queue the earliest unacked range for retransmission.
        let Some((_, sp)) = self.unacked.pop_first() else {
            return Vec::new();
        };
        self.stats.timeouts += 1;
        self.cc.on_rto(now);
        self.inflight_bytes = self.inflight_bytes.saturating_sub(sp.len as u64);
        self.retx_queue.push((sp.offset, sp.len));
        self.arm_pto(now).into_iter().collect()
    }

    /// Application write (stream send). The stream buffer is unbounded in
    /// this model; flow control is congestion control only.
    fn write(&mut self, len: u64) -> u64 {
        self.app_written += len;
        len
    }
    fn set_shaper(&mut self, shaper: BoxShaper) {
        self.egress.set_shaper(shaper);
    }
    /// Downward-only PMTU re-discovery: shrink the datagram size used for
    /// future packetization. A floor keeps a pathological schedule from
    /// producing degenerate datagrams.
    fn set_mtu(&mut self, mtu_ip: u32) {
        let dgram = mtu_ip.saturating_sub(DGRAM_HDR).max(256);
        self.max_datagram = self.max_datagram.min(dgram);
    }
    fn set_tracer(&mut self, tracer: netsim::telemetry::Tracer) {
        self.egress.set_tracer(tracer);
    }
    fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }
    fn outstanding(&self) -> u64 {
        self.inflight_bytes
    }
    fn pacing_rate_bps(&self) -> Option<u64> {
        if self.cfg.pacing {
            self.cc.pacing_rate_bps(self.srtt)
        } else {
            None
        }
    }
    fn mtu_ip(&self) -> u32 {
        self.max_datagram + DGRAM_HDR
    }
    fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }
    fn flow_stats(&self) -> FlowStats {
        FlowStats {
            shaped_segs: self.egress.shaped_segs(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;

    fn pair() -> (QuicConn, QuicConn, Cpu, Cpu) {
        let cfg = StackConfig {
            pacing: false,
            ..StackConfig::default()
        };
        (
            QuicConn::new(FlowId(9), cfg.clone(), true),
            QuicConn::new(FlowId(9), cfg, false),
            Cpu::new(CpuModel::infinitely_fast()),
            Cpu::new(CpuModel::infinitely_fast()),
        )
    }

    fn establish(c: &mut QuicConn, s: &mut QuicConn, cc: &mut Cpu, cs: &mut Cpu) {
        let acts = c.connect(Nanos::ZERO);
        let init = match &acts[0] {
            TcpAction::SendCtl(p) => p.clone(),
            _ => panic!("expected Initial"),
        };
        assert!(init.wire_len >= 1200, "Initial must be padded");
        let sacts = s.input(&init, Nanos::from_millis(10), cs);
        let resp = sacts
            .iter()
            .find_map(|a| match a {
                TcpAction::SendCtl(p) => Some(p.clone()),
                _ => None,
            })
            .expect("server flight");
        let _ = c.input(&resp, Nanos::from_millis(20), cc);
        assert!(c.established() && s.established());
    }

    /// Lossless in-order shuttle for stream data.
    fn shuttle(c: &mut QuicConn, s: &mut QuicConn, cc: &mut Cpu, cs: &mut Cpu, now: Nanos) {
        let mut wire: Vec<(bool, Packet)> = Vec::new();
        fn push(acts: Vec<TcpAction>, from_client: bool, wire: &mut Vec<(bool, Packet)>) {
            for a in acts {
                match a {
                    TcpAction::SendSeg(seg) => {
                        for p in seg.pkts {
                            wire.push((from_client, p));
                        }
                    }
                    TcpAction::SendCtl(p) => wire.push((from_client, p)),
                    _ => {}
                }
            }
        }
        push(c.output(now, cc), true, &mut wire);
        push(s.output(now, cs), false, &mut wire);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 200_000, "no convergence");
            if wire.is_empty() {
                // Flush any ACK the receiver is still batching.
                if s.ack_counter > 0 {
                    s.ack_counter = 0;
                    s.stats.acks_sent += 1;
                    wire.push((false, s.make_ack()));
                }
                if c.ack_counter > 0 {
                    c.ack_counter = 0;
                    c.stats.acks_sent += 1;
                    wire.push((true, c.make_ack()));
                }
                if wire.is_empty() {
                    break;
                }
            }
            let (from_client, p) = wire.remove(0);
            if from_client {
                push(s.input(&p, now, cs), false, &mut wire);
                push(s.output(now, cs), false, &mut wire);
            } else {
                push(c.input(&p, now, cc), true, &mut wire);
                push(c.output(now, cc), true, &mut wire);
            }
        }
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
    }

    #[test]
    fn stream_bytes_delivered_exactly() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(500_000);
        shuttle(&mut c, &mut s, &mut cc, &mut cs, Nanos::from_millis(30));
        assert_eq!(s.delivered(), 500_000);
        assert!(c.fully_acked(), "all packets acked");
    }

    #[test]
    fn datagrams_do_not_exceed_max_size() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(100_000);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        let mut data_pkts = 0;
        for a in &acts {
            if let TcpAction::SendSeg(seg) = a {
                for p in &seg.pkts {
                    assert!(p.payload <= DEFAULT_MAX_DATAGRAM);
                    assert_eq!(p.wire_len, p.payload + QUIC_WIRE_OVERHEAD);
                    data_pkts += 1;
                }
                assert!(seg.pkts.len() as u32 <= GSO_BATCH);
            }
        }
        assert!(data_pkts > 0);
        let _ = (&mut s, &mut cs);
    }

    #[test]
    fn cwnd_limits_inflight() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(10_000_000);
        let _ = c.output(Nanos::from_millis(30), &mut cc);
        assert!(c.inflight() <= c.cwnd() + DEFAULT_MAX_DATAGRAM as u64);
        let _ = (&mut s, &mut cs);
    }

    #[test]
    fn reordering_within_threshold_is_tolerated() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(3 * DEFAULT_MAX_DATAGRAM as u64);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        let mut pkts: Vec<Packet> = acts
            .iter()
            .filter_map(|a| match a {
                TcpAction::SendSeg(seg) => Some(seg.pkts.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(pkts.len(), 3);
        pkts.swap(0, 2); // deliver 2,1,0
        for p in &pkts {
            let _ = s.input(p, Nanos::from_millis(40), &mut cs);
        }
        assert_eq!(s.delivered(), 3 * DEFAULT_MAX_DATAGRAM as u64);
    }

    #[test]
    fn packet_threshold_loss_detection_retransmits() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(8 * DEFAULT_MAX_DATAGRAM as u64);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        let pkts: Vec<Packet> = acts
            .iter()
            .filter_map(|a| match a {
                TcpAction::SendSeg(seg) => Some(seg.pkts.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(pkts.len() >= 8, "got {}", pkts.len());
        // Drop packet 0; deliver the rest; collect the server's ACKs.
        let mut acks = Vec::new();
        for p in &pkts[1..] {
            for a in s.input(p, Nanos::from_millis(40), &mut cs) {
                if let TcpAction::SendCtl(ap) = a {
                    acks.push(ap);
                }
            }
        }
        let cwnd_before = c.cwnd();
        for a in &acks {
            let _ = c.input(a, Nanos::from_millis(50), &mut cc);
        }
        assert!(
            !c.retx_queue.is_empty() || c.stats.retransmits > 0,
            "loss not detected"
        );
        // Retransmission carries the missing range; recovery completes.
        shuttle(&mut c, &mut s, &mut cc, &mut cs, Nanos::from_millis(60));
        assert_eq!(s.delivered(), 8 * DEFAULT_MAX_DATAGRAM as u64);
        assert!(c.cwnd() <= cwnd_before, "loss must not grow cwnd");
        assert!(c.stats.retransmits >= 1);
    }

    #[test]
    fn pto_recovers_tail_loss() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(1000);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        let (gen, at) = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmTimer { at, gen, .. } => Some((*gen, *at)),
                _ => None,
            })
            .expect("PTO armed");
        // The lone packet is lost; the timer fires.
        let _ = c.on_timer(TimerKind::Rto, gen, at);
        assert_eq!(c.stats.timeouts, 1);
        // Next output retransmits.
        let acts = c.output(at, &mut cc);
        let retx: Vec<Packet> = acts
            .iter()
            .filter_map(|a| match a {
                TcpAction::SendSeg(seg) => Some(seg.pkts.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(retx.iter().any(|p| p.meta.retransmit));
        for p in &retx {
            let _ = s.input(p, at + Nanos::from_millis(10), &mut cs);
        }
        assert_eq!(s.delivered(), 1000);
    }

    #[test]
    fn stale_pto_is_ignored() {
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.write(1000);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        let (gen, at) = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::ArmTimer { at, gen, .. } => Some((*gen, *at)),
                _ => None,
            })
            .unwrap();
        // Deliver the packet and ACK it before the timer fires.
        let pkt = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::SendSeg(seg) => Some(seg.pkts[0].clone()),
                _ => None,
            })
            .expect("data packet");
        let _ = s.input(&pkt, Nanos::from_millis(31), &mut cs);
        let ack = s.make_ack();
        let _ = c.input(&ack, Nanos::from_millis(32), &mut cc);
        assert!(c.fully_acked());
        assert!(c.on_timer(TimerKind::Rto, gen, at).is_empty());
        assert_eq!(c.stats.timeouts, 0);
    }

    #[test]
    fn shaper_hooks_apply_to_quic_batches() {
        struct Two;
        impl crate::shaper::Shaper for Two {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                p.min(2)
            }
        }
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.set_shaper(Box::new(Two));
        c.write(10 * DEFAULT_MAX_DATAGRAM as u64);
        let acts = c.output(Nanos::from_millis(30), &mut cc);
        for a in &acts {
            if let TcpAction::SendSeg(seg) = a {
                assert!(seg.pkts.len() <= 2);
            }
        }
        let _ = (&mut s, &mut cs);
    }

    #[test]
    fn shaped_small_datagrams_conserve_stream_bytes() {
        struct Small;
        impl crate::shaper::Shaper for Small {
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
                p.min(700)
            }
        }
        let (mut c, mut s, mut cc, mut cs) = pair();
        establish(&mut c, &mut s, &mut cc, &mut cs);
        c.set_shaper(Box::new(Small));
        c.write(50_000);
        shuttle(&mut c, &mut s, &mut cc, &mut cs, Nanos::from_millis(30));
        assert_eq!(s.delivered(), 50_000, "shaping must not lose bytes");
    }
}
