//! TCP with the asynchronous send path the paper dissects.
//!
//! The model keeps full sequence-number accounting (so delivery
//! correctness is checkable) but carries no payload bytes. It implements:
//!
//! * window-gated, buffer-backed sending — `send()` only copies into the
//!   socket buffer; transmission happens when cwnd/rwnd open (§2.3's first
//!   asynchrony),
//! * TSO segment construction with CC-driven autosizing (Linux's
//!   `tcp_tso_autosize`: roughly 1 ms of the pacing rate, at least 2 MSS),
//! * the three Stob hook points: TSO size, per-packet size, extra
//!   departure delay (see [`crate::shaper::Shaper`]),
//! * pacing timestamps consumed by the FQ qdisc,
//! * TCP-small-queues back-pressure (bytes in qdisc+NIC are capped;
//!   completions re-trigger output),
//! * RTT estimation (RFC 6298), RTO with exponential backoff, fast
//!   retransmit on three duplicate ACKs with a NewReno-style recovery
//!   point, a one-block SACK scoreboard, delayed ACKs, optional Nagle,
//! * SYN/SYN-ACK establishment and FIN teardown, so captures contain the
//!   handshake packets a real pcap shows.
//!
//! The receive sequence space is a `Reassembly` and both timers are
//! `Deadline`s (crate-private `seq` module), shared with QUIC and `Multiplex`.
//!
//! Simplifications (documented for fidelity review): no ECN, no window
//! scaling negotiation (windows are byte counts directly), no ISS (both
//! directions start at sequence 0), a lost FIN is never retransmitted,
//! and the receive buffer is drained instantly by the application, so the
//! advertised window is constant at `cfg.recv_wnd`.

use crate::cc::{make_cc, AckInfo, CongestionControl};
use crate::config::{
    StackConfig, DELACK_SEGS, INIT_RTO, IP_TCP_OVERHEAD, MIN_IP_PACKET, MIN_RTO, TSO_MAX_PKTS,
};
use crate::cpu::Cpu;
use crate::egress::{Actions, EgressLabels, EgressPipeline, FlowStats, TransportCore};
use crate::qdisc::SegDesc;
use crate::seq::{Deadline, Due, Reassembly};
use crate::shaper::{BoxShaper, ShapeCtx};
use netsim::{FlowId, Nanos, Packet, PacketKind};
use std::collections::BTreeMap;

/// Send socket buffer in bytes: `write` accepts at most this much
/// unsent data (Linux's `tcp_wmem` maximum).
pub(crate) const SEND_BUF: u64 = 32 << 20;
/// Delayed ACK: acknowledge after this long if the second full-sized
/// segment has not arrived (Linux's `TCP_DELACK_MIN`).
pub(crate) const DELACK_TIMEOUT: Nanos = Nanos::from_millis(40);

/// Handshake state. Teardown needs none of its own: `fin_queued` /
/// `fin_sent` and `peer_fin_at` / `peer_closed_delivered` carry the close
/// of each direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpState {
    Closed,
    SynSent,
    SynReceived,
    Established,
}

/// What timer kind a scheduled event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    Rto,
    DelAck,
    /// Multipath liveness probe / failover tick (`stack::mux`). TCP and
    /// QUIC ignore it.
    Probe,
}

/// Effects the connection asks the host/event loop to carry out.
#[derive(Debug)]
pub enum TcpAction {
    /// Paced data segment for the qdisc.
    SendSeg(SegDesc),
    /// Unpaced control packet (SYN/SYN-ACK/ACK/FIN) for the prio band.
    SendCtl(Packet),
    /// (Re-)arm a timer; `gen` disambiguates stale events.
    ArmTimer {
        kind: TimerKind,
        at: Nanos,
        gen: u64,
    },
    /// `n` new in-order payload bytes are available to the application.
    Deliver(u64),
    /// Socket-buffer space freed after the app previously hit the limit.
    Sendable,
    /// Handshake completed.
    Connected,
    /// Peer's FIN fully received.
    PeerClosed,
}

/// One endpoint of a TCP connection (its transmission control block).
pub struct TcpConn {
    pub(crate) flow: FlowId,
    pub(crate) cfg: StackConfig,
    pub(crate) cc: Box<dyn CongestionControl>,
    /// Shared egress pipeline: owns the shaper, pacing clock, CPU charge
    /// and tracer hookup (see [`crate::egress`]).
    pub(crate) egress: EgressPipeline,
    pub(crate) state: TcpState,
    is_client: bool,

    // ---- send sequence space ----
    app_written: u64,
    snd_una: u64,
    snd_nxt: u64,
    peer_rwnd: u64,
    dup_acks: u32,
    recovery_point: Option<u64>,
    /// Bytes currently in qdisc + NIC (TSQ accounting).
    tsq_bytes: u64,
    blocked: bool,
    fin_queued: bool,
    fin_sent: bool,

    // ---- timers / RTT ----
    srtt: Option<Nanos>,
    rttvar: Nanos,
    rto: Nanos,
    rto_backoff: u32,
    rto_timer: Deadline,
    delack_timer: Deadline,
    /// Outstanding RTT probes: seq_end -> send time. Multiple probes
    /// approximate per-segment TCP timestamps, giving HyStart and the
    /// RTO estimator sub-RTT reaction time. Cleared by any
    /// retransmission (Karn's algorithm).
    rtt_probes: BTreeMap<u64, Nanos>,
    /// SACK scoreboard: received-above-cumulative ranges reported by
    /// the peer, as start -> end (RFC 2018-lite, one block per ACK);
    /// disjoint and non-adjacent.
    sacked: BTreeMap<u64, u64>,

    // ---- receive sequence space ----
    rcv: Reassembly,
    delack_count: u32,
    peer_fin_at: Option<u64>,
    peer_closed_delivered: bool,

    /// `segs_sent` / `pkts_sent` double as the shaper's progress counters.
    pub(crate) stats: FlowStats,
}

impl TcpConn {
    pub fn new(flow: FlowId, cfg: StackConfig, is_client: bool) -> Self {
        let cc = make_cc(cfg.cc, cfg.mss(), cfg.init_cwnd_segs);
        TcpConn {
            flow,
            cc,
            egress: EgressPipeline::new(EgressLabels::TCP),
            state: TcpState::Closed,
            is_client,
            app_written: 0,
            snd_una: 0,
            snd_nxt: 0,
            peer_rwnd: cfg.recv_wnd, // assume symmetric until first packet
            dup_acks: 0,
            recovery_point: None,
            tsq_bytes: 0,
            blocked: false,
            fin_queued: false,
            fin_sent: false,
            srtt: None,
            rttvar: Nanos::ZERO,
            rto: INIT_RTO,
            rto_backoff: 0,
            rto_timer: Deadline::new(TimerKind::Rto),
            delack_timer: Deadline::new(TimerKind::DelAck),
            rtt_probes: BTreeMap::new(),
            sacked: BTreeMap::new(),
            rcv: Reassembly::default(),
            delack_count: 0,
            peer_fin_at: None,
            peer_closed_delivered: false,
            stats: FlowStats::default(),
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    pub(crate) fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }
    /// Bytes SACKed above the cumulative ACK point.
    pub(crate) fn sacked_bytes(&self) -> u64 {
        self.sacked
            .iter()
            .map(|(&s, &e)| e - s.max(self.snd_una).min(e))
            .sum()
    }
    /// RFC 6675 "pipe": bytes believed to actually be in the network.
    pub(crate) fn pipe(&self) -> u64 {
        self.inflight().saturating_sub(self.sacked_bytes())
    }
    fn note_sack(&mut self, lo: u64, hi: u64) {
        if hi <= lo || hi <= self.snd_una {
            return;
        }
        // Absorb every range overlapping or touching [lo, hi]: the ranges
        // are disjoint, so they are the last few starting at or below hi.
        let (mut lo, mut hi) = (lo.max(self.snd_una), hi);
        while let Some((&s, &e)) = self.sacked.range(..=hi).next_back() {
            if e < lo {
                break;
            }
            self.sacked.remove(&s);
            lo = lo.min(s);
            hi = hi.max(e);
        }
        self.sacked.insert(lo, hi);
    }
    fn drop_sacked_below_una(&mut self) {
        let una = self.snd_una;
        // Drop every range starting below una; only the last of them can
        // straddle it, and that one comes back trimmed to start at una.
        while let Some(range) = self.sacked.first_entry() {
            if *range.key() >= una {
                break;
            }
            let (_, e) = range.remove_entry();
            if e > una {
                self.sacked.insert(una, e);
            }
        }
    }
    pub(crate) fn send_buffered(&self) -> u64 {
        self.app_written - self.snd_una
    }
    pub fn established(&self) -> bool {
        self.state == TcpState::Established
    }
    /// All data (and FIN, if requested) sent and acknowledged.
    pub fn send_complete(&self) -> bool {
        self.snd_una == self.app_written && (!self.fin_queued || self.fin_sent)
    }

    fn shape_ctx(&self, now: Nanos) -> ShapeCtx {
        ShapeCtx {
            flow: self.flow,
            now,
            cwnd: self.cc.cwnd(),
            pacing_rate_bps: self.pacing_rate_bps(),
            in_slow_start: self.cc.in_slow_start(),
            bytes_sent: self.snd_nxt,
            pkts_sent: self.stats.pkts_sent,
            segs_sent: self.stats.segs_sent,
            mtu_ip: self.cfg.mtu_ip,
            mss: self.cfg.mss(),
        }
    }

    /// A control packet (SYN, SYN-ACK, ACK, FIN) advertising our window.
    fn ctl(&self, kind: PacketKind, seq: u64, ack: u64) -> Packet {
        let mut p = Packet::tcp_ack(self.flow, seq, ack);
        p.kind = kind;
        p.rwnd = self.cfg.recv_wnd;
        p
    }

    // ---------------------------------------------------------------
    // Application interface
    // ---------------------------------------------------------------

    /// `send()` syscall: copy up to `len` bytes into the socket buffer.
    /// Returns bytes accepted (0 when the buffer is full — the app must
    /// wait for [`TcpAction::Sendable`]).
    pub fn write(&mut self, len: u64) -> u64 {
        let space = SEND_BUF.saturating_sub(self.send_buffered());
        let accepted = len.min(space);
        self.app_written += accepted;
        if accepted < len {
            self.blocked = true;
        }
        accepted
    }

    // ---------------------------------------------------------------
    // Input path
    // ---------------------------------------------------------------

    /// An immediate cumulative ACK, reporting the lowest out-of-order
    /// range as its SACK block.
    fn ack_now(&mut self) -> TcpAction {
        self.stats.acks_sent += 1;
        let mut a = self.ctl(PacketKind::TcpAck, self.snd_nxt, self.rcv.next());
        a.meta.sack = self.rcv.ooo().first_key_value().map(|(&s, &l)| (s, s + l));
        TcpAction::SendCtl(a)
    }

    fn maybe_ack(&mut self, now: Nanos) -> Option<TcpAction> {
        self.delack_count += 1;
        if self.delack_count >= DELACK_SEGS {
            self.delack_count = 0;
            self.delack_timer.disarm();
            Some(self.ack_now())
        } else {
            self.delack_timer.arm(now + DELACK_TIMEOUT)
        }
    }

    // ---------------------------------------------------------------
    // Timers
    // ---------------------------------------------------------------

    fn rtt_sample(&mut self, sample: Nanos) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let rto = self.srtt.expect("srtt set above") + self.rttvar * 4;
        self.rto = rto.max(MIN_RTO).min(Nanos::from_secs(60));
    }

    fn arm_rto(&mut self, now: Nanos) -> Option<TcpAction> {
        self.rto_timer
            .arm(now + self.rto * (1 << self.rto_backoff.min(6)))
    }

    /// (Re)send our half of the handshake — the SYN from `SynSent`, the
    /// SYN-ACK from `SynReceived` — under the RTO.
    fn send_handshake(&mut self, now: Nanos, out: &mut Actions) {
        let kind = if self.state == TcpState::SynSent {
            PacketKind::TcpSyn
        } else {
            PacketKind::TcpSynAck
        };
        out.push(TcpAction::SendCtl(self.ctl(kind, 0, 0)));
        out.extend(self.arm_rto(now));
    }

    /// Retransmit one MSS from the head of the unacked window.
    fn retransmit_head(&mut self, now: Nanos) -> TcpAction {
        self.rtt_probes.clear(); // Karn
        netsim::tm_counter!("stack.tcp.retransmits").inc();
        let natural = (self.snd_nxt - self.snd_una).min(self.cfg.mss() as u64) as u32;
        // The shaper's packet-size decision applies to retransmissions
        // too: the eavesdropper sees them like any other packet.
        let ctx = self.shape_ctx(now);
        let proposed_ip = natural + IP_TCP_OVERHEAD;
        let ip = self.egress.size_retransmit(
            &ctx,
            proposed_ip,
            MIN_IP_PACKET.min(proposed_ip),
            self.cfg.mtu_ip.min(proposed_ip),
        );
        let len = ip - IP_TCP_OVERHEAD;
        let mut pkt = Packet::tcp_data(self.flow, self.snd_una, self.rcv.next(), len);
        pkt.rwnd = self.cfg.recv_wnd;
        pkt.meta.retransmit = true;
        // Retransmissions bypass pacing (Linux sends them immediately).
        TcpAction::SendCtl(pkt)
    }
}

/// `Vec`-returning forms of the [`TransportCore`] calls, for drivers
/// that keep no buffers of their own (the benchmark's back-to-back probe,
/// the unit tests' shuttles).
impl TcpConn {
    /// Start an active open: the SYN and its RTO.
    pub fn connect(&mut self, now: Nanos) -> Vec<TcpAction> {
        Actions::collect(|out| TransportCore::connect(self, now, out))
    }

    /// See [`TransportCore::output`].
    pub fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        Actions::collect(|out| TransportCore::output(self, now, cpu, out))
    }

    /// See [`TransportCore::input`].
    pub fn input(&mut self, pkt: &Packet, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        Actions::collect(|out| TransportCore::input(self, pkt, now, cpu, out))
    }

    /// See [`TransportCore::on_timer`].
    pub fn on_timer(&mut self, kind: TimerKind, gen: u64, now: Nanos) -> Vec<TcpAction> {
        Actions::collect(|out| TransportCore::on_timer(self, kind, gen, now, out))
    }
}

impl TransportCore for TcpConn {
    fn connect(&mut self, now: Nanos, out: &mut Actions) {
        assert_eq!(self.state, TcpState::Closed);
        assert!(self.is_client);
        self.state = TcpState::SynSent;
        self.rtt_probes.insert(0, now);
        self.send_handshake(now, out);
    }
    /// Queue a FIN after all written data.
    fn close(&mut self) {
        self.fin_queued = true;
    }
    /// Push as much data as window, TSQ and pacing permit. This is the
    /// routine every ACK/credit/write re-enters; the paper's point is
    /// that *this* code — not the application — decides the final packet
    /// sequence.
    fn output(&mut self, now: Nanos, cpu: &mut Cpu, out: &mut Actions) {
        if !self.established() {
            return;
        }
        loop {
            let available = self.app_written - self.snd_nxt;
            if available == 0 {
                break;
            }
            let wnd = self.cc.cwnd().min(self.peer_rwnd);
            // SACK-aware: window-gate on the pipe estimate so recovery
            // keeps transmitting new data while holes are repaired.
            let inflight = self.pipe();
            if inflight >= wnd {
                break;
            }
            if self.tsq_bytes >= self.cfg.tsq_limit {
                break; // TCP small queues: wait for NIC completions
            }
            let budget = (wnd - inflight).min(available);
            let mss = self.cfg.mss() as u64;

            // Nagle: hold sub-MSS data while anything is outstanding.
            if self.cfg.nagle && budget < mss && inflight > 0 && !self.fin_queued {
                break;
            }

            let ctx = self.shape_ctx(now);
            // TSO autosizing (stage ①), then the shaper's resegment hook
            // (stage ②) via the shared pipeline.
            let proposed_pkts =
                EgressPipeline::tso_autosize(&ctx, self.cfg.tso, TSO_MAX_PKTS, budget);
            let shaped_pkts = self.egress.segment_pkts(&ctx, proposed_pkts);

            // Build the segment's packets, consulting the per-packet
            // sizing hook (flexible TSO, §5.5 — stage ③).
            let mut pkts = out.seg_buf();
            pkts.reserve(shaped_pkts as usize);
            let mut remaining = budget;
            let mut shaped = shaped_pkts != proposed_pkts;
            for i in 0..shaped_pkts {
                if remaining == 0 {
                    break;
                }
                let natural_payload = remaining.min(mss) as u32;
                let proposed_ip = natural_payload + IP_TCP_OVERHEAD;
                let ip = self.egress.packet_ip_size(
                    &ctx,
                    i,
                    proposed_ip,
                    MIN_IP_PACKET.min(proposed_ip),
                    self.cfg.mtu_ip.min(proposed_ip),
                );
                shaped |= ip != proposed_ip;
                let payload = ip - IP_TCP_OVERHEAD;
                let mut pkt = Packet::tcp_data(
                    self.flow,
                    self.snd_nxt + (budget - remaining),
                    self.rcv.next(),
                    payload,
                );
                pkt.rwnd = self.cfg.recv_wnd;
                pkt.meta.tso_burst = self.stats.segs_sent + 1;
                pkt.meta.shaped = shaped;
                remaining -= payload as u64;
                pkts.push(pkt);
            }
            if pkts.is_empty() {
                break;
            }
            let payload_total = budget - remaining;
            let npkts = pkts.len() as u32;

            // Stages ④–⑥: CPU charge, pacing gate, shaper extra delay
            // and pacing-clock advance, all in the shared pipeline.
            let wire_bytes: u64 = pkts.iter().map(|p| p.wire_len as u64).sum();
            let paced =
                self.egress
                    .pace_segment(&ctx, now, cpu, payload_total, npkts, wire_bytes, shaped);
            let eligible = paced.eligible;
            if paced.shaped {
                for p in &mut pkts {
                    p.meta.shaped = true;
                }
                self.stats.shaped_segs += 1;
            }

            self.snd_nxt += payload_total;
            self.stats.segs_sent += 1;
            self.stats.pkts_sent += npkts as u64;
            self.tsq_bytes += wire_bytes;
            if self.rtt_probes.len() < 64 {
                self.rtt_probes.insert(self.snd_nxt, now);
            }
            out.push(TcpAction::SendSeg(SegDesc::new(self.flow, pkts, eligible)));
            out.extend(self.arm_rto(now));
        }
        // FIN rides after all data has been segmented.
        if self.fin_queued && !self.fin_sent && self.app_written == self.snd_nxt {
            self.fin_sent = true;
            let fin = self.ctl(PacketKind::TcpFin, self.snd_nxt, self.rcv.next());
            out.push(TcpAction::SendCtl(fin));
        }
    }

    /// Process an arriving packet. `cpu` is the receiving host's CPU.
    fn input(&mut self, pkt: &Packet, now: Nanos, cpu: &mut Cpu, out: &mut Actions) {
        match pkt.kind {
            PacketKind::TcpSyn => {
                // Passive open; a repeated SYN re-sends the SYN-ACK.
                if matches!(self.state, TcpState::Closed | TcpState::SynReceived) {
                    self.state = TcpState::SynReceived;
                    self.peer_rwnd = pkt.rwnd;
                    self.send_handshake(now, out);
                }
                return;
            }
            PacketKind::TcpSynAck => {
                if self.state == TcpState::SynSent {
                    self.state = TcpState::Established;
                    self.peer_rwnd = pkt.rwnd;
                    if let Some(t0) = self.rtt_probes.remove(&0) {
                        self.rtt_sample(now - t0);
                    }
                    self.rto_timer.disarm();
                    out.push(TcpAction::Connected);
                    out.push(self.ack_now());
                }
                return;
            }
            _ => {}
        }
        // Completing the server side of the handshake.
        if self.state == TcpState::SynReceived {
            self.state = TcpState::Established;
            self.rto_timer.disarm();
            out.push(TcpAction::Connected);
        }
        self.peer_rwnd = pkt.rwnd;
        if let Some((lo, hi)) = pkt.meta.sack {
            self.note_sack(lo, hi);
        }

        // ---- ACK processing (all packets carry a cumulative ACK) ----
        if pkt.ack > self.snd_una {
            let newly = pkt.ack - self.snd_una;
            self.snd_una = pkt.ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            let _ = cpu.charge(now, cpu.model.per_ack_rx);
            self.drop_sacked_below_una();
            // Harvest every probe this ACK covers; sample from the most
            // recent one (closest to a per-segment timestamp).
            let mut latest: Option<Nanos> = None;
            while let Some(probe) = self.rtt_probes.first_entry() {
                if *probe.key() > pkt.ack {
                    break;
                }
                let t0 = probe.remove();
                latest = Some(latest.map_or(t0, |l| l.max(t0)));
            }
            let rtt = latest.map(|t0| {
                let s = now - t0;
                self.rtt_sample(s);
                s
            });
            let mut partial_retx = false;
            if let Some(rp) = self.recovery_point {
                if pkt.ack >= rp {
                    self.recovery_point = None;
                } else {
                    // NewReno partial ACK: the cumulative ACK advanced but
                    // stopped below the recovery point, exposing the next
                    // hole — retransmit it immediately (RFC 6582).
                    partial_retx = true;
                }
            }
            let info = AckInfo {
                newly_acked: newly,
                rtt,
                now,
                inflight: self.pipe(),
            };
            self.cc.on_ack(&info);
            netsim::tm_histo!("stack.cc.cwnd_bytes").record(self.cc.cwnd());
            if partial_retx && self.inflight() > 0 {
                out.push(self.retransmit_head(now));
            }
            if self.snd_una == self.snd_nxt {
                self.rto_timer.disarm();
            } else {
                out.extend(self.arm_rto(now));
            }
            if self.blocked && self.send_buffered() < SEND_BUF {
                self.blocked = false;
                out.push(TcpAction::Sendable);
            }
        } else if pkt.ack == self.snd_una
            && self.inflight() > 0
            && pkt.payload == 0
            && pkt.kind == PacketKind::TcpAck
        {
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recovery_point.is_none() {
                // Fast retransmit.
                self.recovery_point = Some(self.snd_nxt);
                self.cc.on_loss(now, self.pipe());
                self.stats.retransmits += 1;
                out.push(self.retransmit_head(now));
                out.extend(self.arm_rto(now));
            }
        }

        // ---- data reassembly ----
        if pkt.payload > 0 {
            let _ = cpu.charge(now, cpu.model.per_data_rx);
            match self.rcv.accept(pkt.seq, pkt.payload as u64) {
                Some(newly) if newly > 0 => {
                    self.stats.bytes_delivered += newly;
                    out.push(TcpAction::Deliver(newly));
                    out.extend(self.maybe_ack(now));
                }
                // Old data, or out of order above a hole: ACK at once (a
                // duplicate ACK carrying the hole's SACK block).
                _ => out.push(self.ack_now()),
            }
        }

        // ---- FIN ----
        if pkt.kind == PacketKind::TcpFin {
            self.peer_fin_at = Some(pkt.seq.max(self.rcv.next()));
            if pkt.seq <= self.rcv.next() {
                out.push(self.ack_now());
            }
        }
        if !self.peer_closed_delivered && self.peer_fin_at.is_some_and(|f| self.rcv.next() >= f) {
            self.peer_closed_delivered = true;
            out.push(TcpAction::PeerClosed);
        }
    }

    /// A timer event fired.
    fn on_timer(&mut self, kind: TimerKind, gen: u64, now: Nanos, out: &mut Actions) {
        match kind {
            // One-shot: the shuttles flush a pending delayed ACK early.
            TimerKind::DelAck if self.delack_timer.take(gen) => {
                self.delack_count = 0;
                out.push(self.ack_now());
            }
            TimerKind::Rto => match self.rto_timer.due(gen, now) {
                Due::Stale => {}
                Due::Rearm(act) => out.push(act),
                Due::Fire => match self.state {
                    TcpState::SynSent | TcpState::SynReceived => {
                        self.rto_backoff += 1;
                        self.send_handshake(now, out);
                    }
                    _ if self.inflight() > 0 => {
                        self.stats.timeouts += 1;
                        self.rto_backoff += 1;
                        self.cc.on_rto(now);
                        self.sacked.clear();
                        self.dup_acks = 0;
                        self.recovery_point = Some(self.snd_nxt);
                        out.push(self.retransmit_head(now));
                        out.extend(self.arm_rto(now));
                    }
                    // Nothing in flight, nothing to repair — a lost FIN
                    // included: it is never retransmitted.
                    _ => {}
                },
            },
            _ => {}
        }
    }
    fn write(&mut self, len: u64) -> u64 {
        TcpConn::write(self, len)
    }
    /// Release TSQ budget; the driver calls `output` next.
    fn on_nic_release(&mut self, wire_bytes: u64) {
        self.tsq_bytes = self.tsq_bytes.saturating_sub(wire_bytes);
    }
    fn set_shaper(&mut self, shaper: BoxShaper) {
        self.egress.set_shaper(shaper);
    }
    /// Shrink-only: never grows past the configured MTU, never goes below
    /// the RFC 879 minimum packet.
    fn set_mtu(&mut self, mtu_ip: u32) {
        self.cfg.mtu_ip = mtu_ip.clamp(MIN_IP_PACKET, self.cfg.mtu_ip);
    }
    fn set_tracer(&mut self, tracer: netsim::telemetry::Tracer) {
        self.egress.set_tracer(tracer);
    }
    fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }
    fn outstanding(&self) -> u64 {
        self.pipe()
    }
    fn pacing_rate_bps(&self) -> Option<u64> {
        if self.cfg.pacing {
            self.cc.pacing_rate_bps(self.srtt)
        } else {
            None
        }
    }
    fn mtu_ip(&self) -> u32 {
        self.cfg.mtu_ip
    }
    fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }
    fn flow_stats(&self) -> FlowStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackConfig;
    use crate::cpu::{Cpu, CpuModel};
    use crate::shaper::Shaper;

    const MSS: u64 = 1448;

    fn pair() -> (TcpConn, TcpConn, Cpu, Cpu) {
        // TSQ is effectively disabled: the shuttle harness has no NIC to
        // send completion credits, so back-pressure would deadlock it.
        // TSQ behaviour is tested explicitly in
        // `tsq_limits_qdisc_occupancy` and end-to-end in `net::tests`.
        let cfg = StackConfig {
            pacing: false,
            tsq_limit: u64::MAX,
            ..StackConfig::default()
        };
        (
            TcpConn::new(FlowId(1), cfg.clone(), true),
            TcpConn::new(FlowId(1), cfg, false),
            Cpu::new(CpuModel::infinitely_fast()),
            Cpu::new(CpuModel::infinitely_fast()),
        )
    }

    /// Shuttle actions between the two endpoints until quiescent,
    /// simulating a zero-latency lossless wire. Returns delivered bytes
    /// observed at each endpoint.
    fn shuttle(
        a: &mut TcpConn,
        b: &mut TcpConn,
        cpu_a: &mut Cpu,
        cpu_b: &mut Cpu,
        now: Nanos,
        initial: Vec<TcpAction>,
        from_a: bool,
    ) -> (u64, u64) {
        let mut delivered = (0u64, 0u64);
        let mut inbox: Vec<(bool, Packet)> = Vec::new();
        let absorb = |acts: Vec<TcpAction>,
                      from_a: bool,
                      inbox: &mut Vec<(bool, Packet)>,
                      delivered: &mut (u64, u64)| {
            for act in acts {
                match act {
                    TcpAction::SendSeg(seg) => {
                        for p in seg.pkts {
                            inbox.push((from_a, p));
                        }
                    }
                    TcpAction::SendCtl(p) => inbox.push((from_a, p)),
                    TcpAction::Deliver(n) => {
                        if from_a {
                            delivered.0 += n;
                        } else {
                            delivered.1 += n;
                        }
                    }
                    _ => {}
                }
            }
        };
        absorb(initial, from_a, &mut inbox, &mut delivered);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100_000, "shuttle did not converge");
            if inbox.is_empty() {
                // Wire idle: flush any pending delayed ACKs, as the
                // delack timer eventually would.
                if let Some((_, gen)) = a.delack_timer.pending() {
                    let acts = a.on_timer(TimerKind::DelAck, gen, now);
                    absorb(acts, true, &mut inbox, &mut delivered);
                }
                if let Some((_, gen)) = b.delack_timer.pending() {
                    let acts = b.on_timer(TimerKind::DelAck, gen, now);
                    absorb(acts, false, &mut inbox, &mut delivered);
                }
                if inbox.is_empty() {
                    break;
                }
            }
            let (src_a, pkt) = inbox.remove(0); // FIFO: in-order wire
            if src_a {
                let acts = b.input(&pkt, now, cpu_b);
                absorb(acts, false, &mut inbox, &mut delivered);
                let acts = b.output(now, cpu_b);
                absorb(acts, false, &mut inbox, &mut delivered);
            } else {
                let acts = a.input(&pkt, now, cpu_a);
                absorb(acts, true, &mut inbox, &mut delivered);
                let acts = a.output(now, cpu_a);
                absorb(acts, true, &mut inbox, &mut delivered);
            }
        }
        delivered
    }

    fn establish(a: &mut TcpConn, b: &mut TcpConn, cpu_a: &mut Cpu, cpu_b: &mut Cpu) {
        let syn = a.connect(Nanos::ZERO);
        shuttle(a, b, cpu_a, cpu_b, Nanos::ZERO, syn, true);
        assert!(a.established());
        assert!(b.established());
    }

    #[test]
    fn three_way_handshake() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
    }

    #[test]
    fn write_copies_into_buffer_and_blocks_at_limit() {
        let (mut a, _, _, _) = pair();
        assert_eq!(a.write(SEND_BUF - 6_000), SEND_BUF - 6_000);
        assert_eq!(a.write(10_000), 6_000);
        assert_eq!(a.write(100), 0); // full: async send path, §2.3
        assert_eq!(a.send_buffered(), SEND_BUF);
    }

    #[test]
    fn bulk_transfer_delivers_exact_bytes() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        let n = 1_000_000;
        assert_eq!(a.write(n), n);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let (_, to_b) = shuttle(
            &mut a,
            &mut b,
            &mut ca,
            &mut cb,
            Nanos::from_millis(1),
            acts,
            true,
        );
        assert_eq!(to_b, n, "receiver must get exactly the written bytes");
        assert_eq!(a.snd_una, n);
        assert_eq!(b.rcv.next(), n);
        assert!(a.send_complete());
    }

    #[test]
    fn output_respects_cwnd() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(10_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let sent: u64 = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.payload_bytes()),
                _ => None,
            })
            .sum();
        assert!(sent <= a.cwnd(), "sent {sent} > cwnd {}", a.cwnd());
        assert!(sent >= a.cwnd() - MSS, "undershoot: {sent}");
        let _ = (&mut b, &mut cb);
    }

    #[test]
    fn output_respects_peer_rwnd() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        b.cfg.recv_wnd = 5_000;
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(1_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let sent: u64 = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.payload_bytes()),
                _ => None,
            })
            .sum();
        assert!(sent <= 5_000, "rwnd violated: {sent}");
    }

    #[test]
    fn tso_packets_are_mss_sized_except_last() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(MSS * 3 + 100);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let pkts: Vec<u32> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.pkts.iter().map(|p| p.payload).collect::<Vec<_>>()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(pkts, vec![1448, 1448, 1448, 100]);
        let _ = (&mut b, &mut cb);
    }

    #[test]
    fn tsq_limits_qdisc_occupancy() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        a.cfg.tsq_limit = 3 * 1514;
        a.cfg.tso = false; // one packet per segment, so the cap is tight
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(10_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let wire: u64 = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.wire_bytes),
                _ => None,
            })
            .sum();
        // The check runs before each segment, so at most one segment of
        // overshoot past the limit.
        assert!(wire <= 3 * 1514 + 1514, "TSQ exceeded: {wire}");
        assert!(wire >= 3 * 1514, "valve closed too early: {wire}");
        // Crediting reopens the valve.
        a.on_nic_release(wire);
        let acts2 = a.output(Nanos::from_millis(2), &mut ca);
        assert!(
            acts2.iter().any(|x| matches!(x, TcpAction::SendSeg(_))),
            "credit must reopen output"
        );
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        let mut p1 = Packet::tcp_data(FlowId(1), 0, 0, MSS as u32);
        p1.rwnd = 1 << 20;
        let acts = b.input(&p1, Nanos::from_millis(1), &mut cb);
        // First segment: delack timer armed, no immediate ACK.
        assert!(acts.iter().any(|x| matches!(
            x,
            TcpAction::ArmTimer {
                kind: TimerKind::DelAck,
                ..
            }
        )));
        assert!(!acts.iter().any(|x| matches!(x, TcpAction::SendCtl(_))));
        let mut p2 = Packet::tcp_data(FlowId(1), MSS, 0, MSS as u32);
        p2.rwnd = 1 << 20;
        let acts2 = b.input(&p2, Nanos::from_millis(1), &mut cb);
        // Second segment: immediate cumulative ACK.
        let acked: Vec<u64> = acts2
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendCtl(p) => Some(p.ack),
                _ => None,
            })
            .collect();
        assert_eq!(acked, vec![2 * MSS]);
        let _ = (&mut a, &mut ca);
    }

    #[test]
    fn delack_timer_flushes_pending_ack() {
        let (mut _a, mut b, _ca, mut cb) = pair();
        b.state = TcpState::Established;
        let mut p1 = Packet::tcp_data(FlowId(1), 0, 0, 500);
        p1.rwnd = 1 << 20;
        let acts = b.input(&p1, Nanos::ZERO, &mut cb);
        let (gen, at) = acts
            .iter()
            .find_map(|x| match x {
                TcpAction::ArmTimer {
                    kind: TimerKind::DelAck,
                    at,
                    gen,
                } => Some((*gen, *at)),
                _ => None,
            })
            .expect("delack armed");
        let acts2 = b.on_timer(TimerKind::DelAck, gen, at);
        let acked: Vec<u64> = acts2
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendCtl(p) => Some(p.ack),
                _ => None,
            })
            .collect();
        assert_eq!(acked, vec![500]);
        // Stale timer does nothing.
        assert!(b.on_timer(TimerKind::DelAck, gen, at).is_empty());
    }

    #[test]
    fn out_of_order_triggers_dup_acks_and_reassembly() {
        let (mut _a, mut b, _ca, mut cb) = pair();
        b.state = TcpState::Established;
        // Packet 2 arrives before packet 1.
        let mut p2 = Packet::tcp_data(FlowId(1), 1000, 0, 1000);
        p2.rwnd = 1 << 20;
        let acts = b.input(&p2, Nanos::ZERO, &mut cb);
        let dup: Vec<u64> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendCtl(p) => Some(p.ack),
                _ => None,
            })
            .collect();
        assert_eq!(dup, vec![0], "dup ACK must re-assert rcv_nxt=0");
        let mut p1 = Packet::tcp_data(FlowId(1), 0, 0, 1000);
        p1.rwnd = 1 << 20;
        let acts = b.input(&p1, Nanos::ZERO, &mut cb);
        let delivered: u64 = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::Deliver(n) => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, 2000, "hole filled: both packets delivered");
        assert_eq!(b.rcv.next(), 2000);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(100_000);
        let _ = a.output(Nanos::from_millis(1), &mut ca);
        let cwnd_before = a.cwnd();
        let mut dup = Packet::tcp_ack(FlowId(1), 0, 0);
        dup.rwnd = 1 << 20;
        for _ in 0..2 {
            let acts = a.input(&dup, Nanos::from_millis(2), &mut ca);
            assert!(acts.is_empty());
        }
        let acts = a.input(&dup, Nanos::from_millis(2), &mut ca);
        let retx: Vec<&Packet> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendCtl(p) if p.meta.retransmit => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        assert_eq!(retx[0].payload as u64, MSS);
        assert!(a.cwnd() < cwnd_before, "loss must shrink cwnd");
        assert_eq!(a.stats.retransmits, 1);
        // A 4th dup ACK must not retransmit again (recovery point set).
        let acts = a.input(&dup, Nanos::from_millis(2), &mut ca);
        assert!(acts
            .iter()
            .all(|x| !matches!(x, TcpAction::SendCtl(p) if p.meta.retransmit)));
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(10_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let (gen, at) = acts
            .iter()
            .find_map(|x| match x {
                TcpAction::ArmTimer {
                    kind: TimerKind::Rto,
                    at,
                    gen,
                } => Some((*gen, *at)),
                _ => None,
            })
            .expect("rto armed");
        let acts = a.on_timer(TimerKind::Rto, gen, at);
        assert!(acts
            .iter()
            .any(|x| matches!(x, TcpAction::SendCtl(p) if p.meta.retransmit && p.seq == 0)));
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(a.cwnd(), MSS, "RTO collapses window");
    }

    #[test]
    fn rto_backoff_doubles_then_caps() {
        // Successive RTO firings without forward progress back off
        // exponentially, but the multiplier is capped (shift 6 = 64x) so
        // a long outage never overflows the deadline arithmetic.
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(10_000);
        let _ = a.output(Nanos::from_millis(1), &mut ca);
        let mut intervals = Vec::new();
        for _ in 0..9 {
            let (fired_at, gen) = a.rto_timer.pending().expect("rto armed");
            let acts = a.on_timer(TimerKind::Rto, gen, fired_at);
            assert!(acts
                .iter()
                .any(|x| matches!(x, TcpAction::SendCtl(p) if p.meta.retransmit)));
            intervals.push(a.rto_timer.pending().expect("re-armed").0 - fired_at);
        }
        // First firing leaves backoff=1: the next wait is 2x the base RTO.
        for i in 1..intervals.len() {
            let expect = if i < 6 {
                intervals[i - 1] * 2
            } else {
                intervals[5] // capped: constant from shift 6 onward
            };
            assert_eq!(intervals[i], expect, "interval {i}");
        }
        assert_eq!(intervals[8], intervals[0] * 32, "cap is 64x base RTO");
        assert_eq!(a.stats.timeouts, 9);
    }

    #[test]
    fn sack_scoreboard_merges_overlapping_and_adjacent_ranges() {
        let (mut a, _b, _ca, _cb) = pair();
        // Two disjoint holes.
        a.note_sack(1_000, 2_000);
        a.note_sack(3_000, 4_000);
        assert_eq!(a.sacked.len(), 2);
        assert_eq!(a.sacked_bytes(), 2_000);
        // A block exactly bridging them (adjacent on both sides) must
        // collapse the scoreboard to a single range.
        a.note_sack(2_000, 3_000);
        assert_eq!(a.sacked.len(), 1);
        assert_eq!(a.sacked.get(&1_000), Some(&4_000));
        // Overlapping extensions on either side grow the same range.
        a.note_sack(500, 1_500);
        a.note_sack(3_500, 4_500);
        assert_eq!(a.sacked.len(), 1);
        assert_eq!(a.sacked.get(&500), Some(&4_500));
        assert_eq!(a.sacked_bytes(), 4_000);
        // A fully-contained block is absorbed without double counting.
        a.note_sack(600, 700);
        assert_eq!(a.sacked.len(), 1);
        assert_eq!(a.sacked_bytes(), 4_000);
        // Degenerate and stale blocks are ignored.
        a.note_sack(5_000, 5_000);
        a.snd_una = 10_000;
        a.note_sack(6_000, 7_000);
        assert_eq!(a.sacked.len(), 1);
    }

    #[test]
    fn fast_retransmit_then_rto_recovers_from_a_loss_burst() {
        // A burst loses the head segment AND its fast retransmission; the
        // connection must fall back to RTO and still deliver every byte.
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        let n = 100_000;
        a.write(n);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let pkts: Vec<Packet> = acts
            .iter()
            .flat_map(|x| match x {
                TcpAction::SendSeg(s) => s.pkts.clone(),
                _ => Vec::new(),
            })
            .collect();
        assert!(pkts.len() >= 4, "need a window to lose the head of");
        // Head packet lost: every later arrival provokes a dup ACK.
        let mut dup_acks = Vec::new();
        for p in &pkts[1..] {
            for act in b.input(p, Nanos::from_millis(2), &mut cb) {
                if let TcpAction::SendCtl(ack) = act {
                    dup_acks.push(ack);
                }
            }
        }
        assert!(dup_acks.len() >= 3);
        let mut retx = Vec::new();
        for ack in &dup_acks {
            for act in a.input(ack, Nanos::from_millis(3), &mut ca) {
                if let TcpAction::SendCtl(p) = act {
                    if p.meta.retransmit {
                        retx.push(p);
                    }
                }
            }
        }
        assert_eq!(retx.len(), 1, "exactly one fast retransmit");
        assert_eq!(retx[0].seq, 0);
        assert_eq!(a.stats.retransmits, 1);
        // The retransmission is lost too: the RTO fires next.
        let (fired_at, gen) = a.rto_timer.pending().expect("rto armed");
        let acts = a.on_timer(TimerKind::Rto, gen, fired_at);
        assert_eq!(a.stats.timeouts, 1);
        assert_eq!(a.rto_backoff, 1);
        assert!(a.sacked.is_empty(), "RTO flushes the SACK scoreboard");
        assert!(acts
            .iter()
            .any(|x| matches!(x, TcpAction::SendCtl(p) if p.meta.retransmit && p.seq == 0)));
        // Let the (delivered) RTO retransmission drive full recovery.
        let (_, to_b) = shuttle(&mut a, &mut b, &mut ca, &mut cb, fired_at, acts, true);
        assert_eq!(to_b, n, "every byte delivered despite the double loss");
        assert!(a.send_complete());
        assert_eq!(b.rcv.next(), n);
    }

    #[test]
    fn rto_timer_moves_with_acks() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(1_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let (gen, at) = acts
            .iter()
            .find_map(|x| match x {
                TcpAction::ArmTimer {
                    kind: TimerKind::Rto,
                    at,
                    gen,
                } => Some((*gen, *at)),
                _ => None,
            })
            .expect("armed");
        // An ACK arrives, pushing the deadline out.
        let mut ack = Packet::tcp_ack(FlowId(1), 0, MSS);
        ack.rwnd = 1 << 20;
        let _ = a.input(&ack, Nanos::from_millis(100), &mut ca);
        // Old timer fires: should re-arm, not retransmit.
        let acts = a.on_timer(TimerKind::Rto, gen, at);
        assert!(acts
            .iter()
            .all(|x| !matches!(x, TcpAction::SendCtl(p) if p.meta.retransmit)));
        assert!(acts.iter().any(|x| matches!(
            x,
            TcpAction::ArmTimer {
                kind: TimerKind::Rto,
                ..
            }
        )));
        assert_eq!(a.stats.timeouts, 0);
    }

    #[test]
    fn fin_handshake_closes_both_sides() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(5_000);
        a.close();
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        // FIN present after the data.
        assert!(acts
            .iter()
            .any(|x| matches!(x, TcpAction::SendCtl(p) if p.kind == PacketKind::TcpFin)));
        let mut saw_close = false;
        let mut inbox: Vec<Packet> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.pkts.clone()),
                TcpAction::SendCtl(p) => Some(vec![p.clone()]),
                _ => None,
            })
            .flatten()
            .collect();
        while let Some(p) = inbox.pop() {
            for act in b.input(&p, Nanos::from_millis(2), &mut cb) {
                if matches!(act, TcpAction::PeerClosed) {
                    saw_close = true;
                }
            }
        }
        assert!(saw_close, "receiver must learn of the FIN");
    }

    #[test]
    fn rtt_estimation_converges() {
        let (mut a, _b, mut ca, _cb) = pair();
        a.state = TcpState::Established;
        a.write(1_000_000);
        for i in 0..20u64 {
            let t_send = Nanos::from_millis(i * 100);
            let _ = a.output(t_send, &mut ca);
            let mut ack = Packet::tcp_ack(FlowId(1), 0, a.snd_nxt);
            ack.rwnd = 1 << 20;
            let _ = a.input(&ack, t_send + Nanos::from_millis(20), &mut ca);
        }
        let srtt = a.srtt().expect("srtt measured");
        let err = srtt.as_millis_f64() - 20.0;
        assert!(err.abs() < 2.0, "srtt {} off", srtt);
        // RTO respects the floor.
        assert!(a.rto >= MIN_RTO);
    }

    #[test]
    fn shaper_tso_hook_limits_segment_size() {
        struct Cap(u32);
        impl Shaper for Cap {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                p.min(self.0)
            }
        }
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.set_shaper(Box::new(Cap(2)));
        a.write(MSS * 10);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let mut shaped_any = false;
        for x in &acts {
            if let TcpAction::SendSeg(s) = x {
                assert!(s.pkts.len() <= 2, "segment has {} pkts", s.pkts.len());
                shaped_any |= s.pkts.iter().any(|p| p.meta.shaped);
            }
        }
        // At least the first (cut-down) segments carry the shaped mark;
        // a final segment the shaper happened not to alter may not.
        assert!(shaped_any);
        assert!(a.stats.shaped_segs > 0);
    }

    #[test]
    fn shaper_packet_size_hook_shrinks_packets() {
        struct Small;
        impl Shaper for Small {
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
                p.min(700)
            }
        }
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.set_shaper(Box::new(Small));
        a.write(10_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let sizes: Vec<u32> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(
                    s.pkts
                        .iter()
                        .map(|p| p.payload + IP_TCP_OVERHEAD)
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(!sizes.is_empty());
        assert!(sizes.iter().all(|&s| s <= 700), "sizes {sizes:?}");
        // Payload is conserved: total equals what the window allowed.
        let payload: u64 = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.payload_bytes()),
                _ => None,
            })
            .sum();
        assert_eq!(payload, 10_000);
    }

    #[test]
    fn shaper_cannot_grow_past_proposed() {
        struct Greedy;
        impl Shaper for Greedy {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                p * 10 // tries to burst harder than the CCA allows
            }
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
                9000 // tries jumbo frames past the MTU
            }
        }
        let (mut a, mut b, mut ca, mut cb) = pair();
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.set_shaper(Box::new(Greedy));
        a.write(1_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let mut total = 0u64;
        for x in &acts {
            if let TcpAction::SendSeg(s) = x {
                assert!(s.pkts.len() as u32 <= TSO_MAX_PKTS);
                for p in &s.pkts {
                    assert!(p.payload + IP_TCP_OVERHEAD <= a.cfg.mtu_ip);
                }
                total += s.payload_bytes();
            }
        }
        assert!(total <= a.cwnd(), "cwnd violated by greedy shaper");
    }

    #[test]
    fn nagle_holds_small_segments() {
        let (mut a, mut b, mut ca, mut cb) = pair();
        a.cfg.nagle = true;
        establish(&mut a, &mut b, &mut ca, &mut cb);
        a.write(100);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        // First small write goes out (nothing in flight).
        assert_eq!(
            acts.iter()
                .filter(|x| matches!(x, TcpAction::SendSeg(_)))
                .count(),
            1
        );
        a.write(50);
        let acts2 = a.output(Nanos::from_millis(1), &mut ca);
        // Second small write held back while the first is unacked.
        assert!(acts2.iter().all(|x| !matches!(x, TcpAction::SendSeg(_))));
    }

    #[test]
    fn pacing_spaces_segments() {
        // Pacing on; TSO off so the initial window leaves as several
        // segments whose departure times the pacer must space out.
        let cfg = StackConfig {
            tso: false,
            tsq_limit: u64::MAX,
            ..StackConfig::default()
        };
        let mut a = TcpConn::new(FlowId(1), cfg.clone(), true);
        let mut b = TcpConn::new(FlowId(1), cfg, false);
        let mut ca = Cpu::new(CpuModel::infinitely_fast());
        let mut cb = Cpu::new(CpuModel::infinitely_fast());
        establish(&mut a, &mut b, &mut ca, &mut cb);
        // Seed an RTT so pacing has a rate.
        a.rtt_sample(Nanos::from_millis(10));
        a.write(10_000_000);
        let acts = a.output(Nanos::from_millis(1), &mut ca);
        let times: Vec<Nanos> = acts
            .iter()
            .filter_map(|x| match x {
                TcpAction::SendSeg(s) => Some(s.eligible_at),
                _ => None,
            })
            .collect();
        assert!(
            times.len() >= 2,
            "need multiple segments, got {}",
            times.len()
        );
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "pacing must strictly space departures: {times:?}"
        );
    }
}
