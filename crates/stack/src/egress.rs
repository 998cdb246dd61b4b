//! The transport-agnostic egress pipeline — one shaping substrate that
//! every transport plugs into.
//!
//! §4.2's thesis is that Stob's hooks — TSO sizing, packet sizing,
//! pacing delay, and the "never more aggressive than the CCA" safety
//! rule — are properties of the *stack*, not of any one transport.
//! [`EgressPipeline`] is that claim made concrete: it owns the shaper,
//! the pacing clock, the CPU-cost charge, and the tracer hookup, and it
//! applies the canonical stage order for every transport ([`TcpConn`](crate::tcp::TcpConn)
//! and [`QuicConn`](crate::quic::QuicConn) both delegate here; a third transport adds zero new
//! shaping code — and zero driver code, `net::Network` holding every
//! connection as a boxed [`TransportCore`]):
//!
//! ```text
//!  transport proposal (CC autosize / GSO batch)
//!        │
//!        ▼
//!  ① segment-size decision ──── EgressPipeline::tso_autosize
//!        │
//!        ▼
//!  ② TSO/GSO resegment ──────── EgressPipeline::segment_pkts
//!        │                      (shaper hook, clamped to [1, proposed])
//!        ▼
//!  ③ per-packet resize ──────── EgressPipeline::packet_ip_size
//!        │                      (shaper hook, clamped to [floor, ceil])
//!        ▼
//!  ④ pacing-delay gate ──────── EgressPipeline::pace_segment
//!        │                      (CPU charge → pacing clock → extra delay)
//!        ▼
//!  ⑤ safety clamp ───────────── departures only ever move *later*;
//!        │                      sizes never exceed the CC proposal
//!        ▼
//!  ⑥ telemetry / trace emission (legacy + `stack.egress.*` instruments)
//! ```
//!
//! The safety clamp (stage ⑤) is structural: `segment_pkts` clips to the
//! CC's proposed burst, `packet_ip_size` clips to the caller's bounds,
//! and `pace_segment` computes `eligible = max(pacing, now, cpu) +
//! extra`, so a shaper can only ever shrink or delay — never grow or
//! hasten — what the congestion controller granted. `Network::apply`
//! additionally audits each emitted batch against the CC grant (the
//! §4.2 runtime check in `netsim::audit`).
//!
//! # Example: a custom transport on the shared pipeline
//!
//! [`TransportCore`] is the full contract a transport owes the driver.
//! The minimal implementation below is a fire-and-forget datagram sender
//! that emits fixed-size 600-byte datagrams — no ACK clock, no timers —
//! yet still flows through the same pipeline (and therefore obeys any
//! installed shaper) and is driven end-to-end through [`Network`](crate::net::Network):
//!
//! ```
//! use netsim::{FlowId, Nanos, Packet, PacketKind};
//! use stack::egress::{EgressLabels, EgressPipeline, FlowStats, TransportCore};
//! use stack::qdisc::SegDesc;
//! use stack::shaper::ShapeCtx;
//! use stack::tcp::TcpAction;
//! use stack::{Api, App, Cpu, CpuModel, HostConfig, Network, PathConfig, CLIENT};
//!
//! /// Wire size of every datagram this sender emits (IP bytes).
//! const DGRAM_IP: u32 = 600;
//! /// Header share of each datagram (UDP 8 + IP 20 + app header 18).
//! const HDR: u32 = 46;
//!
//! struct FixedSender {
//!     flow: FlowId,
//!     egress: EgressPipeline,
//!     queued: u64,
//!     sent_pkts: u64,
//!     sent_bytes: u64,
//! }
//!
//! impl FixedSender {
//!     fn new(flow: FlowId) -> Self {
//!         FixedSender {
//!             flow,
//!             egress: EgressPipeline::new(EgressLabels::QUIC),
//!             queued: 0,
//!             sent_pkts: 0,
//!             sent_bytes: 0,
//!         }
//!     }
//!     fn ctx(&self, now: Nanos) -> ShapeCtx {
//!         ShapeCtx {
//!             flow: self.flow,
//!             now,
//!             cwnd: u64::MAX,          // no congestion controller
//!             pacing_rate_bps: None,   // and no pacing
//!             in_slow_start: false,
//!             bytes_sent: self.sent_bytes,
//!             pkts_sent: self.sent_pkts,
//!             segs_sent: self.sent_pkts,
//!             mtu_ip: DGRAM_IP,
//!             mss: DGRAM_IP - HDR,
//!         }
//!     }
//! }
//!
//! impl TransportCore for FixedSender {
//!     fn input(&mut self, _pkt: &Packet, _now: Nanos, _cpu: &mut Cpu) -> Vec<TcpAction> {
//!         Vec::new() // fire and forget: nothing comes back
//!     }
//!     fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
//!         let mut acts = Vec::new();
//!         while self.queued >= u64::from(DGRAM_IP - HDR) {
//!             let ctx = self.ctx(now);
//!             // One datagram per segment; the shaper may still shrink it.
//!             let n = self.egress.segment_pkts(&ctx, 1);
//!             let mut pkts = Vec::new();
//!             for i in 0..n {
//!                 let ip = self.egress.packet_ip_size(&ctx, i, DGRAM_IP, HDR + 1, DGRAM_IP);
//!                 let payload = ip - HDR;
//!                 let mut p = Packet::tcp_data(self.flow, self.sent_bytes, 0, payload);
//!                 p.kind = PacketKind::QuicData;
//!                 p.wire_len = ip + 14; // + Ethernet
//!                 self.queued -= u64::from(payload);
//!                 self.sent_bytes += u64::from(payload);
//!                 self.sent_pkts += 1;
//!                 pkts.push(p);
//!             }
//!             let wire: u64 = pkts.iter().map(|p| u64::from(p.wire_len)).sum();
//!             let payload: u64 = pkts.iter().map(|p| u64::from(p.payload)).sum();
//!             let npkts = pkts.len() as u32;
//!             let paced = self.egress.pace_segment(&ctx, now, cpu, payload, npkts, wire, false);
//!             acts.push(TcpAction::SendSeg(SegDesc::new(self.flow, pkts, paced.eligible)));
//!         }
//!         acts
//!     }
//!     fn write(&mut self, len: u64) -> u64 {
//!         self.queued += len;
//!         len
//!     }
//!     fn set_shaper(&mut self, shaper: stack::shaper::BoxShaper) {
//!         self.egress.set_shaper(shaper);
//!     }
//!     fn set_tracer(&mut self, tracer: netsim::telemetry::Tracer) {
//!         self.egress.set_tracer(tracer);
//!     }
//!     fn cwnd(&self) -> u64 {
//!         u64::MAX
//!     }
//!     fn outstanding(&self) -> u64 {
//!         0
//!     }
//!     fn pacing_rate_bps(&self) -> Option<u64> {
//!         None
//!     }
//!     fn mtu_ip(&self) -> u32 {
//!         DGRAM_IP
//!     }
//!     fn flow_stats(&self) -> FlowStats {
//!         FlowStats {
//!             pkts_sent: self.sent_pkts,
//!             segs_sent: self.sent_pkts,
//!             shaped_segs: self.egress.shaped_segs(),
//!             ..FlowStats::default()
//!         }
//!     }
//! }
//!
//! struct SendOnce;
//! impl App for SendOnce {
//!     fn on_start(&mut self, api: &mut Api) {
//!         let flow = api.connect_custom(|flow| Box::new(FixedSender::new(flow)));
//!         api.send(flow, 5 * u64::from(DGRAM_IP - HDR));
//!     }
//! }
//!
//! let h = HostConfig { cpu: CpuModel::infinitely_fast(), ..HostConfig::default() };
//! let mut net = Network::new(
//!     h.clone(),
//!     h,
//!     PathConfig::internet(50, 10),
//!     Box::new(SendOnce),
//!     Box::new(stack::apps::NullApp),
//!     1,
//! );
//! net.run_to_idle();
//!
//! // Five fixed-size datagrams crossed the client vantage point...
//! let data: Vec<_> = net
//!     .client_capture
//!     .records
//!     .iter()
//!     .filter(|r| r.kind == PacketKind::QuicData)
//!     .collect();
//! assert_eq!(data.len(), 5);
//! assert!(data.iter().all(|r| r.wire_len == DGRAM_IP + 14));
//! // ...and the unified stats accessor sees the custom transport.
//! let fs = net.flow_stats(CLIENT, FlowId(1)).unwrap();
//! assert_eq!(fs.pkts_sent, 5);
//! ```
#![deny(missing_docs)]

use crate::cpu::Cpu;
use crate::shaper::{BoxShaper, NoopShaper, ShapeCtx};
use crate::tcp::{TcpAction, TimerKind};
use netsim::telemetry::{Counter, Histo, Tracer};
use netsim::{Nanos, Packet};

/// Per-transport instrument/trace naming for the shared pipeline.
///
/// The pipeline emits every decision twice: once under the transport's
/// legacy instrument name (so existing dashboards and docs keep working)
/// and once under the shared `stack.egress.*` family (so cross-transport
/// totals need no per-transport summation). Trace events carry `layer`
/// so a mixed TCP+QUIC trace stays attributable.
///
/// A value is one pointer to its label's constant set, so a pipeline
/// carries eight bytes of naming however many instruments it feeds.
#[derive(Debug, Clone, Copy)]
pub struct EgressLabels(&'static LabelSet);

/// What one [`EgressLabels`] constant points at. The legacy instruments
/// are getters around `tm_counter!`/`tm_histo!` handles: each resolves
/// its registry entry on first use, once per process, so merely
/// constructing a pipeline registers nothing.
#[derive(Debug)]
struct LabelSet {
    /// Trace `layer` tag ("tcp", "quic", ...).
    layer: &'static str,
    /// Trace event name for stage-② resegmenting ("tso-pkts"/"gso-pkts").
    reseg_event: &'static str,
    /// Legacy counter bumped when the shaper shrinks a segment.
    reseg_counter: fn() -> &'static Counter,
    /// Legacy counter bumped when the shaper resizes a packet.
    resize_counter: fn() -> &'static Counter,
    /// Legacy histogram of stage-④ extra delays (sim-ns).
    delay_histo: fn() -> &'static Histo,
    /// Legacy counter bumped per sized retransmission, if the transport
    /// routes retransmissions through [`EgressPipeline::size_retransmit`].
    retransmit_counter: Option<fn() -> &'static Counter>,
}

impl EgressLabels {
    /// Labels for the TCP transport.
    pub const TCP: EgressLabels = EgressLabels(&LabelSet {
        layer: "tcp",
        reseg_event: "tso-pkts",
        reseg_counter: || netsim::tm_counter!("stack.tcp.tso_resegmented"),
        resize_counter: || netsim::tm_counter!("stack.tcp.pkts_resized"),
        delay_histo: || netsim::tm_histo!("stack.tcp.shaper_extra_delay_ns"),
        retransmit_counter: Some(|| netsim::tm_counter!("stack.tcp.retransmits")),
    });

    /// Labels for the QUIC transport.
    pub const QUIC: EgressLabels = EgressLabels(&LabelSet {
        layer: "quic",
        reseg_event: "gso-pkts",
        reseg_counter: || netsim::tm_counter!("stack.quic.gso_resegmented"),
        resize_counter: || netsim::tm_counter!("stack.quic.pkts_resized"),
        delay_histo: || netsim::tm_histo!("stack.quic.shaper_extra_delay_ns"),
        retransmit_counter: None,
    });

    /// Labels for trace replay: the stack-placement defense backend
    /// (`stob::defense::enforce_flow`) drives a pipeline over recorded
    /// packet timestamps instead of live transport state.
    pub const REPLAY: EgressLabels = EgressLabels(&LabelSet {
        layer: "replay",
        reseg_event: "replay-pkts",
        reseg_counter: || netsim::tm_counter!("stack.replay.resegmented"),
        resize_counter: || netsim::tm_counter!("stack.replay.pkts_resized"),
        delay_histo: || netsim::tm_histo!("stack.replay.extra_delay_ns"),
        retransmit_counter: None,
    });

    /// Labels for the multipath transport (`stack::mux`): sequenced
    /// datagrams split across several provisioned pipes, each leg an
    /// independent path with its own fault schedule.
    pub const MUX: EgressLabels = EgressLabels(&LabelSet {
        layer: "mux",
        reseg_event: "mux-pkts",
        reseg_counter: || netsim::tm_counter!("stack.mux.resegmented"),
        resize_counter: || netsim::tm_counter!("stack.mux.pkts_resized"),
        delay_histo: || netsim::tm_histo!("stack.mux.extra_delay_ns"),
        retransmit_counter: Some(|| netsim::tm_counter!("stack.mux.retransmits")),
    });

    /// Labels for the fleet engine (`stob::fleet`): many concurrent
    /// defended flows each drive their own pipeline, interleaved on a
    /// per-shard `EventQueue` instead of live transport state.
    pub const FLEET: EgressLabels = EgressLabels(&LabelSet {
        layer: "fleet",
        reseg_event: "fleet-pkts",
        reseg_counter: || netsim::tm_counter!("stack.fleet.resegmented"),
        resize_counter: || netsim::tm_counter!("stack.fleet.pkts_resized"),
        delay_histo: || netsim::tm_histo!("stack.fleet.extra_delay_ns"),
        retransmit_counter: None,
    });
}

/// Outcome of the pacing-delay gate for one segment.
#[derive(Debug, Clone, Copy)]
pub struct PacedSegment {
    /// Earliest departure time: `max(pacing clock, now, CPU completion)`
    /// plus the shaper's extra delay.
    pub eligible: Nanos,
    /// Whether any pipeline stage altered this segment (resegment,
    /// resize, or a non-zero extra delay).
    pub shaped: bool,
}

/// The shared egress pipeline: shaper + pacing clock + CPU charge +
/// tracer, applied in the canonical stage order (see the module docs).
///
/// One pipeline instance belongs to one connection ([`TcpConn`](crate::tcp::TcpConn),
/// [`QuicConn`](crate::quic::QuicConn), or any custom [`TransportCore`]); the pacing clock it
/// owns is the per-flow clock Linux keeps in `sk_pacing_rate`-driven
/// FQ scheduling.
pub struct EgressPipeline {
    shaper: BoxShaper,
    /// Earliest time the pacing clock allows the next segment to leave.
    pacing_next: Nanos,
    tracer: Option<Tracer>,
    labels: EgressLabels,
    shaped_segs: u64,
}

/// One pipeline per connection and per resident fleet flow: it holds
/// state only; its instruments live behind the label set and in
/// `tm_counter!` statics.
const _: () = assert!(
    std::mem::size_of::<EgressPipeline>() <= 64,
    "EgressPipeline outgrew its 64-byte (one cache line) budget"
);

impl EgressPipeline {
    /// A pipeline with the identity shaper and a zeroed pacing clock.
    pub fn new(labels: EgressLabels) -> Self {
        EgressPipeline {
            shaper: Box::new(NoopShaper),
            pacing_next: Nanos::ZERO,
            tracer: None,
            labels,
            shaped_segs: 0,
        }
    }

    /// Replace the shaper (the `setsockopt`-style control surface §5.3
    /// points at). The pacing clock is left untouched.
    pub fn set_shaper(&mut self, shaper: BoxShaper) {
        self.shaper = shaper;
    }

    /// Install a flow-trace sink: every subsequent sizing and pacing
    /// decision is recorded as a [`netsim::telemetry::FlowEvent`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Segments this pipeline altered in any way (resegment, resize, or
    /// extra delay).
    pub fn shaped_segs(&self) -> u64 {
        self.shaped_segs
    }

    /// The pacing clock: earliest time the next segment may depart.
    pub fn pacing_next(&self) -> Nanos {
        self.pacing_next
    }

    /// Stage ①, TCP flavour: Linux's `tcp_tso_autosize` — roughly 1 ms
    /// of the pacing rate, at least 2 packets, capped by the driver
    /// limit and the window budget. Transports with a fixed batch size
    /// (QUIC GSO) skip this and pass their constant to
    /// [`segment_pkts`](Self::segment_pkts) directly.
    pub fn tso_autosize(ctx: &ShapeCtx, tso: bool, tso_max_pkts: u32, budget: u64) -> u32 {
        if !tso {
            return 1;
        }
        let mss = u64::from(ctx.mss);
        let auto = match ctx.pacing_rate_bps {
            Some(rate) if rate < u64::MAX => {
                let bytes_per_ms = rate / 8 / 1000;
                ((bytes_per_ms / mss).max(2)) as u32
            }
            _ => tso_max_pkts,
        };
        auto.min(tso_max_pkts)
            .min(budget.div_ceil(mss).max(1) as u32)
    }

    /// Stage ②: offer the proposed burst size to the shaper, clamp the
    /// answer to `[1, proposed]` (growing a burst would be more
    /// aggressive than the CCA decided), and record the decision.
    pub fn segment_pkts(&mut self, ctx: &ShapeCtx, proposed: u32) -> u32 {
        let shaped = self
            .shaper
            .tso_segment_pkts(ctx, proposed)
            .clamp(1, proposed);
        if shaped != proposed {
            (self.labels.0.reseg_counter)().inc();
            netsim::tm_counter!("stack.egress.resegmented").inc();
            if let Some(tr) = &self.tracer {
                tr.rec(
                    ctx.now,
                    u64::from(ctx.flow.0),
                    self.labels.0.layer,
                    self.labels.0.reseg_event,
                    u64::from(proposed),
                    u64::from(shaped),
                    "shaper-resegment",
                );
            }
        }
        shaped
    }

    /// Stage ③: offer one packet's proposed IP size to the shaper and
    /// clamp the answer to `[floor, ceil]` (the transport's legal range:
    /// protocol minimum to `min(MTU, proposed)` — never larger than the
    /// stack wanted). Records the decision when it changed the size.
    pub fn packet_ip_size(
        &mut self,
        ctx: &ShapeCtx,
        pkt_index: u32,
        proposed_ip: u32,
        floor: u32,
        ceil: u32,
    ) -> u32 {
        let ip = self
            .shaper
            .packet_ip_size(ctx, pkt_index, proposed_ip)
            .clamp(floor, ceil);
        if ip != proposed_ip {
            (self.labels.0.resize_counter)().inc();
            netsim::tm_counter!("stack.egress.pkts_resized").inc();
            if let Some(tr) = &self.tracer {
                tr.rec(
                    ctx.now,
                    u64::from(ctx.flow.0),
                    self.labels.0.layer,
                    "pkt-size",
                    u64::from(proposed_ip),
                    u64::from(ip),
                    "shaper-resize",
                );
            }
        }
        ip
    }

    /// Stage ③ for retransmissions: the shaper's packet-size decision
    /// applies to loss repair too (the eavesdropper sees retransmitted
    /// packets like any other), but the event is recorded under the
    /// transport's retransmit instrument, unconditionally.
    pub fn size_retransmit(
        &mut self,
        ctx: &ShapeCtx,
        proposed_ip: u32,
        floor: u32,
        ceil: u32,
    ) -> u32 {
        let ip = self
            .shaper
            .packet_ip_size(ctx, 0, proposed_ip)
            .clamp(floor, ceil);
        if let Some(counter) = self.labels.0.retransmit_counter {
            counter().inc();
        }
        netsim::tm_counter!("stack.egress.retransmits").inc();
        if let Some(tr) = &self.tracer {
            tr.rec(
                ctx.now,
                u64::from(ctx.flow.0),
                self.labels.0.layer,
                "retransmit",
                u64::from(proposed_ip),
                u64::from(ip),
                "loss-repair",
            );
        }
        ip
    }

    /// Stages ④–⑥ for one finished segment: charge the CPU cost of
    /// building it, gate its departure on `max(pacing clock, now, CPU
    /// completion)`, add the shaper's extra delay, advance the pacing
    /// clock, and emit telemetry.
    ///
    /// The extra delay advances the pacing clock too, so consecutive
    /// inter-departure gaps *stretch* (the §3 "delaying" semantics)
    /// rather than the whole schedule shifting once. Still CCA-safe:
    /// departures only ever move later.
    ///
    /// `shaped` carries whether stages ②/③ already altered the segment;
    /// the returned [`PacedSegment::shaped`] additionally reflects a
    /// non-zero extra delay, and shaped segments count toward
    /// [`shaped_segs`](Self::shaped_segs).
    #[allow(clippy::too_many_arguments)]
    pub fn pace_segment(
        &mut self,
        ctx: &ShapeCtx,
        now: Nanos,
        cpu: &mut Cpu,
        payload: u64,
        npkts: u32,
        wire_bytes: u64,
        shaped: bool,
    ) -> PacedSegment {
        let cpu_done = cpu.charge(now, cpu.model.segment_cost(payload, npkts));
        let base = self.pacing_next.max(now).max(cpu_done);
        let extra = self.shaper.extra_delay(ctx);
        let eligible = base + extra;
        if !extra.is_zero() {
            (self.labels.0.delay_histo)().record(extra.as_nanos());
            netsim::tm_histo!("stack.egress.shaper_extra_delay_ns").record(extra.as_nanos());
            if let Some(tr) = &self.tracer {
                tr.rec(
                    now,
                    u64::from(ctx.flow.0),
                    self.labels.0.layer,
                    "pacing",
                    base.as_nanos(),
                    eligible.as_nanos(),
                    "shaper-delay",
                );
            }
        }
        if let Some(rate) = ctx.pacing_rate_bps {
            if rate > 0 && rate < u64::MAX {
                self.pacing_next = eligible + Nanos::for_bytes_at_rate(wire_bytes, rate);
            }
        }
        if !extra.is_zero() {
            self.pacing_next = self.pacing_next.max(eligible);
        }
        let shaped = shaped || !extra.is_zero();
        if shaped {
            self.shaped_segs += 1;
        }
        netsim::tm_counter!("stack.egress.segments").inc();
        PacedSegment { eligible, shaped }
    }

    /// Stage ④ for trace replay: gate one *recorded* packet through the
    /// pacing clock and the shaper's extra-delay hook, without charging
    /// CPU or advancing wire serialization time (a replayed trace has no
    /// live CPU model and already embeds serialization in its
    /// timestamps).
    ///
    /// `intended` is the packet's departure time as computed so far
    /// (recorded timestamp plus accumulated shift). The eligible time is
    /// `max(pacing clock, intended) + extra_delay`, the pacing clock
    /// advances to it, and the delay is recorded under this pipeline's
    /// delay instruments. The stack-placement defense backend
    /// (`stob::defense::enforce_flow`) is the intended caller, with
    /// [`EgressLabels::REPLAY`].
    pub fn pace_replay(&mut self, ctx: &ShapeCtx, intended: Nanos) -> Nanos {
        let base = self.pacing_next.max(intended);
        let extra = self.shaper.extra_delay(ctx);
        let eligible = base + extra;
        if !extra.is_zero() {
            (self.labels.0.delay_histo)().record(extra.as_nanos());
            netsim::tm_histo!("stack.egress.shaper_extra_delay_ns").record(extra.as_nanos());
            if let Some(tr) = &self.tracer {
                tr.rec(
                    ctx.now,
                    u64::from(ctx.flow.0),
                    self.labels.0.layer,
                    "pacing",
                    base.as_nanos(),
                    eligible.as_nanos(),
                    "shaper-delay",
                );
            }
            self.shaped_segs += 1;
        }
        netsim::tm_counter!("stack.replay.pkts").inc();
        self.pacing_next = eligible;
        eligible
    }

    /// ACK passthrough: lets stateful shaping strategies observe flow
    /// progress without a separate feedback channel.
    pub fn on_ack(&mut self, ctx: &ShapeCtx) {
        self.shaper.on_ack(ctx);
    }
}

/// Summary stats every transport keeps, under one vocabulary. Obtained
/// via `Network::flow_stats` / `Api::flow_stats` for any flow regardless
/// of transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// In-order payload bytes handed to the application.
    pub bytes_delivered: u64,
    /// Transport segments (TCP) or GSO batches (QUIC) sent.
    pub segs_sent: u64,
    /// Wire data packets sent.
    pub pkts_sent: u64,
    /// Pure ACK packets sent.
    pub acks_sent: u64,
    /// Loss-repair transmissions (TCP fast retransmits / QUIC and
    /// multipath retransmitted datagrams).
    pub retransmits: u64,
    /// Timer-driven recoveries (TCP RTOs / QUIC PTOs / multipath
    /// failovers).
    pub timeouts: u64,
    /// Segments altered by the egress pipeline (resegmented, resized,
    /// or delayed).
    pub shaped_segs: u64,
}

/// The contract a transport owes the network driver: produce eligible
/// segments, accept packets and timers, expose the congestion state the
/// §4.2 safety audit needs, and accept NIC release notifications.
///
/// [`TcpConn`](crate::tcp::TcpConn), [`QuicConn`](crate::quic::QuicConn) and
/// [`Multiplex`](crate::mux::Multiplex) implement this; `net::Network`
/// holds every connection as a `Box<dyn TransportCore>` and drives it
/// through nothing else. The module-level example shows a minimal custom
/// implementation.
pub trait TransportCore {
    /// Active open (client side): the packets and timers that start the
    /// handshake. A transport without one — the flow is usable at once —
    /// keeps the default.
    fn connect(&mut self, _now: Nanos) -> Vec<TcpAction> {
        Vec::new()
    }

    /// Process one arriving packet; returns effects for the driver.
    fn input(&mut self, pkt: &Packet, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction>;

    /// Produce as many eligible segments as window/pacing permit.
    fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction>;

    /// A transport timer fired (`gen` disambiguates stale events). A call
    /// carrying an older `gen` than the transport's latest `ArmTimer` of
    /// that `kind` must do nothing: the driver delivers only the latest
    /// request of each kind and never fires the ones it outdated.
    fn on_timer(&mut self, _kind: TimerKind, _gen: u64, _now: Nanos) -> Vec<TcpAction> {
        Vec::new()
    }

    /// Application write: accept up to `len` bytes into the send buffer;
    /// returns the bytes accepted.
    fn write(&mut self, len: u64) -> u64;

    /// Application close of our direction; the driver calls `output`
    /// next. A transport that models no close handshake (QUIC-lite has
    /// no CONNECTION_CLOSE frame) keeps the default.
    fn close(&mut self) {}

    /// The NIC finished serializing `wire_bytes` of this flow (TSQ
    /// release notification). Transports without small-queue
    /// back-pressure ignore it.
    fn on_nic_release(&mut self, _wire_bytes: u64) {}

    /// Install a shaper on this connection.
    fn set_shaper(&mut self, shaper: BoxShaper);

    /// Mid-flow path-MTU reduction (ICMP "fragmentation needed").
    fn set_mtu(&mut self, _mtu_ip: u32) {}

    /// Install a flow-trace sink.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Current congestion-window grant, bytes (the §4.2 audit bound).
    fn cwnd(&self) -> u64;

    /// Bytes believed to be in the network (TCP `pipe`, QUIC inflight).
    fn outstanding(&self) -> u64;

    /// Current pacing rate, if pacing is active (bits/s).
    fn pacing_rate_bps(&self) -> Option<u64>;

    /// Current path MTU as an IP packet size.
    fn mtu_ip(&self) -> u32;

    /// Smoothed RTT, once measured.
    fn srtt(&self) -> Option<Nanos> {
        None
    }

    /// Transport-agnostic summary stats.
    fn flow_stats(&self) -> FlowStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;
    use crate::shaper::Shaper;
    use netsim::FlowId;

    fn ctx(rate: Option<u64>) -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 10 * 1448,
            pacing_rate_bps: rate,
            in_slow_start: false,
            bytes_sent: 0,
            pkts_sent: 0,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    fn cpu() -> Cpu {
        Cpu::new(CpuModel::infinitely_fast())
    }

    struct Delay(u64);
    impl Shaper for Delay {
        fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
            Nanos(self.0)
        }
    }

    #[test]
    fn pacing_clock_advances_by_wire_time_at_rate() {
        let mut p = EgressPipeline::new(EgressLabels::TCP);
        let c = ctx(Some(8_000_000_000)); // 1 byte/ns
        let out = p.pace_segment(&c, Nanos(100), &mut cpu(), 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(100));
        assert!(!out.shaped);
        // 1066 wire bytes at 1 byte/ns push the clock 1066 ns past the
        // departure.
        assert_eq!(p.pacing_next(), Nanos(100 + 1066));
    }

    #[test]
    fn zero_rate_never_advances_the_clock() {
        // A zero pacing rate would divide by zero / stall forever; the
        // gate must ignore it (as must a u64::MAX "unpaced" sentinel).
        for rate in [Some(0), Some(u64::MAX), None] {
            let mut p = EgressPipeline::new(EgressLabels::TCP);
            let c = ctx(rate);
            let out = p.pace_segment(&c, Nanos(5), &mut cpu(), 1000, 1, 1066, false);
            assert_eq!(out.eligible, Nanos(5));
            assert_eq!(p.pacing_next(), Nanos::ZERO, "rate {rate:?}");
        }
    }

    #[test]
    fn past_eligible_time_floors_at_now() {
        // The clock says "long ago"; departure still happens at `now`,
        // and the next advance builds on the real departure time.
        let mut p = EgressPipeline::new(EgressLabels::TCP);
        let c = ctx(Some(8_000_000_000));
        let _ = p.pace_segment(&c, Nanos(0), &mut cpu(), 100, 1, 166, false);
        assert_eq!(p.pacing_next(), Nanos(166));
        // Output re-entered much later: base = now, not the stale clock.
        let out = p.pace_segment(&c, Nanos(10_000), &mut cpu(), 100, 1, 166, false);
        assert_eq!(out.eligible, Nanos(10_000));
        assert_eq!(p.pacing_next(), Nanos(10_166));
    }

    #[test]
    fn extra_delay_stretches_gaps_and_marks_shaped() {
        // The shaper's delay moves the departure AND the clock: gaps
        // stretch (§3 semantics) instead of the schedule shifting once.
        let mut p = EgressPipeline::new(EgressLabels::TCP);
        p.set_shaper(Box::new(Delay(500)));
        let c = ctx(Some(8_000_000_000));
        let out = p.pace_segment(&c, Nanos(0), &mut cpu(), 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(500));
        assert!(out.shaped);
        assert_eq!(p.shaped_segs(), 1);
        assert_eq!(p.pacing_next(), Nanos(500 + 1066));
        // Second segment: delayed again from the advanced clock.
        let out = p.pace_segment(&c, Nanos(0), &mut cpu(), 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(1566 + 500));
    }

    #[test]
    fn extra_delay_clamps_clock_even_without_a_rate() {
        // No pacing rate: the clock cannot advance by wire time, but a
        // delayed departure must still drag it forward so the next
        // segment cannot leave earlier than this one.
        let mut p = EgressPipeline::new(EgressLabels::QUIC);
        p.set_shaper(Box::new(Delay(2_000)));
        let c = ctx(None);
        let out = p.pace_segment(&c, Nanos(100), &mut cpu(), 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(2_100));
        assert_eq!(p.pacing_next(), Nanos(2_100));
        let out = p.pace_segment(&c, Nanos(100), &mut cpu(), 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(4_100), "gap stretched, not shifted");
    }

    #[test]
    fn cpu_completion_gates_departure() {
        let model = CpuModel {
            per_segment: Nanos(3_000),
            ..CpuModel::infinitely_fast()
        };
        let mut cpu = Cpu::new(model);
        let mut p = EgressPipeline::new(EgressLabels::TCP);
        let out = p.pace_segment(&ctx(None), Nanos(0), &mut cpu, 1000, 1, 1066, false);
        assert_eq!(out.eligible, Nanos(3_000));
    }

    #[test]
    fn segment_pkts_clamps_to_cc_proposal() {
        struct Greedy;
        impl Shaper for Greedy {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                p * 10 // try to grow the burst
            }
        }
        let mut p = EgressPipeline::new(EgressLabels::TCP);
        p.set_shaper(Box::new(Greedy));
        assert_eq!(p.segment_pkts(&ctx(None), 4), 4, "growth clipped");
        struct Zero;
        impl Shaper for Zero {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, _p: u32) -> u32 {
                0
            }
        }
        p.set_shaper(Box::new(Zero));
        assert_eq!(p.segment_pkts(&ctx(None), 4), 1, "floor of one packet");
    }

    #[test]
    fn packet_ip_size_respects_bounds() {
        struct Tiny;
        impl Shaper for Tiny {
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
                1
            }
        }
        let mut p = EgressPipeline::new(EgressLabels::QUIC);
        p.set_shaper(Box::new(Tiny));
        assert_eq!(p.packet_ip_size(&ctx(None), 0, 1396, 47, 1396), 47);
        struct Huge;
        impl Shaper for Huge {
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
                u32::MAX
            }
        }
        p.set_shaper(Box::new(Huge));
        assert_eq!(p.packet_ip_size(&ctx(None), 0, 1396, 47, 1396), 1396);
    }

    #[test]
    fn tso_autosize_matches_linux_heuristic() {
        // ~1 ms of the pacing rate, >= 2 MSS, capped by driver and budget.
        let c = ctx(Some(100_000_000_000)); // 12.5 MB/ms
        assert_eq!(EgressPipeline::tso_autosize(&c, true, 44, 1 << 30), 44);
        let c = ctx(Some(8_000_000)); // 1 kB/ms => min 2
        assert_eq!(EgressPipeline::tso_autosize(&c, true, 44, 1 << 30), 2);
        // Budget caps: 3 packets' worth of window.
        let c = ctx(Some(100_000_000_000));
        assert_eq!(EgressPipeline::tso_autosize(&c, true, 44, 3 * 1448), 3);
        // TSO off: always one packet per segment.
        assert_eq!(EgressPipeline::tso_autosize(&c, false, 44, 1 << 30), 1);
        // Unpaced (rate saturated/absent): driver limit.
        let c = ctx(None);
        assert_eq!(EgressPipeline::tso_autosize(&c, true, 44, 1 << 30), 44);
    }
}
