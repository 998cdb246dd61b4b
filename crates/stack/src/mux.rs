//! # mux — a multipath datagram transport (`Multiplex`) over several legs
//!
//! The paper's stack-placement argument assumes a single on-path vantage
//! point sees every packet of a flow. This module breaks that assumption:
//! a [`Multiplex`] transport splits one flow across several unreliable
//! datagram legs ("pipes"), each an independent [`netsim::Link`] with its
//! own rate, delay, loss and independently-seeded fault schedule (see
//! [`netsim::multilink`]). An observer sitting on any single leg sees only
//! a splitter-chosen subset of the packet sequence; the merged view is
//! only available to an observer that taps *every* leg.
//!
//! Design (after sosistab2's obfuscated-multiplex architecture, scaled to
//! this simulator): the `Multiplex` owns
//!
//! * **sequencing/reassembly** — byte-offset sequence numbers, the
//!   shared (crate-private) `seq` receive frontier, cumulative-ack-driven
//!   retransmission, so the application sees a reliable stream over
//!   unreliable legs;
//! * **liveness scoring + failover** — per-pipe receipt counts echoed in
//!   [`PacketKind::MuxAck`]; a pipe that stops making progress for
//!   `liveness_timeout` is declared dead, its unacked datagrams are
//!   drained back into the send path over the surviving legs, and the
//!   dead leg is probed with exponential backoff (the recovery runtime's
//!   watchdog/backoff pattern applied to one leg instead of the whole
//!   flow) until an ack revives it;
//! * **optional XOR-parity FEC** — every `fec_group` data datagrams are
//!   covered by one [`PacketKind::MuxParity`] repair datagram; a receiver
//!   holding all-but-one datagram of a group plus the parity recovers the
//!   missing one without waiting for a retransmission;
//! * **deterministic splitting policies** — [`SplitterSpec`]: round-robin,
//!   smooth weighted round-robin, and a padding-aware random splitter
//!   whose RNG is forked from the flow RNG, so thread count and pipe
//!   liveness never perturb other flows' randomness.
//!
//! `Multiplex` implements [`TransportCore`], so it plugs into
//! [`net::Network`](crate::net::Network) via
//! [`Api::connect_custom`](crate::net::Api::connect_custom) as a third
//! transport beside TCP and QUIC, and the shared [`EgressPipeline`] gives
//! every datagram the same shaper hooks (TSO sizing, per-packet sizing,
//! departure delay) the paper's §4.2 names — under the
//! [`EgressLabels::MUX`] instrument family (`stack.mux.*`).

use crate::cpu::Cpu;
use crate::egress::{EgressLabels, EgressPipeline, FlowStats, TransportCore};
use crate::qdisc::SegDesc;
use crate::seq::{Deadline, Reassembly};
use crate::shaper::{BoxShaper, ShapeCtx};
use crate::tcp::{TcpAction, TimerKind};
use netsim::telemetry::{self, Tracer};
use netsim::{FlowId, Nanos, Packet, PacketKind, SimRng};
use std::collections::BTreeMap;

/// IP-level header bytes we charge per mux datagram: IPv4 (20) + UDP (8)
/// + mux header (26: session id, seq, ack, pipe tag, flags).
pub const MUX_HDR_IP: u32 = 54;
/// Ethernet framing added on the wire.
const ETH: u32 = 14;

/// How a [`Multiplex`] assigns datagrams to pipes. Deterministic: given
/// the same spec, seed and packet sequence, the assignment is identical
/// regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitterSpec {
    /// Strict rotation over the live pipes.
    RoundRobin,
    /// Smooth weighted round-robin: pipe `i` carries a share of packets
    /// proportional to `weights[i]` (one weight per pipe, all positive).
    Weighted {
        /// Relative share per pipe; `weights.len()` must equal the pipe
        /// count and every entry must be positive.
        weights: Vec<u64>,
    },
    /// Uniformly random pipe per data datagram (RNG forked from the flow
    /// RNG); padding-class datagrams (parity, probes) instead go to the
    /// least-loaded live pipe, evening out per-leg volume so padding
    /// masks rather than mirrors the data split.
    PaddedRandom,
}

impl SplitterSpec {
    /// Short stable name (used in bench matrices and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            SplitterSpec::RoundRobin => "roundrobin",
            SplitterSpec::Weighted { .. } => "weighted",
            SplitterSpec::PaddedRandom => "padded-random",
        }
    }

    /// Check the spec against a concrete pipe count.
    pub fn validate(&self, n_pipes: usize) -> Result<(), String> {
        if let SplitterSpec::Weighted { weights } = self {
            if weights.len() != n_pipes {
                return Err(format!(
                    "weighted splitter has {} weights for {} pipes",
                    weights.len(),
                    n_pipes
                ));
            }
            if weights.contains(&0) {
                return Err("weighted splitter weights must be positive".to_string());
            }
        }
        Ok(())
    }
}

/// Runtime state for one [`SplitterSpec`] over `n` pipes.
#[derive(Debug)]
pub struct Splitter {
    spec: SplitterSpec,
    cursor: usize,
    credits: Vec<i64>,
    sent: Vec<u64>,
    rng: SimRng,
}

impl Splitter {
    /// Build a splitter; `rng` must be forked from the flow RNG so the
    /// random policy stays deterministic per flow.
    pub fn new(spec: SplitterSpec, n_pipes: usize, rng: SimRng) -> Splitter {
        assert!(n_pipes > 0, "need at least one pipe");
        spec.validate(n_pipes).expect("invalid splitter spec");
        Splitter {
            spec,
            cursor: 0,
            credits: vec![0; n_pipes],
            sent: vec![0; n_pipes],
            rng,
        }
    }

    fn weight(&self, i: usize) -> u64 {
        match &self.spec {
            SplitterSpec::Weighted { weights } => weights[i],
            _ => 1,
        }
    }

    /// Pick a pipe for the next datagram. `alive[i]` gates pipe `i`;
    /// if no pipe is alive every pipe is considered (the caller is about
    /// to probe anyway). `padding` marks padding-class datagrams
    /// (parity/probes) for the padding-aware policy.
    pub fn pick(&mut self, alive: &[bool], padding: bool) -> usize {
        let n = self.credits.len();
        debug_assert_eq!(alive.len(), n);
        let any_alive = alive.iter().any(|&a| a);
        let live = |i: usize| !any_alive || alive[i];
        let choice = match &self.spec {
            SplitterSpec::RoundRobin => {
                let mut c = self.cursor;
                for _ in 0..n {
                    if live(c % n) {
                        break;
                    }
                    c += 1;
                }
                self.cursor = (c + 1) % n;
                c % n
            }
            SplitterSpec::Weighted { .. } => {
                // Smooth WRR: grant credits to live pipes, pick the
                // richest (lowest index on ties), charge it the total.
                let mut total = 0i64;
                for i in 0..n {
                    if live(i) {
                        self.credits[i] += self.weight(i) as i64;
                        total += self.weight(i) as i64;
                    }
                }
                let mut best = 0;
                let mut best_c = i64::MIN;
                for i in 0..n {
                    if live(i) && self.credits[i] > best_c {
                        best = i;
                        best_c = self.credits[i];
                    }
                }
                self.credits[best] -= total;
                best
            }
            SplitterSpec::PaddedRandom => {
                let live_idx: Vec<usize> = (0..n).filter(|&i| live(i)).collect();
                if padding {
                    // Least-loaded live pipe (lowest index on ties).
                    *live_idx
                        .iter()
                        .min_by_key(|&&i| (self.sent[i], i))
                        .expect("at least one candidate")
                } else {
                    live_idx[self.rng.next_below(live_idx.len() as u64) as usize]
                }
            }
        };
        self.sent[choice] += 1;
        choice
    }
}

/// Tuning knobs for a [`Multiplex`] endpoint. Both ends of a flow must
/// agree on `n_pipes`; the rest is per-endpoint.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Number of legs (1..=16).
    pub n_pipes: usize,
    /// Datagram-to-pipe assignment policy.
    pub splitter: SplitterSpec,
    /// Emit one XOR-parity repair datagram per this many data datagrams
    /// (`None` = FEC off). Must be >= 2 when set.
    pub fec_group: Option<u32>,
    /// Target IP size of a data datagram (clamped to path MTU).
    pub dgram_ip: u32,
    /// Acknowledge after this many received data datagrams.
    pub ack_every: u32,
    /// Max unacknowledged payload bytes in flight.
    pub window: u64,
    /// A pipe with unacked datagrams and no progress for this long is
    /// declared dead and failed over.
    pub liveness_timeout: Nanos,
    /// Probe/retransmit timer tick, and the base of the per-pipe
    /// exponential probe backoff.
    pub probe_base: Nanos,
    /// Cap on the probe backoff interval.
    pub probe_max: Nanos,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            n_pipes: 2,
            splitter: SplitterSpec::RoundRobin,
            fec_group: None,
            dgram_ip: 1254, // 1200 payload + MUX_HDR_IP
            ack_every: 8,
            window: 256 * 1024,
            liveness_timeout: Nanos::from_millis(200),
            probe_base: Nanos::from_millis(50),
            probe_max: Nanos::from_millis(1600),
        }
    }
}

/// Per-pipe sender-side liveness state.
#[derive(Debug, Clone)]
struct PipeHealth {
    /// Data datagrams sent over this pipe.
    sent_pkts: u64,
    /// Latest receipt count the peer reported for this pipe.
    acked_pkts: u64,
    /// Last time this pipe made ack progress (or sent its first packet).
    last_progress: Nanos,
    alive: bool,
    /// Probe backoff exponent while dead.
    backoff_exp: u32,
    /// Next allowed probe time while dead.
    next_probe: Nanos,
}

impl PipeHealth {
    fn new() -> PipeHealth {
        PipeHealth {
            sent_pkts: 0,
            acked_pkts: 0,
            last_progress: Nanos::ZERO,
            alive: true,
            backoff_exp: 0,
            next_probe: Nanos::ZERO,
        }
    }
}

/// An unacked data datagram (for failover drain + tail retransmit).
#[derive(Debug, Clone, Copy)]
struct Unacked {
    len: u32,
    pipe: u8,
}

/// A multipath datagram transport: reliable byte stream over `n_pipes`
/// unreliable legs. See the module docs for the design.
pub struct Multiplex {
    flow: FlowId,
    cfg: MuxConfig,
    is_client: bool,
    connected: bool,
    hello_sent: bool,
    /// Hellos sent so far; retries rotate across pipes so establishment
    /// survives any subset of dead legs.
    hello_attempts: u64,

    // --- sender side ---
    queued: u64,
    snd_nxt: u64,
    unacked: BTreeMap<u64, Unacked>,
    retx: Vec<(u64, u32)>,
    health: Vec<PipeHealth>,
    splitter: Splitter,
    fec_accum: u32,
    fec_start: u64,
    last_cum_progress: Nanos,
    probe: Deadline,
    mtu_ip: u32,

    // --- receiver side ---
    rx: Reassembly,
    parity_groups: Vec<(u64, u64)>,
    rx_per_pipe: Vec<u64>,
    rx_acked_per_pipe: Vec<u64>,
    rx_since_ack: u32,

    egress: EgressPipeline,
    /// One datagram is one segment here, so `segs_sent` is filled from
    /// `pkts_sent`, and `shaped_segs` from the egress pipeline, in
    /// `flow_stats`; a failover counts as a `timeout`.
    stats: FlowStats,
    recovered: u64,
}

impl Multiplex {
    /// Client endpoint: sends the session hello on connect.
    pub fn client(flow: FlowId, cfg: MuxConfig, seed: u64) -> Multiplex {
        Multiplex::new(flow, cfg, seed, true)
    }

    /// Server endpoint: echoes the hello (built by the passive-open
    /// acceptor installed with
    /// [`Network::set_custom_acceptor`](crate::net::Network::set_custom_acceptor)).
    pub fn server(flow: FlowId, cfg: MuxConfig, seed: u64) -> Multiplex {
        Multiplex::new(flow, cfg, seed, false)
    }

    fn new(flow: FlowId, cfg: MuxConfig, seed: u64, is_client: bool) -> Multiplex {
        assert!(
            cfg.n_pipes >= 1 && cfg.n_pipes <= 16,
            "n_pipes must be in 1..=16"
        );
        if let Some(k) = cfg.fec_group {
            assert!(k >= 2, "fec_group must be >= 2");
        }
        let splitter = Splitter::new(cfg.splitter.clone(), cfg.n_pipes, SimRng::new(seed));
        Multiplex {
            flow,
            is_client,
            connected: false,
            hello_sent: false,
            hello_attempts: 0,
            queued: 0,
            snd_nxt: 0,
            unacked: BTreeMap::new(),
            retx: Vec::new(),
            health: vec![PipeHealth::new(); cfg.n_pipes],
            splitter,
            fec_accum: 0,
            fec_start: 0,
            last_cum_progress: Nanos::ZERO,
            probe: Deadline::new(TimerKind::Probe),
            mtu_ip: 1500,
            rx: Reassembly::default(),
            parity_groups: Vec::new(),
            rx_per_pipe: vec![0; cfg.n_pipes],
            rx_acked_per_pipe: vec![0; cfg.n_pipes],
            rx_since_ack: 0,
            egress: EgressPipeline::new(EgressLabels::MUX),
            stats: FlowStats::default(),
            recovered: 0,
            cfg,
        }
    }

    /// Datagrams recovered by XOR-parity FEC at this endpoint.
    pub fn fec_recovered(&self) -> u64 {
        self.recovered
    }

    /// Pipes currently scored alive at this endpoint.
    pub fn alive_pipes(&self) -> usize {
        self.health.iter().filter(|h| h.alive).count()
    }

    fn dgram_ip(&self) -> u32 {
        self.cfg.dgram_ip.min(self.mtu_ip).max(MUX_HDR_IP + 1)
    }

    fn ctx(&self, now: Nanos) -> ShapeCtx {
        ShapeCtx {
            flow: self.flow,
            now,
            cwnd: u64::MAX,
            pacing_rate_bps: None,
            in_slow_start: false,
            bytes_sent: self.snd_nxt,
            pkts_sent: self.stats.pkts_sent,
            segs_sent: self.stats.pkts_sent,
            mtu_ip: self.dgram_ip(),
            mss: self.dgram_ip() - MUX_HDR_IP,
        }
    }

    fn outstanding_bytes(&self) -> u64 {
        self.unacked.values().map(|u| u64::from(u.len)).sum()
    }

    fn alive_mask(&self) -> Vec<bool> {
        self.health.iter().map(|h| h.alive).collect()
    }

    fn mk_dgram(&self, kind: PacketKind, seq: u64, ack: u64, payload: u32, pipe: usize) -> Packet {
        let mut p = Packet::tcp_data(self.flow, seq, ack, payload);
        p.kind = kind;
        p.wire_len = payload + MUX_HDR_IP + ETH;
        p.meta.pipe = Some(pipe as u8);
        p
    }

    /// Control datagram (hello/probe/ack): fixed header-only size.
    fn mk_ctl(&self, kind: PacketKind, seq: u64, ack: u64, pipe: usize) -> Packet {
        let mut p = self.mk_dgram(kind, seq, ack, 0, pipe);
        p.wire_len = MUX_HDR_IP + ETH;
        p
    }

    fn arm_timer(&mut self, now: Nanos, acts: &mut Vec<TcpAction>) {
        let need = (self.is_client && self.hello_sent && !self.connected)
            || !self.unacked.is_empty()
            || self.health.iter().any(|h| !h.alive);
        if need {
            acts.extend(self.probe.arm(now + self.cfg.probe_base));
        }
    }

    /// Send one data datagram (fresh or retransmit) through the shared
    /// egress pipeline on a splitter-chosen live pipe.
    fn emit_data(
        &mut self,
        seq: u64,
        len: u32,
        retransmit: bool,
        now: Nanos,
        cpu: &mut Cpu,
        acts: &mut Vec<TcpAction>,
    ) {
        let ctx = self.ctx(now);
        let alive = self.alive_mask();
        let pipe = self.splitter.pick(&alive, false);
        let ip = if retransmit {
            self.stats.retransmits += 1;
            self.egress
                .size_retransmit(&ctx, len + MUX_HDR_IP, MUX_HDR_IP + 1, self.dgram_ip())
        } else {
            len + MUX_HDR_IP
        };
        let len = ip - MUX_HDR_IP;
        let mut p = self.mk_dgram(PacketKind::MuxData, seq, self.rx.next(), len, pipe);
        p.meta.retransmit = retransmit;
        let wire = u64::from(p.wire_len);
        let paced = self
            .egress
            .pace_segment(&ctx, now, cpu, u64::from(len), 1, wire, false);
        p.meta.shaped = paced.shaped;
        self.health[pipe].sent_pkts += 1;
        if self.health[pipe].sent_pkts == 1 {
            self.health[pipe].last_progress = now;
        }
        self.stats.pkts_sent += 1;
        self.unacked.insert(
            seq,
            Unacked {
                len,
                pipe: pipe as u8,
            },
        );
        telemetry::counter("stack.mux.tx_pkts").inc();
        acts.push(TcpAction::SendSeg(SegDesc::new(
            self.flow,
            vec![p],
            paced.eligible,
        )));
        // FEC bookkeeping over fresh data only.
        if !retransmit {
            if let Some(k) = self.cfg.fec_group {
                if self.fec_accum == 0 {
                    self.fec_start = seq;
                }
                self.fec_accum += 1;
                if self.fec_accum >= k {
                    self.emit_parity(seq + u64::from(len), now, cpu, acts);
                }
            }
        }
    }

    fn emit_parity(
        &mut self,
        group_end: u64,
        now: Nanos,
        cpu: &mut Cpu,
        acts: &mut Vec<TcpAction>,
    ) {
        let ctx = self.ctx(now);
        let alive = self.alive_mask();
        let pipe = self.splitter.pick(&alive, true);
        // Parity carries group bounds in seq/ack; its wire size matches a
        // data datagram so it doesn't betray itself by length.
        let mut p = self.mk_dgram(PacketKind::MuxParity, self.fec_start, group_end, 0, pipe);
        p.wire_len = self.dgram_ip() + ETH;
        let wire = u64::from(p.wire_len);
        let paced = self.egress.pace_segment(&ctx, now, cpu, 0, 1, wire, false);
        p.meta.shaped = paced.shaped;
        self.stats.pkts_sent += 1;
        telemetry::counter("stack.mux.parity_pkts").inc();
        acts.push(TcpAction::SendSeg(SegDesc::new(
            self.flow,
            vec![p],
            paced.eligible,
        )));
        self.fec_accum = 0;
    }

    /// Try FEC recovery, then deliver everything now contiguous;
    /// `newly` bytes already became in-order on arrival.
    fn deliver(&mut self, newly: u64, acts: &mut Vec<TcpAction>) {
        self.try_fec_recover();
        let n = newly + self.rx.advance();
        let next = self.rx.next();
        self.parity_groups.retain(|&(_, end)| end > next);
        self.stats.bytes_delivered += n;
        if n > 0 {
            acts.push(TcpAction::Deliver(n));
        }
    }

    /// Try XOR-parity recovery: a stored group with exactly one missing
    /// contiguous range can be reconstructed.
    fn try_fec_recover(&mut self) {
        let groups = self.parity_groups.clone();
        for (start, end) in groups {
            let mut cursor = start.max(self.rx.next());
            let mut gaps: Vec<(u64, u64)> = Vec::new();
            for (&seq, &len) in self.rx.ooo().range(start..end) {
                if seq > cursor {
                    gaps.push((cursor, seq));
                }
                cursor = cursor.max(seq + len);
            }
            if cursor < end {
                gaps.push((cursor, end));
            }
            if gaps.len() == 1 {
                let (lo, hi) = gaps[0];
                self.rx.insert(lo, hi - lo);
                self.recovered += 1;
                telemetry::counter("stack.mux.fec_recovered").inc();
                self.parity_groups.retain(|&(s, _)| s != start);
            } else if gaps.is_empty() {
                self.parity_groups.retain(|&(s, _)| s != start);
            }
        }
    }

    /// Emit acks: one per pipe with unreported receipts.
    fn emit_acks(&mut self, acts: &mut Vec<TcpAction>) {
        for i in 0..self.cfg.n_pipes {
            if self.rx_per_pipe[i] > self.rx_acked_per_pipe[i] {
                let p = self.mk_ctl(PacketKind::MuxAck, self.rx_per_pipe[i], self.rx.next(), i);
                self.rx_acked_per_pipe[i] = self.rx_per_pipe[i];
                self.stats.acks_sent += 1;
                telemetry::counter("stack.mux.acks_sent").inc();
                acts.push(TcpAction::SendCtl(p));
            }
        }
        self.rx_since_ack = 0;
    }

    /// Process a cumulative ack + per-pipe receipt report.
    fn on_ack(&mut self, pkt: &Packet, now: Nanos, acts: &mut Vec<TcpAction>) {
        let was_full = self.outstanding_bytes() + u64::from(self.dgram_ip()) > self.cfg.window;
        // Cumulative ack clears the retransmission ledger.
        let cum = pkt.ack;
        let cleared: Vec<u64> = self
            .unacked
            .range(..cum)
            .filter(|(&s, u)| s + u64::from(u.len) <= cum)
            .map(|(&s, _)| s)
            .collect();
        if !cleared.is_empty() {
            self.last_cum_progress = now;
        }
        for s in cleared {
            self.unacked.remove(&s);
        }
        self.retx.retain(|&(s, len)| s + u64::from(len) > cum);
        self.egress.on_ack(&self.ctx(now));
        // Per-pipe liveness: the peer reports how many datagrams it has
        // received over the ack's pipe.
        if let Some(pi) = pkt.meta.pipe {
            let i = pi as usize;
            if i < self.health.len() {
                let h = &mut self.health[i];
                if pkt.seq > h.acked_pkts {
                    h.acked_pkts = pkt.seq;
                    h.last_progress = now;
                }
                if !h.alive {
                    // Any ack on a dead pipe revives it.
                    h.alive = true;
                    h.backoff_exp = 0;
                    h.last_progress = now;
                    telemetry::counter("stack.mux.revives").inc();
                }
            }
        }
        if was_full && self.outstanding_bytes() + u64::from(self.dgram_ip()) <= self.cfg.window {
            acts.push(TcpAction::Sendable);
        }
    }

    /// Declare pipe `i` dead: drain its unacked datagrams back into the
    /// retransmission queue (they will be re-sent over live pipes) and
    /// start probing it with exponential backoff.
    fn fail_over(&mut self, i: usize, now: Nanos) {
        let h = &mut self.health[i];
        h.alive = false;
        h.backoff_exp = 0;
        h.next_probe = now + self.cfg.probe_base;
        self.stats.timeouts += 1;
        telemetry::counter("stack.mux.failovers").inc();
        let drained: Vec<(u64, u32)> = self
            .unacked
            .iter()
            .filter(|(_, u)| u.pipe == i as u8)
            .map(|(&s, u)| (s, u.len))
            .collect();
        for (s, len) in drained {
            if !self.retx.iter().any(|&(rs, _)| rs == s) {
                self.retx.push((s, len));
            }
        }
        self.retx.sort_unstable();
    }
}

impl TransportCore for Multiplex {
    fn input(&mut self, pkt: &Packet, now: Nanos, _cpu: &mut Cpu) -> Vec<TcpAction> {
        let mut acts = Vec::new();
        // Every datagram but an ack is a receipt on the pipe it came over.
        let pipe = pkt.meta.pipe.map(usize::from);
        if let Some(n) = pipe.and_then(|i| self.rx_per_pipe.get_mut(i)) {
            if pkt.kind != PacketKind::MuxAck {
                *n += 1;
            }
        }
        match pkt.kind {
            PacketKind::MuxInit => {
                if !self.is_client {
                    // Echo the hello once; answer probes with an ack on
                    // the probed pipe either way.
                    if !self.connected {
                        self.connected = true;
                        // Echo on the pipe the hello arrived on: that leg
                        // demonstrably works in at least one direction,
                        // while pipe 0 may be the dead leg the client's
                        // hello retry just routed around.
                        let pipe = pkt
                            .meta
                            .pipe
                            .map(|p| (p as usize).min(self.cfg.n_pipes - 1))
                            .unwrap_or(0);
                        let echo = self.mk_ctl(PacketKind::MuxInit, 0, 0, pipe);
                        acts.push(TcpAction::SendCtl(echo));
                        acts.push(TcpAction::Connected);
                    }
                    self.emit_acks(&mut acts);
                } else if !self.connected {
                    self.connected = true;
                    acts.push(TcpAction::Connected);
                    acts.push(TcpAction::Sendable);
                }
            }
            PacketKind::MuxData => {
                if pkt.seq_end() <= self.rx.next() || self.rx.ooo().contains_key(&pkt.seq) {
                    telemetry::counter("stack.mux.dup_drops").inc();
                } else {
                    let newly = self.rx.accept(pkt.seq, u64::from(pkt.payload));
                    self.deliver(newly.unwrap_or(0), &mut acts);
                }
                self.rx_since_ack += 1;
                if self.rx_since_ack >= self.cfg.ack_every {
                    self.emit_acks(&mut acts);
                }
            }
            PacketKind::MuxParity => {
                let (start, end) = (pkt.seq, pkt.ack);
                if end > self.rx.next() && !self.parity_groups.iter().any(|&(s, _)| s == start) {
                    self.parity_groups.push((start, end));
                }
                self.deliver(0, &mut acts);
            }
            PacketKind::MuxAck => self.on_ack(pkt, now, &mut acts),
            _ => {}
        }
        self.arm_timer(now, &mut acts);
        acts
    }

    fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        let mut acts = Vec::new();
        if self.is_client && !self.hello_sent {
            self.hello_sent = true;
            self.hello_attempts = 1;
            let hello = self.mk_ctl(PacketKind::MuxInit, 0, 0, 0);
            acts.push(TcpAction::SendCtl(hello));
        }
        if !self.connected {
            // Still arm the probe timer: the hello may have gone down a
            // dead leg, and only the timer can retry it elsewhere.
            self.arm_timer(now, &mut acts);
            return acts;
        }
        // Drain retransmissions first (failover / tail-loss recovery).
        let retx = std::mem::take(&mut self.retx);
        for (seq, len) in retx {
            if self.unacked.contains_key(&seq) {
                self.emit_data(seq, len, true, now, cpu, &mut acts);
            }
        }
        // Fresh data, windowed.
        let mss = u64::from(self.dgram_ip() - MUX_HDR_IP);
        while self.queued > 0 && self.outstanding_bytes() + mss <= self.cfg.window {
            let len = self.queued.min(mss) as u32;
            let seq = self.snd_nxt;
            self.queued -= u64::from(len);
            self.snd_nxt += u64::from(len);
            self.emit_data(seq, len, false, now, cpu, &mut acts);
        }
        self.arm_timer(now, &mut acts);
        acts
    }

    fn on_timer(&mut self, kind: TimerKind, gen: u64, now: Nanos) -> Vec<TcpAction> {
        if kind != TimerKind::Probe || !self.probe.take(gen) {
            return Vec::new();
        }
        let mut acts = Vec::new();
        // Connection racing: an unanswered hello is retried on the next
        // pipe (rotating), so establishment needs only one working leg
        // in each direction — the hello itself carries no liveness
        // signal, so a pinned pipe would deadlock behind one dead leg.
        if self.is_client && !self.connected {
            let pipe = (self.hello_attempts as usize) % self.cfg.n_pipes;
            self.hello_attempts += 1;
            telemetry::counter("stack.mux.hello_retries").inc();
            let hello = self.mk_ctl(PacketKind::MuxInit, 0, 0, pipe);
            acts.push(TcpAction::SendCtl(hello));
        }
        // Liveness scoring: a pipe with packets outstanding and no ack
        // progress for liveness_timeout is failed over.
        for i in 0..self.cfg.n_pipes {
            let h = &self.health[i];
            if h.alive
                && h.sent_pkts > h.acked_pkts
                && now.saturating_sub(h.last_progress) >= self.cfg.liveness_timeout
                && self.health.iter().filter(|h| h.alive).count() > 1
            {
                self.fail_over(i, now);
            }
        }
        // Probe dead pipes with exponential backoff; an ack coming back
        // revives the pipe.
        for i in 0..self.cfg.n_pipes {
            let (probe, next_exp) = {
                let h = &self.health[i];
                (!h.alive && now >= h.next_probe, h.backoff_exp + 1)
            };
            if probe {
                let p = self.mk_ctl(PacketKind::MuxInit, 0, self.rx.next(), i);
                telemetry::counter("stack.mux.probes").inc();
                acts.push(TcpAction::SendCtl(p));
                let h = &mut self.health[i];
                h.backoff_exp = next_exp;
                let mut wait = self.cfg.probe_base;
                for _ in 0..next_exp.min(16) {
                    wait = (wait * 2).min(self.cfg.probe_max);
                }
                h.next_probe = now + wait;
            }
        }
        // Tail-loss recovery: if the cumulative ack has stalled, requeue
        // the oldest unacked datagram.
        if !self.unacked.is_empty()
            && now.saturating_sub(self.last_cum_progress) >= self.cfg.liveness_timeout
        {
            if let Some((&seq, u)) = self.unacked.iter().next() {
                if !self.retx.iter().any(|&(s, _)| s == seq) {
                    self.retx.push((seq, u.len));
                }
            }
            self.last_cum_progress = now;
            acts.push(TcpAction::Sendable);
        }
        self.arm_timer(now, &mut acts);
        acts
    }

    fn write(&mut self, len: u64) -> u64 {
        self.queued += len;
        len
    }

    fn set_shaper(&mut self, shaper: BoxShaper) {
        self.egress.set_shaper(shaper);
    }

    /// Shrink-only, like TCP's and QUIC's: a later, larger MTU event
    /// does not grow the datagram back.
    fn set_mtu(&mut self, mtu_ip: u32) {
        self.mtu_ip = self.mtu_ip.min(mtu_ip);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.egress.set_tracer(tracer);
    }

    fn cwnd(&self) -> u64 {
        self.cfg.window
    }

    fn outstanding(&self) -> u64 {
        self.outstanding_bytes()
    }

    fn pacing_rate_bps(&self) -> Option<u64> {
        None
    }

    fn mtu_ip(&self) -> u32 {
        self.dgram_ip()
    }

    fn flow_stats(&self) -> FlowStats {
        FlowStats {
            segs_sent: self.stats.pkts_sent,
            shaped_segs: self.egress.shaped_segs(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;

    fn cpu() -> Cpu {
        Cpu::new(CpuModel::infinitely_fast())
    }

    #[test]
    fn round_robin_rotates_and_skips_dead() {
        let mut s = Splitter::new(SplitterSpec::RoundRobin, 3, SimRng::new(1));
        let alive = vec![true, true, true];
        let picks: Vec<usize> = (0..6).map(|_| s.pick(&alive, false)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        let alive = vec![true, false, true];
        let picks: Vec<usize> = (0..4).map(|_| s.pick(&alive, false)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn weighted_respects_ratio() {
        let spec = SplitterSpec::Weighted {
            weights: vec![3, 1],
        };
        let mut s = Splitter::new(spec, 2, SimRng::new(1));
        let alive = vec![true, true];
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            counts[s.pick(&alive, false)] += 1;
        }
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn padded_random_is_deterministic_and_padding_aware() {
        let alive = vec![true, true, true, true];
        let mut a = Splitter::new(SplitterSpec::PaddedRandom, 4, SimRng::new(7));
        let mut b = Splitter::new(SplitterSpec::PaddedRandom, 4, SimRng::new(7));
        let pa: Vec<usize> = (0..32).map(|_| a.pick(&alive, false)).collect();
        let pb: Vec<usize> = (0..32).map(|_| b.pick(&alive, false)).collect();
        assert_eq!(pa, pb, "same seed, same assignment");
        // Padding goes to the least-loaded pipe: after loading pipe 0
        // heavily, padding must avoid it.
        let mut s = Splitter::new(SplitterSpec::PaddedRandom, 2, SimRng::new(7));
        s.sent = vec![10, 0];
        assert_eq!(s.pick(&alive[..2], true), 1);
    }

    #[test]
    fn splitter_spec_validates_weights() {
        let bad = SplitterSpec::Weighted {
            weights: vec![1, 0],
        };
        assert!(bad.validate(2).is_err());
        assert!(bad.validate(3).is_err());
        assert!(SplitterSpec::RoundRobin.validate(4).is_ok());
    }

    /// Shuttle actions between two Multiplex endpoints in memory (no
    /// Network): deliver every emitted packet, optionally dropping data
    /// datagrams routed over a victim pipe.
    fn shuttle(
        client: &mut Multiplex,
        server: &mut Multiplex,
        drop_pipe: Option<u8>,
        rounds: usize,
    ) -> u64 {
        let mut now = Nanos::ZERO;
        let mut delivered = 0u64;
        let mut timers: Vec<(bool, Nanos, u64)> = Vec::new(); // (is_client, at, gen)
        let mut inbox: Vec<(bool, Packet)> = Vec::new(); // destined-for-client?
        let mut c = cpu();

        let mut acts = client.output(now, &mut c);
        for _ in 0..rounds {
            let mut next: Vec<(bool, Packet)> = Vec::new();
            // `acts` always belongs to the client at loop top; fold in
            // pending packets both ways.
            let apply = |from_client: bool,
                         acts: Vec<TcpAction>,
                         next: &mut Vec<(bool, Packet)>,
                         timers: &mut Vec<(bool, Nanos, u64)>,
                         delivered: &mut u64| {
                for a in acts {
                    match a {
                        TcpAction::SendSeg(seg) => {
                            for p in seg.pkts {
                                if drop_pipe.is_some() && p.meta.pipe == drop_pipe {
                                    continue; // blackhole this leg
                                }
                                next.push((!from_client, p));
                            }
                        }
                        TcpAction::SendCtl(p)
                            if !(drop_pipe.is_some() && p.meta.pipe == drop_pipe) =>
                        {
                            next.push((!from_client, p));
                        }
                        TcpAction::ArmTimer { at, gen, .. } => timers.push((from_client, at, gen)),
                        // Server-side delivery: count client->server bytes.
                        TcpAction::Deliver(n) if !from_client => *delivered += n,
                        _ => {}
                    }
                }
            };
            apply(true, acts, &mut next, &mut timers, &mut delivered);
            // Deliver queued packets.
            for (to_client, p) in inbox.drain(..) {
                let ep: &mut Multiplex = if to_client { client } else { server };
                let mut got = ep.input(&p, now, &mut c);
                got.extend(ep.output(now, &mut c));
                apply(to_client, got, &mut next, &mut timers, &mut delivered);
            }
            // Fire due timers.
            now += Nanos::from_millis(60);
            let due: Vec<(bool, u64)> = timers
                .iter()
                .filter(|&&(_, at, _)| at <= now)
                .map(|&(isc, _, gen)| (isc, gen))
                .collect();
            timers.retain(|&(_, at, _)| at > now);
            for (isc, gen) in due {
                let ep: &mut Multiplex = if isc { client } else { server };
                let mut got = ep.on_timer(TimerKind::Probe, gen, now);
                got.extend(ep.output(now, &mut c));
                apply(isc, got, &mut next, &mut timers, &mut delivered);
            }
            inbox = next;
            acts = Vec::new();
            if inbox.is_empty() && timers.is_empty() && delivered > 0 {
                break;
            }
        }
        delivered
    }

    #[test]
    fn loopback_delivers_in_order_over_two_pipes() {
        let cfg = MuxConfig::default();
        let mut client = Multiplex::client(FlowId(1), cfg.clone(), 11);
        let mut server = Multiplex::server(FlowId(1), cfg, 12);
        client.write(10_000);
        let got = shuttle(&mut client, &mut server, None, 50);
        assert_eq!(got, 10_000);
        assert_eq!(server.rx.next(), 10_000);
        assert!(server.rx.ooo().is_empty());
    }

    #[test]
    fn fec_recovers_single_loss_without_retransmit() {
        let cfg = MuxConfig {
            fec_group: Some(4),
            ..MuxConfig::default()
        };
        let mut client = Multiplex::client(FlowId(1), cfg.clone(), 11);
        let mut server = Multiplex::server(FlowId(1), cfg, 12);
        client.write(4 * 1200);
        // Hand-deliver: handshake, then drop exactly one data datagram.
        let mut c = cpu();
        let now = Nanos::ZERO;
        let hello = client.output(now, &mut c);
        let hello_pkt = match &hello[0] {
            TcpAction::SendCtl(p) => p.clone(),
            other => panic!("expected hello, got {other:?}"),
        };
        let mut sacts = server.input(&hello_pkt, now, &mut c);
        sacts.extend(server.output(now, &mut c));
        let echo = sacts
            .iter()
            .find_map(|a| match a {
                TcpAction::SendCtl(p) if p.kind == PacketKind::MuxInit => Some(p.clone()),
                _ => None,
            })
            .expect("echo");
        let mut cacts = client.input(&echo, now, &mut c);
        cacts.extend(client.output(now, &mut c));
        let mut data: Vec<Packet> = cacts
            .iter()
            .filter_map(|a| match a {
                TcpAction::SendSeg(seg) => Some(seg.pkts.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        // 4 data + 1 parity
        assert_eq!(data.len(), 5);
        assert_eq!(
            data.iter()
                .filter(|p| p.kind == PacketKind::MuxParity)
                .count(),
            1
        );
        // Drop the second data datagram.
        let victim = data.remove(1);
        assert_eq!(victim.kind, PacketKind::MuxData);
        let mut delivered = 0u64;
        for p in &data {
            for a in server.input(p, now, &mut c) {
                if let TcpAction::Deliver(n) = a {
                    delivered += n;
                }
            }
        }
        assert_eq!(delivered, 4 * 1200, "parity filled the gap");
        assert_eq!(server.fec_recovered(), 1);
        assert_eq!(server.rx.next(), 4 * 1200);
    }

    #[test]
    fn dead_pipe_fails_over_and_stream_completes() {
        let cfg = MuxConfig {
            n_pipes: 2,
            liveness_timeout: Nanos::from_millis(100),
            probe_base: Nanos::from_millis(40),
            ..MuxConfig::default()
        };
        let mut client = Multiplex::client(FlowId(1), cfg.clone(), 11);
        let mut server = Multiplex::server(FlowId(1), cfg, 12);
        client.write(20_000);
        let got = shuttle(&mut client, &mut server, Some(1), 200);
        assert_eq!(got, 20_000, "all bytes arrive despite a black-holed pipe");
        assert!(
            client.stats.timeouts >= 1,
            "the dead pipe was detected and failed over"
        );
        assert_eq!(client.alive_pipes(), 1);
    }

    #[test]
    fn hello_retry_establishes_through_dead_first_pipe() {
        // Pipe 0 — the leg the first hello is pinned to — is black-holed
        // from t=0. Establishment must race the retry onto pipe 1 and
        // the whole stream must still complete.
        let cfg = MuxConfig {
            n_pipes: 2,
            liveness_timeout: Nanos::from_millis(100),
            probe_base: Nanos::from_millis(40),
            ..MuxConfig::default()
        };
        let mut client = Multiplex::client(FlowId(1), cfg.clone(), 11);
        let mut server = Multiplex::server(FlowId(1), cfg, 12);
        client.write(20_000);
        let got = shuttle(&mut client, &mut server, Some(0), 200);
        assert_eq!(got, 20_000, "stream completes despite dead hello pipe");
        assert!(client.connected, "hello retry raced onto the live pipe");
        assert!(client.hello_attempts >= 2, "the pinned hello was retried");
    }

    #[test]
    fn mtu_events_only_shrink_the_datagram() {
        let mut m = Multiplex::client(FlowId(1), MuxConfig::default(), 11);
        m.set_mtu(1200);
        m.set_mtu(1400);
        assert_eq!(m.mtu_ip(), 1200, "a larger MTU must not grow it back");
    }

    #[test]
    fn window_limits_outstanding_bytes() {
        let cfg = MuxConfig {
            window: 4 * 1200,
            ..MuxConfig::default()
        };
        let mut client = Multiplex::client(FlowId(1), cfg.clone(), 11);
        let mut server = Multiplex::server(FlowId(1), cfg, 12);
        client.write(100_000);
        let mut c = cpu();
        let now = Nanos::ZERO;
        let hello = client.output(now, &mut c);
        let hello_pkt = match &hello[0] {
            TcpAction::SendCtl(p) => p.clone(),
            _ => panic!(),
        };
        let mut sacts = server.input(&hello_pkt, now, &mut c);
        sacts.extend(server.output(now, &mut c));
        let echo = sacts
            .iter()
            .find_map(|a| match a {
                TcpAction::SendCtl(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        let mut cacts = client.input(&echo, now, &mut c);
        cacts.extend(client.output(now, &mut c));
        let sent: usize = cacts
            .iter()
            .filter(|a| matches!(a, TcpAction::SendSeg(_)))
            .count();
        assert_eq!(sent, 4, "window caps the initial burst");
        assert!(client.outstanding() <= client.cwnd());
    }
}
