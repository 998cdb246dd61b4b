//! The datapath: event dispatch, qdisc→NIC feeding, the bottleneck
//! queues, fault injection at path entry, and packet arrival (including
//! passive open of server-side connections).
//!
//! Every connection is driven exclusively through [`TransportCore`] —
//! this file contains no transport-specific code beyond the passive-open
//! constructor choice (`accept`).

use super::host::Conn;
use super::{Api, Ev, Network, CLIENT, SERVER};
use crate::egress::TransportCore;
use crate::qdisc::{Poll, SegDesc};
use crate::quic::QuicConn;
use crate::tcp::{TcpAction, TcpConn, TimerKind};
use netsim::fault::Departure;
use netsim::{Direction, FlowId, Nanos, Packet, PacketKind};

impl Network {
    pub(super) fn handle(&mut self, ev: Ev) {
        self.events_handled += 1;
        match ev {
            Ev::QdiscCheck { host, gen } => {
                let h = &mut self.hosts[host];
                if gen != h.check_gen {
                    // Superseded by an earlier wake-up, which re-arms
                    // whatever this one was waiting for.
                    h.superseded_checks += 1;
                    netsim::tm_counter!("stack.qdisc.superseded_wakeups").inc();
                    return;
                }
                h.next_check = None;
                self.qdisc_check(host);
            }
            Ev::PktLeaveNic { host, pkt } => self.pkt_leave_nic(host, pkt),
            Ev::SegTxDone { host, flow, wire } => {
                let now = self.q.now();
                let h = &mut self.hosts[host];
                if let Some(conn) = h.conns.get_mut(&flow) {
                    conn.core.on_nic_release(wire);
                    let acts = conn.core.output(now, &mut h.cpu);
                    self.apply(host, flow, acts);
                }
                // The NIC frees at this instant: keep feeding it from
                // here rather than through a wake-up event of its own.
                self.qdisc_check(host);
            }
            Ev::BnTxDone { dir } => self.bn_tx_done(dir),
            Ev::Arrive { host, pkt } => self.arrive(host, pkt),
            Ev::ConnTimer {
                host,
                flow,
                kind,
                id,
            } => self.conn_timer(host, flow, kind, id),
            Ev::AppTimer { host, token } => {
                self.with_app(host, |app, api| app.on_timer(api, token));
            }
            Ev::FlapRelease { dir } => self.flap_release(dir),
            Ev::MtuChange { new_mtu_ip } => self.mtu_change(new_mtu_ip),
            Ev::Watchdog { host, flow, gen } => self.watchdog(host, flow, gen),
        }
    }

    /// A stall watchdog's deadline arrived. If the flow made progress
    /// since the event was scheduled, push the deadline forward; if not,
    /// audit the forward-progress invariant, disarm, and tell the app.
    fn watchdog(&mut self, host: usize, flow: FlowId, gen: u64) {
        let now = self.q.now();
        let (idle, timeout) = {
            let Some(w) = self.hosts[host].watch.get(&flow) else {
                return; // disarmed (unwatch/abort) since scheduling
            };
            if w.gen != gen {
                return; // stale event from a previous arm
            }
            let due = w.last_progress + w.timeout;
            if due > now {
                // Progress since the event was scheduled: re-examine at
                // the pushed-forward deadline, same generation.
                self.q.schedule_at(due, Ev::Watchdog { host, flow, gen });
                return;
            }
            (now.saturating_sub(w.last_progress), w.timeout)
        };
        // The watchdog must examine a stalled flow within a small multiple
        // of its timeout of the stall beginning; 2x allows for one full
        // reschedule of slack. Beyond that the recovery runtime itself
        // lost track of the flow.
        self.auditor
            .check_progress(now, u64::from(flow.0), idle, timeout * 2);
        self.hosts[host].watch.remove(&flow);
        netsim::tm_counter!("stack.recovery.stalls").inc();
        if let Some(tr) = &self.tracer {
            tr.rec(
                now,
                u64::from(flow.0),
                "net",
                "stall",
                idle.as_nanos(),
                timeout.as_nanos(),
                "watchdog-idle-timeout",
            );
        }
        self.with_app(host, |app, api| app.on_stall(api, flow, idle));
    }

    /// Apply a scheduled path-MTU reduction to every live connection on
    /// both hosts (the stand-in for ICMP "fragmentation needed" reaching
    /// each endpoint). Segments already queued keep their old size;
    /// everything packetized afterwards uses the smaller MTU.
    fn mtu_change(&mut self, new_mtu_ip: u32) {
        if let Some(f) = self.faults.as_mut() {
            f.stats.mtu_changes += 1;
        }
        netsim::tm_counter!("netsim.fault.mtu_changes").inc();
        if let Some(tr) = &self.tracer {
            tr.rec(
                self.q.now(),
                0,
                "net",
                "mtu-change",
                0,
                u64::from(new_mtu_ip),
                "fault-schedule",
            );
        }
        for h in self.hosts.iter_mut() {
            for conn in h.conns.values_mut() {
                conn.core.set_mtu(new_mtu_ip);
            }
        }
    }

    /// Apply transport actions produced by conn `flow` on `host`.
    pub(super) fn apply(&mut self, host: usize, flow: FlowId, acts: Vec<TcpAction>) {
        let now = self.q.now();
        // §4.2 audit: the batch of fresh (non-retransmit) departures one
        // output pass authorises must fit within the congestion
        // controller's grant, and so must the flow's in-network estimate.
        // `slop` is the one-burst overshoot the send loop structurally
        // permits (the gate runs before each segment is built).
        if self.auditor.enabled() {
            let fresh: u64 = acts
                .iter()
                .filter_map(|a| match a {
                    TcpAction::SendSeg(s) if !s.pkts.iter().any(|p| p.meta.retransmit) => {
                        Some(s.payload_bytes())
                    }
                    _ => None,
                })
                .sum();
            if fresh > 0 {
                let (outstanding, grant) = match self.hosts[host].conns.get(&flow) {
                    Some(t) => (t.core.outstanding().max(fresh), t.core.cwnd()),
                    None => (0, u64::MAX),
                };
                let s = &self.hosts[host].cfg.stack;
                let slop = u64::from(s.tso_max_pkts.max(16)) * u64::from(s.mss());
                self.auditor.check_safety(
                    now,
                    u64::from(flow.0),
                    outstanding,
                    grant.saturating_add(slop),
                );
            }
        }
        for act in acts {
            match act {
                TcpAction::SendSeg(seg) => {
                    let at = seg.eligible_at;
                    self.hosts[host].qdisc.enqueue(seg);
                    self.schedule_check(host, at.max(now));
                }
                TcpAction::SendCtl(pkt) => {
                    let seg = SegDesc::new(flow, vec![pkt], now);
                    self.hosts[host].qdisc.enqueue_prio(seg);
                    self.schedule_check(host, now);
                }
                TcpAction::ArmTimer { kind, at, gen } => self.arm_timer(host, flow, kind, at, gen),
                TcpAction::Deliver(n) => {
                    self.with_app(host, |app, api| app.on_data(api, flow, n));
                }
                TcpAction::Sendable => {
                    self.with_app(host, |app, api| app.on_sendable(api, flow));
                }
                TcpAction::Connected => {
                    if host == CLIENT {
                        self.with_app(host, |app, api| app.on_connected(api, flow));
                    } else {
                        self.with_app(host, |app, api| app.on_accept(api, flow));
                    }
                }
                TcpAction::PeerClosed => {
                    self.with_app(host, |app, api| app.on_peer_closed(api, flow));
                }
            }
        }
    }

    /// Take a transport's timer request. Only the latest request of a
    /// kind is ever delivered (all transports treat an `on_timer` for an
    /// older `gen` as a no-op, so the older ones need not fire), and one
    /// heap event per connection and kind carries it: a request no
    /// earlier than the live event schedules nothing — that event, when
    /// it fires, moves itself to `(at, seq)` — and an earlier one
    /// replaces it. `seq` is reserved here so that the delivering event
    /// pops where one scheduled right now would.
    fn arm_timer(&mut self, host: usize, flow: FlowId, kind: TimerKind, at: Nanos, gen: u64) {
        let h = &mut self.hosts[host];
        let Some(conn) = h.conns.get_mut(&flow) else {
            return; // aborted by an app callback earlier in this batch
        };
        let at = at.max(self.q.now());
        let seq = self.q.reserve_seq();
        let slot = &mut conn.timers[kind as usize];
        (slot.at, slot.gen, slot.seq) = (at, gen, seq);
        h.timer_arms += 1;
        if matches!(slot.live, Some((due, _)) if due <= at) {
            return;
        }
        slot.live = Some((at, seq));
        self.schedule_timer(host, flow, kind, at, seq);
    }

    /// Put the event a timer slot has just named live in the heap.
    fn schedule_timer(&mut self, host: usize, flow: FlowId, kind: TimerKind, at: Nanos, seq: u64) {
        self.hosts[host].timer_events += 1;
        let ev = Ev::ConnTimer {
            host,
            flow,
            kind,
            id: seq,
        };
        self.q.schedule_at_seq(at, seq, ev);
    }

    /// The `ConnTimer` event `id` fired: drop it if the slot no longer
    /// calls it live, move it if the transport has asked again since it
    /// was scheduled, and otherwise deliver the request it was scheduled
    /// for.
    fn conn_timer(&mut self, host: usize, flow: FlowId, kind: TimerKind, id: u64) {
        let now = self.q.now();
        let h = &mut self.hosts[host];
        let Some(conn) = h.conns.get_mut(&flow) else {
            return; // aborted since the event was scheduled
        };
        let slot = &mut conn.timers[kind as usize];
        if !matches!(slot.live, Some((_, live)) if live == id) {
            // Replaced by an event for an earlier request — or left
            // behind by a connection this flow id no longer names.
            h.superseded_timers += 1;
            return;
        }
        let (at, seq) = (slot.at, slot.seq);
        if (at, seq) != (now, id) {
            // It stood in for a later request (even one for this same
            // instant sorts later): take that request's place in the
            // queue rather than run ahead of what was scheduled between.
            debug_assert!((at, seq) > (now, id));
            slot.live = Some((at, seq));
            self.schedule_timer(host, flow, kind, at, seq);
            return;
        }
        slot.live = None;
        let gen = slot.gen;
        let acts = conn.core.on_timer(kind, gen, now);
        self.apply(host, flow, acts);
        let more = {
            let h = &mut self.hosts[host];
            match h.conns.get_mut(&flow) {
                Some(conn) => conn.core.output(now, &mut h.cpu),
                None => return,
            }
        };
        self.apply(host, flow, more);
    }

    pub(super) fn with_app(&mut self, host: usize, f: impl FnOnce(&mut dyn super::App, &mut Api)) {
        if let Some(mut app) = self.apps[host].take() {
            {
                let mut api = Api { net: self, host };
                f(app.as_mut(), &mut api);
            }
            debug_assert!(self.apps[host].is_none(), "reentrant app callback");
            self.apps[host] = Some(app);
        }
    }

    /// Ask for the qdisc to be examined at `at`. A host has at most one
    /// live wake-up: a request is already covered if the pending one is
    /// no later, or if the NIC is busy until `at` or beyond (`SegTxDone`
    /// checks as it frees); an earlier request supersedes the pending one
    /// (the stale event is dropped when it fires); and one for this very
    /// instant runs inline.
    fn schedule_check(&mut self, host: usize, at: Nanos) {
        let now = self.q.now();
        let at = at.max(now);
        let h = &mut self.hosts[host];
        let free = h.nic.free_at();
        if matches!(h.next_check, Some(t) if t <= at) || (now < free && at <= free) {
            return;
        }
        h.check_gen += 1;
        if at == now {
            h.next_check = None;
            self.qdisc_check(host);
            return;
        }
        h.next_check = Some(at);
        let gen = h.check_gen;
        self.q.schedule_at(at, Ev::QdiscCheck { host, gen });
    }

    /// Try to feed the NIC from the qdisc.
    pub(super) fn qdisc_check(&mut self, host: usize) {
        let now = self.q.now();
        let h = &mut self.hosts[host];
        if !h.nic.idle_at(now) {
            // Busy: the pending `SegTxDone` checks again as it frees.
            return;
        }
        match h.qdisc.poll(now) {
            Poll::Ready(seg) => {
                self.auditor
                    .check_release(now, seg.eligible_at, u64::from(seg.flow.0));
                // Pacer release delay: how long past its eligible time a
                // segment actually reached the NIC (0 = on time).
                netsim::tm_histo!("stack.qdisc.release_delay_ns")
                    .record(now.saturating_sub(seg.eligible_at).as_nanos());
                let flow = seg.flow;
                let wire = seg.wire_bytes;
                let npkts = seg.pkts.len() as u64;
                netsim::tm_histo!("stack.nic.pkts_per_seg").record(npkts);
                if let Some(tr) = &self.tracer {
                    tr.rec(
                        now,
                        u64::from(flow.0),
                        "qdisc",
                        "release",
                        seg.eligible_at.as_nanos(),
                        now.as_nanos(),
                        "earliest-eligible-first",
                    );
                    tr.rec(
                        now,
                        u64::from(flow.0),
                        "nic",
                        "tx-seg",
                        npkts,
                        wire,
                        "tso-burst",
                    );
                }
                let (done, pkts) = h.nic.transmit_segment(now, seg);
                for (t, pkt) in pkts {
                    self.q.schedule_at(t, Ev::PktLeaveNic { host, pkt });
                }
                // Its handler checks again: that is when the NIC frees.
                self.q.schedule_at(done, Ev::SegTxDone { host, flow, wire });
            }
            Poll::Wait(t) => self.schedule_check(host, t),
            Poll::Empty => {}
        }
    }

    /// A packet's last bit left a host NIC: record it at the local
    /// vantage point, then enter the bottleneck toward the other host —
    /// or, for a packet tagged with a provisioned pipe, route it over
    /// that leg instead.
    fn pkt_leave_nic(&mut self, host: usize, pkt: Packet) {
        let now = self.q.now();
        match host {
            CLIENT => self.client_capture.observe(now, Direction::Out, &pkt),
            _ => self.server_capture.observe(now, Direction::Out, &pkt),
        }
        if let Some(pi) = pkt.meta.pipe {
            let i = pi as usize;
            if i < self.pipes.len() {
                self.route_pipe(host, i, pkt);
                return;
            }
        }
        self.ledger.injected += 1;
        self.default_ledger.injected += 1;
        // Random loss (configured paths only).
        if self.path.loss > 0.0 && self.rng.chance(self.path.loss) {
            self.path_stats.random_drops += 1;
            self.ledger.dropped += 1;
            self.default_ledger.dropped += 1;
            netsim::tm_counter!("stack.net.random_drops").inc();
            return;
        }
        let dir = host; // direction index = source host
                        // Fault injection at the path entry: burst loss, duplication,
                        // then link flaps (a dropped packet cannot duplicate; a held one
                        // waits out the outage).
        let mut copies: u64 = 1;
        if let Some(f) = self.faults.as_mut() {
            match f.on_departure(dir, now) {
                Departure::Deliver => {}
                Departure::Drop => {
                    self.ledger.dropped += 1;
                    self.default_ledger.dropped += 1;
                    netsim::tm_counter!("netsim.fault.drops").inc();
                    if let Some(tr) = &self.tracer {
                        tr.rec(
                            now,
                            u64::from(pkt.flow.0),
                            "net",
                            "fault-drop",
                            u64::from(pkt.wire_len),
                            0,
                            "fault-schedule",
                        );
                    }
                    return;
                }
                Departure::Duplicate => {
                    copies = 2;
                    self.ledger.injected += 1;
                    self.default_ledger.injected += 1;
                    netsim::tm_counter!("netsim.fault.duplicates").inc();
                }
            }
            if let Some(down) = f.link_down(dir, now) {
                if down.drop {
                    f.stats.flap_drops += copies;
                    self.ledger.dropped += copies;
                    self.default_ledger.dropped += copies;
                    netsim::tm_counter!("netsim.fault.flap_drops").add(copies);
                    return;
                }
                f.stats.flap_held += copies;
                netsim::tm_counter!("netsim.fault.flap_held").add(copies);
                let first = self.flap_held[dir].is_empty();
                if copies == 2 {
                    self.flap_held[dir].push(pkt.clone());
                }
                self.flap_held[dir].push(pkt);
                if first {
                    self.q.schedule_at(down.until, Ev::FlapRelease { dir });
                }
                return;
            }
        }
        if copies == 2 {
            self.enter_bottleneck(dir, pkt.clone());
        }
        self.enter_bottleneck(dir, pkt);
    }

    /// Route a tagged packet over provisioned leg `i`: observe it at the
    /// leg's vantage point, apply the leg's own loss and fault schedule,
    /// serialize it on the leg's directed [`netsim::Link`], and schedule
    /// its arrival. Both the flow ledger and the leg's ledger account
    /// for every outcome, so the auditor's per-pipe conservation and
    /// multipath-sum invariants can be checked at teardown.
    fn route_pipe(&mut self, src: usize, i: usize, pkt: Packet) {
        let now = self.q.now();
        let dir = src; // direction index = source host, like the bottleneck
        let p = &mut self.pipes[i];
        let obs = if src == CLIENT {
            Direction::Out
        } else {
            Direction::In
        };
        p.capture.observe(now, obs, &pkt);
        self.ledger.injected += 1;
        p.ledger.injected += 1;
        netsim::tm_counter!("stack.net.pipe_pkts").inc();
        // Leg-local random loss.
        if p.profile.loss > 0.0 && self.rng.chance(p.profile.loss) {
            self.path_stats.random_drops += 1;
            self.ledger.dropped += 1;
            p.ledger.dropped += 1;
            netsim::tm_counter!("stack.net.pipe_drops").inc();
            return;
        }
        // Leg-local faults: burst loss, duplication, outages. Flaps on a
        // datagram leg always drop (no buffering); the multiplexer's
        // failover machinery is the recovery path.
        let mut copies: u64 = 1;
        let mut extra = Nanos::ZERO;
        if let Some(f) = p.faults.as_mut() {
            match f.on_departure(dir, now) {
                Departure::Deliver => {}
                Departure::Drop => {
                    self.ledger.dropped += 1;
                    p.ledger.dropped += 1;
                    netsim::tm_counter!("stack.net.pipe_drops").inc();
                    return;
                }
                Departure::Duplicate => {
                    copies = 2;
                    self.ledger.injected += 1;
                    p.ledger.injected += 1;
                }
            }
            if f.link_down(dir, now).is_some() {
                f.stats.flap_drops += copies;
                self.ledger.dropped += copies;
                p.ledger.dropped += copies;
                netsim::tm_counter!("stack.net.pipe_drops").add(copies);
                return;
            }
            extra = f.extra_arrival_delay(dir, now);
        }
        let dst = 1 - src;
        for _ in 0..copies {
            let (_tx_done, arrival) = p.links[dir].transmit(now, u64::from(pkt.wire_len));
            self.ledger.arrivals_pending += 1;
            p.ledger.arrivals_pending += 1;
            self.q.schedule_at(
                arrival + extra,
                Ev::Arrive {
                    host: dst,
                    pkt: pkt.clone(),
                },
            );
        }
    }

    /// Hand a packet to the bottleneck transmitter for direction `dir`.
    fn enter_bottleneck(&mut self, dir: usize, pkt: Packet) {
        let now = self.q.now();
        if self.bn_inflight[dir].is_none() {
            let tx = Nanos::for_bytes_at_rate(pkt.wire_len as u64, self.path.bottleneck_bps);
            self.bn_inflight[dir] = Some(pkt);
            self.q.schedule_at(now + tx, Ev::BnTxDone { dir });
        } else if !self.bn_queue[dir].enqueue(pkt) {
            self.path_stats.overflow_drops += 1;
            self.ledger.dropped += 1;
            self.default_ledger.dropped += 1;
        }
    }

    /// A buffering flap's recovery time arrived: if the link is still
    /// down (overlapping windows), re-arm; otherwise drain the held
    /// packets in order.
    fn flap_release(&mut self, dir: usize) {
        let now = self.q.now();
        if let Some(f) = self.faults.as_ref() {
            if let Some(down) = f.link_down(dir, now) {
                self.q.schedule_at(down.until, Ev::FlapRelease { dir });
                return;
            }
        }
        let held = std::mem::take(&mut self.flap_held[dir]);
        for pkt in held {
            self.enter_bottleneck(dir, pkt);
        }
    }

    fn bn_tx_done(&mut self, dir: usize) {
        let now = self.q.now();
        let pkt = self.bn_inflight[dir].take().expect("no packet in flight");
        let dst = 1 - dir;
        self.path_stats.delivered_pkts += 1;
        // Reorder jitter and RTT spikes stretch propagation only:
        // packets may overtake each other, never travel back in time.
        let mut delay = self.path.one_way_delay;
        if let Some(f) = self.faults.as_mut() {
            delay += f.extra_arrival_delay(dir, now);
        }
        self.ledger.arrivals_pending += 1;
        self.default_ledger.arrivals_pending += 1;
        self.q
            .schedule_at(now + delay, Ev::Arrive { host: dst, pkt });
        if let Some(next) = self.bn_queue[dir].dequeue() {
            let tx = Nanos::for_bytes_at_rate(next.wire_len as u64, self.path.bottleneck_bps);
            self.bn_inflight[dir] = Some(next);
            self.q.schedule_at(now + tx, Ev::BnTxDone { dir });
        }
    }

    fn arrive(&mut self, host: usize, pkt: Packet) {
        let now = self.q.now();
        self.ledger.arrivals_pending -= 1;
        self.ledger.delivered += 1;
        match pkt.meta.pipe {
            Some(pi) if (pi as usize) < self.pipes.len() => {
                let l = &mut self.pipes[pi as usize].ledger;
                l.arrivals_pending -= 1;
                l.delivered += 1;
            }
            _ => {
                self.default_ledger.arrivals_pending -= 1;
                self.default_ledger.delivered += 1;
            }
        }
        if self.auditor.enabled() {
            let in_transit = self.in_transit_pkts();
            self.auditor.check_conservation(
                now,
                self.ledger.injected,
                self.ledger.delivered,
                self.ledger.dropped,
                in_transit,
            );
        }
        match host {
            CLIENT => self.client_capture.observe(now, Direction::In, &pkt),
            _ => self.server_capture.observe(now, Direction::In, &pkt),
        }
        let flow = pkt.flow;
        // Any arrival for a watched flow is forward progress: the stall
        // watchdog's clock restarts (the pending event re-schedules itself
        // lazily when it fires).
        if !self.hosts[host].watch.is_empty() {
            if let Some(w) = self.hosts[host].watch.get_mut(&flow) {
                w.last_progress = now;
            }
        }
        if !self.hosts[host].conns.contains_key(&flow) {
            // Only the server opens passively.
            let opened = (host == SERVER).then(|| self.accept(pkt.kind, flow));
            let Some(mut core) = opened.flatten() else {
                return; // stray packet for a dead/unknown flow
            };
            if let Some(tr) = &self.tracer {
                core.set_tracer(tr.clone());
            }
            self.hosts[host].conns.insert(flow, Conn::new(core));
        }
        let acts = {
            let h = &mut self.hosts[host];
            let conn = h.conns.get_mut(&flow).expect("conn just ensured");
            conn.core.input(&pkt, now, &mut h.cpu)
        };
        self.apply(host, flow, acts);
        let more = {
            let h = &mut self.hosts[host];
            match h.conns.get_mut(&flow) {
                Some(conn) => conn.core.output(now, &mut h.cpu),
                None => return,
            }
        };
        self.apply(host, flow, more);
    }

    /// Passive open: the server's transport for an unknown flow's first
    /// packet — a SYN (TCP), an Initial (QUIC), or a multipath hello
    /// through the installed custom acceptor. Anything else is a stray.
    fn accept(&mut self, kind: PacketKind, flow: FlowId) -> Option<Box<dyn TransportCore>> {
        let cfg = || self.hosts[SERVER].cfg.stack.clone();
        match kind {
            PacketKind::TcpSyn => Some(Box::new(TcpConn::new(flow, cfg(), false))),
            PacketKind::QuicInit => Some(Box::new(QuicConn::new(flow, cfg(), false))),
            PacketKind::MuxInit => self.custom_acceptor.as_mut().map(|make| make(flow)),
            _ => None,
        }
    }
}
