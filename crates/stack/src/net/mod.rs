//! The simulated network: two hosts (client and server) joined by a
//! symmetric bottleneck, driven by a deterministic event loop.
//!
//! Each host has a passive vantage point at its access link that records
//! every packet in both directions once [`Network::record_capture`] turns
//! it on: the client's is the `tcpdump` of the paper's §3 data collection,
//! the server's supports server-side defense studies (§5.4 argues the
//! server side is the right deployment point). A run that reads neither,
//! such as Figure 3's, records nothing; [`Network::wire_bytes_out`]
//! counts each host's sent bytes either way.
//!
//! The module splits along the datapath:
//!
//! * [`mod@self`] — the [`Network`] container, event loop, fault/audit
//!   wiring, and stats introspection;
//! * `host` — per-host state (transport connections behind the
//!   [`TransportCore`] trait, CPU, qdisc,
//!   NIC);
//! * `delivery` — event handlers and the path datapath (qdisc→NIC,
//!   the legs' departure gate, bottleneck and pipes, arrival/passive
//!   open);
//! * `table` — the dense `FlowTable` keying per-flow state (shared
//!   with the fleet engine's per-shard tables);
//! * `api` — the application-facing [`Api`] handle.

mod api;
mod delivery;
mod host;
mod table;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_faults;

pub use api::Api;

use crate::config::{HostConfig, PathConfig};
use crate::cpu::Cpu;
use crate::egress::{FlowStats, SegPool, TransportCore};
use crate::tcp::{TcpAction, TimerKind};
use host::Host;
use netsim::telemetry::Tracer;
use netsim::{
    AuditReport, Auditor, Capture, DropTailQueue, EventQueue, FaultInjector, FaultSchedule,
    FaultStats, FlowId, Link, Nanos, Packet, PathLedger, PipeProfile, SimRng,
};

pub const CLIENT: usize = 0;
pub const SERVER: usize = 1;

/// Callbacks through which applications drive the stack. All I/O is
/// asynchronous: `Api::send` only fills the socket buffer, mirroring the
/// `send()` semantics §2.3 builds its argument on.
pub trait App {
    fn on_start(&mut self, _api: &mut Api) {}
    /// Client side: connection established.
    fn on_connected(&mut self, _api: &mut Api, _flow: FlowId) {}
    /// Server side: a new connection completed its handshake.
    fn on_accept(&mut self, _api: &mut Api, _flow: FlowId) {}
    /// `bytes` new in-order bytes arrived on `flow`.
    fn on_data(&mut self, _api: &mut Api, _flow: FlowId, _bytes: u64) {}
    /// Socket-buffer space is available again after a short write.
    fn on_sendable(&mut self, _api: &mut Api, _flow: FlowId) {}
    /// The peer closed its direction of the connection.
    fn on_peer_closed(&mut self, _api: &mut Api, _flow: FlowId) {}
    /// An application timer set via [`Api::set_timer`] fired.
    fn on_timer(&mut self, _api: &mut Api, _token: u64) {}
    /// A stall watchdog armed via [`Api::watch`] fired: `flow` made no
    /// forward progress (no packet arrived for it) for `idle`. The watch
    /// is disarmed before this callback; re-arm with [`Api::watch`] (or
    /// tear the flow down with [`Api::abort`]) to keep supervising.
    fn on_stall(&mut self, _api: &mut Api, _flow: FlowId, _idle: Nanos) {}
}

/// `EventQueue` lanes (see `netsim::EventQueue::schedule_lane`), one per
/// stream whose times never decrease: each host NIC's `PktLeaveNic` and
/// `SegTxDone` (a segment's last packet leaves as it finishes, and the
/// next segment starts no earlier), each bottleneck direction's
/// `BnTxDone`, and each destination host's `Arrive` from the bottleneck
/// (a fault's extra delay can put one before the lane's tail; the queue
/// then keeps it in the heap). Indexed by host or direction.
const LANE_NIC: usize = 0;
const LANE_BN: usize = 2;
const LANE_ARRIVE: usize = 4;
const LANES: usize = 6;

/// Events flowing through the simulator.
#[derive(Debug)]
enum Ev {
    /// A packet arrives at a host (after the bottleneck + propagation).
    Arrive { host: usize, pkt: Packet },
    /// One wire packet's last bit left the host NIC.
    PktLeaveNic { host: usize, pkt: Packet },
    /// The NIC finished serializing a whole segment of `flow`.
    SegTxDone {
        host: usize,
        flow: FlowId,
        wire: u64,
    },
    /// Bottleneck transmitter finished the packet in flight.
    BnTxDone { dir: usize },
    /// Re-examine the qdisc (a paced segment became eligible). `gen`
    /// invalidates a wake-up superseded by an earlier one.
    QdiscCheck { host: usize, gen: u64 },
    /// Transport timer: the one live event of `flow`'s `kind` slot on
    /// `host`. `id` names the event (it is the queue sequence number it
    /// was scheduled under), not the transport's generation — that is
    /// read from the slot when the event fires, and an event the slot no
    /// longer calls live is dropped.
    ConnTimer {
        host: usize,
        flow: FlowId,
        kind: TimerKind,
        id: u64,
    },
    /// Application timer.
    AppTimer { host: usize, token: u64 },
    /// A buffering link flap ended: drain held packets into the path.
    FlapRelease { dir: usize },
    /// Scheduled mid-flow path-MTU reduction from the fault schedule.
    MtuChange { new_mtu_ip: u32 },
    /// Stall-watchdog deadline for a watched flow. `gen` invalidates
    /// events from a previous arm of the same flow's watch.
    Watchdog { host: usize, flow: FlowId, gen: u64 },
}

/// One leg of the path between the hosts. Leg 0 is the default path, the
/// shared bottleneck every untagged packet takes; leg `i + 1` is the
/// multipath pipe `i` that [`Network::provision_pipes`] set up. Every
/// departure goes through one gate (`delivery::depart`) that applies the
/// leg's random loss and fault injector and counts the packet in the
/// leg's conservation ledger; what happens after the gate follows from
/// the leg's [`Medium`].
struct Leg {
    loss: f64,
    faults: Option<FaultInjector>,
    ledger: PathLedger,
    medium: Medium,
}

/// What carries a leg's packets. Each holds one transmitter per
/// direction, indexed by source host.
enum Medium {
    /// The default path: a drop-tail queue in front of each transmitter.
    /// A buffering link flap holds packets rather than dropping them, and
    /// reorder jitter is drawn as a packet finishes transmitting.
    Bottleneck(Box<Bottleneck>),
    /// A provisioned pipe's directed [`Link`]s. Any link flap drops the
    /// packet (recovery is the multiplexer's job), and jitter is drawn as
    /// the packet passes the gate.
    Links([Link; 2]),
}

struct Bottleneck {
    rate_bps: u64,
    one_way_delay: Nanos,
    queue: [DropTailQueue; 2],
    inflight: [Option<Packet>; 2],
    /// Packets held during a buffering link flap.
    held: [Vec<Packet>; 2],
}

impl Bottleneck {
    /// Put `pkt` on direction `dir`'s idle transmitter; returns how long
    /// it takes to serialize.
    fn start(&mut self, dir: usize, pkt: Packet) -> Nanos {
        let tx = Nanos::for_bytes_at_rate(u64::from(pkt.wire_len), self.rate_bps);
        self.inflight[dir] = Some(pkt);
        tx
    }
}

impl Leg {
    /// Count `n` packets this leg dropped, in its own ledger and in the
    /// end-to-end `flow` ledger.
    fn drop_pkts(&mut self, flow: &mut PathLedger, n: u64) {
        flow.dropped += n;
        self.ledger.dropped += n;
        if matches!(self.medium, Medium::Links(_)) {
            netsim::tm_counter!("stack.net.pipe_drops").add(n);
        }
    }

    /// The default path's bottleneck (leg 0's medium).
    fn bottleneck(&mut self) -> &mut Bottleneck {
        match &mut self.medium {
            Medium::Bottleneck(bn) => bn,
            Medium::Links(_) => unreachable!("only leg 0 has a bottleneck"),
        }
    }
}

/// Passive-open constructor installed by [`Network::set_custom_acceptor`].
pub(crate) type CustomAcceptor = Box<dyn FnMut(FlowId) -> Box<dyn TransportCore>>;

/// The whole simulated world.
pub struct Network {
    q: EventQueue<Ev>,
    hosts: [Host; 2],
    apps: [Option<Box<dyn App>>; 2],
    rng: SimRng,
    next_flow: u32,
    started: bool,
    /// Events dispatched so far (see [`Network::event_count`]).
    events_handled: u64,
    /// `[events, lane events, timer arms, timer events]` already added to
    /// the process-wide telemetry counters (see `publish_counts`).
    published: [u64; 4],
    /// Runtime invariant checker (debug default; `set_audit` elsewhere).
    auditor: Auditor,
    /// Shared flow-trace ring: every shaping decision on either host is
    /// recorded here when installed (`set_tracer`).
    tracer: Option<Tracer>,
    /// End-to-end flow ledger: every packet, on whichever leg. The legs'
    /// own ledgers must sum to it field by field.
    ledger: PathLedger,
    /// The default path, then one leg per provisioned pipe
    /// (`provision_pipes`); just the default path in classic single-path
    /// operation.
    legs: Vec<Leg>,
    /// Passive-open constructor for custom transports: a `MuxInit`
    /// arriving at the server for an unknown flow is accepted through
    /// this, mirroring TCP SYN / QUIC Initial handling. No other
    /// multipath datagram opens a flow.
    pub(super) custom_acceptor: Option<CustomAcceptor>,
    /// Emptied action lists. A transport call writes into one taken from
    /// here and `apply` returns it; `apply` re-enters the transports
    /// through app callbacks, so a call may need one while another is
    /// still being applied.
    pub(super) act_bufs: Vec<Vec<TcpAction>>,
    /// Packet buffers of segments the NICs have sent, for the transports
    /// and `apply` to build new segments in.
    pub(super) seg_pool: SegPool,
    /// Vantage point at the client access link (the paper's capture
    /// position). `Out` = client→server. Empty unless
    /// `record_capture(CLIENT)` turned it on.
    pub client_capture: Capture,
    /// Vantage point at the server access link. `Out` = server→client.
    /// Empty unless `record_capture(SERVER)` turned it on.
    pub server_capture: Capture,
}

impl Network {
    pub fn new(
        client: HostConfig,
        server: HostConfig,
        path: PathConfig,
        client_app: Box<dyn App>,
        server_app: Box<dyn App>,
        seed: u64,
    ) -> Self {
        Network {
            q: EventQueue::with_lanes(LANES),
            hosts: [Host::new(client), Host::new(server)],
            apps: [Some(client_app), Some(server_app)],
            rng: SimRng::new(seed),
            next_flow: 1,
            started: false,
            events_handled: 0,
            published: [0; 4],
            auditor: Auditor::new(),
            tracer: None,
            ledger: PathLedger::default(),
            legs: vec![Leg {
                loss: path.loss,
                faults: None,
                ledger: PathLedger::default(),
                medium: Medium::Bottleneck(Box::new(Bottleneck {
                    rate_bps: path.bottleneck_bps,
                    one_way_delay: path.one_way_delay,
                    queue: std::array::from_fn(|_| DropTailQueue::new(path.queue_bytes)),
                    inflight: [None, None],
                    held: [Vec::new(), Vec::new()],
                })),
            }],
            custom_acceptor: None,
            act_bufs: Vec::new(),
            seg_pool: SegPool::default(),
            client_capture: Capture::new(),
            server_capture: Capture::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn now(&self) -> Nanos {
        self.q.now()
    }

    /// Deliver `on_start` to both apps (server first, so it is listening
    /// before the client connects).
    pub(crate) fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.with_app(SERVER, |app, api| app.on_start(api));
        self.with_app(CLIENT, |app, api| app.on_start(api));
    }

    /// Run until the event queue drains. Returns the final time.
    pub fn run_to_idle(&mut self) -> Nanos {
        self.start();
        let mut sp = netsim::telemetry::span("stack.net.event_loop");
        let t0 = self.q.now();
        while let Some((t, ev)) = self.q.pop() {
            self.auditor.check_monotonic(t);
            self.handle(ev);
        }
        sp.sim_window(t0, self.q.now());
        self.publish_counts();
        self.q.now()
    }

    /// Run until simulated `deadline`; later events stay queued.
    pub fn run_until(&mut self, deadline: Nanos) {
        self.start();
        let mut sp = netsim::telemetry::span("stack.net.event_loop");
        let t0 = self.q.now();
        while let Some((t, ev)) = self.q.pop_until(deadline) {
            self.auditor.check_monotonic(t);
            self.handle(ev);
        }
        sp.sim_window(t0, self.q.now());
        self.publish_counts();
    }

    /// Add what this network did since the last call to the process-wide
    /// telemetry. Called as a run returns: the loop itself keeps plain
    /// integers, not an atomic read-modify-write per event.
    fn publish_counts(&mut self) {
        let timers = |f: fn(&Host) -> u64| self.hosts.iter().map(f).sum::<u64>();
        let totals = [
            self.events_handled,
            self.q.lane_events(),
            timers(|h| h.timer_arms),
            timers(|h| h.timer_events),
        ];
        let counters = [
            netsim::tm_counter!("stack.net.events"),
            netsim::tm_counter!("stack.net.lane_events"),
            netsim::tm_counter!("stack.net.timer_arms"),
            netsim::tm_counter!("stack.net.timer_events"),
        ];
        for ((counter, total), published) in counters.iter().zip(totals).zip(self.published) {
            counter.add(total - published);
        }
        self.published = totals;
        netsim::tm_gauge!("stack.net.pending_events_hwm").set_max(self.q.high_water() as u64);
    }

    // ------------------------------------------------------------------
    // Fault injection & auditing
    // ------------------------------------------------------------------

    /// Install a fault schedule. MTU-drop items become scheduled events;
    /// the rest are consulted as packets traverse the path.
    pub fn set_faults(&mut self, schedule: &FaultSchedule) {
        let inj = FaultInjector::new(schedule);
        for (at, new_mtu_ip) in inj.mtu_events() {
            self.q
                .schedule_at(at.max(self.q.now()), Ev::MtuChange { new_mtu_ip });
        }
        self.legs[0].faults = Some(inj);
    }

    /// Counters of faults that actually fired (`None` without a schedule).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.legs[0].faults.as_ref().map(|f| f.stats)
    }

    // ------------------------------------------------------------------
    // Multipath provisioning
    // ------------------------------------------------------------------

    /// Provision multipath legs for this network, replacing any earlier
    /// ones. Packets tagged with `meta.pipe = Some(i)` are routed over
    /// pipe `i` — a pair of directed [`Link`]s with the profile's
    /// rate/delay/loss and an independently seeded fault schedule (see
    /// [`netsim::provision`]) — instead of the default bottleneck.
    /// Untagged packets are unaffected, so TCP/QUIC flows coexist with a
    /// multiplexed flow in the same simulation.
    ///
    /// A pipe is a leg like the default path: a departing packet passes
    /// the same gate (ledger, random loss, fault verdict, link-down
    /// check) against the pipe's own loss, injector and ledger. Two
    /// things differ because a pipe has links where the default path has
    /// a queue: a link flap on a pipe drops rather than buffers (an
    /// outage on an unreliable datagram leg loses packets, and recovery
    /// is the multiplexer's job), and its jitter is drawn as the packet
    /// leaves rather than as it finishes transmitting. Scheduled MTU
    /// changes in a pipe scenario are ignored (MTU is an end-host
    /// property, not a leg property).
    pub fn provision_pipes(&mut self, profiles: &[PipeProfile], seed: u64, horizon: Nanos) {
        self.legs.truncate(1);
        self.legs.extend(
            netsim::provision(profiles, seed, horizon)
                .into_iter()
                .map(|p| {
                    let link = || Link::new(p.profile.rate_bps, p.profile.one_way_delay);
                    Leg {
                        loss: p.profile.loss,
                        faults: p.schedule.as_ref().map(FaultInjector::new),
                        ledger: PathLedger::default(),
                        medium: Medium::Links([link(), link()]),
                    }
                }),
        );
    }

    /// Install the passive-open constructor for custom transports: a
    /// multipath hello (`MuxInit`) arriving at the server for an unknown
    /// flow creates the connection through `make` (the server-side
    /// analogue of [`Api::connect_custom`]).
    pub fn set_custom_acceptor(
        &mut self,
        make: impl FnMut(FlowId) -> Box<dyn TransportCore> + 'static,
    ) {
        self.custom_acceptor = Some(Box::new(make));
    }

    /// Number of provisioned multipath legs.
    pub fn pipe_count(&self) -> usize {
        self.legs.len() - 1
    }

    /// Leg `i`'s conservation ledger.
    pub fn pipe_ledger(&self, i: usize) -> Option<PathLedger> {
        self.legs.get(i + 1).map(|p| p.ledger)
    }

    /// Force the invariant auditor on or off. Debug builds default on,
    /// release builds off; a faulted page load turns it on, and so does
    /// any harness that audits a release run.
    pub fn set_audit(&mut self, on: bool) {
        self.auditor.set_enabled(on);
    }

    /// Install a flow tracer: from now on every shaping decision on
    /// either host (transport sizing/pacing, qdisc release, NIC bursts,
    /// fault hits) is recorded into the shared bounded ring. Existing
    /// connections pick it up immediately.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for h in self.hosts.iter_mut() {
            for conn in h.conns.values_mut() {
                conn.core.set_tracer(tracer.clone());
            }
        }
        self.tracer = Some(tracer);
    }

    /// Record `host`'s vantage point (`client_capture` for [`CLIENT`],
    /// `server_capture` for [`SERVER`]) from now on. A capture nobody
    /// asked for stays empty: Figure 3's 100 Gb/s runs would otherwise
    /// hold hundreds of megabytes of records that nothing reads.
    pub fn record_capture(&mut self, host: usize) {
        self.hosts[host].capture_on = true;
    }

    /// `host`'s vantage point, if it records.
    fn vantage(&mut self, host: usize) -> Option<&mut Capture> {
        if !self.hosts[host].capture_on {
            return None;
        }
        Some(match host {
            CLIENT => &mut self.client_capture,
            _ => &mut self.server_capture,
        })
    }

    /// On-wire bytes of every packet that has left `host`'s NIC, counted
    /// where its vantage point records them: what a recording
    /// [`Capture`] would report as `bytes(Direction::Out)`, recorded or
    /// not.
    pub fn wire_bytes_out(&self, host: usize) -> u64 {
        self.hosts[host].wire_bytes_out
    }

    /// Final invariant report: runs the conservation check over the
    /// end-to-end flow ledger, a per-pipe conservation check over every
    /// provisioned pipe, and, with pipes provisioned, the multipath sum
    /// rule (the legs' ledgers must account for the flow ledger field by
    /// field), then snapshots all recorded violations.
    pub fn audit_report(&mut self) -> AuditReport {
        let now = self.q.now();
        self.audit_conservation();
        for (i, p) in self.legs[1..].iter().enumerate() {
            self.auditor.check_pipe_conservation(
                now,
                i,
                p.ledger.injected,
                p.ledger.delivered,
                p.ledger.dropped,
                p.ledger.arrivals_pending,
            );
        }
        if self.legs.len() > 1 {
            let mut sum = PathLedger::default();
            for l in &self.legs {
                sum.injected += l.ledger.injected;
                sum.delivered += l.ledger.delivered;
                sum.dropped += l.ledger.dropped;
            }
            let total = self.ledger;
            for (name, sum, total) in [
                ("injected", sum.injected, total.injected),
                ("delivered", sum.delivered, total.delivered),
                ("dropped", sum.dropped, total.dropped),
            ] {
                self.auditor.check_multipath_sum(now, name, sum, total);
            }
        }
        self.auditor.report()
    }

    /// Check the end-to-end flow ledger against the packets on the path.
    fn audit_conservation(&mut self) {
        let in_transit = self.in_transit_pkts();
        let l = self.ledger;
        let now = self.q.now();
        self.auditor
            .check_conservation(now, l.injected, l.delivered, l.dropped, in_transit);
    }

    /// Packets currently somewhere on the path (bottleneck queues, the
    /// transmitters, flap-hold buffers, or propagating toward a host).
    fn in_transit_pkts(&mut self) -> u64 {
        let bn = self.legs[0].bottleneck();
        let queued: u64 = bn.queue.iter().map(|q| q.len() as u64).sum();
        let inflight = bn.inflight.iter().flatten().count() as u64;
        let held: u64 = bn.held.iter().map(|h| h.len() as u64).sum();
        queued + inflight + held + self.ledger.arrivals_pending
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Transport-agnostic stats for any flow on `host`, whatever its
    /// transport (TCP, QUIC, or custom).
    pub fn flow_stats(&self, host: usize, flow: FlowId) -> Option<FlowStats> {
        self.hosts[host]
            .conns
            .get(&flow)
            .map(|t| t.core.flow_stats())
    }

    pub fn cpu(&self, host: usize) -> &Cpu {
        &self.hosts[host].cpu
    }

    #[cfg(test)]
    pub(crate) fn nic_counters(&self, host: usize) -> (u64, u64) {
        (
            self.hosts[host].nic.segments_tx,
            self.hosts[host].nic.packets_tx,
        )
    }

    /// Events the loop has dispatched — this network's share of the
    /// process-wide `stack.net.events` counter.
    #[cfg(test)]
    pub(crate) fn event_count(&self) -> u64 {
        self.events_handled
    }

    /// The most events this network ever had pending at once — packets
    /// in flight plus live wake-ups and timers; a figure in the tens of
    /// thousands means dead events are being parked in the heap.
    #[cfg(test)]
    pub(crate) fn pending_events_hwm(&self) -> usize {
        self.q.high_water()
    }

    /// Transport timers on `host`: `(armed, scheduled, superseded)` —
    /// `ArmTimer` requests taken from the transports, `ConnTimer` events
    /// put in the heap for them (one live per connection and kind, so
    /// far fewer), and events that fired replaced by an earlier one and
    /// were dropped.
    #[cfg(test)]
    pub(crate) fn conn_timers(&self, host: usize) -> (u64, u64, u64) {
        let h = &self.hosts[host];
        (h.timer_arms, h.timer_events, h.superseded_timers)
    }

    /// Qdisc wake-ups on `host`: `(requested, superseded)`. A superseded
    /// wake-up is one that reached the event heap and was overtaken by an
    /// earlier request before it fired.
    #[cfg(test)]
    pub(crate) fn qdisc_wakeups(&self, host: usize) -> (u64, u64) {
        let h = &self.hosts[host];
        (h.check_gen, h.superseded_checks)
    }
}
