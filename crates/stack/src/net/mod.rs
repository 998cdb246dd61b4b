//! The simulated network: two hosts (client and server) joined by a
//! symmetric bottleneck, driven by a deterministic event loop.
//!
//! A passive vantage point at the client access link records every packet
//! in both directions — the `tcpdump` of the paper's §3 data collection.
//! A second vantage point at the server side supports server-side defense
//! studies (§5.4 argues the server side is the right deployment point).
//!
//! The module splits along the datapath:
//!
//! * [`mod@self`] — the [`Network`] container, event loop, fault/audit
//!   wiring, and stats introspection;
//! * `host` — per-host state (transport connections behind the
//!   [`TransportCore`] trait, CPU, qdisc,
//!   NIC);
//! * `delivery` — event handlers and the path datapath (qdisc→NIC,
//!   bottleneck, faults, arrival/passive open);
//! * [`table`] — the dense [`FlowTable`] keying per-flow state (shared
//!   with the fleet engine's per-shard tables);
//! * `api` — the application-facing [`Api`] handle.

mod api;
mod delivery;
mod host;
pub mod table;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_faults;

pub use api::{Api, AppEvent};
pub use table::FlowTable;

use crate::config::{HostConfig, PathConfig};
use crate::cpu::Cpu;
use crate::egress::{FlowStats, TransportCore};
use crate::tcp::TimerKind;
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

/// Counters for the path between the hosts.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStats {
    pub random_drops: u64,
    pub overflow_drops: u64,
    pub delivered_pkts: u64,
}

/// One provisioned multipath leg: an independent pair of directed links
/// (client→server, server→client) with its own loss, fault injector,
/// conservation ledger, and on-path vantage point. Packets whose
/// [`netsim::PacketMeta::pipe`] names this leg bypass the default
/// bottleneck entirely (see `delivery::route_pipe`).
pub(super) struct PipeState {
    pub(super) profile: PipeProfile,
    /// Directed links, indexed by source host (like the bottleneck).
    pub(super) links: [Link; 2],
    pub(super) faults: Option<FaultInjector>,
    pub(super) ledger: PathLedger,
    /// Vantage point on this leg: `Out` = client→server. An observer
    /// here sees only the packets the splitter routed over this leg.
    pub(super) capture: Capture,
}

/// Passive-open constructor installed by [`Network::set_custom_acceptor`].
pub type CustomAcceptor = Box<dyn FnMut(FlowId) -> Box<dyn TransportCore>>;

/// The whole simulated world.
pub struct Network {
    q: EventQueue<Ev>,
    hosts: [Host; 2],
    apps: [Option<Box<dyn App>>; 2],
    path: PathConfig,
    bn_queue: [DropTailQueue; 2],
    bn_inflight: [Option<Packet>; 2],
    rng: SimRng,
    next_flow: u32,
    started: bool,
    /// Events dispatched so far (see [`Network::event_count`]).
    events_handled: u64,
    /// `[events, timer arms, timer events]` already added to the
    /// process-wide telemetry counters (see `publish_counts`).
    published: [u64; 3],
    /// Fault injector, when a schedule was installed via `set_faults`.
    faults: Option<FaultInjector>,
    /// Packets held during a buffering link flap, per direction.
    flap_held: [Vec<Packet>; 2],
    /// Runtime invariant checker (debug default; `STOB_AUDIT=1` or
    /// `set_audit` elsewhere).
    auditor: Auditor,
    /// Shared flow-trace ring: every shaping decision on either host is
    /// recorded here when installed (`set_tracer`).
    tracer: Option<Tracer>,
    /// End-to-end flow ledger: every packet, tagged or not.
    ledger: PathLedger,
    /// Ledger for packets on the default (single) path only; together
    /// with the per-pipe ledgers it must sum to `ledger` field-by-field.
    default_ledger: PathLedger,
    /// Provisioned multipath legs (`provision_pipes`); empty = classic
    /// single-path operation.
    pub(super) pipes: Vec<PipeState>,
    /// Passive-open constructor for custom transports: a `MuxInit`
    /// arriving at the server for an unknown flow is accepted through
    /// this, mirroring TCP SYN / QUIC Initial handling. No other
    /// multipath datagram opens a flow.
    pub(super) custom_acceptor: Option<CustomAcceptor>,
    pub path_stats: PathStats,
    /// Vantage point at the client access link (the paper's capture
    /// position). `Out` = client→server.
    pub client_capture: Capture,
    /// Vantage point at the server access link. `Out` = server→client.
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
            q: EventQueue::new(),
            hosts: [Host::new(client), Host::new(server)],
            apps: [Some(client_app), Some(server_app)],
            bn_queue: [
                DropTailQueue::new(path.queue_bytes),
                DropTailQueue::new(path.queue_bytes),
            ],
            bn_inflight: [None, None],
            path,
            rng: SimRng::new(seed),
            next_flow: 1,
            started: false,
            events_handled: 0,
            published: [0; 3],
            faults: None,
            flap_held: [Vec::new(), Vec::new()],
            auditor: Auditor::new(),
            tracer: None,
            ledger: PathLedger::default(),
            default_ledger: PathLedger::default(),
            pipes: Vec::new(),
            custom_acceptor: None,
            path_stats: PathStats::default(),
            client_capture: Capture::new(),
            server_capture: Capture::new(),
        }
    }

    pub fn now(&self) -> Nanos {
        self.q.now()
    }

    /// Deliver `on_start` to both apps (server first, so it is listening
    /// before the client connects).
    pub fn start(&mut self) {
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
        while let Some(t) = self.q.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.q.pop().expect("peeked event vanished");
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
            timers(|h| h.timer_arms),
            timers(|h| h.timer_events),
        ];
        let counters = [
            netsim::tm_counter!("stack.net.events"),
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
        self.faults = Some(inj);
    }

    /// Counters of faults that actually fired (`None` without a schedule).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    // ------------------------------------------------------------------
    // Multipath provisioning
    // ------------------------------------------------------------------

    /// Provision multipath legs for this network. Packets tagged with
    /// `meta.pipe = Some(i)` are routed over leg `i` — an independent
    /// pair of directed [`Link`]s with the profile's rate/delay/loss and
    /// an independently seeded fault schedule (see
    /// [`netsim::multilink::provision`]) — instead of the default
    /// bottleneck. Untagged packets are unaffected, so TCP/QUIC flows
    /// coexist with a multiplexed flow in the same simulation.
    ///
    /// Pipe fault schedules drive per-leg loss/outage/jitter; scheduled
    /// MTU changes in a pipe scenario are ignored (MTU is an end-host
    /// property, not a leg property). Link flaps on a leg drop rather
    /// than buffer: an outage on an unreliable datagram leg loses
    /// packets, and recovery is the multiplexer's job.
    pub fn provision_pipes(&mut self, profiles: &[PipeProfile], seed: u64, horizon: Nanos) {
        self.pipes = netsim::provision(profiles, seed, horizon)
            .into_iter()
            .map(|p| PipeState {
                links: [
                    Link::new(p.profile.rate_bps, p.profile.one_way_delay),
                    Link::new(p.profile.rate_bps, p.profile.one_way_delay),
                ],
                faults: p.schedule.as_ref().map(FaultInjector::new),
                ledger: PathLedger::default(),
                capture: Capture::new(),
                profile: p.profile,
            })
            .collect();
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
        self.pipes.len()
    }

    /// The vantage point on leg `i` (packets the splitter routed there).
    pub fn pipe_capture(&self, i: usize) -> Option<&Capture> {
        self.pipes.get(i).map(|p| &p.capture)
    }

    /// Leg `i`'s conservation ledger.
    pub fn pipe_ledger(&self, i: usize) -> Option<PathLedger> {
        self.pipes.get(i).map(|p| p.ledger)
    }

    /// Fault counters for leg `i` (`None` if it has no schedule).
    pub fn pipe_fault_stats(&self, i: usize) -> Option<FaultStats> {
        self.pipes
            .get(i)
            .and_then(|p| p.faults.as_ref())
            .map(|f| f.stats)
    }

    /// Force the invariant auditor on or off (debug builds default on;
    /// release builds honour `STOB_AUDIT=1`).
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

    /// The installed flow tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Final invariant report: runs the conservation check over the
    /// end-to-end flow ledger, a per-pipe conservation check over every
    /// provisioned leg, and the multipath sum rule (default path +
    /// per-pipe ledgers must account for the flow ledger field by
    /// field), then snapshots all recorded violations.
    pub fn audit_report(&mut self) -> AuditReport {
        let now = self.q.now();
        let in_transit = self.in_transit_pkts();
        self.auditor.check_conservation(
            now,
            self.ledger.injected,
            self.ledger.delivered,
            self.ledger.dropped,
            in_transit,
        );
        for (i, p) in self.pipes.iter().enumerate() {
            self.auditor.check_pipe_conservation(
                now,
                i,
                p.ledger.injected,
                p.ledger.delivered,
                p.ledger.dropped,
                p.ledger.arrivals_pending,
            );
        }
        if !self.pipes.is_empty() {
            let sum = |f: fn(&PathLedger) -> u64| -> u64 {
                f(&self.default_ledger) + self.pipes.iter().map(|p| f(&p.ledger)).sum::<u64>()
            };
            self.auditor.check_multipath_sum(
                now,
                "injected",
                sum(|l| l.injected),
                self.ledger.injected,
            );
            self.auditor.check_multipath_sum(
                now,
                "delivered",
                sum(|l| l.delivered),
                self.ledger.delivered,
            );
            self.auditor.check_multipath_sum(
                now,
                "dropped",
                sum(|l| l.dropped),
                self.ledger.dropped,
            );
        }
        self.auditor.report()
    }

    /// Packets currently somewhere on the path (bottleneck queues, the
    /// transmitters, flap-hold buffers, or propagating toward a host).
    fn in_transit_pkts(&self) -> u64 {
        let queued: u64 = self.bn_queue.iter().map(|q| q.len() as u64).sum();
        let inflight = self.bn_inflight.iter().flatten().count() as u64;
        let held: u64 = self.flap_held.iter().map(|h| h.len() as u64).sum();
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

    pub fn nic_counters(&self, host: usize) -> (u64, u64) {
        (
            self.hosts[host].nic.segments_tx,
            self.hosts[host].nic.packets_tx,
        )
    }

    /// Events the loop has dispatched — this network's share of the
    /// process-wide `stack.net.events` counter.
    pub fn event_count(&self) -> u64 {
        self.events_handled
    }

    /// The most events this network ever had pending at once — packets
    /// in flight plus live wake-ups and timers; a figure in the tens of
    /// thousands means dead events are being parked in the heap.
    pub fn pending_events_hwm(&self) -> usize {
        self.q.high_water()
    }

    /// Transport timers on `host`: `(armed, scheduled, superseded)` —
    /// `ArmTimer` requests taken from the transports, `ConnTimer` events
    /// put in the heap for them (one live per connection and kind, so
    /// far fewer), and events that fired replaced by an earlier one and
    /// were dropped.
    pub fn conn_timers(&self, host: usize) -> (u64, u64, u64) {
        let h = &self.hosts[host];
        (h.timer_arms, h.timer_events, h.superseded_timers)
    }

    /// Qdisc wake-ups on `host`: `(requested, superseded)`. A superseded
    /// wake-up is one that reached the event heap and was overtaken by an
    /// earlier request before it fired.
    pub fn qdisc_wakeups(&self, host: usize) -> (u64, u64) {
        let h = &self.hosts[host];
        (h.check_gen, h.superseded_checks)
    }
}
