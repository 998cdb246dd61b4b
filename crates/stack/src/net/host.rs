//! Per-host state: the stack instances (transport connections), the CPU
//! model, the qdisc, and the NIC — everything below the application on
//! one side of the path.

use super::table::FlowTable;
use crate::config::HostConfig;
use crate::cpu::Cpu;
use crate::egress::TransportCore;
use crate::nic::Nic;
use crate::qdisc::FqQdisc;
use netsim::Nanos;

/// The driver's record of one [`TimerKind`](crate::tcp::TimerKind) of
/// one connection. A transport may arm the same kind over and over (TCP
/// re-arms its delayed-ACK timer on every other segment, each request
/// outdating the last); only the latest request is ever delivered to
/// `on_timer`, and at most one heap event stands for the slot at a time.
#[derive(Clone, Copy, Default)]
pub(super) struct TimerSlot {
    /// Due time of the transport's latest `ArmTimer` request.
    pub(super) at: Nanos,
    /// The transport's generation for that request, handed back to
    /// `on_timer` when it is delivered.
    pub(super) gen: u64,
    /// Queue sequence number reserved when the request was made: the
    /// event that delivers it pops at exactly `(at, seq)`, where an event
    /// scheduled on the spot would have.
    pub(super) seq: u64,
    /// `(due, seq)` of the one live `ConnTimer` event, if any; its `seq`
    /// is the id the event carries. Never later than `(at, seq)`: a
    /// request for an earlier time replaces it (the replaced event stays
    /// in the heap and is dropped when it fires), a later one leaves it
    /// to fire and move itself to the request's place.
    pub(super) live: Option<(Nanos, u64)>,
}

/// One entry of a host's connection table: the transport — TCP, QUIC or
/// any other [`TransportCore`], all driven through that one interface —
/// and the driver's timer bookkeeping for it. They share an entry so that
/// the slots cannot outlive the connection (`Api::abort`) and a flow id
/// that is inserted again starts from clean ones.
pub(super) struct Conn {
    pub(super) core: Box<dyn TransportCore>,
    /// Indexed by `TimerKind as usize`.
    pub(super) timers: [TimerSlot; 3],
}

impl Conn {
    pub(super) fn new(core: Box<dyn TransportCore>) -> Self {
        Conn {
            core,
            timers: Default::default(),
        }
    }
}

/// Stall-watchdog state for one watched flow: the forward-progress clock
/// (`last_progress` advances on every arrival for the flow) plus the idle
/// timeout after which the application is told the flow stalled.
pub(super) struct Watch {
    pub(super) timeout: Nanos,
    pub(super) last_progress: Nanos,
    /// Arm generation; watchdog events from an earlier arm are stale.
    pub(super) gen: u64,
}

pub(super) struct Host {
    pub(super) cfg: HostConfig,
    pub(super) cpu: Cpu,
    pub(super) nic: Nic,
    pub(super) qdisc: FqQdisc,
    pub(super) conns: FlowTable<Conn>,
    /// `ArmTimer` requests taken from this host's transports.
    pub(super) timer_arms: u64,
    /// `ConnTimer` events put in the heap for them.
    pub(super) timer_events: u64,
    /// `ConnTimer` events that fired replaced by an earlier one and were
    /// dropped.
    pub(super) superseded_timers: u64,
    /// Due time of the one live `QdiscCheck` event, if any. A request
    /// for an earlier time replaces it; the replaced event stays in the
    /// heap and is dropped when it fires (see `check_gen`).
    pub(super) next_check: Option<Nanos>,
    /// Generation of the live wake-up, bumped by every accepted request:
    /// a `QdiscCheck` carrying an older one was superseded. Doubles as
    /// the count of wake-ups requested.
    pub(super) check_gen: u64,
    /// `QdiscCheck` events that fired superseded and were dropped.
    pub(super) superseded_checks: u64,
    /// Armed stall watchdogs, per flow (see `Api::watch`).
    pub(super) watch: FlowTable<Watch>,
    /// Monotonic arm counter feeding `Watch::gen`.
    pub(super) watch_gen: u64,
    /// Whether this host's vantage point records (`record_capture`).
    pub(super) capture_on: bool,
    /// On-wire bytes of every packet that left this host's NIC.
    pub(super) wire_bytes_out: u64,
}

impl Host {
    pub(super) fn new(cfg: HostConfig) -> Self {
        Host {
            cpu: Cpu::new(cfg.cpu),
            nic: Nic::new(cfg.nic_rate_bps),
            qdisc: FqQdisc::new(),
            conns: FlowTable::new(),
            timer_arms: 0,
            timer_events: 0,
            superseded_timers: 0,
            next_check: None,
            check_gen: 0,
            superseded_checks: 0,
            watch: FlowTable::new(),
            watch_gen: 0,
            capture_on: false,
            wire_bytes_out: 0,
            cfg,
        }
    }
}
