//! Per-host state: the stack instances (transport connections), the CPU
//! model, the qdisc, and the NIC — everything below the application on
//! one side of the path.

use super::table::FlowTable;
use crate::config::HostConfig;
use crate::cpu::Cpu;
use crate::egress::TransportCore;
use crate::nic::Nic;
use crate::qdisc::FqQdisc;
use crate::quic::QuicConn;
use crate::tcp::TcpConn;
use netsim::Nanos;

/// A transport endpoint: the stack supports TCP and QUIC side by side
/// (Figure 1's columns share everything below the transport layer), plus
/// arbitrary user-supplied [`TransportCore`] implementations installed
/// via `Api::connect_custom`.
///
/// The network driver speaks to all variants exclusively through
/// [`core`](Transport::core) / [`core_mut`](Transport::core_mut); the
/// `as_*` accessors are the narrow escape hatch for transport-specific
/// stats and operations (TCP `close`, legacy stats getters).
pub(super) enum Transport {
    Tcp(TcpConn),
    Quic(QuicConn),
    Custom(Box<dyn TransportCore>),
}

impl Transport {
    /// The transport-agnostic driver interface.
    pub(super) fn core(&self) -> &dyn TransportCore {
        match self {
            Transport::Tcp(c) => c,
            Transport::Quic(c) => c,
            Transport::Custom(c) => c.as_ref(),
        }
    }

    /// Mutable transport-agnostic driver interface.
    pub(super) fn core_mut(&mut self) -> &mut dyn TransportCore {
        match self {
            Transport::Tcp(c) => c,
            Transport::Quic(c) => c,
            Transport::Custom(c) => c.as_mut(),
        }
    }

    /// TCP-specific escape hatch (`close`).
    pub(super) fn as_tcp_mut(&mut self) -> Option<&mut TcpConn> {
        match self {
            Transport::Tcp(c) => Some(c),
            _ => None,
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
    pub(super) conns: FlowTable<Transport>,
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
}

impl Host {
    pub(super) fn new(cfg: HostConfig) -> Self {
        Host {
            cpu: Cpu::new(cfg.cpu),
            nic: Nic::new(cfg.nic_rate_bps),
            qdisc: FqQdisc::new(),
            conns: FlowTable::new(),
            next_check: None,
            check_gen: 0,
            superseded_checks: 0,
            watch: FlowTable::new(),
            watch_gen: 0,
            cfg,
        }
    }
}
