//! Reusable application endpoints for experiments and tests.
//!
//! `BulkSender` + `Sink` form the iperf3-style memory-to-memory transfer
//! used by Figure 3; `NullApp` is the do-nothing peer.

use crate::config::StackConfig;
use crate::net::{Api, App};
use crate::shaper::BoxShaper;
use netsim::FlowId;

/// How much a bulk sender tries to write per `send()` call. Large enough
/// to keep the socket buffer full, mirroring iperf3's behaviour.
const CHUNK: u64 = 1 << 20;

/// Client app that opens one connection and pumps bytes as fast as the
/// socket buffer accepts them.
pub struct BulkSender {
    /// Total payload to send; `None` = run forever (until the simulation
    /// deadline stops it).
    total: Option<u64>,
    written: u64,
    flow: Option<FlowId>,
    closed: bool,
    /// Open the connection over QUIC instead of TCP.
    quic: bool,
}

impl BulkSender {
    pub fn new(total: u64) -> Self {
        BulkSender {
            total: Some(total),
            written: 0,
            flow: None,
            closed: false,
            quic: false,
        }
    }

    /// A bulk sender that transfers over QUIC instead of TCP. QUIC-lite
    /// models no CONNECTION_CLOSE, so the transfer simply goes idle once
    /// everything is delivered.
    #[cfg(test)]
    pub(crate) fn quic(total: u64) -> Self {
        BulkSender {
            quic: true,
            ..BulkSender::new(total)
        }
    }

    /// An endless sender for steady-state throughput measurements.
    pub fn endless() -> Self {
        BulkSender {
            total: None,
            written: 0,
            flow: None,
            closed: false,
            quic: false,
        }
    }

    fn pump(&mut self, api: &mut Api, flow: FlowId) {
        loop {
            let want = match self.total {
                Some(t) => (t - self.written).min(CHUNK),
                None => CHUNK,
            };
            if want == 0 {
                if !self.closed {
                    self.closed = true;
                    api.close(flow);
                }
                return;
            }
            let accepted = api.send(flow, want);
            self.written += accepted;
            if accepted < want {
                return; // buffer full; wait for on_sendable
            }
        }
    }
}

impl App for BulkSender {
    fn on_start(&mut self, api: &mut Api) {
        self.flow = Some(if self.quic {
            let cfg = crate::config::StackConfig::default();
            api.connect_quic(cfg, None)
        } else {
            api.connect()
        });
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.pump(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.pump(api, flow);
    }
}

/// A [`BulkSender`] whose connection is opened with an explicit stack
/// configuration and an optional shaper already attached — the
/// "defended bulk transfer" endpoint used by the figure-3 and ablation
/// harnesses.
pub struct ShapedSender {
    inner: BulkSender,
    cfg: StackConfig,
    shaper: Option<BoxShaper>,
}

impl ShapedSender {
    pub fn new(inner: BulkSender, cfg: StackConfig, shaper: Option<BoxShaper>) -> Self {
        ShapedSender { inner, cfg, shaper }
    }
}

impl App for ShapedSender {
    fn on_start(&mut self, api: &mut Api) {
        let shaper = self.shaper.take();
        self.inner.flow = Some(api.connect_with(self.cfg.clone(), shaper));
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.pump(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.pump(api, flow);
    }
}

/// Server app that consumes everything it receives.
#[derive(Default)]
pub struct Sink {
    pub(crate) received: u64,
}

impl App for Sink {
    fn on_data(&mut self, _api: &mut Api, _flow: FlowId, bytes: u64) {
        self.received += bytes;
    }
    fn on_peer_closed(&mut self, api: &mut Api, flow: FlowId) {
        api.close(flow);
    }
}

/// An app that does nothing at all.
pub struct NullApp;

impl App for NullApp {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use crate::cpu::CpuModel;
    use crate::net::Network;
    use crate::PathConfig;
    use netsim::Nanos;

    #[test]
    fn bulk_sender_stops_at_total_and_closes() {
        let h = HostConfig {
            cpu: CpuModel::infinitely_fast(),
            ..HostConfig::default()
        };
        let mut net = Network::new(
            h.clone(),
            h,
            PathConfig::internet(100, 10),
            Box::new(BulkSender::new(300_000)),
            Box::new(Sink::default()),
            11,
        );
        net.record_capture(crate::net::SERVER);
        net.run_to_idle();
        let s = net.flow_stats(crate::net::SERVER, FlowId(1)).unwrap();
        assert_eq!(s.bytes_delivered, 300_000);
        // FIN seen at the server vantage.
        assert!(net
            .server_capture
            .records
            .iter()
            .any(|r| r.kind == netsim::PacketKind::TcpFin));
    }

    #[test]
    fn endless_sender_runs_until_deadline() {
        let h = HostConfig {
            cpu: CpuModel::infinitely_fast(),
            ..HostConfig::default()
        };
        let mut net = Network::new(
            h.clone(),
            h,
            PathConfig::internet(100, 10),
            Box::new(BulkSender::endless()),
            Box::new(Sink::default()),
            12,
        );
        net.run_until(Nanos::from_millis(200));
        let s = net.flow_stats(crate::net::SERVER, FlowId(1)).unwrap();
        assert!(s.bytes_delivered > 500_000, "only {}", s.bytes_delivered);
    }
}
