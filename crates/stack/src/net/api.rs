//! The application-facing control surface: [`Api`] is the handle passed
//! into every [`App`](super::App) callback, providing connection setup
//! (TCP, QUIC, or any custom [`TransportCore`]), socket-style writes,
//! shaper installation, timers, and per-flow stats.

use super::host::Conn;
use super::{Ev, Network, CLIENT};
use crate::config::StackConfig;
use crate::egress::{FlowStats, TransportCore};
use crate::quic::QuicConn;
use crate::shaper::BoxShaper;
use crate::tcp::TcpConn;
use netsim::{FlowId, Nanos, SimRng};

/// Application-facing handle, passed into every [`App`](super::App)
/// callback.
pub struct Api<'a> {
    pub(super) net: &'a mut Network,
    pub(super) host: usize,
}

/// Kinds of application-visible events (used by recording apps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    Connected,
    Data(u64),
    Sendable,
    PeerClosed,
    Timer(u64),
}

impl<'a> Api<'a> {
    pub fn now(&self) -> Nanos {
        self.net.q.now()
    }

    pub fn host(&self) -> usize {
        self.host
    }

    /// Open a TCP connection to the other host (client side only) using
    /// the host's default stack config.
    pub fn connect(&mut self) -> FlowId {
        let cfg = self.net.hosts[self.host].cfg.stack.clone();
        self.connect_with(cfg, None)
    }

    /// Open a connection with an explicit stack config and optional
    /// shaper (the `setsockopt`-style control surface §5.3 points at).
    pub fn connect_with(&mut self, cfg: StackConfig, shaper: Option<BoxShaper>) -> FlowId {
        self.open(|flow| Box::new(TcpConn::new(flow, cfg, true)), shaper)
    }

    /// Open a QUIC connection to the other host (client side only).
    pub fn connect_quic(&mut self, cfg: StackConfig, shaper: Option<BoxShaper>) -> FlowId {
        self.open(|flow| Box::new(QuicConn::new(flow, cfg, true)), shaper)
    }

    /// Install a custom transport (client side only). The constructor
    /// receives the allocated flow id; the returned [`TransportCore`] is
    /// driven through the same qdisc/NIC datapath as TCP and QUIC.
    ///
    /// A custom transport that keeps the default
    /// [`TransportCore::connect`] performs no handshake: the flow is
    /// usable immediately, and data pushed via [`Api::send`] flows as
    /// soon as the transport's `output` emits segments. See the
    /// crate-level example in [`crate::egress`] for a full walk-through.
    pub fn connect_custom(
        &mut self,
        make: impl FnOnce(FlowId) -> Box<dyn TransportCore>,
    ) -> FlowId {
        self.open(make, None)
    }

    /// The one active open: allocate the flow id, build the transport,
    /// hand it the shaper and tracer, and start its handshake.
    fn open(
        &mut self,
        make: impl FnOnce(FlowId) -> Box<dyn TransportCore>,
        shaper: Option<BoxShaper>,
    ) -> FlowId {
        assert_eq!(self.host, CLIENT, "only the client opens connections");
        let flow = FlowId(self.net.next_flow);
        self.net.next_flow += 1;
        let mut core = make(flow);
        if let Some(s) = shaper {
            core.set_shaper(s);
        }
        if let Some(tr) = &self.net.tracer {
            core.set_tracer(tr.clone());
        }
        let acts = core.connect(self.net.q.now());
        self.net.hosts[self.host]
            .conns
            .insert(flow, Conn::new(core));
        self.net.apply(self.host, flow, acts);
        flow
    }

    /// Install a shaper on an existing connection (either host). This is
    /// how a server-side deployment (§5.4) attaches Stob policies to
    /// accepted connections.
    pub fn set_shaper(&mut self, flow: FlowId, shaper: BoxShaper) {
        if let Some(conn) = self.net.hosts[self.host].conns.get_mut(&flow) {
            conn.core.set_shaper(shaper);
        }
    }

    /// Write up to `bytes` into the socket buffer; returns bytes accepted.
    pub fn send(&mut self, flow: FlowId, bytes: u64) -> u64 {
        let now = self.net.q.now();
        let (accepted, acts) = {
            let h = &mut self.net.hosts[self.host];
            let Some(conn) = h.conns.get_mut(&flow) else {
                return 0;
            };
            let accepted = conn.core.write(bytes);
            let acts = conn.core.output(now, &mut h.cpu);
            (accepted, acts)
        };
        self.net.apply(self.host, flow, acts);
        accepted
    }

    /// Close our direction of the connection (FIN after queued data, on
    /// a transport that models one — see [`TransportCore::close`]).
    pub fn close(&mut self, flow: FlowId) {
        let now = self.net.q.now();
        let acts = {
            let h = &mut self.net.hosts[self.host];
            let Some(conn) = h.conns.get_mut(&flow) else {
                return;
            };
            conn.core.close();
            conn.core.output(now, &mut h.cpu)
        };
        self.net.apply(self.host, flow, acts);
    }

    /// Arm an application timer delivering `token` after `delay`.
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        let host = self.host;
        self.net.q.schedule_in(delay, Ev::AppTimer { host, token });
    }

    /// Arm (or re-arm) a stall watchdog on `flow`: if no packet arrives
    /// for the flow within `idle_timeout`, the app's
    /// [`on_stall`](super::App::on_stall) callback fires and the watch
    /// disarms. The forward-progress clock restarts now; every arrival
    /// for the flow pushes it forward.
    pub fn watch(&mut self, flow: FlowId, idle_timeout: Nanos) {
        assert!(
            !idle_timeout.is_zero(),
            "a zero idle timeout would fire the watchdog unconditionally"
        );
        let now = self.net.q.now();
        let host = self.host;
        let h = &mut self.net.hosts[host];
        h.watch_gen += 1;
        let gen = h.watch_gen;
        h.watch.insert(
            flow,
            super::host::Watch {
                timeout: idle_timeout,
                last_progress: now,
                gen,
            },
        );
        self.net
            .q
            .schedule_at(now + idle_timeout, Ev::Watchdog { host, flow, gen });
    }

    /// Disarm the stall watchdog on `flow`, if armed.
    pub fn unwatch(&mut self, flow: FlowId) {
        self.net.hosts[self.host].watch.remove(&flow);
    }

    /// Abort `flow` locally and immediately: the connection state is
    /// discarded (no FIN/close handshake — this models an application
    /// giving up on a stalled connection), its watchdog is disarmed, and
    /// packets still arriving for the flow are ignored as stray. The
    /// peer's half keeps retransmitting into the void until its own
    /// timers give up, exactly like a real half-dead TCP connection.
    pub fn abort(&mut self, flow: FlowId) {
        let h = &mut self.net.hosts[self.host];
        h.watch.remove(&flow);
        if h.conns.remove(&flow).is_some() {
            netsim::tm_counter!("stack.recovery.aborts").inc();
            if let Some(tr) = &self.net.tracer {
                let now = self.net.q.now();
                tr.rec(
                    now,
                    u64::from(flow.0),
                    "net",
                    "abort",
                    0,
                    0,
                    "recovery-abort",
                );
            }
        }
    }

    /// Transport-agnostic stats of one of this host's connections.
    pub fn flow_stats(&self, flow: FlowId) -> Option<FlowStats> {
        self.net.flow_stats(self.host, flow)
    }

    /// Smoothed RTT of a connection, if measured.
    pub fn srtt(&self, flow: FlowId) -> Option<Nanos> {
        self.net.hosts[self.host]
            .conns
            .get(&flow)
            .and_then(|t| t.core.srtt())
    }

    /// Deterministic per-app randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.net.rng
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Network, SERVER};
    use crate::apps::{BulkSender, ShapedSender, Sink};
    use crate::config::{HostConfig, PathConfig, StackConfig};
    use crate::cpu::CpuModel;
    use netsim::FlowId;

    fn fast_host() -> HostConfig {
        HostConfig {
            cpu: CpuModel::infinitely_fast(),
            ..HostConfig::default()
        }
    }

    /// `ShapedSender` drives a transfer through `connect_with` exactly
    /// like a plain `BulkSender` does through `connect`.
    #[test]
    fn shaped_sender_without_shaper_matches_bulk_sender() {
        let total = 300_000;
        let run = |app: Box<dyn crate::net::App>| {
            let mut net = Network::new(
                fast_host(),
                fast_host(),
                PathConfig::internet(50, 20),
                app,
                Box::new(Sink::default()),
                61,
            );
            net.run_to_idle();
            net.flow_stats(SERVER, FlowId(1)).expect("flow stats")
        };
        let plain = run(Box::new(BulkSender::new(total)));
        let shaped = run(Box::new(ShapedSender::new(
            BulkSender::new(total),
            StackConfig::default(),
            None,
        )));
        assert_eq!(plain.bytes_delivered, total);
        assert_eq!(plain, shaped);
    }
}
