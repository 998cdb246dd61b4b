//! Integration coverage for [`Api::connect_custom`]: a third transport
//! registered beside TCP and QUIC must carry an end-to-end visit through
//! the full delivery machinery — handshake dispatch (`on_connected` /
//! `on_accept`), data both ways, per-pipe routing, fault schedules on
//! provisioned legs, and a clean conservation audit at the end. The
//! custom transport under test is the real [`Multiplex`], registered
//! exactly as the multipath bench registers it. The last two tests hold
//! the driver's side of the seam: `connect` / `close` reach a transport
//! that is neither TCP nor QUIC, and all three transports report through
//! the one `flow_stats`.

use netsim::telemetry::Tracer;
use netsim::{FlowId, Nanos, Packet, PacketKind, PipeProfile};
use stack::egress::{Actions, FlowStats, TransportCore};
use stack::mux::{Multiplex, MuxConfig, SplitterSpec};
use stack::net::{Api, App, Network, CLIENT, SERVER};
use stack::shaper::BoxShaper;
use stack::tcp::TcpAction;
use stack::{Cpu, HostConfig, PathConfig, StackConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// A request/response visit: the client opens a custom transport, sends
/// a fixed request, and the server answers with a larger response the
/// moment the request has fully arrived.
struct VisitClient {
    request: u64,
    flow: Option<FlowId>,
    connected: bool,
    received: u64,
}

impl App for VisitClient {
    fn on_start(&mut self, api: &mut Api) {
        let cfg = MuxConfig {
            n_pipes: 2,
            splitter: SplitterSpec::RoundRobin,
            ..MuxConfig::default()
        };
        let flow = api.connect_custom(move |f| Box::new(Multiplex::client(f, cfg, 0xC0)));
        self.flow = Some(flow);
        api.send(flow, 0); // flush the transport's hello
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.connected = true;
        api.send(flow, self.request);
    }
    fn on_data(&mut self, _api: &mut Api, _flow: FlowId, bytes: u64) {
        self.received += bytes;
    }
}

struct VisitServer {
    request: u64,
    response: u64,
    accepted: bool,
    received: u64,
    answered: bool,
}

impl App for VisitServer {
    fn on_accept(&mut self, _api: &mut Api, _flow: FlowId) {
        self.accepted = true;
    }
    fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
        self.received += bytes;
        if !self.answered && self.received >= self.request {
            self.answered = true;
            api.send(flow, self.response);
        }
    }
}

const REQUEST: u64 = 2_000;
const RESPONSE: u64 = 150_000;

/// Build a two-pipe multipath network around the visit apps; the caller
/// decides the fault scenario on the first leg.
fn visit_network(fault: Option<&str>, seed: u64) -> Network {
    let client = VisitClient {
        request: REQUEST,
        flow: None,
        connected: false,
        received: 0,
    };
    let server = VisitServer {
        request: REQUEST,
        response: RESPONSE,
        accepted: false,
        received: 0,
        answered: false,
    };
    let host = HostConfig::default();
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::internet(50, 20),
        Box::new(client),
        Box::new(server),
        seed,
    );
    net.set_custom_acceptor(|f| Box::new(Multiplex::server(f, MuxConfig::default(), 0xD0)));
    let mut profiles = PipeProfile::fan(2, 50_000_000, Nanos::from_millis(10), Nanos::ZERO);
    if let Some(scenario) = fault {
        profiles[0].fault_scenario = Some(scenario.to_string());
    }
    net.provision_pipes(&profiles, seed, Nanos::from_millis(20_000));
    net.set_audit(true);
    net
}

#[test]
fn custom_transport_carries_a_visit_end_to_end() {
    let mut net = visit_network(None, 0xBEEF);
    net.record_capture(CLIENT);
    net.record_capture(SERVER);
    net.run_until(Nanos::from_millis(20_000));

    // Both directions completed through the custom transport.
    let report = net.audit_report();
    assert!(report.clean(), "audit violations: {:?}", report.violations);
    assert!(report.checks > 0);

    // The handshake dispatched to both sides and the payloads arrived.
    let stats = net.flow_stats(0, FlowId(1)).expect("client flow exists");
    assert!(stats.bytes_delivered >= RESPONSE, "client got the response");
    let srv = net.flow_stats(1, FlowId(1)).expect("server flow exists");
    assert!(srv.bytes_delivered >= REQUEST, "server got the request");

    // Multipath delivery really split the flow: every provisioned pipe
    // carried packets the client saw, and both host captures observed
    // traffic.
    assert_eq!(net.pipe_count(), 2);
    for i in 0..2 {
        let cap = net.client_capture.for_pipe(i as u8);
        assert!(!cap.is_empty(), "pipe {i} saw no packets");
        let ledger = net.pipe_ledger(i).expect("pipe ledger");
        assert!(ledger.delivered > 0, "pipe {i} delivered nothing");
    }
    assert!(!net.client_capture.is_empty());
    assert!(!net.server_capture.is_empty());
}

#[test]
fn custom_transport_survives_fault_schedule_on_a_leg() {
    let mut net = visit_network(Some("outage-storm"), 0xFACE);
    net.run_until(Nanos::from_millis(20_000));

    let report = net.audit_report();
    assert!(report.clean(), "audit violations: {:?}", report.violations);

    // The storm drops packets on leg 0, but liveness failover routes
    // around it: the visit still completes end to end.
    let stats = net.flow_stats(0, FlowId(1)).expect("client flow");
    assert!(
        stats.bytes_delivered >= RESPONSE,
        "visit incomplete under faults: {} of {RESPONSE} bytes",
        stats.bytes_delivered
    );
    let dropped: u64 = (0..2)
        .map(|i| net.pipe_ledger(i).expect("ledger").dropped)
        .sum();
    assert!(dropped > 0, "the fault schedule never dropped a packet");
}

#[test]
fn custom_transport_visit_is_deterministic() {
    // Faulted runs under a *probabilistic* scenario: ge-burst loss is
    // drawn from the fault schedule's RNG, so the same seed must
    // reproduce the wire trace exactly and a different seed must
    // perturb it. (Flap-based scenarios are fixed horizon fractions
    // and deliberately seed-insensitive.)
    let run = |seed: u64| -> (u64, Vec<(Nanos, u32)>) {
        let mut net = visit_network(Some("ge-burst"), seed);
        net.record_capture(CLIENT);
        net.run_until(Nanos::from_millis(20_000));
        let stats = net.flow_stats(0, FlowId(1)).expect("flow");
        let cap = net
            .client_capture
            .records
            .iter()
            .map(|r| (r.ts, r.wire_len))
            .collect();
        (stats.bytes_delivered, cap)
    };
    let a = run(0x5EED);
    let b = run(0x5EED);
    assert_eq!(a, b, "same seed, same wire trace");
    let c = run(0x5EED + 1);
    assert_ne!(a.1, c.1, "different seed perturbs the wire trace");
}

/// A transport that does nothing but log which driver calls reach it;
/// its `connect` answers with one control packet so the test can see the
/// returned actions being applied.
struct Recorder {
    flow: FlowId,
    calls: Rc<RefCell<Vec<&'static str>>>,
}

impl TransportCore for Recorder {
    fn connect(&mut self, _now: Nanos, out: &mut Actions) {
        self.calls.borrow_mut().push("connect");
        let mut hello = Packet::tcp_ack(self.flow, 0, 0);
        hello.kind = PacketKind::MuxData; // opens nothing at the server
        out.push(TcpAction::SendCtl(hello));
    }
    fn close(&mut self) {
        self.calls.borrow_mut().push("close");
    }
    fn input(&mut self, _pkt: &Packet, _now: Nanos, _cpu: &mut Cpu, _out: &mut Actions) {}
    fn output(&mut self, _now: Nanos, _cpu: &mut Cpu, _out: &mut Actions) {
        self.calls.borrow_mut().push("output");
    }
    fn write(&mut self, len: u64) -> u64 {
        len
    }
    fn set_shaper(&mut self, _shaper: BoxShaper) {}
    fn set_tracer(&mut self, _tracer: Tracer) {}
    fn cwnd(&self) -> u64 {
        u64::MAX
    }
    fn outstanding(&self) -> u64 {
        0
    }
    fn pacing_rate_bps(&self) -> Option<u64> {
        None
    }
    fn mtu_ip(&self) -> u32 {
        1500
    }
    fn flow_stats(&self) -> FlowStats {
        FlowStats::default()
    }
}

#[test]
fn connect_and_close_reach_a_custom_transport() {
    struct OpenThenClose(Rc<RefCell<Vec<&'static str>>>);
    impl App for OpenThenClose {
        fn on_start(&mut self, api: &mut Api) {
            let calls = self.0.clone();
            let flow = api.connect_custom(move |flow| Box::new(Recorder { flow, calls }));
            api.close(flow);
        }
    }
    let calls = Rc::new(RefCell::new(Vec::new()));
    let host = HostConfig::default();
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::internet(50, 20),
        Box::new(OpenThenClose(calls.clone())),
        Box::new(stack::apps::NullApp),
        7,
    );
    net.record_capture(CLIENT);
    net.run_to_idle();
    // `close` is followed by the `output` pass that would carry a FIN
    // (the NIC releasing the hello asks for output once more, later).
    assert_eq!(calls.borrow()[..3], ["connect", "close", "output"]);
    // The hello `connect` returned went out on the wire, and — not being
    // a `MuxInit` — opened nothing at the server.
    let hellos = net.client_capture.records.iter();
    assert_eq!(hellos.filter(|r| r.kind == PacketKind::MuxData).count(), 1);
    assert!(net.flow_stats(SERVER, FlowId(1)).is_none());
}

#[test]
fn tcp_quic_and_multiplex_flows_report_through_flow_stats() {
    struct ThreeFlows;
    impl App for ThreeFlows {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
            api.connect_quic(StackConfig::default(), None);
            let mux =
                api.connect_custom(|f| Box::new(Multiplex::client(f, MuxConfig::default(), 0xC0)));
            api.send(mux, 0); // flush the transport's hello
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 20_000);
            api.close(flow);
        }
    }
    let host = HostConfig::default();
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::internet(50, 20),
        Box::new(ThreeFlows),
        Box::new(stack::apps::NullApp),
        0x3F10,
    );
    net.set_custom_acceptor(|f| Box::new(Multiplex::server(f, MuxConfig::default(), 0xD0)));
    let legs = PipeProfile::fan(2, 50_000_000, Nanos::from_millis(10), Nanos::ZERO);
    net.provision_pipes(&legs, 0x3F10, Nanos::from_secs(20));
    net.set_audit(true);
    net.run_until(Nanos::from_secs(20));
    assert!(net.audit_report().clean());
    for (id, transport) in [(1, "tcp"), (2, "quic"), (3, "multiplex")] {
        let sent = net.flow_stats(CLIENT, FlowId(id)).expect(transport);
        assert!(sent.pkts_sent > 0, "{transport}: {sent:?}");
        let got = net.flow_stats(SERVER, FlowId(id)).expect(transport);
        assert_eq!(got.bytes_delivered, 20_000, "{transport}: {got:?}");
    }
}
