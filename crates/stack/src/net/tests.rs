//! End-to-end tests of the simulated network: handshakes, bulk
//! transfers, loss recovery, QUIC, and fair sharing. Fault-injection and
//! auditor tests live in `tests_faults`.

use super::host::Conn;
use super::{Api, App, Network, CLIENT, SERVER};
use crate::apps::{BulkSender, NullApp, Sink};
use crate::config::{CcKind, HostConfig, PathConfig, StackConfig};
use crate::cpu::{Cpu, CpuModel};
use crate::egress::{FlowStats, TransportCore};
use crate::mux::{Multiplex, MuxConfig, SplitterSpec};
use crate::quic::QuicConn;
use crate::shaper::BoxShaper;
use crate::tcp::{TcpAction, TimerKind};
use netsim::telemetry::Tracer;
use netsim::{Direction, FaultKind, FaultSchedule, FlowId, Nanos, Packet, PacketKind, PipeProfile};

fn fast_hosts() -> (HostConfig, HostConfig) {
    let h = HostConfig {
        cpu: CpuModel::infinitely_fast(),
        ..HostConfig::default()
    };
    (h.clone(), h)
}

#[test]
fn bulk_transfer_is_exact_over_internet_path() {
    let (hc, hs) = fast_hosts();
    let total = 5_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 30),
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        1,
    );
    let end = net.run_to_idle();
    let sink_bytes = net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered;
    assert_eq!(sink_bytes, total, "delivery must be exact");
    // Sanity on elapsed: 5 MB at 50 Mb/s is >= 0.8 s.
    assert!(end > Nanos::from_millis(800), "finished too fast: {end}");
    assert!(end < Nanos::from_secs(10), "took too long: {end}");
}

#[test]
fn handshake_takes_one_rtt() {
    struct Probe {
        connected_at: Option<Nanos>,
    }
    impl App for Probe {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
        }
        fn on_connected(&mut self, api: &mut Api, _f: FlowId) {
            self.connected_at = Some(api.now());
        }
    }
    let (hc, hs) = fast_hosts();
    let path = PathConfig::internet(100, 40);
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(Probe { connected_at: None }),
        Box::new(NullApp),
        2,
    );
    net.run_to_idle();
    // Reach into the capture to find when the client learned.
    let synack = net
        .client_capture
        .records
        .iter()
        .find(|r| r.kind == PacketKind::TcpSynAck)
        .expect("SYN-ACK captured");
    let rtt_ms = synack.ts.as_millis_f64();
    assert!(
        (39.0..45.0).contains(&rtt_ms),
        "SYN-ACK after {rtt_ms} ms, expected ~40"
    );
}

#[test]
fn capture_sees_handshake_then_data_in_order() {
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::new(100_000)),
        Box::new(Sink::default()),
        3,
    );
    net.run_to_idle();
    let recs = &net.client_capture.records;
    assert!(net.client_capture.is_time_ordered());
    assert_eq!(recs[0].kind, PacketKind::TcpSyn);
    assert_eq!(recs[0].dir, Direction::Out);
    assert_eq!(recs[1].kind, PacketKind::TcpSynAck);
    assert_eq!(recs[1].dir, Direction::In);
    assert!(recs.iter().any(|r| r.kind == PacketKind::TcpData));
    assert!(recs.iter().any(|r| r.kind == PacketKind::TcpFin));
}

#[test]
fn loss_is_recovered_exactly() {
    let (hc, hs) = fast_hosts();
    let mut path = PathConfig::internet(50, 20);
    path.loss = 0.02;
    let total = 2_000_000;
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        4,
    );
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total
    );
    assert!(net.path_stats.random_drops > 0, "loss never injected");
    let cs = net.flow_stats(CLIENT, FlowId(1)).unwrap();
    assert!(
        cs.retransmits + cs.timeouts > 0,
        "loss must trigger recovery"
    );
}

#[test]
fn tso_microburst_visible_at_line_rate() {
    // Over the 100 Gb/s lab path, packets of one TSO segment leave
    // back-to-back at line rate (§4.2's micro burst).
    let (mut hc, hs) = fast_hosts();
    hc.stack.pacing = false;
    hc.stack.cc = CcKind::Cubic;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::lab_100g(),
        Box::new(BulkSender::new(10_000_000)),
        Box::new(Sink::default()),
        5,
    );
    net.run_until(Nanos::from_millis(50));
    let data: Vec<_> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .collect();
    assert!(data.len() > 50, "need a burst, got {}", data.len());
    // Find at least one run of >= 8 packets with ~121 ns spacing.
    let mut run = 0;
    let mut best = 0;
    for w in data.windows(2) {
        let gap = (w[1].ts - w[0].ts).as_nanos();
        if gap <= 125 {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    assert!(best >= 8, "longest line-rate run {best}");
}

#[test]
fn cpu_model_bounds_throughput_on_lab_path() {
    // With the calibrated default CPU model, a single flow over
    // 100 Gb/s is CPU-bound around 35-55 Gb/s (Figure 3's default
    // operating point).
    let hc = HostConfig::default();
    let hs = HostConfig::default();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::lab_100g(),
        Box::new(BulkSender::endless()),
        Box::new(Sink::default()),
        6,
    );
    let warmup = Nanos::from_millis(30);
    net.run_until(warmup);
    let base = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0);
    let window = Nanos::from_millis(50);
    net.run_until(warmup + window);
    let bytes = net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered - base;
    let gbps = bytes as f64 * 8.0 / window.as_secs_f64() / 1e9;
    assert!(
        (30.0..60.0).contains(&gbps),
        "CPU-bound goodput {gbps:.1} Gb/s out of calibration band"
    );
}

#[test]
fn two_flows_share_the_bottleneck() {
    struct TwoFlows;
    impl App for TwoFlows {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
            api.connect();
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 2_000_000);
            api.close(flow);
        }
        fn on_sendable(&mut self, _api: &mut Api, _flow: FlowId) {}
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(TwoFlows),
        Box::new(Sink::default()),
        7,
    );
    net.run_to_idle();
    let d1 = net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered;
    let d2 = net.flow_stats(SERVER, FlowId(2)).unwrap().bytes_delivered;
    assert_eq!(d1, 2_000_000);
    assert_eq!(d2, 2_000_000);
}

#[test]
fn quic_transfer_end_to_end() {
    struct QuicSender {
        written: bool,
    }
    impl App for QuicSender {
        fn on_start(&mut self, api: &mut Api) {
            api.connect_quic(StackConfig::default(), None);
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            if !self.written {
                self.written = true;
                api.send(flow, 1_000_000);
            }
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(100, 20),
        Box::new(QuicSender { written: false }),
        Box::new(Sink::default()),
        21,
    );
    net.run_until(Nanos::from_secs(20));
    let st = net.flow_stats(SERVER, FlowId(1)).expect("server quic conn");
    assert_eq!(st.bytes_delivered, 1_000_000);
    // The capture contains the Initial handshake and QUIC data.
    assert!(net
        .client_capture
        .records
        .iter()
        .any(|r| r.kind == PacketKind::QuicInit));
    let data = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::QuicData)
        .count();
    assert!(data >= 700, "expected ~741 datagrams, saw {data}");
}

#[test]
fn quic_flow_survives_loss() {
    struct QuicSender;
    impl App for QuicSender {
        fn on_start(&mut self, api: &mut Api) {
            api.connect_quic(StackConfig::default(), None);
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 500_000);
        }
    }
    let (hc, hs) = fast_hosts();
    let mut path = PathConfig::internet(50, 20);
    path.loss = 0.02;
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(QuicSender),
        Box::new(Sink::default()),
        22,
    );
    net.run_until(Nanos::from_secs(30));
    let st = net.flow_stats(SERVER, FlowId(1)).expect("server conn");
    assert_eq!(st.bytes_delivered, 500_000, "QUIC must recover from loss");
    let cs = net.flow_stats(CLIENT, FlowId(1)).expect("client conn");
    assert!(cs.retransmits > 0);
}

#[test]
fn quic_shaper_applies_on_the_wire() {
    struct Shaped;
    impl App for Shaped {
        fn on_start(&mut self, api: &mut Api) {
            struct Small;
            impl crate::shaper::Shaper for Small {
                fn packet_ip_size(&mut self, _c: &crate::shaper::ShapeCtx, _i: u32, p: u32) -> u32 {
                    p.min(700)
                }
            }
            api.connect_quic(StackConfig::default(), Some(Box::new(Small)));
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 200_000);
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(100, 10),
        Box::new(Shaped),
        Box::new(Sink::default()),
        23,
    );
    net.run_until(Nanos::from_secs(10));
    let st = net.flow_stats(SERVER, FlowId(1)).expect("server conn");
    assert_eq!(st.bytes_delivered, 200_000);
    for r in &net.client_capture.records {
        if r.kind == PacketKind::QuicData && r.dir == Direction::Out {
            assert!(r.wire_len <= 700 + 14, "datagram {} too big", r.wire_len);
        }
    }
}

#[test]
fn fq_shares_the_nic_between_flows_fairly() {
    // Two simultaneous bulk flows from the same host: FQ's
    // earliest-eligible-first scheduling plus per-flow pacing should
    // split the bottleneck roughly evenly.
    struct TwoBulk {
        pumped: std::collections::BTreeSet<u32>,
    }
    impl App for TwoBulk {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
            api.connect();
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            self.pumped.insert(flow.0);
            api.send(flow, 1 << 30);
        }
        fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 1 << 30);
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(100, 20),
        Box::new(TwoBulk {
            pumped: Default::default(),
        }),
        Box::new(Sink::default()),
        31,
    );
    net.run_until(Nanos::from_secs(8));
    let d1 = net
        .flow_stats(SERVER, FlowId(1))
        .expect("f1")
        .bytes_delivered;
    let d2 = net
        .flow_stats(SERVER, FlowId(2))
        .expect("f2")
        .bytes_delivered;
    let ratio = d1.max(d2) as f64 / d1.min(d2).max(1) as f64;
    assert!(
        ratio < 2.0,
        "flows too unfair: {d1} vs {d2} (ratio {ratio:.2})"
    );
    // And together they saturate a good share of the bottleneck.
    let total_gbps = (d1 + d2) as f64 * 8.0 / 8.0 / 1e9;
    assert!(
        total_gbps > 0.05,
        "aggregate goodput {total_gbps:.3} Gb/s too low"
    );
}

#[test]
fn app_timers_fire_in_order() {
    struct Timers {
        fired: Vec<u64>,
    }
    impl App for Timers {
        fn on_start(&mut self, api: &mut Api) {
            api.set_timer(Nanos::from_millis(5), 1);
            api.set_timer(Nanos::from_millis(1), 2);
            api.set_timer(Nanos::from_millis(3), 3);
        }
        fn on_timer(&mut self, _api: &mut Api, token: u64) {
            self.fired.push(token);
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::default(),
        Box::new(Timers { fired: vec![] }),
        Box::new(NullApp),
        8,
    );
    net.run_to_idle();
    // We can't reach into the boxed app; assert via time instead.
    assert_eq!(net.now(), Nanos::from_millis(5));
}

#[test]
fn event_budget_holds_for_concurrent_paced_request_response() {
    // A browser-like page: six connections, each fetching eight 150 kB
    // objects back to back. On the server, paced response segments of
    // several flows wait in the qdisc while every arriving ACK asks for
    // an earlier wake-up — the pattern that used to leave a
    // self-perpetuating chain of no-op `QdiscCheck`s behind each one.
    const CONNS: usize = 6;
    const OBJECTS: u32 = 8;
    const REQUEST: u64 = 400;
    const RESPONSE: u64 = 150_000;
    struct Browser {
        got: std::collections::BTreeMap<u32, (u64, u32)>,
    }
    impl App for Browser {
        fn on_start(&mut self, api: &mut Api) {
            for _ in 0..CONNS {
                api.connect();
            }
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            self.got.insert(flow.0, (0, 0));
            api.send(flow, REQUEST);
        }
        fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
            let (have, done) = self.got.get_mut(&flow.0).expect("connected flow");
            *have += bytes;
            if *have == RESPONSE {
                *have = 0;
                *done += 1;
                if *done < OBJECTS {
                    api.send(flow, REQUEST);
                }
            }
        }
    }
    #[derive(Default)]
    struct Origin {
        asked: std::collections::BTreeMap<u32, u64>,
    }
    impl App for Origin {
        fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
            let asked = self.asked.entry(flow.0).or_insert(0);
            *asked += bytes;
            if *asked == REQUEST {
                *asked = 0;
                api.send(flow, RESPONSE);
            }
        }
    }
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::internet(100, 20),
        Box::new(Browser {
            got: Default::default(),
        }),
        Box::new(Origin::default()),
        16,
    );
    net.run_to_idle();
    for f in 1..=CONNS as u32 {
        let st = net.flow_stats(CLIENT, FlowId(f)).expect("client flow");
        assert_eq!(st.bytes_delivered, RESPONSE * u64::from(OBJECTS));
    }

    let pkts = net.nic_counters(CLIENT).1 + net.nic_counters(SERVER).1;
    let events = net.event_count();
    assert!(
        events <= 6 * pkts,
        "{events} events for {pkts} wire packets ({:.1} per packet)",
        events as f64 / pkts as f64
    );
    for host in [CLIENT, SERVER] {
        let (requested, superseded) = net.qdisc_wakeups(host);
        assert!(requested > 0);
        assert!(
            superseded < requested,
            "host {host}: {superseded} superseded of {requested} requested wake-ups"
        );
    }
}

// ---------------------------------------------------------------------
// Transport timers: one live event per connection and kind
// ---------------------------------------------------------------------

/// `(time, kind)` of every `on_timer` call that did something.
type Fired = std::rc::Rc<std::cell::RefCell<Vec<(Nanos, TimerKind)>>>;

/// Wraps a transport and logs the timer deliveries that had an effect
/// (a non-empty action list), so a test can pin *when* a transport's
/// timers really fire without reaching into it. `first` is handed out by
/// the first `output` call: `Api::connect_custom` performs no handshake,
/// so a wrapped QUIC client passes its `connect` actions this way.
struct TimerLog<T> {
    inner: T,
    first: Vec<TcpAction>,
    fired: Fired,
}

impl<T: TransportCore> TransportCore for TimerLog<T> {
    fn input(&mut self, pkt: &Packet, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        self.inner.input(pkt, now, cpu)
    }
    fn output(&mut self, now: Nanos, cpu: &mut Cpu) -> Vec<TcpAction> {
        let mut acts = std::mem::take(&mut self.first);
        acts.extend(self.inner.output(now, cpu));
        acts
    }
    fn on_timer(&mut self, kind: TimerKind, gen: u64, now: Nanos) -> Vec<TcpAction> {
        let acts = self.inner.on_timer(kind, gen, now);
        if !acts.is_empty() {
            self.fired.borrow_mut().push((now, kind));
        }
        acts
    }
    fn write(&mut self, len: u64) -> u64 {
        self.inner.write(len)
    }
    fn on_nic_release(&mut self, wire_bytes: u64) {
        self.inner.on_nic_release(wire_bytes)
    }
    fn set_shaper(&mut self, shaper: BoxShaper) {
        self.inner.set_shaper(shaper)
    }
    fn set_mtu(&mut self, mtu_ip: u32) {
        self.inner.set_mtu(mtu_ip)
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn outstanding(&self) -> u64 {
        self.inner.outstanding()
    }
    fn pacing_rate_bps(&self) -> Option<u64> {
        self.inner.pacing_rate_bps()
    }
    fn mtu_ip(&self) -> u32 {
        self.inner.mtu_ip()
    }
    fn srtt(&self) -> Option<Nanos> {
        self.inner.srtt()
    }
    fn flow_stats(&self) -> FlowStats {
        self.inner.flow_stats()
    }
}

/// Opens one custom-transport connection built by `make`, flushes its
/// first `output`, and writes `bytes` once connected.
struct CustomSender<F> {
    make: Option<F>,
    bytes: u64,
}

impl<F: FnOnce(FlowId) -> Box<dyn TransportCore>> App for CustomSender<F> {
    fn on_start(&mut self, api: &mut Api) {
        let flow = api.connect_custom(self.make.take().expect("started once"));
        api.send(flow, 0);
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        api.send(flow, self.bytes);
    }
}

fn times(fired: &Fired) -> Vec<Nanos> {
    fired.borrow().iter().map(|(t, _)| *t).collect()
}

#[test]
fn bulk_flow_keeps_one_live_timer_per_kind() {
    // Figure 3's α = 0 point for 60 ms: the receiver arms its delayed-ACK
    // timer once per two packets, ~107 k times, and each request is
    // outdated by the next packet. With an event per request, parked in
    // the heap until its 40 ms ran out, this run had a mean of 49 k events
    // pending (74 k at most) and had popped 33,241 `ConnTimer`s by 60 ms.
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::lab_100g(),
        Box::new(BulkSender::endless()),
        Box::new(Sink::default()),
        12,
    );
    net.run_until(Nanos::from_millis(60));
    let (armed, scheduled, superseded) = [CLIENT, SERVER]
        .map(|h| net.conn_timers(h))
        .into_iter()
        .fold((0, 0, 0), |a, t| (a.0 + t.0, a.1 + t.1, a.2 + t.2));
    assert!(
        armed > 10_000,
        "only {armed} timer requests: not a bulk flow"
    );
    assert!(
        scheduled <= 8,
        "{scheduled} ConnTimer events for {armed} requests"
    );
    assert!(superseded <= scheduled);
    let hwm = net.pending_events_hwm();
    assert!(hwm <= 4096, "{hwm} events pending at once");
    // A returning run leaves nothing unpublished to telemetry.
    assert_eq!(net.published, [net.event_count(), armed, scheduled]);
}

#[test]
fn lone_segment_is_acked_at_its_own_delack_deadline() {
    // Two segments, then a third 10 ms later. The first arms the
    // delayed-ACK timer (its event stays live), the second flushes the
    // ACK, the third — alone — arms again while that first event is
    // still pending: its ACK must leave 40 ms after *its* arrival, not
    // 40 ms after the first segment's.
    struct TwoThenOne;
    impl App for TwoThenOne {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 2 * u64::from(StackConfig::default().mss()));
            api.set_timer(Nanos::from_millis(10), u64::from(flow.0));
        }
        fn on_timer(&mut self, api: &mut Api, token: u64) {
            api.send(
                FlowId(token as u32),
                u64::from(StackConfig::default().mss()),
            );
        }
    }
    let (hc, hs) = fast_hosts();
    let delack = hs.stack.delack_timeout;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(TwoThenOne),
        Box::new(NullApp),
        41,
    );
    net.run_to_idle();
    let recs = &net.server_capture.records;
    let data: Vec<Nanos> = recs
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::In)
        .map(|r| r.ts)
        .collect();
    let acks: Vec<Nanos> = recs
        .iter()
        .filter(|r| r.kind == PacketKind::TcpAck && r.dir == Direction::Out)
        .map(|r| r.ts)
        .collect();
    assert_eq!((data.len(), acks.len()), (3, 2), "{recs:?}");
    // The second segment's ACK is immediate: what separates it from the
    // arrival is the ACK's own serialization at the NIC.
    let serialize = acks[0] - data[1];
    assert!(serialize < Nanos::from_micros(1));
    assert!(
        data[2] < data[0] + delack,
        "first DelAck event must be live"
    );
    assert_eq!(acks[1], data[2] + delack + serialize);
    // Three requests (the SYN-ACK's RTO, two DelAcks) and three events:
    // the RTO's, the first DelAck's, and that one moved to the second
    // request's deadline when it fired.
    assert_eq!(net.conn_timers(SERVER), (3, 3, 0));
}

#[test]
fn earlier_rearm_supersedes_the_live_timer() {
    // The SYN arms the 1 s initial RTO and that event outlives the
    // handshake. The first data segment, sent at ~50 ms, is dropped by a
    // link outage; its RTO (200 ms, the post-handshake floor) is earlier
    // than the live event, so it must get an event of its own — the
    // retransmission may not wait for the 1 s one.
    struct LateWriter;
    impl App for LateWriter {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.set_timer(Nanos::from_millis(10), u64::from(flow.0));
        }
        fn on_timer(&mut self, api: &mut Api, token: u64) {
            api.send(FlowId(token as u32), 1000);
        }
    }
    let (hc, hs) = fast_hosts();
    let rto = hc.stack.min_rto;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 40),
        Box::new(LateWriter),
        Box::new(Sink::default()),
        42,
    );
    net.set_faults(&FaultSchedule::new(42).push_dir(
        FaultKind::LinkFlap {
            down_at: Nanos::from_millis(45),
            up_at: Nanos::from_millis(55),
            drop: true,
        },
        CLIENT,
    ));
    net.run_until(Nanos::from_secs(2));
    assert_eq!(net.fault_stats().expect("schedule installed").flap_drops, 1);
    let sent: Vec<Nanos> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .map(|r| r.ts)
        .collect();
    assert_eq!(sent.len(), 2, "original and one retransmission");
    assert_eq!(sent[1], sent[0] + rto);
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        1000
    );
    // The overtaken 1 s event fired and was dropped, not run.
    assert_eq!(net.conn_timers(CLIENT).2, 1);
}

#[test]
fn quic_pto_fires_at_the_same_times_as_with_one_event_per_arm() {
    // Every PTO delivery that had an effect (a re-sleep or a real
    // time-out) on one lossy transfer, captured from this very test at
    // the commit before timers were coalesced (one heap event per
    // `ArmTimer`).
    const QUIC_PTO_NS: [u64; 4] = [1_020_803_600, 1_220_009_608, 1_418_838_570, 1_615_974_080];
    let fired = Fired::default();
    let log = fired.clone();
    let (hc, hs) = fast_hosts();
    let cfg = hc.stack.clone();
    let mut path = PathConfig::internet(50, 20);
    path.loss = 0.02;
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(CustomSender {
            make: Some(move |flow| {
                let mut inner = QuicConn::new(flow, cfg, true);
                let first = inner.connect(Nanos::ZERO);
                Box::new(TimerLog {
                    inner,
                    first,
                    fired: log,
                }) as Box<dyn TransportCore>
            }),
            bytes: 500_000,
        }),
        Box::new(Sink::default()),
        22,
    );
    net.run_until(Nanos::from_secs(30));
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        500_000
    );
    assert!(fired.borrow().iter().all(|(_, k)| *k == TimerKind::Rto));
    assert_eq!(times(&fired), QUIC_PTO_NS.map(Nanos));
}

#[test]
fn mux_probe_fires_at_the_same_times_as_with_one_event_per_arm() {
    // As above, for the multiplexer's probe timer on a two-leg path
    // whose first leg suffers an outage storm.
    let fired = Fired::default();
    let log = fired.clone();
    let host = HostConfig::default();
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::internet(50, 20),
        Box::new(CustomSender {
            make: Some(move |flow| {
                let cfg = MuxConfig {
                    n_pipes: 2,
                    splitter: SplitterSpec::RoundRobin,
                    ..MuxConfig::default()
                };
                Box::new(TimerLog {
                    inner: Multiplex::client(flow, cfg, 0xC0),
                    first: Vec::new(),
                    fired: log,
                }) as Box<dyn TransportCore>
            }),
            bytes: 400_000,
        }),
        Box::new(Sink::default()),
        0xFACE,
    );
    net.set_custom_acceptor(|f| Box::new(Multiplex::server(f, MuxConfig::default(), 0xD0)));
    let mut profiles = PipeProfile::fan(2, 50_000_000, Nanos::from_millis(10), Nanos::ZERO);
    profiles[0].fault_scenario = Some("outage-storm".to_string());
    let horizon = Nanos::from_secs(5);
    net.provision_pipes(&profiles, 0xFACE, horizon);
    net.run_until(horizon);
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        400_000
    );
    assert!(fired.borrow().iter().all(|(_, k)| *k == TimerKind::Probe));
    // A dead leg keeps the probe timer running at its 50 ms base period.
    let every_50ms: Vec<Nanos> = (1..=100).map(|i| Nanos::from_millis(50 * i)).collect();
    assert_eq!(times(&fired), every_50ms);
}

#[test]
fn abort_takes_the_timers_with_the_connection() {
    /// Arms an RTO and a DelAck on its first `output`, counts deliveries.
    struct Armer {
        armed: bool,
        delay_ms: u64,
        fired: Fired,
    }
    impl TransportCore for Armer {
        fn input(&mut self, _p: &Packet, _now: Nanos, _cpu: &mut Cpu) -> Vec<TcpAction> {
            Vec::new()
        }
        fn output(&mut self, now: Nanos, _cpu: &mut Cpu) -> Vec<TcpAction> {
            if std::mem::replace(&mut self.armed, true) {
                return Vec::new();
            }
            [TimerKind::Rto, TimerKind::DelAck]
                .into_iter()
                .map(|kind| TcpAction::ArmTimer {
                    kind,
                    at: now + Nanos::from_millis(self.delay_ms),
                    gen: 1,
                })
                .collect()
        }
        fn on_timer(&mut self, kind: TimerKind, _gen: u64, now: Nanos) -> Vec<TcpAction> {
            self.fired.borrow_mut().push((now, kind));
            Vec::new()
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
    let armer = |delay_ms, fired: &Fired| Armer {
        armed: false,
        delay_ms,
        fired: fired.clone(),
    };
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::default(),
        Box::new(NullApp),
        Box::new(NullApp),
        43,
    );
    let dead = Fired::default();
    let flow = {
        let mut api = Api {
            net: &mut net,
            host: CLIENT,
        };
        let flow = api.connect_custom(|_| Box::new(armer(10, &dead)));
        api.send(flow, 0);
        api.abort(flow);
        flow
    };
    assert_eq!(net.conn_timers(CLIENT), (2, 2, 0));
    assert!(
        net.hosts[CLIENT].conns.is_empty(),
        "slots went with the conn"
    );
    net.run_to_idle();
    assert_eq!(net.now(), Nanos::from_millis(10), "both events popped");
    assert!(dead.borrow().is_empty(), "on_timer on an aborted flow");
    assert_eq!(net.conn_timers(CLIENT), (2, 2, 0), "nothing touched");

    // The same flow id again, while events of its previous owner are
    // still in the heap: clean slots, and those events are not its own.
    let (old, new) = (Fired::default(), Fired::default());
    for (delay_ms, fired) in [(10, &old), (30, &new)] {
        let mut api = Api {
            net: &mut net,
            host: CLIENT,
        };
        api.abort(flow);
        let conn = Conn::new(Box::new(armer(delay_ms, fired)));
        assert!(conn.timers.iter().all(|s| s.live.is_none()));
        api.net.hosts[CLIENT].conns.insert(flow, conn);
        api.send(flow, 0);
    }
    net.run_to_idle();
    assert!(old.borrow().is_empty());
    let t = Nanos::from_millis(40);
    assert_eq!(*new.borrow(), [(t, TimerKind::Rto), (t, TimerKind::DelAck)]);
    assert_eq!(net.conn_timers(CLIENT), (6, 6, 2));
}
