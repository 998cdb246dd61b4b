//! End-to-end tests of the simulated network: handshakes, bulk
//! transfers, loss recovery, QUIC, and fair sharing. Fault-injection and
//! auditor tests live in `tests_faults`.

use super::{Api, App, Network, CLIENT, SERVER};
use crate::apps::{BulkSender, NullApp, Sink};
use crate::config::{CcKind, HostConfig, PathConfig, StackConfig};
use crate::cpu::CpuModel;
use netsim::{Direction, FlowId, Nanos, PacketKind};

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
