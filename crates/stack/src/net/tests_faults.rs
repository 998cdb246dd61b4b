//! Fault-injection and runtime-auditor tests: compound fault schedules,
//! link flaps, mid-flow MTU drops, and the negative tests that prove the
//! invariant checks actually fire.

use super::{Api, App, Network, CLIENT, SERVER};
use crate::apps::{BulkSender, NullApp, Sink};
use crate::config::{HostConfig, PathConfig, StackConfig};
use crate::cpu::CpuModel;
use crate::qdisc::SegDesc;
use crate::tcp::TcpAction;
use netsim::{Direction, FaultSchedule, FlowId, Nanos, Packet, PacketKind};
use std::sync::{Arc, Mutex};

fn fast_hosts() -> (HostConfig, HostConfig) {
    let h = HostConfig {
        cpu: CpuModel::infinitely_fast(),
        ..HostConfig::default()
    };
    (h.clone(), h)
}

#[test]
fn clean_run_audits_clean() {
    // A lossy (Bernoulli) bulk transfer with the auditor forced on:
    // every invariant must hold and the ledger must balance.
    let (hc, hs) = fast_hosts();
    let mut path = PathConfig::internet(50, 20);
    path.loss = 0.02;
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(BulkSender::new(1_000_000)),
        Box::new(Sink::default()),
        40,
    );
    net.set_audit(true);
    net.run_to_idle();
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
    assert!(rep.checks > 0);
}

#[test]
fn faulted_run_recovers_and_audits_clean() {
    use netsim::FaultKind;
    // GE burst loss + reordering + duplication at once: TCP must
    // still deliver exactly, and no invariant may break.
    let (hc, hs) = fast_hosts();
    let total = 1_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        41,
    );
    let sched = FaultSchedule::new(0xFA)
        .push(FaultKind::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.3,
        })
        .push(FaultKind::Reorder {
            prob: 0.05,
            max_extra: Nanos::from_millis(2),
        })
        .push(FaultKind::Duplicate { prob: 0.02 });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total,
        "delivery must survive compound faults"
    );
    let stats = net.fault_stats().unwrap();
    assert!(stats.ge_drops > 0, "{stats:?}");
    assert!(stats.duplicates > 0, "{stats:?}");
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn buffering_flap_stalls_then_completes() {
    use netsim::FaultKind;
    let (hc, hs) = fast_hosts();
    let total = 2_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        42,
    );
    let sched = FaultSchedule::new(7).push(FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(250),
        drop: false,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total
    );
    assert!(net.fault_stats().unwrap().flap_held > 0);
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn hard_outage_forces_recovery() {
    use netsim::FaultKind;
    let (hc, hs) = fast_hosts();
    let total = 2_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        43,
    );
    let sched = FaultSchedule::new(9).push(FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(220),
        drop: true,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total,
        "transfer must complete after the outage"
    );
    assert!(net.fault_stats().unwrap().flap_drops > 0);
    let cs = net.flow_stats(CLIENT, FlowId(1)).unwrap();
    assert!(
        cs.retransmits + cs.timeouts > 0,
        "an outage must trigger loss recovery"
    );
    assert!(net.audit_report().clean());
}

#[test]
fn mid_flow_mtu_drop_shrinks_packets() {
    use netsim::FaultKind;
    let (hc, hs) = fast_hosts();
    let total = 3_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        44,
    );
    let at = Nanos::from_millis(150);
    let sched = FaultSchedule::new(1).push(FaultKind::MtuDrop {
        at,
        new_mtu_ip: 1200,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.record_capture(CLIENT);
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total
    );
    assert_eq!(net.fault_stats().unwrap().mtu_changes, 1);
    // Segments queued before the change drain with the old size;
    // everything packetized well after it obeys the reduced MTU
    // (1200 IP + 14 Ethernet on the wire).
    let slack = Nanos::from_millis(200);
    let late: Vec<u32> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out && r.ts > at + slack)
        .map(|r| r.wire_len)
        .collect();
    assert!(!late.is_empty(), "transfer ended before the MTU change");
    assert!(
        late.iter().all(|&w| w <= 1214),
        "oversized post-change packet: {late:?}"
    );
    assert!(net.audit_report().clean());
}

// ---------------------------------------------------------------------
// QUIC under faults (the suite above is TCP through `BulkSender::new`;
// QUIC shares everything below the transport, but its loss recovery and
// packetization are its own code paths).
// ---------------------------------------------------------------------

#[test]
fn quic_buffering_flap_stalls_then_completes() {
    let (hc, hs) = fast_hosts();
    let total = 1_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::quic(total)),
        Box::new(Sink::default()),
        50,
    );
    let sched = FaultSchedule::new(7).push(netsim::FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(250),
        drop: false,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(30));
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total,
        "QUIC must ride out a buffering flap"
    );
    assert!(net.fault_stats().unwrap().flap_held > 0);
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn quic_hard_outage_forces_recovery() {
    let (hc, hs) = fast_hosts();
    let total = 1_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::quic(total)),
        Box::new(Sink::default()),
        51,
    );
    let sched = FaultSchedule::new(9).push(netsim::FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(220),
        drop: true,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(30));
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total,
        "QUIC transfer must complete after the outage"
    );
    assert!(net.fault_stats().unwrap().flap_drops > 0);
    let cs = net.flow_stats(CLIENT, FlowId(1)).unwrap();
    assert!(
        cs.retransmits + cs.timeouts > 0,
        "an outage must trigger QUIC loss recovery"
    );
    assert!(net.audit_report().clean());
}

#[test]
fn quic_mid_flow_mtu_drop_shrinks_datagrams() {
    let (hc, hs) = fast_hosts();
    let total = 3_000_000;
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(BulkSender::quic(total)),
        Box::new(Sink::default()),
        52,
    );
    let at = Nanos::from_millis(150);
    let sched = FaultSchedule::new(1).push(netsim::FaultKind::MtuDrop {
        at,
        new_mtu_ip: 1200,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.record_capture(CLIENT);
    net.run_until(Nanos::from_secs(30));
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total
    );
    assert_eq!(net.fault_stats().unwrap().mtu_changes, 1);
    let slack = Nanos::from_millis(200);
    let late: Vec<u32> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::QuicData && r.dir == Direction::Out && r.ts > at + slack)
        .map(|r| r.wire_len)
        .collect();
    assert!(!late.is_empty(), "transfer ended before the MTU change");
    assert!(
        late.iter().all(|&w| w <= 1214),
        "oversized post-change datagram: {late:?}"
    );
    assert!(net.audit_report().clean());
}

// ---------------------------------------------------------------------
// Stall watchdogs + reconnect-with-resumption (the recovery runtime's
// stack-level substrate).
// ---------------------------------------------------------------------

/// What a supervised fetcher observed, for assertions after the run.
#[derive(Default)]
struct RecoveryLog {
    stalls: Vec<(FlowId, Nanos)>,
    reconnects: u64,
    received: u64,
    completed: bool,
}

/// Size of the fetcher's request "message".
const REQ: u64 = 100;

/// A download client supervised by a stall watchdog: it requests `total`
/// response bytes, counts what actually arrives, and on stall aborts the
/// connection, opens a fresh one (same transport), and re-requests
/// exactly the bytes still missing — the recovery loop the loader's
/// browser runs per page object, distilled to one flow.
struct RecoveringFetcher {
    total: u64,
    flow: Option<FlowId>,
    timeout: Nanos,
    quic: bool,
    reconnect: bool,
    log: Arc<Mutex<RecoveryLog>>,
    /// Out-of-band channel telling the responder how much to serve for
    /// the next request (the loader shares state the same way).
    serve: Arc<Mutex<u64>>,
}

impl RecoveringFetcher {
    fn open(&mut self, api: &mut Api) {
        let flow = if self.quic {
            api.connect_quic(StackConfig::default(), None)
        } else {
            api.connect()
        };
        api.watch(flow, self.timeout);
        self.flow = Some(flow);
    }
}

impl App for RecoveringFetcher {
    fn on_start(&mut self, api: &mut Api) {
        self.open(api);
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        if Some(flow) != self.flow {
            return;
        }
        let remaining = self.total - self.log.lock().unwrap().received;
        *self.serve.lock().unwrap() = remaining;
        api.send(flow, REQ);
    }
    fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
        if Some(flow) != self.flow {
            return;
        }
        let mut log = self.log.lock().unwrap();
        log.received += bytes;
        if log.received >= self.total && !log.completed {
            log.completed = true;
            drop(log);
            api.unwatch(flow);
            if !self.quic {
                api.close(flow);
            }
        }
    }
    fn on_stall(&mut self, api: &mut Api, flow: FlowId, idle: Nanos) {
        self.log.lock().unwrap().stalls.push((flow, idle));
        api.abort(flow);
        if self.reconnect {
            self.log.lock().unwrap().reconnects += 1;
            self.open(api);
        }
    }
}

/// The matching server: any request bytes trigger a response of whatever
/// size the shared `serve` cell currently asks for.
#[derive(Default)]
struct Responder {
    serve: Arc<Mutex<u64>>,
    remaining: std::collections::BTreeMap<FlowId, u64>,
}

impl Responder {
    fn pump(&mut self, api: &mut Api, flow: FlowId) {
        let Some(rem) = self.remaining.get_mut(&flow) else {
            return;
        };
        while *rem > 0 {
            let accepted = api.send(flow, *rem);
            *rem -= accepted;
            if accepted == 0 {
                return;
            }
        }
    }
}

impl App for Responder {
    fn on_data(&mut self, api: &mut Api, flow: FlowId, _bytes: u64) {
        let want = *self.serve.lock().unwrap();
        let entry = self.remaining.entry(flow).or_insert(0);
        if *entry == 0 && want > 0 {
            *entry = want;
        }
        self.pump(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.pump(api, flow);
    }
    fn on_peer_closed(&mut self, api: &mut Api, flow: FlowId) {
        api.close(flow);
    }
}

fn recovering_net(
    total: u64,
    quic: bool,
    reconnect: bool,
    seed: u64,
) -> (Network, Arc<Mutex<RecoveryLog>>) {
    let (hc, hs) = fast_hosts();
    let log = Arc::new(Mutex::new(RecoveryLog::default()));
    let serve = Arc::new(Mutex::new(0u64));
    let app = RecoveringFetcher {
        total,
        flow: None,
        timeout: Nanos::from_millis(300),
        quic,
        reconnect,
        log: Arc::clone(&log),
        serve: Arc::clone(&serve),
    };
    let server = Responder {
        serve,
        remaining: Default::default(),
    };
    let net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(app),
        Box::new(server),
        seed,
    );
    (net, log)
}

#[test]
fn watchdog_stays_quiet_on_a_healthy_transfer() {
    let (mut net, log) = recovering_net(1_000_000, false, false, 53);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(30));
    let log = log.lock().unwrap();
    assert!(log.completed, "transfer should finish");
    assert!(
        log.stalls.is_empty(),
        "no stall on a healthy path: {:?}",
        log.stalls
    );
    assert!(net.audit_report().clean());
}

#[test]
fn watchdog_fires_once_during_a_long_outage() {
    let (mut net, log) = recovering_net(5_000_000, false, false, 54);
    // Outage long past the watchdog timeout; no reconnect, so the
    // transfer stays dead after the abort.
    let sched = FaultSchedule::new(3).push(netsim::FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_secs(20),
        drop: true,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(5));
    let log = log.lock().unwrap();
    assert_eq!(log.stalls.len(), 1, "exactly one stall: {:?}", log.stalls);
    let (flow, idle) = log.stalls[0];
    assert_eq!(flow, FlowId(1));
    // The reported idle is at least the timeout and well under 2x (the
    // forward-progress bound), because arrivals stopped abruptly.
    assert!(idle >= Nanos::from_millis(300), "idle {idle}");
    assert!(idle <= Nanos::from_millis(600), "idle {idle}");
    assert!(!log.completed);
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn tcp_reconnect_resumes_remaining_bytes_after_outage() {
    let total = 2_000_000;
    let (mut net, log) = recovering_net(total, false, true, 55);
    let sched = FaultSchedule::new(4).push(netsim::FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(1600),
        drop: true,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(30));
    let log = log.lock().unwrap();
    assert!(!log.stalls.is_empty(), "outage must stall the flow");
    assert!(log.reconnects >= 1);
    assert!(log.completed, "resumed transfer must finish");
    // Every re-request asks for exactly the bytes still missing, so the
    // client ends up with the total and not a byte more.
    assert_eq!(log.received, total, "client byte accounting");
    assert!(net.audit_report().clean());
}

#[test]
fn quic_reconnect_resumes_remaining_bytes_after_outage() {
    let total = 2_000_000;
    let (mut net, log) = recovering_net(total, true, true, 56);
    let sched = FaultSchedule::new(4).push(netsim::FaultKind::LinkFlap {
        down_at: Nanos::from_millis(100),
        up_at: Nanos::from_millis(1600),
        drop: true,
    });
    net.set_faults(&sched);
    net.set_audit(true);
    net.run_until(Nanos::from_secs(30));
    let log = log.lock().unwrap();
    assert!(!log.stalls.is_empty(), "outage must stall the flow");
    assert!(log.reconnects >= 1);
    assert!(log.completed, "resumed QUIC transfer must finish");
    assert_eq!(log.received, total, "client byte accounting");
    assert!(net.audit_report().clean());
}

#[test]
fn abort_discards_the_connection_and_disarms_the_watch() {
    struct Aborter;
    impl App for Aborter {
        fn on_start(&mut self, api: &mut Api) {
            let flow = api.connect();
            api.watch(flow, Nanos::from_millis(100));
        }
        fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
            api.send(flow, 100_000);
            api.abort(flow);
        }
        fn on_stall(&mut self, _api: &mut Api, _flow: FlowId, _idle: Nanos) {
            panic!("watch must be disarmed by abort");
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(Aborter),
        Box::new(Sink::default()),
        57,
    );
    net.set_audit(true);
    net.run_until(Nanos::from_secs(90));
    assert!(
        net.hosts[CLIENT].conns.is_empty(),
        "aborted conn still present"
    );
    assert!(net.hosts[CLIENT].watch.is_empty(), "watch still armed");
    // The server half was created by the handshake and now retransmits
    // into the void; that is expected and must not break conservation.
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn rearmed_watchdog_ignores_stale_generation_events() {
    // Arm, then immediately re-arm with a longer timeout: the first
    // arm's queued event must not fire a stall at its earlier deadline.
    struct Rearm {
        log: Arc<Mutex<RecoveryLog>>,
    }
    impl App for Rearm {
        fn on_start(&mut self, api: &mut Api) {
            let flow = api.connect();
            api.watch(flow, Nanos::from_millis(100));
            api.watch(flow, Nanos::from_secs(5));
        }
        fn on_stall(&mut self, api: &mut Api, flow: FlowId, idle: Nanos) {
            self.log.lock().unwrap().stalls.push((flow, idle));
            api.abort(flow);
        }
    }
    let (hc, hs) = fast_hosts();
    let log = Arc::new(Mutex::new(RecoveryLog::default()));
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(Rearm {
            log: Arc::clone(&log),
        }),
        Box::new(Sink::default()),
        58,
    );
    net.set_audit(true);
    // Idle connection: the 5 s watch eventually fires, the stale 100 ms
    // one must not.
    net.run_until(Nanos::from_secs(10));
    let log = log.lock().unwrap();
    assert_eq!(log.stalls.len(), 1, "{:?}", log.stalls);
    assert!(log.stalls[0].1 >= Nanos::from_secs(5), "{:?}", log.stalls);
    assert!(net.audit_report().clean());
}

#[test]
fn auditor_flags_a_segment_released_before_its_pacing_time() {
    // Negative test: deliberately violate the pacing-release
    // invariant through the real dequeue path by pushing a segment
    // whose release time is in the future into the unpaced band.
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::default(),
        Box::new(NullApp),
        Box::new(NullApp),
        45,
    );
    net.set_audit(true);
    net.start();
    let pkt = Packet::tcp_data(FlowId(9), 0, 0, 1000);
    let seg = SegDesc::new(FlowId(9), vec![pkt], Nanos::from_millis(5));
    net.hosts[CLIENT].qdisc.enqueue_prio(seg);
    net.qdisc_check(CLIENT); // departs at t=0, 5 ms early
    let rep = net.audit_report();
    assert!(!rep.clean());
    assert_eq!(
        rep.violations[0].invariant,
        netsim::Invariant::PacingRelease
    );
}

#[test]
fn auditor_flags_departures_beyond_the_cc_grant() {
    // Negative test for the §4.2 safety rule: fabricate an output
    // batch far larger than the flow's congestion window and push it
    // through `apply`. The real stack clamps its emissions (see
    // `tcp::tests::shaper_cannot_grow_past_proposed`), so this
    // models a buggy shaper integration bypassing those clamps.
    struct Opener;
    impl App for Opener {
        fn on_start(&mut self, api: &mut Api) {
            api.connect();
        }
    }
    let (hc, hs) = fast_hosts();
    let mut net = Network::new(
        hc,
        hs,
        PathConfig::internet(50, 20),
        Box::new(Opener),
        Box::new(NullApp),
        46,
    );
    net.set_audit(true);
    net.run_to_idle(); // handshake completes, connection idle
    let flow = FlowId(1);
    let cwnd = net.hosts[CLIENT]
        .conns
        .get(&flow)
        .expect("conn")
        .core
        .cwnd();
    let mss = 1448u64;
    let total = cwnd + 200_000; // far beyond grant + burst slop
    let npkts = total.div_ceil(mss);
    let pkts: Vec<Packet> = (0..npkts)
        .map(|i| Packet::tcp_data(flow, i * mss, 0, mss as u32))
        .collect();
    let seg = SegDesc::new(flow, pkts, net.now());
    net.apply(CLIENT, flow, vec![TcpAction::SendSeg(seg)]);
    let rep = net.audit_report();
    assert!(
        rep.violations
            .iter()
            .any(|v| v.invariant == netsim::Invariant::SafetyRule),
        "safety breach not flagged: {:?}",
        rep.violations
    );
}

#[test]
fn bottleneck_overflow_drops_balance_the_multipath_ledgers() {
    // An untagged bulk flow overflows a shallow bottleneck queue while a
    // multipath leg is provisioned but idle. Overflow drops belong to
    // the default path's ledger, or the multipath sum rule (default +
    // per-pipe == flow ledger) reports a violation that is not there.
    let (hc, hs) = fast_hosts();
    let mut path = PathConfig::internet(20, 20);
    path.queue_bytes = 8 * 1514;
    let total = 1_000_000;
    let mut net = Network::new(
        hc,
        hs,
        path,
        Box::new(BulkSender::new(total)),
        Box::new(Sink::default()),
        47,
    );
    net.set_audit(true);
    let idle_leg = netsim::PipeProfile::new(10_000_000, Nanos::from_millis(5));
    net.provision_pipes(&[idle_leg], 47, Nanos::from_secs(60));
    net.run_to_idle();
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        total
    );
    assert!(net.legs[0].ledger.dropped > 0, "queue never overflowed");
    assert_eq!(
        net.pipe_ledger(0).unwrap().injected,
        0,
        "leg must stay idle"
    );
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}

#[test]
fn pipe_and_default_legs_keep_their_own_flap_and_loss_rules() {
    use netsim::{FaultInjector, FaultKind, FaultStats, PipeProfile};
    // Both legs pass one departure gate; what a flap or a loss draw does
    // there follows from the leg, and lands in that leg's ledger only.
    let send = |net: &mut Network, pipe: Option<u8>, n: u64| {
        for seq in 0..n {
            let mut pkt = Packet::tcp_data(FlowId(1), seq * 1000, 0, 1000);
            pkt.meta.pipe = pipe;
            net.apply(CLIENT, FlowId(1), vec![TcpAction::SendCtl(pkt)]);
        }
    };
    let new_net = |path: PathConfig, pipe: PipeProfile, seed: u64| {
        let (hc, hs) = fast_hosts();
        let mut net = Network::new(hc, hs, path, Box::new(NullApp), Box::new(NullApp), seed);
        net.set_audit(true);
        net.provision_pipes(&[pipe], seed, Nanos::from_secs(1));
        net
    };
    let clean_pipe = PipeProfile::new(10_000_000, Nanos::from_millis(5));

    // A buffering flap drops on a pipe: the pipe's ledger counts the
    // drop, nothing is held, and the default path's injector does not
    // move. The same flap on the default path holds the packet.
    let mut net = new_net(PathConfig::internet(50, 20), clean_pipe.clone(), 48);
    let flap = FaultSchedule::new(11).push(FaultKind::LinkFlap {
        down_at: Nanos::ZERO,
        up_at: Nanos::from_millis(200),
        drop: false,
    });
    net.set_faults(&flap);
    net.legs[1].faults = Some(FaultInjector::new(&flap));
    send(&mut net, Some(0), 1);
    net.run_until(Nanos::from_millis(50));
    let pipe = net.pipe_ledger(0).unwrap();
    assert_eq!(
        (pipe.injected, pipe.dropped, pipe.arrivals_pending),
        (1, 1, 0)
    );
    assert_eq!(net.legs[1].faults.as_ref().unwrap().stats.flap_drops, 1);
    assert!(net.legs[0].bottleneck().held.iter().all(Vec::is_empty));
    assert_eq!(net.fault_stats(), Some(FaultStats::default()));
    send(&mut net, None, 1);
    net.run_until(Nanos::from_millis(100));
    assert_eq!(net.legs[0].bottleneck().held[CLIENT].len(), 1);
    let stats = net.fault_stats().unwrap();
    assert_eq!((stats.flap_held, stats.flap_drops), (1, 0));
    net.run_to_idle();
    let default = net.legs[0].ledger;
    assert_eq!(
        (default.injected, default.delivered, default.dropped),
        (1, 1, 0)
    );
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);

    // Random loss on the default path and on a lossy pipe: each leg's
    // drops land in its own ledger, and the legs still sum to the flow
    // ledger.
    let mut path = PathConfig::internet(50, 20);
    path.loss = 0.3;
    let lossy_pipe = PipeProfile {
        loss: 0.3,
        ..clean_pipe
    };
    let mut net = new_net(path, lossy_pipe, 49);
    send(&mut net, None, 50);
    send(&mut net, Some(0), 50);
    net.run_to_idle();
    for (i, leg) in net.legs.iter().enumerate() {
        let l = leg.ledger;
        assert_eq!(l.injected, 50, "leg {i}: {l:?}");
        assert!(l.dropped > 0 && l.dropped < 50, "leg {i}: {l:?}");
        assert_eq!(l.delivered + l.dropped, 50, "leg {i}: {l:?}");
    }
    let rep = net.audit_report();
    assert!(rep.clean(), "violations: {:?}", rep.violations);
}
