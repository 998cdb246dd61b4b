//! Integration of the Stob framework with the stack: the Figure 3
//! machinery, the §4.2 safety invariant under load, and the §5.1 phase
//! guard, all exercised through the full simulated network.

use netsim::{Direction, FlowId, Nanos, PacketKind};
use stack::apps::{BulkSender, Sink};
use stack::net::{Api, App, Network, SERVER};
use stack::{HostConfig, PathConfig, StackConfig};
use std::sync::Arc;
use stob::guard::CcaPhaseGuard;
use stob::safety::{SafetyAudit, SafetyCap};
use stob::strategies::{IncrementalReduce, SplitThreshold};

struct Shaped {
    inner: BulkSender,
    shaper: Option<Box<dyn stack::Shaper>>,
}

impl Shaped {
    fn new(total: Option<u64>, shaper: Box<dyn stack::Shaper>) -> Self {
        Shaped {
            inner: match total {
                Some(t) => BulkSender::new(t),
                None => BulkSender::endless(),
            },
            shaper: Some(shaper),
        }
    }
}

impl App for Shaped {
    fn on_start(&mut self, api: &mut Api) {
        let s = self.shaper.take();
        api.connect_with(StackConfig::default(), s);
    }
    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_connected(api, flow);
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        self.inner.on_sendable(api, flow);
    }
}

fn goodput_gbps(net: &mut Network, warmup: Nanos, window: Nanos) -> f64 {
    net.run_until(warmup);
    let base = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0);
    net.run_until(warmup + window);
    let bytes = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0)
        - base;
    bytes as f64 * 8.0 / window.as_secs_f64() / 1e9
}

fn lab_net(shaper: Box<dyn stack::Shaper>, seed: u64) -> Network {
    Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::lab_100g(),
        Box::new(Shaped::new(None, shaper)),
        Box::new(Sink::default()),
        seed,
    )
}

#[test]
fn figure3_throughput_decreases_with_alpha_and_keeps_the_floor() {
    let mut results = Vec::new();
    for alpha in [0u32, 20, 40] {
        let mut net = lab_net(
            Box::new(SafetyCap::new(IncrementalReduce::with_alpha(alpha))),
            3,
        );
        results.push(goodput_gbps(
            &mut net,
            Nanos::from_millis(30),
            Nanos::from_millis(30),
        ));
    }
    assert!(
        results[0] > results[1] && results[1] > results[2],
        "goodput must decrease with alpha: {results:?}"
    );
    assert!(results[0] > 30.0, "alpha=0 at {} Gb/s", results[0]);
    assert!(
        results[2] > 15.0,
        "alpha=40 collapsed to {} Gb/s (paper floor: 19.7)",
        results[2]
    );
}

#[test]
fn safety_audit_is_clean_for_shipped_strategies() {
    let cap = SafetyCap::new(IncrementalReduce::with_alpha(40));
    let audit: Arc<SafetyAudit> = cap.audit_handle();
    let mut net = lab_net(Box::new(cap), 5);
    net.run_until(Nanos::from_millis(50));
    let decisions = audit.decisions.load(std::sync::atomic::Ordering::Relaxed);
    assert!(decisions > 1000, "shaper barely exercised: {decisions}");
    assert_eq!(
        audit.total_clamped(),
        0,
        "shipped strategies must never trip the safety cap"
    );
}

#[test]
fn shaped_flow_never_violates_cwnd_or_mtu() {
    let mut net = lab_net(
        Box::new(SafetyCap::new(IncrementalReduce::with_alpha(32))),
        7,
    );
    net.run_until(Nanos::from_millis(40));
    // Every data packet on the wire respects the MTU.
    for r in &net.client_capture.records {
        if r.kind == PacketKind::TcpData {
            assert!(r.wire_len <= 1514, "packet {} B over MTU", r.wire_len);
        }
    }
    // The flow made real progress.
    let s = net.flow_stats(SERVER, FlowId(1)).expect("server conn");
    assert!(s.bytes_delivered > 10_000_000);
}

#[test]
fn delay_strategy_stretches_wire_gaps() {
    // Same transfer, with and without a delay policy. Note: delays much
    // smaller than the flow's natural pacing/queueing slack are absorbed
    // without slowing anything (timing manipulation is nearly free,
    // §2.3), so to get a deterministic effect the policy caps segments
    // at one packet and adds 1-3 ms per segment — an explicit rate
    // ceiling of ~1 MB/s.
    let total = 4_000_000;
    let run = |shaper: Option<Box<dyn stack::Shaper>>, seed| -> Nanos {
        let app: Box<dyn App> = match shaper {
            Some(s) => Box::new(Shaped::new(Some(total), s)),
            None => Box::new(BulkSender::new(total)),
        };
        let mut net = Network::new(
            HostConfig::default(),
            HostConfig::default(),
            PathConfig::internet(200, 10),
            app,
            Box::new(Sink::default()),
            seed,
        );
        net.run_to_idle();
        assert_eq!(
            net.flow_stats(SERVER, FlowId(1))
                .expect("conn")
                .bytes_delivered,
            total
        );
        net.client_capture.duration()
    };
    let plain = run(None, 11);
    let policy = stob::policy::ObfuscationPolicy {
        name: "slowride".into(),
        size: stob::policy::SizeSpec::Unchanged,
        delay: stob::policy::DelaySpec::UniformAbsolute {
            lo: Nanos::from_millis(1),
            hi: Nanos::from_millis(3),
        },
        tso: stob::policy::TsoSpec::Cap { pkts: 1 },
        first_n_pkts: 0,
        respect_slow_start: false,
    };
    let reg = stob::registry::PolicyRegistry::new();
    reg.publish(stob::registry::PolicyKey::Default, policy);
    let attachment = stob::sockopt::attach(&reg, 1, 0, 3, &mut netsim::SimRng::new(3))
        .attached()
        .expect("policy");
    let delayed = run(Some(attachment.shaper), 11);
    assert!(
        delayed > plain * 3,
        "delayed transfer ({delayed}) must be far slower than plain ({plain})"
    );
}

#[test]
fn cca_phase_guard_defers_shaping_past_slow_start() {
    // With the guard, the first packets (slow start) are full-sized;
    // after enough progress the splitter kicks in.
    let guarded = CcaPhaseGuard::new(SplitThreshold::new(1200));
    let mut net = lab_net(Box::new(guarded), 13);
    net.run_until(Nanos::from_millis(60));
    let data: Vec<_> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .collect();
    assert!(data.len() > 100);
    let first_full = data.iter().take(20).filter(|r| r.wire_len > 1400).count();
    assert!(
        first_full >= 15,
        "slow-start packets should be unshapen: {first_full}/20 full-sized"
    );
    // CUBIC exits slow start on queue loss or stays CPU-bound; at least
    // verify the guard passes decisions through once out of slow start,
    // by checking whether *any* later packet got split whenever slow
    // start ended. (If the flow never left slow start, all packets stay
    // full-sized, which the guard also mandates.)
    let split_later = data.iter().skip(20).any(|r| r.wire_len <= 700);
    let all_full = data.iter().all(|r| r.wire_len > 1400);
    assert!(
        split_later || all_full,
        "guard must either split after slow start or keep everything full"
    );
}

#[test]
fn client_side_shaping_applies_to_uploads_only() {
    // The shaper sits on the client connection: uploaded data packets
    // shrink, downloaded ACK stream is untouched (there is no server
    // data in a pure upload).
    let mut net = Network::new(
        HostConfig::default(),
        HostConfig::default(),
        PathConfig::internet(100, 20),
        Box::new(Shaped::new(
            Some(3_000_000),
            Box::new(SafetyCap::new(SplitThreshold::new(1000))),
        )),
        Box::new(Sink::default()),
        17,
    );
    net.run_to_idle();
    let out_data: Vec<_> = net
        .client_capture
        .records
        .iter()
        .filter(|r| r.kind == PacketKind::TcpData && r.dir == Direction::Out)
        .collect();
    assert!(!out_data.is_empty());
    assert!(
        out_data.iter().all(|r| r.wire_len <= 1000 + 66),
        "upload packets must respect the split threshold"
    );
}
