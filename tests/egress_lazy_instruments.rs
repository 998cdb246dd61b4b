//! An [`EgressPipeline`] registers an instrument on first use, never by
//! being built — so the metrics snapshot lists what a run did, not which
//! transports it linked — and each decision it makes is one instrument,
//! the same under every label set.
//!
//! A binary of its own with this single test: the registry is
//! process-global, and any other test driving a pipeline or a network in
//! the same process would register the names this one asserts absent.
//! For the same reason the phases run in order, in one test.

use netsim::telemetry::Tracer;
use netsim::{telemetry, FlowId, Json, Nanos};
use stack::apps::{BulkSender, Sink};
use stack::egress::{EgressLabels, EgressPipeline};
use stack::{Cpu, CpuModel, HostConfig, Network, PathConfig, ShapeCtx, Shaper, SERVER};

/// Registered instrument names (any kind) starting with `prefix`.
fn registered(prefix: &str) -> Vec<String> {
    let snap = telemetry::metrics_json();
    let mut names = Vec::new();
    for kind in ["counters", "gauges", "histograms"] {
        if let Some(Json::Obj(entries)) = snap.get(kind) {
            names.extend(
                entries
                    .iter()
                    .map(|(name, _)| name.clone())
                    .filter(|name| name.starts_with(prefix)),
            );
        }
    }
    names.sort();
    names
}

fn ctx() -> ShapeCtx {
    ShapeCtx {
        flow: FlowId(1),
        now: Nanos::ZERO,
        cwnd: 10 * 1448,
        pacing_rate_bps: None,
        in_slow_start: false,
        bytes_sent: 0,
        pkts_sent: 0,
        segs_sent: 0,
        mtu_ip: 1500,
        mss: 1448,
    }
}

/// Changes every decision the pipeline offers it.
struct OnePacketBursts;
impl Shaper for OnePacketBursts {
    fn tso_segment_pkts(&mut self, _c: &ShapeCtx, _proposed: u32) -> u32 {
        1
    }
    fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, proposed: u32) -> u32 {
        proposed - 100
    }
    fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
        Nanos::from_micros(5)
    }
}

const LABELS: [EgressLabels; 5] = [
    EgressLabels::TCP,
    EgressLabels::QUIC,
    EgressLabels::REPLAY,
    EgressLabels::MUX,
    EgressLabels::FLEET,
];

#[test]
fn instruments_are_registered_on_first_use_only() {
    // Building a pipeline registers nothing; its first decision
    // registers that decision's one instrument.
    drop(EgressPipeline::new(EgressLabels::MUX));
    assert_eq!(registered("stack."), Vec::<String>::new());

    let mut pipe = EgressPipeline::new(EgressLabels::MUX);
    pipe.set_shaper(Box::new(OnePacketBursts));
    assert_eq!(pipe.segment_pkts(&ctx(), 4), 1, "the burst shrank");
    assert_eq!(registered("stack."), ["stack.egress.resegmented"]);
    assert_eq!(telemetry::counter("stack.egress.resegmented").get(), 1);

    // Every decision under every label set: one shared instrument per
    // decision, no per-lane name. A retransmission is counted by the
    // transport that sends it, not by the pipeline.
    let mut cpu = Cpu::new(CpuModel::infinitely_fast());
    for labels in LABELS {
        let mut pipe = EgressPipeline::new(labels);
        pipe.set_shaper(Box::new(OnePacketBursts));
        let c = ctx();
        assert_eq!(pipe.segment_pkts(&c, 4), 1);
        assert_eq!(pipe.packet_ip_size(&c, 0, 1500, 40, 1500), 1400);
        assert_eq!(pipe.size_retransmit(&c, 1500, 40, 1500), 1400);
        let paced = pipe.pace_segment(&c, Nanos::ZERO, &mut cpu, 1360, 1, 1414, true);
        assert_eq!(paced.eligible, Nanos::from_micros(5));
        assert_eq!(pipe.pace_replay(&c, Nanos::ZERO), Nanos::from_micros(10));
    }
    assert_eq!(
        registered("stack."),
        [
            "stack.egress.pkts_resized",
            "stack.egress.resegmented",
            "stack.egress.segments",
            "stack.egress.shaper_extra_delay_ns",
            "stack.replay.pkts",
        ]
    );
    assert_eq!(telemetry::counter("stack.egress.resegmented").get(), 6);
    assert_eq!(telemetry::counter("stack.egress.pkts_resized").get(), 5);
    assert_eq!(telemetry::counter("stack.egress.segments").get(), 5);
    assert_eq!(telemetry::counter("stack.replay.pkts").get(), 5);
    assert_eq!(
        telemetry::histo("stack.egress.shaper_extra_delay_ns").count(),
        10
    );

    tcp_counts_each_retransmission_it_traces();
}

/// Over a lossy TCP connection `stack.tcp.retransmits` advances once per
/// `tcp` `retransmit` trace record: the count moved from the label set
/// into the transport and lost nothing on the way.
fn tcp_counts_each_retransmission_it_traces() {
    const TOTAL: u64 = 400_000;
    let h = HostConfig {
        cpu: CpuModel::infinitely_fast(),
        ..HostConfig::default()
    };
    let path = PathConfig {
        loss: 0.02,
        ..PathConfig::internet(50, 20)
    };
    let mut net = Network::new(
        h.clone(),
        h,
        path,
        Box::new(BulkSender::new(TOTAL)),
        Box::new(Sink::default()),
        5,
    );
    let tracer = Tracer::new(1 << 20);
    net.set_tracer(tracer.clone());
    let before = telemetry::counter("stack.tcp.retransmits").get();
    net.run_until(Nanos::from_secs(60));
    assert_eq!(
        net.flow_stats(SERVER, FlowId(1)).unwrap().bytes_delivered,
        TOTAL,
        "transfer incomplete"
    );
    let traced = tracer
        .take()
        .into_events()
        .into_iter()
        .filter(|e| e.layer == "tcp" && e.event == "retransmit")
        .count() as u64;
    assert!(traced > 0, "a 2 % loss path retransmitted nothing");
    assert_eq!(
        telemetry::counter("stack.tcp.retransmits").get() - before,
        traced
    );
}
