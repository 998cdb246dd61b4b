//! An [`EgressPipeline`] registers an instrument on first use, never by
//! being built — so the metrics snapshot lists what a run did, not which
//! transports it linked.
//!
//! A binary of its own with this single test: the registry is
//! process-global, and any other test driving a `MUX` pipeline in the
//! same process would register the names this one asserts absent.

use netsim::{telemetry, FlowId, Json, Nanos};
use stack::egress::{EgressLabels, EgressPipeline};
use stack::{ShapeCtx, Shaper};

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
    names
}

struct OnePacketBursts;
impl Shaper for OnePacketBursts {
    fn tso_segment_pkts(&mut self, _c: &ShapeCtx, _proposed: u32) -> u32 {
        1
    }
}

#[test]
fn instruments_are_registered_on_first_use_only() {
    drop(EgressPipeline::new(EgressLabels::MUX));
    assert_eq!(registered("stack.mux."), Vec::<String>::new());
    assert_eq!(registered("stack.egress."), Vec::<String>::new());

    let mut pipe = EgressPipeline::new(EgressLabels::MUX);
    pipe.set_shaper(Box::new(OnePacketBursts));
    let ctx = ShapeCtx {
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
    };
    assert_eq!(pipe.segment_pkts(&ctx, 4), 1, "the burst shrank");
    assert_eq!(registered("stack.mux."), ["stack.mux.resegmented"]);
    assert_eq!(registered("stack.egress."), ["stack.egress.resegmented"]);
    assert_eq!(telemetry::counter("stack.mux.resegmented").get(), 1);
    assert_eq!(telemetry::counter("stack.egress.resegmented").get(), 1);
}
