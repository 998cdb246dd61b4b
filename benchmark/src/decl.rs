//! The declared benchmark surface: workload and metric names with their
//! units. `BENCHMARK.json` at the repository root lists the same metrics
//! and the workloads in [`CHECKED`]; `tests/smoke.rs` fails when the two
//! drift apart.

use stob_bench::suite::DefenseKind;

/// Workload names, in the order `run.sh` drives them.
pub const WORKLOADS: [&str; 6] = [
    "fleet_mixed",
    "defend_suite",
    "page_collect",
    "bulk_shaped",
    "wf_table2",
    "mux_replay",
];

/// The workloads `BENCHMARK.json` lists, which the driver runs and holds
/// to the bounds: the first four. The driver's time limit covers
/// `4 + 22 × workloads` runs, and on this host a run shorter than 30 s is
/// too noisy for any bound the driver accepts; four workloads are what
/// fits at that length. The other two run by the same command and print
/// the same metrics.
pub const CHECKED: [&str; 4] = ["fleet_mixed", "defend_suite", "page_collect", "bulk_shaped"];

/// A declared metric: its name and the unit every run reports it in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn m(name: &str, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("throughput", "1/s"),
        m("peak_rss_mb", "MiB"),
        m("setup_s", "s"),
    ]
}

/// Per-layer metrics, printed by every traced run. A workload that does
/// not cross a layer reports that layer's metrics as 0 on the result
/// line (and `null` in `out/trace-<workload>.json`).
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("bench.trace_overhead_share", "ratio"),
        // netsim
        m("netsim.event.ns_per_op.large", "ns"),
        m("netsim.event.ns_per_op.small", "ns"),
        m("netsim.pool.arena_ns_per_op", "ns"),
        m("netsim.rng.ns_per_draw", "ns"),
        m("netsim.audit.ns_per_check", "ns"),
        m("netsim.telemetry.ns_per_add", "ns"),
        m("netsim.link.ns_per_pkt", "ns"),
        m("netsim.capture.ns_per_pkt", "ns"),
        m("netsim.wheel.cascades", "count"),
        // stack
        m("stack.egress.pace_replay_ns", "ns"),
        m("stack.egress.packet_ip_size_ns", "ns"),
        m("stack.egress.pace_segment_ns", "ns"),
        m("stack.tcp.shuttle_ns_per_pkt", "ns"),
        m("stack.qdisc.ns_per_seg", "ns"),
        m("stack.nic.ns_per_seg", "ns"),
        m("stack.tls.ns_per_record", "ns"),
        m("stack.net.events", "count"),
        m("stack.nic.packets_tx", "count"),
        m("stack.egress.segments", "count"),
        m("stack.tcp.retransmits", "count"),
        m("stack.net.ns_per_event", "ns"),
        m("stack.net.ns_per_pkt", "ns"),
        m("stack.net.self_ns_per_pkt", "ns"),
        m("stack.net.explained_share", "ratio"),
        m("stack.mux.tx_pkts", "count"),
        m("stack.mux.parity_pkts", "count"),
        m("stack.mux.ns_per_datagram", "ns"),
        m("stack.mux.fec_ns_per_datagram", "ns"),
        // stob (core)
        m("stob.registry.resolve_ns", "ns"),
        m("stob.sockopt.assemble_ns", "ns"),
        m("stob.fleet.events", "count"),
        m("stob.fleet.egress_pkts", "count"),
        m("stob.fleet.dummy_pkts", "count"),
        m("stob.fleet.peak_resident", "count"),
        m("stob.fleet.arena_high_water", "count"),
        m("stob.fleet.ns_per_pkt", "ns"),
        m("stob.fleet.ns_per_pkt.small", "ns"),
        m("stob.fleet.self_ns_per_pkt", "ns"),
        m("stob.fleet.explained_share", "ratio"),
        m("stob.fleet.rss_bytes_per_resident_flow", "B"),
        m("stob.defense.emulate_ns_per_pkt", "ns"),
        m("stob.defense.enforce_ns_per_pkt", "ns"),
        m("stob.machine.ns_per_pkt", "ns"),
    ];
    // defenses: one emulate/enforce pair per suite row.
    for kind in DefenseKind::WITH_MACHINES {
        v.push(m(
            &format!("defenses.{}.emulate_ns_per_pkt", kind.key()),
            "ns",
        ));
        v.push(m(
            &format!("defenses.{}.enforce_ns_per_pkt", kind.key()),
            "ns",
        ));
    }
    v.extend([
        // traces
        m("traces.loader.visit_ms_p50", "ms"),
        m("traces.loader.visit_ms_p95", "ms"),
        m("traces.loader.quic_visit_ms_p50", "ms"),
        m("traces.loader.recovery_visit_ms_p50", "ms"),
        m("traces.sanitize.ns_per_trace", "ns"),
        m("traces.statgen.ns_per_trace", "ns"),
        // wf
        m("wf.features.ns_per_trace", "ns"),
        m("wf.forest.fit_tree_samples_per_s", "1/s"),
        m("wf.forest.predict_ns_per_sample", "ns"),
        m("wf.eval.features_share", "ratio"),
        m("wf.eval.fit_share", "ratio"),
        m("wf.eval.predict_share", "ratio"),
    ]);
    v
}

/// A workload or metric name: starts with a letter or digit, then up to
/// 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    s.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validation() {
        for ok in [
            "throughput",
            "a",
            "9x",
            "netsim.event.ns_per_op.large",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "duplicate {name}");
        }
        assert_eq!(CHECKED, WORKLOADS[..CHECKED.len()]);
        let mut seen = BTreeSet::new();
        for metric in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&metric.name), "{}", metric.name);
            assert!(
                seen.insert(metric.name.clone()),
                "duplicate {}",
                metric.name
            );
        }
        assert!(per_layer().len() <= 128);
    }
}
