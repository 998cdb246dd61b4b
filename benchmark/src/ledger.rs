//! The per-layer cost ledger of a traced run: what each layer's probe
//! says one operation costs, how many operations the workload's own
//! report or the telemetry snapshot counted, and how much of the
//! measured end-to-end host time `unit cost × count` explains. What is
//! left over is the entry point's self time, reported per packet.

use crate::gauge::Gauge;
use crate::probes::{self, Prober};
use crate::span::Spans;
use crate::stats::{highest_supported_percentile, median};
use crate::workloads::{
    defend_cell_id, fleet_delay_policy, FleetMixed, MuxReplay, RepOut, Scale, WfTable2, Workload,
};
use defenses::emulate::{self, CounterMeasure, EmulateConfig, Section3Defense};
use netsim::percentile;
use netsim::{Json, SimRng};
use stack::egress::EgressLabels;
use std::collections::BTreeMap;
use stob::defense::Placement;
use stob::safety::SafetyCap;
use stob::strategies::IncrementalReduce;
use stob::ObfuscationPolicy;
use stob_bench::suite::DefenseKind;
use traces::loader::{load_page, LoaderConfig, RecoveryConfig, TransportKind};
use traces::sites::paper_sites;
use traces::Dataset;
use wf::features::{extract_all, FeatureConfig};
use wf::forest::{Forest, ForestConfig};

/// One ledger row: a layer's unit cost and, when it can be observed from
/// outside, how often the workload paid it.
struct Row {
    metric: &'static str,
    unit_ns: f64,
    /// `None`: the count cannot be observed from outside, so the row is
    /// reported as a unit cost only and left out of the explained sum.
    count: Option<(f64, &'static str)>,
}

/// Per-layer results of a traced run.
pub struct Layers {
    /// Metrics this workload measured, by declared name.
    pub measured: BTreeMap<String, f64>,
    /// Telemetry names the snapshot did not contain (reported as 0).
    pub missing_telemetry: Vec<String>,
    /// Findings worth a reader's eye; never hidden, never fatal.
    pub flags: Vec<String>,
    /// The reconciliation table, written to `out/trace-<workload>.json`.
    pub ledger: Json,
}

impl Layers {
    fn new() -> Self {
        Layers {
            measured: BTreeMap::new(),
            missing_telemetry: Vec::new(),
            flags: Vec::new(),
            ledger: Json::Null,
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.measured.insert(name.to_string(), value);
    }

    /// A telemetry count by registry name; a name the snapshot lacks was
    /// never incremented (counters register on first use) and reads 0.
    fn telemetry(&mut self, tel: &Json, name: &str) -> f64 {
        let found = ["counters", "gauges"]
            .iter()
            .find_map(|kind| tel.get(kind)?.get(name)?.as_f64())
            .or_else(|| tel.get("histograms")?.get(name)?.get("count")?.as_f64());
        found.unwrap_or_else(|| {
            self.missing_telemetry.push(name.to_string());
            0.0
        })
    }

    /// Copy telemetry counts into the metrics of the same name.
    fn telemetry_counts(&mut self, tel: &Json, names: &[&str]) {
        for name in names {
            let v = self.telemetry(tel, name);
            self.set(name, v);
        }
    }

    /// Reconcile `rows` against `host_ns`: records every unit cost as a
    /// metric, writes the ledger table, and returns the explained
    /// nanoseconds.
    fn reconcile(&mut self, host_ns: f64, rows: Vec<Row>) -> f64 {
        let mut explained = 0.0;
        let mut table = Vec::new();
        for row in rows {
            self.set(row.metric, row.unit_ns);
            let mut j = Json::obj()
                .set("metric", row.metric)
                .set("unit_ns", row.unit_ns);
            match row.count {
                Some((count, source)) => {
                    let ns = row.unit_ns * count;
                    explained += ns;
                    j = j
                        .set("count", count)
                        .set("count_source", source)
                        .set("explained_ns", ns)
                        .set("share_of_host_time", ns / host_ns);
                }
                None => j = j.set("count", Json::Null),
            }
            table.push(j);
        }
        let share = explained / host_ns;
        if share > 1.0 {
            self.flags.push(format!(
                "explained_share {share:.3} > 1: the isolated probes overstate in-situ cost"
            ));
        }
        self.ledger = Json::obj()
            .set("host_ns", host_ns)
            .set("explained_ns", explained)
            .set("explained_share", share)
            .set("self_share", 1.0 - share)
            .set("rows", Json::Arr(table));
        explained
    }
}

/// Upper bound on telemetry writes during the repetition: every counter
/// that counts events (byte and nanosecond totals are added in one call
/// beside an event counter) plus every histogram record.
fn telemetry_adds(tel: &Json) -> f64 {
    let entries = |kind: &str| match tel.get(kind) {
        Some(Json::Obj(entries)) => entries.as_slice(),
        _ => &[],
    };
    let counters: f64 = entries("counters")
        .iter()
        .filter(|(name, _)| !name.ends_with("_bytes") && !name.ends_with("_ns"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    let histos: f64 = entries("histograms")
        .iter()
        .filter_map(|(_, h)| h.get("count")?.as_f64())
        .sum();
    counters + histos
}

const STACK_COUNTS: [&str; 4] = [
    "stack.net.events",
    "stack.nic.packets_tx",
    "stack.egress.segments",
    "stack.tcp.retransmits",
];

/// The §3 countermeasure's policy, as the defend_suite cells lower it.
fn section3_policy(cm: CounterMeasure) -> ObfuscationPolicy {
    Section3Defense::new(cm, EmulateConfig::default()).policy()
}

/// `traces.statgen.ns_per_trace` from the set-up span, whose request id
/// is the number of traces generated.
fn statgen_metric(layers: &mut Layers, setup: &Spans) {
    if let Some(s) = setup.all().iter().find(|s| s.name == "setup.statgen") {
        layers.set(
            "traces.statgen.ns_per_trace",
            s.duration_ns() as f64 / s.request.max(1) as f64,
        );
    }
}

/// Everything a traced run hands the ledger.
pub struct Traced<'a> {
    pub seed: u64,
    pub scale: &'a Scale,
    /// Set-up spans (`setup.statgen`).
    pub setup: &'a Spans,
    /// Spans of the last traced repetition.
    pub spans: &'a Spans,
    /// `netsim::telemetry::metrics_json()` taken right after that
    /// repetition (the registry was reset right before it).
    pub telemetry: &'a Json,
    pub out: &'a RepOut,
    /// Median host seconds of the run's full-size repetitions, traced
    /// and untraced alike.
    pub host_s: f64,
    /// Growth of the process's peak RSS across the first repetition.
    pub rss_per_rep_bytes: f64,
}

impl Traced<'_> {
    fn host_ns(&self) -> f64 {
        self.host_s * 1e9
    }
    fn prober(&self) -> Prober {
        Prober::new(self.scale)
    }
}

/// Per-layer analysis of workload `w` after its traced repetitions: the
/// counts every workload shares, then the workload's own ledger.
pub fn analyze(w: &dyn Workload, t: &Traced) -> Result<Layers, String> {
    let mut l = Layers::new();
    l.telemetry_counts(t.telemetry, &["netsim.wheel.cascades"]);
    l.telemetry_counts(t.telemetry, &STACK_COUNTS);
    statgen_metric(&mut l, t.setup);
    w.ledger(t, &mut l)?;
    Ok(l)
}

fn telemetry_row(p: &Prober, tel: &Json) -> Row {
    Row {
        metric: "netsim.telemetry.ns_per_add",
        unit_ns: probes::telemetry_ns_per_add(p),
        count: Some((
            telemetry_adds(tel),
            "telemetry snapshot, event counters + histogram records",
        )),
    }
}

/// `fleet_mixed`: wheel, arena, auditor, telemetry, pacing gate and
/// registry against `run_fleet`'s host time.
pub fn fleet(w: &FleetMixed, t: &Traced, l: &mut Layers) -> Result<(), String> {
    let p = t.prober();
    let tel = t.telemetry;
    let host_ns = t.host_ns();
    let f = &t.out.facts;
    for (metric, fact) in [
        ("stob.fleet.events", "events"),
        ("stob.fleet.egress_pkts", "egress_pkts"),
        ("stob.fleet.dummy_pkts", "dummy_pkts"),
        ("stob.fleet.peak_resident", "peak_resident"),
        ("stob.fleet.arena_high_water", "arena_high_water"),
    ] {
        l.set(metric, f[fact]);
    }
    let pkts = f["egress_pkts"];
    l.set("stob.fleet.ns_per_pkt", host_ns / pkts);
    l.set(
        "stob.fleet.rss_bytes_per_resident_flow",
        t.rss_per_rep_bytes / f["peak_resident"],
    );

    // The same recipe small enough to stay cache-resident: the
    // difference to the full fleet is the working-set term.
    let small = FleetMixed::new(t.seed, t.scale, t.scale.fleet_small_flows, 1);
    let mut small_ns = Vec::new();
    for _ in 0..3 {
        let out = small.rep(&mut Spans::off(), &mut Gauge::off())?;
        small_ns.push(out.host_s * 1e9 / out.units);
    }
    l.set("stob.fleet.ns_per_pkt.small", median(&small_ns));

    let shards = stob::fleet::DEFAULT_SHARDS;
    let pending = (f["flows"] as u64).div_ceil(shards).max(1) as usize;
    let gap = w.cfg.gap_ns;
    let split = ObfuscationPolicy::split_and_delay("fleet-split");
    let arena_ops =
        l.telemetry(tel, "netsim.pool.arena_allocs") + l.telemetry(tel, "netsim.pool.arena_reuses");
    let replayed = l.telemetry(tel, "stack.replay.pkts");
    let resolutions = l.telemetry(tel, "stob.registry.resolutions");
    let rows = vec![
        Row {
            metric: "netsim.event.ns_per_op.large",
            unit_ns: probes::event_ns_per_op(&p, pending, gap),
            count: Some((f["events"], "FleetReport.events")),
        },
        Row {
            metric: "netsim.pool.arena_ns_per_op",
            unit_ns: probes::arena_ns_per_op(&p, f["arena_high_water"].max(1.0) as usize),
            count: Some((
                arena_ops,
                "telemetry netsim.pool.arena_allocs + arena_reuses",
            )),
        },
        Row {
            metric: "netsim.rng.ns_per_draw",
            unit_ns: probes::rng_ns_per_draw(&p),
            count: None,
        },
        Row {
            metric: "netsim.audit.ns_per_check",
            unit_ns: probes::audit_ns_per_check(&p),
            count: Some((f["audit_checks"], "FleetReport.audit.checks")),
        },
        telemetry_row(&p, tel),
        Row {
            metric: "stack.egress.pace_replay_ns",
            unit_ns: probes::pace_replay_ns(&p, EgressLabels::FLEET, &fleet_delay_policy(), gap),
            count: Some((replayed, "telemetry stack.replay.pkts")),
        },
        Row {
            metric: "stack.egress.packet_ip_size_ns",
            unit_ns: probes::packet_ip_size_ns(&p, EgressLabels::FLEET, &split, (80, 1460)),
            count: None,
        },
        Row {
            metric: "stob.registry.resolve_ns",
            unit_ns: probes::registry_resolve_ns(&p, &w.registry, w.cfg.sites),
            count: Some((resolutions, "telemetry stob.registry.resolutions")),
        },
        Row {
            metric: "stob.sockopt.assemble_ns",
            unit_ns: probes::sockopt_assemble_ns(&p, &fleet_delay_policy()),
            count: None,
        },
    ];
    let explained = l.reconcile(host_ns, rows);
    l.set("stob.fleet.explained_share", explained / host_ns);
    l.set("stob.fleet.self_ns_per_pkt", (host_ns - explained) / pkts);
    Ok(())
}

/// `defend_suite`: one unit cost per cell from its span, plus the egress
/// stages the Stack cells cross.
pub fn defend(t: &Traced, l: &mut Layers) -> Result<(), String> {
    let p = t.prober();
    let tel = t.telemetry;
    let host_ns = t.host_ns();
    let input_pkts = t.out.facts["input_pkts"];
    let cell_ns = |row: usize, placement: Placement| {
        t.spans
            .all()
            .iter()
            .find(|s| s.name == "defenses.cell" && s.request == defend_cell_id(row, placement))
            .map(|s| s.duration_ns() as f64 / input_pkts)
            .ok_or_else(|| format!("defend_suite: no span for cell {row}/{}", placement.name()))
    };
    let (mut emulate, mut enforce, mut machine) = (Vec::new(), Vec::new(), Vec::new());
    for (row, kind) in DefenseKind::WITH_MACHINES.iter().enumerate() {
        let (app, stack) = (
            cell_ns(row, Placement::App)?,
            cell_ns(row, Placement::Stack)?,
        );
        l.set(&format!("defenses.{}.emulate_ns_per_pkt", kind.key()), app);
        l.set(
            &format!("defenses.{}.enforce_ns_per_pkt", kind.key()),
            stack,
        );
        emulate.push(app);
        enforce.push(stack);
        if DefenseKind::MACHINES.contains(kind) {
            machine.extend([app, stack]);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    l.set("stob.defense.emulate_ns_per_pkt", mean(&emulate));
    l.set("stob.defense.enforce_ns_per_pkt", mean(&enforce));
    l.set("stob.machine.ns_per_pkt", mean(&machine));

    let replayed = l.telemetry(tel, "stack.replay.pkts");
    let rows = vec![
        telemetry_row(&p, tel),
        Row {
            metric: "stack.egress.pace_replay_ns",
            unit_ns: probes::pace_replay_ns(
                &p,
                EgressLabels::REPLAY,
                &section3_policy(CounterMeasure::Delayed),
                (10_000, 300_000),
            ),
            count: Some((replayed, "telemetry stack.replay.pkts")),
        },
        Row {
            metric: "stack.egress.packet_ip_size_ns",
            unit_ns: probes::packet_ip_size_ns(
                &p,
                EgressLabels::REPLAY,
                &section3_policy(CounterMeasure::Split),
                (66, 1514),
            ),
            count: None,
        },
    ];
    l.reconcile(host_ns, rows);
    Ok(())
}

/// `page_collect` (`page`) and `bulk_shaped`: the real stack's layers
/// against the host time of `stack::net`.
pub fn stack_net(page: bool, t: &Traced, l: &mut Layers) -> Result<(), String> {
    let p = t.prober();
    let tel = t.telemetry;
    let host_ns = t.host_ns();
    let name = if page { "page_collect" } else { "bulk_shaped" };
    let pkts = l.measured["stack.nic.packets_tx"];
    let events = l.measured["stack.net.events"];
    let segments = l.measured["stack.egress.segments"];
    if pkts == 0.0 || events == 0.0 {
        return Err(format!(
            "{name}: telemetry counted no stack events or packets"
        ));
    }
    let nic_segs = l.telemetry(tel, "stack.nic.segments_tx");
    let queued =
        l.telemetry(tel, "stack.qdisc.enqueued") + l.telemetry(tel, "stack.qdisc.enqueued_prio");
    let pkts_per_seg = (pkts / nic_segs.max(1.0)).round().max(1.0) as u32;
    l.set("stack.net.ns_per_event", host_ns / events);
    l.set("stack.net.ns_per_pkt", host_ns / pkts);

    // Access NICs and six browser connections for page loads;
    // one bulk flow on 100 GbE, shaped at alpha = 40, for Figure 3.
    let (nic_bps, flows, per_capture) = if page {
        (10_000_000_000, 6, 2_048)
    } else {
        (100_000_000_000, 1, 1 << 20)
    };
    let shaper = (!page).then(|| {
        Box::new(SafetyCap::new(IncrementalReduce::with_alpha(40))) as stack::shaper::BoxShaper
    });
    let mut rows = vec![
        Row {
            metric: "netsim.event.ns_per_op.small",
            unit_ns: probes::event_ns_per_op(&p, 32, (1_000, 100_000)),
            count: Some((events, "telemetry stack.net.events")),
        },
        Row {
            metric: "netsim.link.ns_per_pkt",
            unit_ns: probes::link_ns_per_pkt(&p),
            count: Some((
                pkts,
                "telemetry stack.nic.packets_tx (one path link per packet)",
            )),
        },
        Row {
            metric: "netsim.capture.ns_per_pkt",
            unit_ns: probes::capture_ns_per_pkt(&p, per_capture),
            count: Some((
                pkts,
                "telemetry stack.nic.packets_tx (client vantage sees each)",
            )),
        },
        telemetry_row(&p, tel),
        Row {
            metric: "stack.egress.pace_segment_ns",
            unit_ns: probes::pace_segment_ns(&p, shaper, pkts_per_seg),
            count: Some((segments, "telemetry stack.egress.segments")),
        },
        Row {
            metric: "stack.tcp.shuttle_ns_per_pkt",
            unit_ns: probes::tcp_shuttle_ns_per_pkt(&p),
            count: Some((pkts, "telemetry stack.nic.packets_tx")),
        },
        Row {
            metric: "stack.qdisc.ns_per_seg",
            unit_ns: probes::qdisc_ns_per_seg(&p, flows, pkts_per_seg),
            count: Some((queued, "telemetry stack.qdisc.enqueued + enqueued_prio")),
        },
        Row {
            metric: "stack.nic.ns_per_seg",
            unit_ns: probes::nic_ns_per_seg(&p, nic_bps, pkts_per_seg),
            count: Some((nic_segs, "telemetry stack.nic.segments_tx")),
        },
    ];
    if page {
        rows.push(Row {
            metric: "stack.tls.ns_per_record",
            unit_ns: probes::tls_ns_per_record(&p),
            count: None,
        });
    }
    let explained = l.reconcile(host_ns, rows);
    l.set("stack.net.explained_share", explained / host_ns);
    l.set("stack.net.self_ns_per_pkt", (host_ns - explained) / pkts);

    if page {
        let visit_ms: Vec<f64> = t
            .spans
            .durations_ns("traces.loader.load_page")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        l.set("traces.loader.visit_ms_p50", median(&visit_ms));
        // p95 at full size (540 visits leave 27 beyond it); a smaller
        // sample reports the highest percentile it supports.
        let tail = highest_supported_percentile(visit_ms.len()).map_or(50.0, |p| p.min(95.0));
        l.set("traces.loader.visit_ms_p95", percentile(&visit_ms, tail));
        l.set(
            "traces.sanitize.ns_per_trace",
            t.spans.total_ns("traces.sanitize") / visit_ms.len() as f64,
        );
        let quic = LoaderConfig {
            transport: TransportKind::Quic,
            ..LoaderConfig::default()
        };
        let recovery = LoaderConfig {
            recovery: Some(RecoveryConfig::default()),
            ..LoaderConfig::default()
        };
        for (metric, cfg) in [
            ("traces.loader.quic_visit_ms_p50", quic),
            ("traces.loader.recovery_visit_ms_p50", recovery),
        ] {
            l.set(
                metric,
                side_visit_ms_p50(t.scale.side_visits, t.seed, &cfg)?,
            );
        }
    }
    Ok(())
}

/// `wf_table2`: feature, fit and predict unit costs, and the stage shares
/// of one cell.
pub fn table2(w: &WfTable2, t: &Traced, l: &mut Layers) -> Result<(), String> {
    let p = t.prober();
    let tel = t.telemetry;
    let host_ns = t.host_ns();
    let corpus = &w.dataset.traces;
    let x = extract_all(corpus, &FeatureConfig::paper());
    let y: Vec<usize> = corpus.iter().map(|t| t.label).collect();
    let classes = w.dataset.n_classes();
    let fcfg = ForestConfig {
        n_trees: w.cfg.trees,
        ..ForestConfig::default()
    };
    let forest = Forest::fit(&x, &y, classes, &fcfg, &mut SimRng::new(t.seed));
    let rows = vec![
        telemetry_row(&p, tel),
        Row {
            metric: "wf.features.ns_per_trace",
            unit_ns: probes::features_ns_per_trace(&p, corpus),
            count: None,
        },
        Row {
            metric: "wf.forest.predict_ns_per_sample",
            unit_ns: probes::forest_predict_ns_per_sample(&p, &forest, &x),
            count: None,
        },
    ];
    l.reconcile(host_ns, rows);
    l.set(
        "wf.forest.fit_tree_samples_per_s",
        probes::forest_fit_tree_samples_per_s(&p, &x, &y, classes, &fcfg),
    );
    staged_cell(l, w, t.out.facts["original_all"])?;
    Ok(())
}

/// `mux_replay`: datagram cost with and without FEC, and the netsim
/// layers under the legs.
pub fn mux(w: &MuxReplay, t: &Traced, l: &mut Layers) -> Result<(), String> {
    let p = t.prober();
    let tel = t.telemetry;
    let host_ns = t.host_ns();
    l.telemetry_counts(tel, &["stack.mux.tx_pkts", "stack.mux.parity_pkts"]);
    let datagrams = t.out.facts["merged_datagrams"];
    l.set("stack.mux.ns_per_datagram", host_ns / datagrams);

    // The same replays without FEC price the parity path.
    let mut plain_s = Vec::new();
    for _ in 0..3 {
        plain_s.push(w.replay_all(None, &mut Spans::off(), &mut Gauge::off())?
                .host_s);
    }
    l.set(
        "stack.mux.fec_ns_per_datagram",
        (t.host_s - median(&plain_s)) * 1e9 / datagrams,
    );

    let events = l.measured["stack.net.events"];
    let pkts = l.measured["stack.nic.packets_tx"];
    let rows = vec![
        Row {
            metric: "netsim.event.ns_per_op.small",
            unit_ns: probes::event_ns_per_op(&p, 32, (1_000, 100_000)),
            count: Some((events, "telemetry stack.net.events")),
        },
        Row {
            metric: "netsim.link.ns_per_pkt",
            unit_ns: probes::link_ns_per_pkt(&p),
            count: Some((
                pkts,
                "telemetry stack.nic.packets_tx (one leg link per packet)",
            )),
        },
        Row {
            metric: "netsim.capture.ns_per_pkt",
            unit_ns: probes::capture_ns_per_pkt(&p, 4_096),
            count: Some((
                pkts,
                "telemetry stack.nic.packets_tx (client vantage sees each)",
            )),
        },
        telemetry_row(&p, tel),
    ];
    l.reconcile(host_ns, rows);
    Ok(())
}

/// Median host ms of `visits` page loads per site under `cfg`, each
/// required to complete.
fn side_visit_ms_p50(visits: usize, seed: u64, cfg: &LoaderConfig) -> Result<f64, String> {
    let mut spans = Spans::on();
    for (label, site) in paper_sites().iter().enumerate() {
        for v in 0..visits {
            let out = spans.scope("traces.loader.load_page", 0, |_| {
                load_page(site, label, v, seed, cfg)
            });
            if !out.complete {
                return Err(format!(
                    "page_collect: {:?} visit {label}/{v} did not complete",
                    cfg.transport
                ));
            }
        }
    }
    let ms: Vec<f64> = spans
        .durations_ns("traces.loader.load_page")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    Ok(median(&ms))
}

/// Re-run the Original/All cell of Table 2 stage by stage
/// (`apply_all` → `extract_all` → per repeat `stratified_split` →
/// `Forest::fit` → `predict_rows`), check it reproduces `evaluate`'s
/// accuracy, and report each stage's share of the cell's self time.
fn staged_cell(l: &mut Layers, w: &WfTable2, want_mean: f64) -> Result<(), String> {
    let (cm, n) = (CounterMeasure::Original, 0usize);
    let em = EmulateConfig {
        first_n: n,
        ..EmulateConfig::default()
    };
    let root = SimRng::new(w.cfg.seed).fork(n as u64).fork(cm as u64);
    let eval = wf::EvalConfig {
        forest: ForestConfig {
            n_trees: w.cfg.trees,
            ..ForestConfig::default()
        },
        repeats: w.cfg.repeats,
        seed: w.cfg.seed,
        ..wf::EvalConfig::default()
    };
    let mut spans = Spans::on();
    let mean = spans.scope("wf.cell", 0, |s| {
        let rows = s.scope("wf.cell.emulate", 0, |_| {
            emulate::apply_all(cm, &w.dataset.traces, &em, &root)
        });
        let view = Dataset::new(
            rows.into_iter().map(|d| d.trace).collect(),
            w.dataset.class_names.clone(),
        )
        .truncated(n);
        let features = s.scope("wf.cell.features", 0, |_| {
            extract_all(&view.traces, &eval.features)
        });
        let labels: Vec<usize> = view.traces.iter().map(|t| t.label).collect();
        let classes = view.n_classes();
        let mut scores = Vec::new();
        for r in 0..eval.repeats {
            let mut rng = SimRng::new(eval.seed).fork(r as u64 + 1);
            let (train, test) = view.stratified_split(eval.test_frac, &mut rng);
            let x_train: Vec<Vec<f64>> = train.iter().map(|&i| features[i].clone()).collect();
            let y_train: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
            let forest = s.scope("wf.cell.fit", r as u64, |_| {
                Forest::fit(&x_train, &y_train, classes, &eval.forest, &mut rng)
            });
            let rows: Vec<&[f64]> = test.iter().map(|&i| features[i].as_slice()).collect();
            let pred = s.scope("wf.cell.predict", r as u64, |_| forest.predict_rows(&rows));
            let truth: Vec<usize> = test.iter().map(|&i| labels[i]).collect();
            scores.push(wf::accuracy(&pred, &truth));
        }
        wf::metrics::mean_std(&scores).0
    });
    if (mean - want_mean).abs() > 1e-12 {
        return Err(format!(
            "wf_table2: staged Original/All accuracy {mean} differs from evaluate's {want_mean}"
        ));
    }
    let total = spans.total_ns("wf.cell");
    for (metric, span) in [
        ("wf.eval.features_share", "wf.cell.features"),
        ("wf.eval.fit_share", "wf.cell.fit"),
        ("wf.eval.predict_share", "wf.cell.predict"),
    ] {
        l.set(metric, spans.self_total_ns(span) / total);
    }
    Ok(())
}
