//! # stob-bench — the experiment harness
//!
//! One function per paper artifact, shared between the regeneration
//! binaries (`table1`, `table2`, `figure3`) and the integration tests:
//!
//! * [`collect_dataset`] — the §3 data-collection pipeline: simulate
//!   visits to the nine sites through the full stack, sanitize
//!   (connection errors + IQR), balance classes.
//! * [`run_table2`] — the 16-dataset censorship grid: countermeasure ×
//!   prefix length, k-FP random-forest accuracy, mean ± std.
//! * [`run_figure3`] — single-flow iperf3-style goodput over the
//!   100 Gb/s lab path while `IncrementalReduce(alpha)` shapes the
//!   sender, swept over alpha.
//! * [`run_overheads`] — the taxonomy with *measured* bandwidth/latency
//!   overheads for every implemented defense.

pub mod multipath;
pub mod suite;

use defenses::defend_all;
use defenses::emulate::{self, CounterMeasure, EmulateConfig, Section3Defense};
use defenses::overhead::{bandwidth_overhead, latency_overhead, Defended};
use netsim::par::{self, Timings};
use netsim::{FlowId, Nanos, SimRng};
use stack::apps::{BulkSender, ShapedSender, Sink};
use stack::net::{Network, SERVER};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::defense::Placement;
use stob::safety::SafetyCap;
use stob::strategies::IncrementalReduce;
use suite::DefenseKind;
use traces::loader::{collect, LoaderConfig};
use traces::sanitize::sanitize;
use traces::sites::paper_sites;
use traces::{Dataset, Trace};
use wf::eval::{evaluate, EvalConfig};
use wf::forest::ForestConfig;

// ---------------------------------------------------------------------
// Data collection (§3)
// ---------------------------------------------------------------------

/// Summary of the collection + sanitization stage.
#[derive(Debug)]
pub struct CollectionSummary {
    pub dataset: Dataset,
    pub per_class: usize,
    pub dropped_errors: usize,
    pub dropped_outliers: usize,
}

/// Simulate `visits` page loads per site for all nine paper sites and
/// sanitize exactly as §3 describes.
pub fn collect_dataset(visits: usize, seed: u64) -> CollectionSummary {
    let sites = paper_sites();
    let cfg = LoaderConfig::default();
    let outcomes = collect(&sites, visits, seed, &cfg);
    let per_site: Vec<(Vec<Trace>, Vec<bool>)> = outcomes
        .into_iter()
        .map(|site_outcomes| {
            let complete: Vec<bool> = site_outcomes.iter().map(|o| o.complete).collect();
            let traces: Vec<Trace> = site_outcomes.into_iter().map(|o| o.trace).collect();
            (traces, complete)
        })
        .collect();
    let (balanced, reports, per_class) = sanitize(per_site);
    let names = sites.iter().map(|s| s.name.to_string()).collect();
    CollectionSummary {
        dataset: Dataset::new(balanced, names),
        per_class,
        dropped_errors: reports.iter().map(|r| r.dropped_errors).sum(),
        dropped_outliers: reports.iter().map(|r| r.dropped_outliers).sum(),
    }
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One cell of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    pub countermeasure: CounterMeasure,
    /// Prefix length (0 = All).
    pub n: usize,
    pub mean: f64,
    pub std: f64,
}

/// Table 2 knobs.
#[derive(Debug, Clone, Copy)]
pub struct Table2Config {
    pub trees: usize,
    pub repeats: usize,
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            trees: 100,
            repeats: 5,
            seed: 0x7AB1E2,
        }
    }
}

/// Run the 16-dataset grid on a collected dataset.
pub fn run_table2(dataset: &Dataset, cfg: &Table2Config) -> Vec<Table2Cell> {
    run_table2_timed(dataset, cfg).0
}

/// Which backend the benchmarks route defenses through, from the
/// `STOB_PLACEMENT` env var: unset or `app` = trace-level emulation
/// (the paper's methodology; byte-identical to the golden outputs),
/// `stack` = the same specs lowered into the in-stack shaper path.
/// Case-insensitive; anything else warns once and means `app`.
pub fn placement_from_env() -> Placement {
    netsim::env::parse("STOB_PLACEMENT").unwrap_or(Placement::App)
}

/// Dump a bin's results as pretty JSON to the file `STOB_JSON_OUT` names,
/// if it names one (`build` runs only then). The file is a pure function
/// of (inputs, seed) — wall-clock timings go to stderr, never in here —
/// so CI byte-compares it against a committed golden at any thread
/// count. An unwritable path is reported on stderr, not fatal.
pub fn write_json_out(bin: &str, build: impl FnOnce() -> netsim::Json) {
    let Some(path) = netsim::env::string("STOB_JSON_OUT") else {
        return;
    };
    match std::fs::write(&path, build().to_string_pretty()) {
        Ok(()) => eprintln!("[{bin}] wrote {path}"),
        Err(e) => eprintln!("[{bin}] could not write {path}: {e}"),
    }
}

/// The prelude the telemetry-aware bins (`table2`, `figure3`,
/// `fault_matrix`, `chaos`) share.
pub mod cli {
    /// The process arguments with every `--telemetry` stripped, and
    /// whether the metrics summary was asked for (by that flag or
    /// `STOB_TELEMETRY`).
    pub fn args() -> (Vec<String>, bool) {
        let mut want_telemetry = netsim::telemetry::summary_enabled();
        let args = std::env::args()
            .filter(|a| {
                let flag = a == "--telemetry";
                want_telemetry |= flag;
                !flag
            })
            .collect();
        (args, want_telemetry)
    }

    /// The deterministic metrics summary on stdout, the wall-clock
    /// self-profile on stderr.
    pub fn print_telemetry() {
        println!("\n{}", netsim::telemetry::metrics_summary());
        eprintln!("{}", netsim::telemetry::wall_profile_summary());
    }
}

/// As [`run_table2`], but also returning per-stage wall-clock timings
/// (accumulated across the 16 cells) for the bin's stderr line.
pub fn run_table2_timed(dataset: &Dataset, cfg: &Table2Config) -> (Vec<Table2Cell>, Timings) {
    let eval_cfg = EvalConfig {
        forest: ForestConfig {
            n_trees: cfg.trees,
            ..ForestConfig::default()
        },
        repeats: cfg.repeats,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    let placement = placement_from_env();
    let mut out = Vec::new();
    let mut timings = Timings::new();
    for (cm, n) in emulate::section3_grid() {
        // Defense applied to the first n packets (whole trace when 0),
        // then the attacker sees the first n packets of the result.
        let em = EmulateConfig {
            first_n: n,
            ..EmulateConfig::default()
        };
        // Per-cell root rng, forked per trace by `defend_all`, so the
        // cell's emulation is deterministic at any thread count (the
        // seed argument only reaches the stack backend's shaper).
        let root = SimRng::new(cfg.seed).fork(n as u64).fork(cm as u64);
        let defended = timings.time("emulate", || {
            let rows = defend_all(
                &Section3Defense::new(cm, em),
                placement,
                &dataset.traces,
                None,
                &root,
                cfg.seed ^ ((n as u64) << 32) ^ cm as u64,
            );
            Dataset::new(
                rows.into_iter().map(|d| d.trace).collect(),
                dataset.class_names.clone(),
            )
        });
        let view = defended.truncated(n);
        let r = timings.time("evaluate", || evaluate(&view, &eval_cfg));
        out.push(Table2Cell {
            countermeasure: cm,
            n,
            mean: r.mean,
            std: r.std,
        });
    }
    (out, timings)
}

/// Render Table 2 in the paper's layout.
pub fn format_table2(cells: &[Table2Cell]) -> String {
    let mut s = String::new();
    s.push_str("| N   | Original      | Split         | Delayed       | Combined      |\n");
    s.push_str("|-----|---------------|---------------|---------------|---------------|\n");
    for n in [15usize, 30, 45, 0] {
        let label = if n == 0 {
            "All".to_string()
        } else {
            n.to_string()
        };
        s.push_str(&format!("| {label:<3} |"));
        for cm in CounterMeasure::all() {
            let cell = cells
                .iter()
                .find(|c| c.countermeasure == cm && c.n == n)
                .expect("grid complete");
            s.push_str(&format!(" {:.3} \u{00B1} {:.3} |", cell.mean, cell.std));
        }
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// One Figure 3 point.
#[derive(Debug, Clone, Copy)]
pub struct Figure3Point {
    pub alpha: u32,
    pub goodput_gbps: f64,
}

/// Measure single-flow goodput with `IncrementalReduce(alpha)` shaping
/// the sender over the 100 Gb/s lab path.
pub fn figure3_point(alpha: u32, measure: Nanos, seed: u64) -> Figure3Point {
    figure3_run(alpha, measure, seed, None)
}

/// [`figure3_point`] with a flow-trace attached: returns the point plus
/// every shaping decision (TSO resegmentation, packet resize, pacing
/// delay, qdisc release, NIC burst) the stack made during the run.
pub fn figure3_point_traced(
    alpha: u32,
    measure: Nanos,
    seed: u64,
    trace_cap: usize,
) -> (Figure3Point, Vec<netsim::telemetry::FlowEvent>) {
    let tracer = netsim::telemetry::Tracer::new(trace_cap);
    let p = figure3_run(alpha, measure, seed, Some(tracer.clone()));
    (p, tracer.take().into_events())
}

fn figure3_run(
    alpha: u32,
    measure: Nanos,
    seed: u64,
    tracer: Option<netsim::telemetry::Tracer>,
) -> Figure3Point {
    let host = HostConfig::default(); // calibrated CPU model, 100 GbE NIC
    let stack_cfg = StackConfig::default();
    let shaper = SafetyCap::new(IncrementalReduce::with_alpha(alpha));
    let sender = ShapedSender::new(BulkSender::endless(), stack_cfg, Some(Box::new(shaper)));
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::lab_100g(),
        Box::new(sender),
        Box::new(Sink::default()),
        seed,
    );
    if let Some(tr) = tracer {
        net.set_tracer(tr);
    }
    // Warm up past slow start, then measure a steady-state window.
    let warmup = Nanos::from_millis(30);
    net.run_until(warmup);
    let base = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0);
    net.run_until(warmup + measure);
    let bytes = net
        .flow_stats(SERVER, FlowId(1))
        .map(|s| s.bytes_delivered)
        .unwrap_or(0)
        - base;
    Figure3Point {
        alpha,
        goodput_gbps: bytes as f64 * 8.0 / measure.as_secs_f64() / 1e9,
    }
}

/// Sweep alpha as in Figure 3. Each point simulates an independent
/// network (pure function of its inputs), so the sweep fans out across
/// threads without affecting results.
pub fn run_figure3(alphas: &[u32], measure: Nanos, seed: u64) -> Vec<Figure3Point> {
    par::par_map(alphas, |_, &a| figure3_point(a, measure, seed))
}

/// [`run_figure3`] with a bounded flow trace per point. Events are
/// concatenated in alpha order, so the combined trace is bit-identical
/// at any thread count (each point's simulation is independent and its
/// tracer is private to that point).
pub fn run_figure3_traced(
    alphas: &[u32],
    measure: Nanos,
    seed: u64,
    trace_cap: usize,
) -> (Vec<Figure3Point>, Vec<netsim::telemetry::FlowEvent>) {
    let results = par::par_map(alphas, |_, &a| {
        figure3_point_traced(a, measure, seed, trace_cap)
    });
    let mut points = Vec::with_capacity(results.len());
    let mut events = Vec::new();
    for (p, evs) in results {
        points.push(p);
        events.extend(evs);
    }
    (points, events)
}

// ---------------------------------------------------------------------
// Table 1 (taxonomy + measured overheads)
// ---------------------------------------------------------------------

/// Measured overhead for one implemented defense.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    pub system: &'static str,
    pub bandwidth: f64,
    pub latency: f64,
}

/// The implemented defenses in Table 1 order, under the names the table
/// prints.
const OVERHEAD_SYSTEMS: [(&str, DefenseKind); 8] = [
    ("Split (this paper)", DefenseKind::Split),
    ("Delayed (this paper)", DefenseKind::Delayed),
    ("Combined (this paper)", DefenseKind::Combined),
    ("FRONT", DefenseKind::Front),
    ("WTF-PAD", DefenseKind::WtfPad),
    ("RegulaTor", DefenseKind::Regulator),
    ("Tamaraw", DefenseKind::Tamaraw),
    ("BuFLO", DefenseKind::Buflo),
];

/// The robustness harnesses' defense sample (`fault_matrix`, `chaos`):
/// none, a padding defense, a rate-shaping defense and a regularizing
/// defense — one representative per family, under the labels their
/// reports carry.
pub const FAULT_SAMPLE: [(&str, DefenseKind); 4] = [
    ("none", DefenseKind::None),
    ("FRONT", DefenseKind::Front),
    ("RegulaTor", DefenseKind::Regulator),
    ("BuFLO", DefenseKind::Buflo),
];

/// Mean `(bandwidth, latency)` overhead of one suite row over `traces`,
/// as fractions: the row's spec through [`defend_all`] at the app
/// placement, trace `i` drawing from `root.fork(i + 1)`, so the means are
/// thread-count independent.
pub fn mean_overheads(kind: DefenseKind, traces: &[Trace], root: &SimRng) -> (f64, f64) {
    let rows = defend_all(kind.spec().as_ref(), Placement::App, traces, None, root, 0);
    let mean = |overhead: fn(&Trace, &Defended) -> f64| {
        let sum: f64 = traces.iter().zip(&rows).map(|(t, d)| overhead(t, d)).sum();
        sum / traces.len().max(1) as f64
    };
    (mean(bandwidth_overhead), mean(latency_overhead))
}

/// Apply every implemented defense to a corpus and average overheads,
/// each defense on its own fork of the seed.
pub fn run_overheads(dataset: &Dataset, seed: u64) -> Vec<OverheadRow> {
    let root = SimRng::new(seed);
    OVERHEAD_SYSTEMS
        .iter()
        .zip(1..)
        .map(|(&(system, kind), di)| {
            let (bandwidth, latency) = mean_overheads(kind, &dataset.traces, &root.fork(di));
            OverheadRow {
                system,
                bandwidth,
                latency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::statgen::generate_corpus;

    fn quick_dataset() -> Dataset {
        let sites: Vec<_> = paper_sites().into_iter().take(4).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, 15, 3), names)
    }

    /// The pure half of [`placement_from_env`]: `STOB_PLACEMENT=Stack`
    /// used to mean app, silently.
    #[test]
    fn placement_knob_parses_case_insensitively_or_falls_back() {
        let knob = |raw| netsim::env::parse_value::<Placement>("STOB_PLACEMENT", raw);
        assert_eq!(knob(Some("stack")), Some(Placement::Stack));
        assert_eq!(knob(Some(" Stack ")), Some(Placement::Stack));
        assert_eq!(knob(Some("APP")), Some(Placement::App));
        assert_eq!(knob(Some("kernel")), None);
        assert_eq!(knob(Some("")), None);
        assert_eq!(knob(None), None);
    }

    #[test]
    fn table2_grid_has_16_cells_and_sane_accuracies() {
        let d = quick_dataset();
        let cfg = Table2Config {
            trees: 25,
            repeats: 2,
            seed: 1,
        };
        let cells = run_table2(&d, &cfg);
        assert_eq!(cells.len(), 16);
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.mean), "{c:?}");
            assert!(c.std >= 0.0);
        }
        // Accuracy grows with N for the undefended traces.
        let acc = |n: usize| {
            cells
                .iter()
                .find(|c| c.countermeasure == CounterMeasure::Original && c.n == n)
                .expect("cell")
                .mean
        };
        assert!(
            acc(0) + 0.05 >= acc(15),
            "full-trace accuracy {} should not trail N=15 {}",
            acc(0),
            acc(15)
        );
    }

    #[test]
    fn table2_formatting_contains_all_rows() {
        let d = quick_dataset();
        let cfg = Table2Config {
            trees: 10,
            repeats: 2,
            seed: 2,
        };
        let s = format_table2(&run_table2(&d, &cfg));
        for row in ["| 15 ", "| 30 ", "| 45 ", "| All"] {
            assert!(s.contains(row), "missing row {row} in:\n{s}");
        }
    }

    #[test]
    fn figure3_alpha_zero_hits_calibrated_band() {
        let p = figure3_point(0, Nanos::from_millis(30), 1);
        assert!(
            (30.0..60.0).contains(&p.goodput_gbps),
            "alpha=0 goodput {} Gb/s",
            p.goodput_gbps
        );
    }

    #[test]
    fn figure3_large_alpha_degrades_but_stays_usable() {
        let p0 = figure3_point(0, Nanos::from_millis(30), 1);
        let p40 = figure3_point(40, Nanos::from_millis(30), 1);
        assert!(
            p40.goodput_gbps < p0.goodput_gbps,
            "alpha=40 ({}) must be slower than alpha=0 ({})",
            p40.goodput_gbps,
            p0.goodput_gbps
        );
        // The paper's floor: "preserves 19.7 Gb/s or higher".
        assert!(
            p40.goodput_gbps > 15.0,
            "alpha=40 goodput {} collapsed",
            p40.goodput_gbps
        );
    }

    #[test]
    fn overhead_rows_rank_padding_above_timing() {
        let d = quick_dataset();
        let rows = run_overheads(&d, 5);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.system.starts_with(name))
                .unwrap_or_else(|| panic!("row {name}"))
                .bandwidth
        };
        // §2.3's cost ordering: timing-only ~ 0, split ~ header-only,
        // padding defenses >> both, BuFLO worst.
        assert!(get("Delayed").abs() < 0.01);
        assert!(get("Split") < 0.10);
        assert!(get("FRONT") > 0.15);
        assert!(get("BuFLO") > get("FRONT"));
        assert!(get("BuFLO") > get("RegulaTor"));
    }

    #[test]
    fn small_collection_pipeline_end_to_end() {
        // Tiny but real: 3 visits/site through the full stack.
        let summary = collect_dataset(3, 42);
        assert_eq!(summary.dataset.n_classes(), 9);
        assert!(summary.per_class >= 1, "sanitizer kept nothing");
        assert_eq!(
            summary.dataset.len(),
            summary.per_class * 9,
            "balanced classes"
        );
    }
}
