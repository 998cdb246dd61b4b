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
use traces::loader::{collect, LoaderConfig};
use traces::sanitize::sanitize;
use traces::sites::paper_sites;
use traces::Dataset;
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
    let per_site: Vec<(Vec<traces::Trace>, Vec<bool>)> = outcomes
        .into_iter()
        .map(|site_outcomes| {
            let complete: Vec<bool> = site_outcomes.iter().map(|o| o.complete).collect();
            let traces: Vec<traces::Trace> = site_outcomes.into_iter().map(|o| o.trace).collect();
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
/// if it names one (`build` runs only then). `timings`, when the bin has
/// them, ride along as a `timings` member unless `STOB_JSON_NO_TIMINGS`
/// is switched on (any [`netsim::env::flag`] spelling): the golden
/// byte-compare in CI needs a file that is a pure function of (inputs,
/// seed). An unwritable path is reported on stderr, not fatal.
pub fn write_json_out(bin: &str, timings: Option<&Timings>, build: impl FnOnce() -> netsim::Json) {
    let Some(path) = netsim::env::string("STOB_JSON_OUT") else {
        return;
    };
    let mut json = build();
    if let Some(t) = timings.filter(|_| !netsim::env::flag("STOB_JSON_NO_TIMINGS", false)) {
        json = json.set("timings", t.to_json());
    }
    match std::fs::write(&path, json.to_string_pretty()) {
        Ok(()) => eprintln!("[{bin}] wrote {path}"),
        Err(e) => eprintln!("[{bin}] could not write {path}: {e}"),
    }
}

/// As [`run_table2`], but also returning per-stage wall-clock timings
/// (accumulated across the 16 cells) for the bench JSON output.
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
            let rows = defenses::defend_all(
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

/// The implemented defenses in Table 1 order.
const OVERHEAD_SYSTEMS: [&str; 8] = [
    "Split (this paper)",
    "Delayed (this paper)",
    "Combined (this paper)",
    "FRONT",
    "WTF-PAD",
    "RegulaTor",
    "Tamaraw",
    "BuFLO",
];

/// Apply one Table 1 defense (by [`OVERHEAD_SYSTEMS`] index) to a trace.
fn apply_overhead_system(
    idx: usize,
    t: &traces::Trace,
    em: &EmulateConfig,
    rng: &mut SimRng,
) -> Defended {
    match idx {
        0 => emulate::apply(CounterMeasure::Split, t, em, rng),
        1 => emulate::apply(CounterMeasure::Delayed, t, em, rng),
        2 => emulate::apply(CounterMeasure::Combined, t, em, rng),
        3 => defenses::front::front(t, &Default::default(), rng),
        4 => defenses::wtfpad::wtfpad(t, &Default::default(), rng),
        5 => defenses::regulator::regulator(t, &Default::default()),
        6 => defenses::buflo::tamaraw(t, &Default::default()),
        7 => defenses::buflo::buflo(t, &Default::default()),
        _ => unreachable!("unknown overhead system"),
    }
}

/// Apply every implemented defense to a corpus and average overheads.
///
/// The per-trace fan-out runs on the parallel driver: randomness is
/// forked per (defense, trace index), never drawn from a shared stream,
/// so the averages are thread-count independent.
pub fn run_overheads(dataset: &Dataset, seed: u64) -> Vec<OverheadRow> {
    let root = SimRng::new(seed);
    let em = EmulateConfig::default();
    let mut rows = Vec::new();
    for (di, name) in OVERHEAD_SYSTEMS.iter().copied().enumerate() {
        let defense_root = root.fork(di as u64 + 1);
        let per_trace = par::par_map(&dataset.traces, |i, t| {
            let mut rng = defense_root.fork(i as u64 + 1);
            let d = apply_overhead_system(di, t, &em, &mut rng);
            (bandwidth_overhead(t, &d), latency_overhead(t, &d))
        });
        let n = dataset.len() as f64;
        rows.push(OverheadRow {
            system: name,
            bandwidth: per_trace.iter().map(|p| p.0).sum::<f64>() / n,
            latency: per_trace.iter().map(|p| p.1).sum::<f64>() / n,
        });
    }
    rows
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
