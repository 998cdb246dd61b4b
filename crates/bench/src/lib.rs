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
use netsim::telemetry::Tracer;
use netsim::{FaultStats, FlowId, Nanos, SimRng};
use stack::apps::{BulkSender, ShapedSender, Sink};
use stack::net::{Network, SERVER};
use stack::{HostConfig, PathConfig, Shaper, StackConfig};
use stob::defense::Placement;
use stob::safety::SafetyCap;
use stob::strategies::IncrementalReduce;
use suite::DefenseKind;
use traces::loader::{collect, load_page_supervised, LoaderConfig};
use traces::sanitize::sanitize;
use traces::sites::{paper_sites, SiteProfile};
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

/// Run the 16-dataset grid on a collected dataset, the defenses
/// emulated at the app layer (the paper's methodology).
pub fn run_table2(dataset: &Dataset, cfg: &Table2Config) -> Vec<Table2Cell> {
    run_table2_timed(dataset, cfg, Placement::App).0
}

/// Dump a bin's results as pretty JSON to the file `STOB_JSON_OUT` names,
/// if it names one (`build` runs only then). The file is a pure function
/// of (inputs, seed) — wall-clock timings go to stderr — so CI
/// byte-compares it against a committed golden at any thread count.
pub fn write_json_out(bin: &str, build: impl FnOnce() -> netsim::Json) {
    if let Some(path) = netsim::env::string("STOB_JSON_OUT") {
        write_out(bin, &path, &build().to_string_pretty());
    }
}

/// Write a bin's output file. A path that cannot be written is reported
/// on stderr and the bin exits 1: a caller that trusts the exit status
/// must not read a missing or stale file as this run's.
pub fn write_out(bin: &str, path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("[{bin}] could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[{bin}] wrote {path}");
}

/// The command line every bin reads through [`cli::Positional`]: the
/// flags its usage line declares, positional arguments and the `STOB_*`
/// environment, checked before any work starts.
pub mod cli {
    use netsim::env::parse_value;
    use std::str::FromStr;

    /// The environment knobs library code reads under every bin.
    const ENV_KNOBS: [&str; 2] = ["STOB_THREADS", "STOB_JSON_OUT"];

    /// Retired knobs and where each setting lives now.
    const RETIRED: [(&str, &str); 10] = [
        ("STOB_PLACEMENT", "`table2 --placement=<app|stack>`"),
        ("STOB_MUX_PIPES", "`multipath --pipes=<csv>`"),
        ("STOB_MUX_SPLITTER", "`multipath --splitter=<spec>`"),
        ("STOB_MUX_FEC", "`multipath --fec=<k>`"),
        ("STOB_FLEET_FLOWS", "`fleet --flows=<n>`"),
        ("STOB_FLEET_SHARDS", "`fleet --shards=<n>`"),
        ("STOB_FLEET_MACHINE", "`fleet --machine=<path>`"),
        ("STOB_TRACE_OUT", "`figure3 --trace-out=<path>`"),
        (
            "STOB_FAULTS",
            "`LoaderConfig::faults`, or the `fault_matrix` / `chaos` bins",
        ),
        ("STOB_AUDIT", "a debug build, or `Network::set_audit`"),
    ];

    /// The deterministic metrics summary on stdout, the wall-clock
    /// self-profile on stderr.
    pub fn print_telemetry() {
        println!("\n{}", netsim::telemetry::metrics_summary());
        eprintln!("{}", netsim::telemetry::wall_profile_summary());
    }

    /// A bin's command line, read against its usage line. A malformed
    /// or out-of-range value, a flag or an argument the usage line does
    /// not name, a `STOB_*` variable other than the two env knobs, or
    /// `STOB_THREADS` set to a value its library reader would fall back
    /// from prints that line and exits 2 before any work.
    pub struct Positional {
        args: Vec<String>,
        flags: Vec<String>,
        usage: &'static str,
    }

    impl Positional {
        /// The process arguments against `usage`, which names each boolean
        /// flag `[--flag]`, each valued one `[--flag=<what>]` and each
        /// positional `[name]`. Flags may stand anywhere.
        pub fn new(usage: &'static str) -> Positional {
            let (flags, args) = std::env::args().partition(|a| a.starts_with("--"));
            let p = Positional { args, flags, usage };
            for (key, _) in std::env::vars_os() {
                let key = key.to_string_lossy();
                if key.starts_with("STOB_") && !ENV_KNOBS.contains(&&*key) {
                    p.refuse(&match RETIRED.iter().find(|(k, _)| *k == key) {
                        Some((_, now)) => format!("{key} is no longer read; use {now}"),
                        None => format!("{key} is not an environment knob: {ENV_KNOBS:?}"),
                    });
                }
            }
            // Through the knob's own parser: a value library code would
            // warn about and fall back from is refused here instead.
            let threads = netsim::env::string("STOB_THREADS");
            let positive = |s: &str| parse_value::<usize>(Some(s)).filter(|&n| n > 0);
            p.read(
                "STOB_THREADS",
                threads.as_deref(),
                "a positive integer",
                positive,
            );
            for (i, f) in p.flags.iter().enumerate() {
                let name = f.split('=').next().unwrap_or_default();
                let twice = p.flags[..i]
                    .iter()
                    .any(|g| g.split('=').next() == Some(name));
                // `[--flag]` declares "", `[--flag=<what>]` declares "=<what>".
                let declared = usage.split_whitespace().find_map(|w| {
                    let rest = w.strip_prefix('[')?.strip_prefix(name)?.strip_suffix(']')?;
                    (rest.is_empty() || rest.starts_with('=')).then_some(rest)
                });
                p.refuse(&match declared {
                    _ if twice => format!("{name} given twice"),
                    None => format!("unexpected argument `{f}`"),
                    Some(d) if d.is_empty() == (f == name) => continue,
                    Some("") => format!("{name} takes no value, got `{f}`"),
                    Some(d) => format!("{name} needs a value: {name}{d}"),
                });
            }
            if let Some(extra) = p.args.get(p.names().count() + 1) {
                p.refuse(&format!("unexpected argument `{extra}`"));
            }
            p
        }

        /// Whether boolean `flag` was given.
        pub fn flag(&self, flag: &str) -> bool {
            self.flags.iter().any(|f| f == flag)
        }

        /// The value of `--flag=<what>` as `parse` reads it, or `None`
        /// when the flag is absent; a value `parse` refuses exits 2.
        pub fn value<T>(
            &self,
            flag: &str,
            want: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Option<T> {
            let raw = self
                .flags
                .iter()
                .find_map(|f| f.strip_prefix(flag)?.strip_prefix('='));
            self.read(flag, raw, want, parse)
        }

        /// Argument `i` (1 = the first after the program name) as a
        /// positive count, or `default` when it is absent.
        pub fn count(&self, i: usize, default: usize) -> usize {
            self.count_at_least(i, 1, default)
        }

        /// Argument `i` as a count of at least `floor`, or `default` when
        /// it is absent. A stratified split needs two traces of every
        /// class, one to train on and one to test.
        pub fn count_at_least(&self, i: usize, floor: usize, default: usize) -> usize {
            let n = self.get(i, "a positive integer", |s| {
                s.parse().ok().filter(|&n| n > 0)
            });
            match n {
                Some(n) if n < floor => {
                    let name = self.name(i);
                    self.refuse(&format!("{name} must be at least {floor}, got `{n}`"))
                }
                n => n.unwrap_or(default),
            }
        }

        /// Argument `i` as an unsigned integer (a seed, say; zero
        /// allowed), or `default` when it is absent.
        pub fn uint<T: FromStr>(&self, i: usize, default: T) -> T {
            self.get(i, "an unsigned integer", |s| s.parse().ok())
                .unwrap_or(default)
        }

        fn names(&self) -> impl Iterator<Item = &str> {
            self.usage
                .split_whitespace()
                .filter(|w| w.starts_with('[') && !w.starts_with("[-"))
                .map(|w| w.trim_matches(['[', ']']))
        }

        fn name(&self, i: usize) -> &str {
            self.names().nth(i - 1).unwrap_or("argument")
        }

        fn get<T>(&self, i: usize, want: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
            self.read(
                self.name(i),
                self.args.get(i).map(String::as_str),
                want,
                parse,
            )
        }

        /// The one parse-or-refuse path, for positionals, flag values and
        /// `STOB_THREADS`.
        fn read<T>(
            &self,
            name: &str,
            raw: Option<&str>,
            want: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Option<T> {
            let refuse = |s| self.refuse(&format!("{name} must be {want}, got `{s}`"));
            raw.map(|s| parse(s).unwrap_or_else(|| refuse(s)))
        }

        fn refuse(&self, why: &str) -> ! {
            let bin = self.usage.split_whitespace().next().unwrap_or_default();
            eprintln!("{bin}: {why}\nusage: {}", self.usage);
            std::process::exit(2)
        }
    }
}

/// As [`run_table2`], with the defenses at `placement` (`Stack` lowers
/// the same specs into the in-stack shaper path), also returning
/// per-stage wall-clock timings (accumulated across the 16 cells) for
/// the bin's stderr line.
pub fn run_table2_timed(
    dataset: &Dataset,
    cfg: &Table2Config,
    placement: Placement,
) -> (Vec<Table2Cell>, Timings) {
    let eval_cfg = EvalConfig {
        forest: ForestConfig { n_trees: cfg.trees },
        repeats: cfg.repeats,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    let mut out = Vec::new();
    let mut timings = Timings::new();
    for (cm, n) in emulate::section3_grid() {
        // Defense applied to the first n packets (whole trace when 0),
        // then the attacker sees the first n packets of the result.
        let em = EmulateConfig { first_n: n };
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

fn figure3_run(alpha: u32, measure: Nanos, seed: u64, tracer: Option<Tracer>) -> Figure3Point {
    let shaper = SafetyCap::new(IncrementalReduce::with_alpha(alpha));
    let goodput_gbps = bulk_goodput(
        StackConfig::default(),
        StackConfig::default(),
        Some(Box::new(shaper)),
        PathConfig::lab_100g(),
        measure,
        seed,
        tracer,
    );
    Figure3Point {
        alpha,
        goodput_gbps,
    }
}

/// Goodput in Gb/s of one endless bulk flow from the client, which sends
/// through `client` and `shaper`, to a sink on a server running `server`
/// (whose advertised window caps the sender), both on the calibrated
/// CPU model and a 100 GbE NIC. The flow warms up past slow start for
/// 30 ms, then is measured over `measure`. Figure 3 and the ablations
/// run this.
pub fn bulk_goodput(
    client: StackConfig,
    server: StackConfig,
    shaper: Option<Box<dyn Shaper>>,
    path: PathConfig,
    measure: Nanos,
    seed: u64,
    tracer: Option<Tracer>,
) -> f64 {
    let server_host = HostConfig {
        stack: server,
        ..HostConfig::default()
    };
    let mut net = Network::new(
        HostConfig::default(),
        server_host,
        path,
        Box::new(ShapedSender::new(BulkSender::endless(), client, shaper)),
        Box::new(Sink::default()),
        seed,
    );
    if let Some(tr) = tracer {
        net.set_tracer(tr);
    }
    let warmup = Nanos::from_millis(30);
    net.run_until(warmup);
    let delivered = |net: &Network| {
        net.flow_stats(SERVER, FlowId(1))
            .map_or(0, |s| s.bytes_delivered)
    };
    let base = delivered(&net);
    net.run_until(warmup + measure);
    let bytes = delivered(&net) - base;
    bytes as f64 * 8.0 / measure.as_secs_f64() / 1e9
}

/// Sweep alpha as in Figure 3, each point with a flow trace of at most
/// `trace_cap` events if one is asked for: every shaping decision (TSO
/// resegmentation, packet resize, pacing delay, qdisc release, NIC
/// burst) the stack made. Each point simulates an independent network
/// (pure function of its inputs) with its own tracer, so the sweep fans
/// out across threads without affecting results, and the events,
/// concatenated in alpha order, are bit-identical at any thread count.
pub fn run_figure3(
    alphas: &[u32],
    measure: Nanos,
    seed: u64,
    trace_cap: Option<usize>,
) -> (Vec<Figure3Point>, Vec<netsim::telemetry::FlowEvent>) {
    let results = par::par_map(alphas, |_, &a| {
        let tracer = trace_cap.map(Tracer::new);
        let p = figure3_run(a, measure, seed, tracer.clone());
        (p, tracer.map_or_else(Vec::new, |t| t.take().into_events()))
    });
    let (points, events): (_, Vec<_>) = results.into_iter().unzip();
    (points, events.concat())
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

/// What a site × visit soak of page loads added up to (`fault_matrix`,
/// `chaos`): each bin reports the fields it needs.
#[derive(Debug, Default)]
pub struct Soak {
    pub loads: usize,
    pub complete: usize,
    /// Visits that panicked inside the simulator (caught per visit).
    pub errors: usize,
    pub checks: u64,
    /// Every audit violation and visit panic, as text.
    pub violations: Vec<String>,
    pub faults: FaultStats,
    pub stalls: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub gave_up: u64,
    pub breaker_trips: u64,
    pub breaker_shed: u64,
    /// The traces of the visits that did not panic, in load order.
    pub traces: Vec<Trace>,
}

/// Load `visits` pages of each of `sites` under `cfg`, site by site,
/// each visit panic-contained by [`load_page_supervised`], and total
/// what the loads report: a panicking visit is an error and a violation,
/// not an abort of the caller's fan-out.
pub fn soak(sites: &[SiteProfile], visits: usize, seed: u64, cfg: &LoaderConfig) -> Soak {
    let mut s = Soak::default();
    for (label, site) in sites.iter().enumerate() {
        for visit in 0..visits {
            s.loads += 1;
            let out = match load_page_supervised(site, label, visit, seed, cfg) {
                Ok(out) => out,
                Err(e) => {
                    s.errors += 1;
                    s.violations.push(e.to_string());
                    continue;
                }
            };
            s.complete += usize::from(out.complete);
            s.checks += out.audit.checks;
            s.violations
                .extend(out.audit.violations.iter().map(|v| v.to_string()));
            if let Some(f) = out.fault_stats {
                s.faults.ge_drops += f.ge_drops;
                s.faults.duplicates += f.duplicates;
                s.faults.reorder_delayed += f.reorder_delayed;
                s.faults.flap_drops += f.flap_drops;
                s.faults.flap_held += f.flap_held;
                s.faults.rtt_spiked += f.rtt_spiked;
                s.faults.mtu_changes += f.mtu_changes;
            }
            s.stalls += out.progress.stalls;
            s.retries += out.progress.retries;
            s.reconnects += out.progress.reconnects;
            s.gave_up += out.progress.gave_up;
            if let Some(b) = out.breaker {
                s.breaker_trips += b.trips;
                s.breaker_shed += b.shed;
            }
            s.traces.push(out.trace);
        }
    }
    s
}

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

    /// What `table2 --placement=` accepts: `STOB_PLACEMENT=Stack` used
    /// to mean app, silently, and `stak` warned and ran at app.
    #[test]
    fn placement_flag_parses_case_insensitively_or_refuses() {
        let flag = |raw: &str| raw.parse::<Placement>().ok();
        assert_eq!(flag("stack"), Some(Placement::Stack));
        assert_eq!(flag("Stack"), Some(Placement::Stack));
        assert_eq!(flag("APP"), Some(Placement::App));
        for refused in ["stak", "kernel", "", " stack"] {
            assert_eq!(flag(refused), None, "{refused:?}");
        }
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
