//! Robustness sweep: every named fault scenario x a defense sample, with
//! the runtime invariant auditor on for every cell.
//!
//! Three questions per cell: does the page load still complete under the
//! fault, do the stack/defense invariants hold (byte conservation, pacing
//! release order, time monotonicity, the §4.2 safety rule), and what does
//! the defense cost on the faulted traffic? Any invariant violation fails
//! the whole run (exit 1) — this binary is the fault suite CI gate.
//!
//! The scenario cells are independent, so they fan out across threads
//! (`netsim::par`); all randomness is forked from the run seed by
//! (scenario index, defense index, trace index), so the report is
//! bit-identical at any `STOB_THREADS` setting.
//!
//! Usage: `fault_matrix [--telemetry] [visits] [seed]`
//! Set `STOB_JSON_OUT=<path>` to also write the report as JSON. The JSON
//! deliberately contains no wall-clock timings, so two runs at different
//! thread counts can be byte-compared; timings go to stderr only.
//! `--telemetry` (or `STOB_TELEMETRY=1`) appends the global metrics
//! summary — deterministic like the JSON (wall-clock spans go to stderr).

use netsim::par::{self, Timings};
use netsim::{FaultSchedule, FaultStats, Json, Nanos, SimRng};
use stob_bench::{cli, mean_overheads, FAULT_SAMPLE};
use traces::loader::{load_page, LoaderConfig};
use traces::{paper_sites, Trace};

/// Everything one scenario's page loads produced, before defenses.
struct ScenarioRun {
    name: &'static str,
    loads: usize,
    complete: usize,
    checks: u64,
    violations: Vec<String>,
    faults: FaultStats,
    traces: Vec<Trace>,
}

struct Cell {
    scenario: &'static str,
    defense: &'static str,
    bw_pct: f64,
}

fn add_stats(a: &mut FaultStats, b: &FaultStats) {
    a.ge_drops += b.ge_drops;
    a.duplicates += b.duplicates;
    a.reorder_delayed += b.reorder_delayed;
    a.flap_drops += b.flap_drops;
    a.flap_held += b.flap_held;
    a.rtt_spiked += b.rtt_spiked;
    a.mtu_changes += b.mtu_changes;
}

fn main() {
    let (args, want_telemetry) = cli::args();
    let visits: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0xFA17);

    // All named scenarios, plus the mid-flow MTU drop (recognised by
    // `scenario()` but kept out of the default env-knob list).
    let mut scenarios: Vec<&'static str> = FaultSchedule::SCENARIOS.to_vec();
    scenarios.push("mtu-drop");

    // Event times sit at fractions of the horizon; pick one on the scale
    // of a page load so flaps and spikes land mid-transfer.
    let horizon = Nanos::from_secs(3);
    let sites = paper_sites();
    let root = SimRng::new(seed);

    eprintln!(
        "[fault_matrix] {} scenarios x {} sites x {visits} visits on {} threads...",
        scenarios.len(),
        sites.len(),
        par::threads()
    );
    let mut timings = Timings::new();
    let t0 = std::time::Instant::now();

    let runs: Vec<ScenarioRun> = par::par_map(&scenarios, |si, &name| {
        let mut sched_rng = root.fork(si as u64 + 1);
        let sched = FaultSchedule::scenario(name, sched_rng.next_u64(), horizon)
            .expect("known scenario name");
        let cfg = LoaderConfig {
            faults: Some(sched),
            loss: 0.0,
            ..LoaderConfig::default()
        };
        let mut run = ScenarioRun {
            name,
            loads: 0,
            complete: 0,
            checks: 0,
            violations: Vec::new(),
            faults: FaultStats::default(),
            traces: Vec::new(),
        };
        for (label, site) in sites.iter().enumerate() {
            for visit in 0..visits {
                let out = load_page(site, label, visit, seed, &cfg);
                run.loads += 1;
                run.complete += usize::from(out.complete);
                run.checks += out.audit.checks;
                run.violations
                    .extend(out.audit.violations.iter().map(|v| v.to_string()));
                if let Some(fs) = &out.fault_stats {
                    add_stats(&mut run.faults, fs);
                }
                run.traces.push(out.trace);
            }
        }
        run
    });
    timings.push("load_wall", t0.elapsed().as_secs_f64());

    // Defense rows ride on the captured traces: cheap, pure functions.
    let t0 = std::time::Instant::now();
    let mut cells = Vec::new();
    for (si, run) in runs.iter().enumerate() {
        let scenario_root = root.fork(si as u64 + 1);
        for (&(defense, kind), di) in FAULT_SAMPLE.iter().zip(1..) {
            let (bw, _) = mean_overheads(kind, &run.traces, &scenario_root.fork(di));
            cells.push(Cell {
                scenario: run.name,
                defense,
                bw_pct: bw * 100.0,
            });
        }
    }
    timings.push("defend_wall", t0.elapsed().as_secs_f64());

    println!("\nFault scenarios x defenses (audited; {visits} visits/site)\n");
    println!(
        "| scenario  | loads | complete | checks  | violations | drops | dup  | reorder | held | bw: none | FRONT | RegulaTor | BuFLO |"
    );
    println!(
        "|-----------|-------|----------|---------|------------|-------|------|---------|------|----------|-------|-----------|-------|"
    );
    for (si, run) in runs.iter().enumerate() {
        let row: Vec<&Cell> = cells
            .iter()
            .skip(si * FAULT_SAMPLE.len())
            .take(FAULT_SAMPLE.len())
            .collect();
        println!(
            "| {:<9} | {:>5} | {:>8} | {:>7} | {:>10} | {:>5} | {:>4} | {:>7} | {:>4} | {:>7.1}% | {:>4.0}% | {:>8.0}% | {:>4.0}% |",
            run.name,
            run.loads,
            run.complete,
            run.checks,
            run.violations.len(),
            run.faults.total_drops(),
            run.faults.duplicates,
            run.faults.reorder_delayed,
            run.faults.flap_held,
            row[0].bw_pct,
            row[1].bw_pct,
            row[2].bw_pct,
            row[3].bw_pct,
        );
    }
    eprintln!("[fault_matrix] {timings}");

    let total_violations: usize = runs.iter().map(|r| r.violations.len()).sum();
    let incomplete: usize = runs.iter().map(|r| r.loads - r.complete).sum();

    stob_bench::write_json_out("fault_matrix", || {
        // No timings in this file: the CI fault suite byte-compares runs
        // at different thread counts.
        Json::obj()
            .set("seed", seed)
            .set("visits", visits as u64)
            .set("total_violations", total_violations as u64)
            .set(
                "scenarios",
                Json::Arr(
                    runs.iter()
                        .map(|r| {
                            Json::obj()
                                .set("scenario", r.name)
                                .set("loads", r.loads as u64)
                                .set("complete", r.complete as u64)
                                .set("checks", r.checks)
                                .set(
                                    "violations",
                                    Json::Arr(
                                        r.violations
                                            .iter()
                                            .map(|v| Json::from(v.as_str()))
                                            .collect(),
                                    ),
                                )
                                .set("faults", r.faults.to_json())
                        })
                        .collect(),
                ),
            )
            .set(
                "cells",
                Json::Arr(
                    cells
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .set("scenario", c.scenario)
                                .set("defense", c.defense)
                                .set("bandwidth_overhead_pct", c.bw_pct)
                        })
                        .collect(),
                ),
            )
    });

    if total_violations > 0 {
        eprintln!("[fault_matrix] FAIL: {total_violations} invariant violation(s)");
        for r in &runs {
            for v in &r.violations {
                eprintln!("  [{}] {v}", r.name);
            }
        }
        std::process::exit(1);
    }
    if incomplete > 0 {
        eprintln!(
            "[fault_matrix] note: {incomplete} load(s) hit the deadline under faults \
             (expected for hard outages; not a failure)"
        );
    }
    if want_telemetry {
        cli::print_telemetry();
    }
    eprintln!("[fault_matrix] OK: all invariants held across every scenario");
}
