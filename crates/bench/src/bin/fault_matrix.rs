//! Robustness sweep: every named fault scenario x a defense sample, with
//! the runtime invariant auditor on for every cell.
//!
//! Three questions per cell: does the page load still complete under the
//! fault, do the stack/defense invariants hold (byte conservation, pacing
//! release order, time monotonicity, the §4.2 safety rule), and what does
//! the defense cost on the faulted traffic? Any invariant violation fails
//! the whole run (exit 1) — this binary is the fault suite CI gate. A
//! visit that panics is contained and counted as a violation.
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
//! `--telemetry` appends the global metrics summary — deterministic like
//! the JSON (wall-clock spans go to stderr).

use netsim::par::{self, Timings};
use netsim::{FaultSchedule, Json, Nanos, SimRng};
use stob_bench::{cli, mean_overheads, soak, Soak, FAULT_SAMPLE};
use traces::loader::LoaderConfig;
use traces::paper_sites;

fn main() {
    let args = cli::Positional::new("fault_matrix [--telemetry] [visits] [seed]");
    let visits = args.count(1, 2);
    let seed = args.uint(2, 0xFA17u64);

    let scenarios = FaultSchedule::SCENARIOS;

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

    let runs: Vec<Soak> = par::par_map(&scenarios, |si, &name| {
        let mut sched_rng = root.fork(si as u64 + 1);
        let sched = FaultSchedule::scenario(name, sched_rng.next_u64(), horizon)
            .expect("known scenario name");
        let cfg = LoaderConfig {
            faults: Some(sched),
            loss: 0.0,
            ..LoaderConfig::default()
        };
        soak(&sites, visits, seed, &cfg)
    });
    timings.push("load_wall", t0.elapsed().as_secs_f64());

    // Defense rows ride on the captured traces: cheap, pure functions.
    let t0 = std::time::Instant::now();
    let bw_pct: Vec<Vec<f64>> = runs
        .iter()
        .enumerate()
        .map(|(si, run)| {
            let scenario_root = root.fork(si as u64 + 1);
            let bw = |(&(_, kind), di)| {
                mean_overheads(kind, &run.traces, &scenario_root.fork(di)).0 * 100.0
            };
            FAULT_SAMPLE.iter().zip(1..).map(bw).collect()
        })
        .collect();
    timings.push("defend_wall", t0.elapsed().as_secs_f64());

    println!("\nFault scenarios x defenses (audited; {visits} visits/site)\n");
    println!(
        "| scenario  | loads | complete | checks  | violations | drops | dup  | reorder | held | bw: none | FRONT | RegulaTor | BuFLO |"
    );
    println!(
        "|-----------|-------|----------|---------|------------|-------|------|---------|------|----------|-------|-----------|-------|"
    );
    for ((run, name), row) in runs.iter().zip(&scenarios).zip(&bw_pct) {
        println!(
            "| {:<9} | {:>5} | {:>8} | {:>7} | {:>10} | {:>5} | {:>4} | {:>7} | {:>4} | {:>7.1}% | {:>4.0}% | {:>8.0}% | {:>4.0}% |",
            name,
            run.loads,
            run.complete,
            run.checks,
            run.violations.len(),
            run.faults.total_drops(),
            run.faults.duplicates,
            run.faults.reorder_delayed,
            run.faults.flap_held,
            row[0],
            row[1],
            row[2],
            row[3],
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
            .set("total_violations", total_violations)
            .set(
                "scenarios",
                Json::Arr(
                    runs.iter()
                        .zip(&scenarios)
                        .map(|(r, &name)| {
                            Json::obj()
                                .set("scenario", name)
                                .set("loads", r.loads)
                                .set("complete", r.complete)
                                .set("checks", r.checks)
                                .set("violations", r.violations.clone())
                                .set("faults", r.faults.to_json())
                        })
                        .collect(),
                ),
            )
            .set(
                "cells",
                Json::Arr(
                    scenarios
                        .iter()
                        .zip(&bw_pct)
                        .flat_map(|(&scenario, row)| {
                            FAULT_SAMPLE
                                .iter()
                                .zip(row)
                                .map(move |(&(defense, _), &bw)| {
                                    Json::obj()
                                        .set("scenario", scenario)
                                        .set("defense", defense)
                                        .set("bandwidth_overhead_pct", bw)
                                })
                        })
                        .collect(),
                ),
            )
    });

    if total_violations > 0 {
        eprintln!("[fault_matrix] FAIL: {total_violations} invariant violation(s)");
        for (r, name) in runs.iter().zip(&scenarios) {
            for v in &r.violations {
                eprintln!("  [{name}] {v}");
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
    if args.flag("--telemetry") {
        cli::print_telemetry();
    }
    eprintln!("[fault_matrix] OK: all invariants held across every scenario");
}
