//! Extension experiment: every implemented defense vs. the k-FP attack
//! on the nine-site closed world, at **both placements** — the
//! protection/cost trade-off the paper's Table 1 taxonomy implies but
//! does not measure, crossed with the paper's central question of
//! *where* the defense runs (app-layer emulation vs. in-stack shaper).
//!
//! The (defense, placement) cells are independent, so they fan out
//! across threads (`netsim::par`); each cell's randomness is forked
//! from the run seed by (defense row, trace index), so the table is
//! bit-identical at any `STOB_THREADS` setting, and the two cells of one
//! defense draw the same schedules: what differs between them is what
//! the placement changes.
//!
//! Usage: `defense_matrix [visits] [trees] [repeats] [seed]`
//! Set `STOB_JSON_OUT=<path>` to also write the results as JSON (stage
//! timings go to stderr).

use defenses::overhead::{bandwidth_overhead, latency_overhead};
use defenses::{defend_all, TraceBank};
use netsim::par::{self, Timings};
use netsim::{Json, SimRng};
use std::time::Instant;
use stob::defense::Placement;
use stob_bench::suite::DefenseKind;
use stob_bench::{cli, collect_dataset};
use traces::{Dataset, Trace};
use wf::eval::{evaluate, EvalConfig};
use wf::forest::ForestConfig;

struct Cell {
    name: &'static str,
    placement: Placement,
    accuracy: String,
    mean: f64,
    bw_pct: f64,
    lat_pct: f64,
    defend_secs: f64,
    eval_secs: f64,
}

fn main() {
    let args = cli::Positional::new("defense_matrix [visits] [trees] [repeats] [seed]");
    let visits = args.count_at_least(1, 2, 40);
    let trees = args.count(2, 80);
    let repeats = args.count(3, 4);
    let seed = args.uint(4, 0xDEFu64);

    let mut timings = Timings::new();
    eprintln!(
        "[defense_matrix] collecting {visits} visits/site on {} threads...",
        par::threads()
    );
    let summary = timings.time("collect", || collect_dataset(visits, seed));
    let dataset = summary.dataset;
    eprintln!(
        "[defense_matrix] {} traces/site after sanitization",
        summary.per_class
    );

    let eval_cfg = EvalConfig {
        forest: ForestConfig { n_trees: trees },
        repeats,
        seed,
        ..EvalConfig::default()
    };
    let root = SimRng::new(seed);
    let n = dataset.len() as f64;
    let bank = TraceBank::new(&dataset.traces);

    // Placement axis: every defense runs once per placement. The grid is
    // flattened so each (defense, placement) cell is one fan-out job, and
    // carries its defense's row index.
    let grid: Vec<(u64, DefenseKind, Placement)> = (1u64..)
        .zip(DefenseKind::WITH_MACHINES)
        .flat_map(|(row, k)| Placement::ALL.iter().map(move |&p| (row, k, p)))
        .collect();

    // Cell fan-out: one independent (defend + evaluate) job per cell,
    // its randomness keyed on the defense row alone.
    let fanout = Instant::now();
    let cells: Vec<Cell> = par::par_map(&grid, |_, &(row, kind, placement)| {
        let t0 = Instant::now();
        let spec = kind.spec();
        let rows = defend_all(
            spec.as_ref(),
            placement,
            &dataset.traces,
            Some(&bank),
            &root.fork(row),
            seed ^ (row << 32),
        );
        let mut bw = 0.0;
        let mut lat = 0.0;
        let defended_traces: Vec<Trace> = dataset
            .traces
            .iter()
            .zip(rows)
            .map(|(t, d)| {
                bw += bandwidth_overhead(t, &d);
                lat += latency_overhead(t, &d);
                d.trace
            })
            .collect();
        let defend_secs = t0.elapsed().as_secs_f64();
        let defended = Dataset::new(defended_traces, dataset.class_names.clone());
        let t0 = Instant::now();
        let r = evaluate(&defended, &eval_cfg);
        Cell {
            name: kind.name(),
            placement,
            accuracy: r.formatted(),
            mean: r.mean,
            bw_pct: bw / n * 100.0,
            lat_pct: lat / n * 100.0,
            defend_secs,
            eval_secs: t0.elapsed().as_secs_f64(),
        }
    });
    timings.push("cells_wall", fanout.elapsed().as_secs_f64());
    for c in &cells {
        timings.push("defend_cpu", c.defend_secs);
        timings.push("evaluate_cpu", c.eval_secs);
    }

    println!("\nDefense vs. k-FP (9 sites, closed world; chance = 0.111)\n");
    println!("| defense          | placement | accuracy       | bw overhead | latency overhead |");
    println!("|------------------|-----------|----------------|-------------|------------------|");
    for c in &cells {
        println!(
            "| {:<16} | {:<9} | {:<14} | {:>9.1}% | {:>14.1}% |",
            c.name,
            c.placement.name(),
            c.accuracy,
            c.bw_pct,
            c.lat_pct
        );
    }
    println!(
        "\nreading: regularization (Tamaraw/BuFLO) buys real protection at huge \n\
         cost; lightweight obfuscation perturbs the attack cheaply but does not \n\
         defeat it — and the stack placement tracks the app-layer numbers, the \n\
         design-space widening the paper argues for."
    );
    eprintln!("[defense_matrix] {timings}");

    stob_bench::write_json_out("defense_matrix", || {
        Json::obj().set(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .set("defense", c.name)
                            .set("placement", c.placement.name())
                            .set("accuracy_mean", c.mean)
                            .set("bandwidth_overhead_pct", c.bw_pct)
                            .set("latency_overhead_pct", c.lat_pct)
                    })
                    .collect(),
            ),
        )
    });
}
