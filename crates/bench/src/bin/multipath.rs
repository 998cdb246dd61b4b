//! Extension experiment: multipath splitting as a defense — k-FP
//! accuracy per on-path vantage point vs the converged (merged) view,
//! across splitting policies × pipe counts × fault scenarios × both
//! placements. The matrix the `stack::mux` transport exists to answer:
//! how much does an adversary lose by only tapping one leg?
//!
//! Usage: `multipath [visits] [trees] [repeats] [seed]`
//! Env: `STOB_MUX_PIPES=1,2,4`, `STOB_MUX_SPLITTER=roundrobin`,
//! `STOB_MUX_FEC=4` restrict/extend the matrix (see `EXPERIMENTS.md`);
//! `STOB_JSON_OUT=<path>` writes results as JSON (timings go to
//! stderr).

use netsim::par::{self, Timings};
use std::time::Instant;
use stob_bench::collect_dataset;
use stob_bench::multipath::{config_from_env, run_multipath, MultipathConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let visits: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    let trees: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(80);
    let repeats: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(0xA117);

    let mut timings = Timings::new();
    eprintln!(
        "[multipath] collecting {visits} visits/site on {} threads...",
        par::threads()
    );
    let summary = timings.time("collect", || collect_dataset(visits, seed));
    let dataset = summary.dataset;
    eprintln!(
        "[multipath] {} traces/site after sanitization",
        summary.per_class
    );

    let cfg = config_from_env(MultipathConfig {
        trees,
        repeats,
        seed,
        ..MultipathConfig::default()
    });
    let t0 = Instant::now();
    let report = run_multipath(&dataset, &cfg);
    timings.push("matrix_wall", t0.elapsed().as_secs_f64());

    println!("\nMultipath vantage-point matrix (9 sites, closed world; chance = 0.111)\n");
    println!(
        "| splitter      | pipes | scenario     | placement | merged | best leg | advantage |"
    );
    println!(
        "|---------------|-------|--------------|-----------|--------|----------|-----------|"
    );
    for c in &report.cells {
        println!(
            "| {:<13} | {:>5} | {:<12} | {:<9} | {:>6.3} | {:>8.3} | {:>9.3} |",
            c.splitter,
            c.pipes,
            c.scenario,
            c.placement.name(),
            c.merged_mean,
            c.best_path_mean(),
            c.split_advantage()
        );
    }
    let ow = &report.open_world;
    println!(
        "\nopen world (5 monitored sites, 2 legs, baseline, app placement):\n\
         merged  TPR {:.3} FPR {:.3}",
        ow.merged.tpr_mean, ow.merged.fpr_mean
    );
    for (i, leg) in ow.per_path.iter().enumerate() {
        println!("leg {i}   TPR {:.3} FPR {:.3}", leg.tpr_mean, leg.fpr_mean);
    }
    println!(
        "\nreading: a single-leg observer loses accuracy against every \n\
         splitting policy — the defense the stack placement gets for free \n\
         by owning the transport, and one no app-layer emulation can deploy."
    );
    eprintln!("[multipath] {timings}");

    stob_bench::write_json_out("multipath", || report.to_json());
}
