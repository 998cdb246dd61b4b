//! Censor lab: the §3 experiment end to end, at laptop scale.
//!
//! Simulates visits to the nine sites through the full stack, trains the
//! from-scratch k-FP attack, then shows how the kernel-implementable
//! countermeasures change what an early-decision censor sees.
//!
//! ```sh
//! cargo run --release --example censor_lab -- 30   # visits per site
//! ```

use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::emulate_trace;
use netsim::SimRng;
use stob::defense::DefenseCtx;
use wf::eval::{evaluate, EvalConfig};
use wf::forest::ForestConfig;

fn main() {
    let visits = stob_bench::cli::Positional::new("censor_lab [visits]").count(1, 30);
    let seed = 0xCE2502;

    println!("censor lab: collecting {visits} visits/site for 9 sites (full-stack sim)...");
    let sites = traces::sites::paper_sites();
    let cfg = traces::loader::LoaderConfig::default();
    let outcomes = traces::loader::collect(&sites, visits, seed, &cfg);
    let per_site: Vec<(Vec<traces::Trace>, Vec<bool>)> = outcomes
        .into_iter()
        .map(|os| {
            let complete: Vec<bool> = os.iter().map(|o| o.complete).collect();
            (os.into_iter().map(|o| o.trace).collect(), complete)
        })
        .collect();
    let (clean, _, per_class) = traces::sanitize::sanitize(per_site);
    println!("sanitized to {per_class} traces/site (IQR on download size)\n");
    let dataset = traces::Dataset::new(clean, sites.iter().map(|s| s.name.to_string()).collect());

    let eval_cfg = EvalConfig {
        forest: ForestConfig { n_trees: 60 },
        repeats: 3,
        ..EvalConfig::default()
    };

    println!("what the censor sees (k-FP accuracy, closed world of 9 sites):\n");
    println!("packets seen | undefended | split+delay defended");
    for n in [15usize, 30, 45, 0] {
        let plain = evaluate(&dataset.truncated(n), &eval_cfg);
        let em = EmulateConfig { first_n: n };
        let combined = Section3Defense::new(CounterMeasure::Combined, em);
        let mut rng = SimRng::new(seed).fork(n as u64);
        let defended = dataset
            .map_traces(|t| emulate_trace(&combined, t, &DefenseCtx::default(), &mut rng).trace)
            .truncated(n);
        let def = evaluate(&defended, &eval_cfg);
        let label = if n == 0 {
            "all".to_string()
        } else {
            format!("{n:>3}")
        };
        println!(
            "{label:>12} | {:>10} | {}",
            plain.formatted(),
            def.formatted()
        );
    }
    println!(
        "\nreading: a censor must block *early*; the defense buys its margin in \
         the first tens of packets, which is where §3 aims it."
    );
}
