//! Extension experiment: the attack table. Table 2 uses k-FP's random
//! forest vote; this binary puts it beside full k-FP (leaf k-NN) and a
//! feature k-NN baseline on the same nine-site corpus, at the censorship
//! prefixes, to show that the vote stands in for full k-FP.
//!
//! Usage: `attacks [visits] [trees] [repeats] [seed]`
//! Set `STOB_JSON_OUT=<path>` to also write each cell's mean, std and
//! per-repeat accuracies as JSON (timings go to stderr).

use netsim::Json;
use stob_bench::{cli, collect_dataset};
use wf::eval::{evaluate, AttackKind, EvalConfig};
use wf::forest::ForestConfig;

fn main() {
    let args = cli::Positional::new("attacks [visits] [trees] [repeats] [seed]");
    let visits = args.count_at_least(1, 2, 40);
    let trees = args.count(2, 80);
    let repeats = args.count(3, 3);
    let seed = args.uint(4, 0xA77ACu64);

    eprintln!("[attacks] collecting {visits} visits/site...");
    let summary = collect_dataset(visits, seed);
    let dataset = summary.dataset;
    eprintln!("[attacks] {} traces/site", summary.per_class);

    println!("\nAttack comparison (9 sites, closed world; chance = 0.111)\n");
    println!("| attack          | N=15           | N=45           | All            |");
    println!("|-----------------|----------------|----------------|----------------|");
    let mut cells = Vec::new();
    for (name, attack) in [
        ("k-FP RF vote", AttackKind::RandomForest),
        ("k-FP leaf k-NN", AttackKind::KfpLeafKnn),
        ("feature k-NN", AttackKind::FeatureKnn),
    ] {
        print!("| {name:<15} |");
        for n in [15usize, 45, 0] {
            let cfg = EvalConfig {
                attack,
                forest: ForestConfig { n_trees: trees },
                repeats,
                seed,
                ..EvalConfig::default()
            };
            let r = evaluate(&dataset.truncated(n), &cfg);
            print!(" {:<14} |", r.formatted());
            cells.push(
                Json::obj()
                    .set("attack", name)
                    .set("n", n)
                    .set("mean", r.mean)
                    .set("std", r.std)
                    .set(
                        "per_repeat",
                        Json::Arr(r.per_repeat.into_iter().map(Json::from).collect()),
                    ),
            );
        }
        println!();
    }
    println!(
        "\nreading: the RF vote Table 2 reports tracks full k-FP (leaf k-NN) \n\
         at every prefix, so Table 2 measures k-FP; feature k-NN, without \n\
         the forest's learned distance, trails both."
    );

    stob_bench::write_json_out("attacks", || Json::obj().set("cells", Json::Arr(cells)));
}
