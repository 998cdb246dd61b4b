//! Extension experiment: k-FP in the open world, with and without the
//! §3 countermeasures — the deployment-realistic counterpart to
//! Table 2's closed world ("our results represent an upper bound on
//! attack success").
//!
//! Usage: `openworld [monitored_visits] [bg_sites] [trees] [seed]`
//! Set `STOB_JSON_OUT=<path>` to also write the arguments and each row's
//! TPR and FPR mean, std and per-repeat values as JSON (timings go to
//! stderr).

use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::emulate_trace;
use netsim::{Json, SimRng};
use stob::defense::DefenseCtx;
use stob_bench::cli;
use traces::loader::{collect, LoaderConfig};
use traces::sites::{background_sites, paper_sites};
use traces::Trace;
use wf::forest::ForestConfig;
use wf::openworld::{evaluate_open_world, OpenWorldConfig};

fn flatten(outcomes: Vec<Vec<traces::loader::VisitOutcome>>) -> Vec<Trace> {
    outcomes
        .into_iter()
        .flatten()
        .filter(|o| o.complete)
        .map(|o| o.trace)
        .collect()
}

fn main() {
    let args = cli::Positional::new("openworld [monitored_visits] [bg_sites] [trees] [seed]");
    let visits = args.count(1, 30);
    let n_bg = args.count(2, 80);
    let trees = args.count(3, 100);
    let seed = args.uint(4, 0x09E4u64);

    let cfg = LoaderConfig::default();
    eprintln!("[openworld] collecting {visits} visits x 9 monitored sites...");
    let monitored = flatten(collect(&paper_sites(), visits, seed, &cfg));
    eprintln!("[openworld] collecting 2 visits x {n_bg} background sites...");
    let bg_profiles = background_sites(n_bg, seed);
    let background = flatten(collect(&bg_profiles, 2, seed ^ 0xB6, &cfg));
    eprintln!(
        "[openworld] {} monitored traces, {} background traces",
        monitored.len(),
        background.len()
    );

    let ow_cfg = OpenWorldConfig {
        forest: ForestConfig { n_trees: trees },
        repeats: 4,
        seed,
    };

    println!(
        "\nOpen-world k-FP (9 monitored sites, unanimous-kNN rule, k = {})\n",
        wf::openworld::K
    );
    println!("| traffic            | TPR            | FPR            |");
    println!("|--------------------|----------------|----------------|");
    let plain = evaluate_open_world(&monitored, 9, &background, &ow_cfg);
    println!(
        "| undefended         | {:.3} \u{00B1} {:.3} | {:.3} \u{00B1} {:.3} |",
        plain.tpr_mean, plain.tpr_std, plain.fpr_mean, plain.fpr_std
    );
    let combined = Section3Defense::new(CounterMeasure::Combined, EmulateConfig::default());
    let ctx = DefenseCtx::default();
    let mut rng = SimRng::new(seed).fork(77);
    let mut defend = |traces: &[Trace]| -> Vec<Trace> {
        traces
            .iter()
            .map(|t| emulate_trace(&combined, t, &ctx, &mut rng).trace)
            .collect()
    };
    let def_mon = defend(&monitored);
    let def_bg = defend(&background);
    let defended = evaluate_open_world(&def_mon, 9, &def_bg, &ow_cfg);
    println!(
        "| split+delay (§3)   | {:.3} \u{00B1} {:.3} | {:.3} \u{00B1} {:.3} |",
        defended.tpr_mean, defended.tpr_std, defended.fpr_mean, defended.fpr_std
    );
    println!(
        "\nreading: the open world is strictly harder for the censor than \n\
         Table 2's closed world — every recall point costs false positives, \n\
         which is collateral blocking."
    );

    stob_bench::write_json_out("openworld", || {
        let per_repeat = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::from).collect());
        let rows = [("undefended", plain), ("split+delay", defended)].map(|(traffic, r)| {
            Json::obj()
                .set("traffic", traffic)
                .set("tpr_mean", r.tpr_mean)
                .set("tpr_std", r.tpr_std)
                .set("fpr_mean", r.fpr_mean)
                .set("fpr_std", r.fpr_std)
                .set("tpr_per_repeat", per_repeat(r.tpr_per_repeat))
                .set("fpr_per_repeat", per_repeat(r.fpr_per_repeat))
        });
        Json::obj()
            .set("monitored_visits", visits)
            .set("bg_sites", n_bg)
            .set("trees", trees)
            .set("seed", seed)
            .set("rows", Json::Arr(rows.into()))
    });
}
