//! §5.2 extension experiment: passive congestion-control identification
//! (CCAnalyzer-lite) and the effect of Stob shaping on it.
//!
//! Usage: `cc_ident [flows_per_class] [trees] [repeats] [seed]`
//! (defaults: 12 flows per CCA, 60 trees, 5 repeats).
//! Set `STOB_JSON_OUT=<path>` to also write the arguments and each row's
//! mean, std and per-repeat accuracies as JSON (timings go to stderr).

use netsim::{Json, Nanos};
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use stob_bench::cli;
use traces::flows::{cc_class_names, cc_corpus};
use traces::Dataset;
use wf::cc_ident::evaluate_cc_ident;

fn main() {
    let args = cli::Positional::new("cc_ident [flows_per_class] [trees] [repeats] [seed]");
    let per_class = args.count_at_least(1, 2, 12);
    let trees = args.count(2, 60);
    let repeats = args.count(3, 5);
    let seed = args.uint(4, 0xCCAu64);

    eprintln!("[cc_ident] generating {per_class} flows per CCA (reno/cubic/bbr)...");
    let t0 = std::time::Instant::now();
    let plain = Dataset::new(cc_corpus(per_class, seed, None), cc_class_names());
    eprintln!(
        "[cc_ident] plain corpus in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let hide = ObfuscationPolicy {
        name: "cc-hide".into(),
        size: SizeSpec::Unchanged,
        delay: DelaySpec::UniformAbsolute {
            lo: Nanos::from_micros(100),
            hi: Nanos::from_millis(3),
        },
        tso: TsoSpec::Cap { pkts: 1 },
        first_n_pkts: 0,
        respect_slow_start: false,
    };
    let t1 = std::time::Instant::now();
    let hidden = Dataset::new(cc_corpus(per_class, seed, Some(hide)), cc_class_names());
    eprintln!(
        "[cc_ident] shaped corpus in {:.1}s",
        t1.elapsed().as_secs_f64()
    );

    let r_plain = evaluate_cc_ident(&plain, trees, repeats, seed);
    let r_hidden = evaluate_cc_ident(&hidden, trees, repeats, seed);

    println!("\nCC identification (closed world: reno / cubic / bbr; chance = 0.333)");
    println!(
        "({} flows/CCA over randomized paths, {} trees, {} repeats, seed {seed})\n",
        per_class, trees, repeats
    );
    println!(
        "  plain flows:          {:.3} \u{00B1} {:.3}",
        r_plain.mean, r_plain.std
    );
    println!(
        "  Stob-shaped flows:    {:.3} \u{00B1} {:.3}",
        r_hidden.mean, r_hidden.std
    );
    println!(
        "\n§5.2's point: packet sequences identify the CCA (and with it, OS and \n\
         application); §5.1's caveat: shaping that does not confuse the CCA's own \n\
         model while fully hiding it remains an open design problem — macro rate \n\
         dynamics (slow-start shape, loss response) survive naive jitter."
    );

    stob_bench::write_json_out("cc_ident", || {
        let rows = [("plain", r_plain), ("cc-hide", r_hidden)].map(|(traffic, r)| {
            Json::obj()
                .set("traffic", traffic)
                .set("mean", r.mean)
                .set("std", r.std)
                .set(
                    "per_repeat",
                    Json::Arr(r.per_repeat.into_iter().map(Json::from).collect()),
                )
        });
        Json::obj()
            .set("flows_per_class", per_class)
            .set("trees", trees)
            .set("repeats", repeats)
            .set("seed", seed)
            .set("rows", Json::Arr(rows.into()))
    });
}
