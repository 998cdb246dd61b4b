//! The reading EXPERIMENTS.md states for the attack table, held against
//! `tests/golden/attacks.json` (`attacks 12 25 2 7`, byte-compared by
//! `scripts/check-golden.sh`): the random-forest vote Table 2 reports
//! stands in for full k-FP, the leaf k-NN over the same forest.

use netsim::Json;

fn mean(cells: &[Json], attack: &str, n: u64) -> f64 {
    let cell = cells
        .iter()
        .find(|c| c.req_str("attack") == Ok(attack) && c.req_u64("n") == Ok(n))
        .unwrap_or_else(|| panic!("no {attack} cell at N={n}"));
    cell.req_f64("mean").expect("mean")
}

#[test]
fn rf_vote_is_within_five_points_of_full_kfp_at_every_prefix() {
    let golden = Json::parse(include_str!("golden/attacks.json")).expect("golden parses");
    let cells = golden.req_arr("cells").expect("cells");
    for n in [15, 45, 0] {
        let vote = mean(cells, "k-FP RF vote", n);
        let full = mean(cells, "k-FP leaf k-NN", n);
        assert!(
            (vote - full).abs() <= 0.05,
            "N={n}: RF vote {vote:.3} vs leaf k-NN {full:.3}"
        );
    }
}
