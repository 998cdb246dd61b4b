//! The placement column of EXPERIMENTS.md's defense table, held against
//! `tests/golden/defense_matrix.json` (`defense_matrix 6 10 2 7`,
//! byte-compared by `scripts/check-golden.sh`): a defense whose policy
//! is pass-through only pads, and its padding runs with the application
//! at either placement (§4.2), so its two cells must read the same.
//! Both cells of a row draw from one fork of the run seed; a table that
//! forked per cell would read draw-to-draw spread as a placement effect.

use netsim::{Json, SimRng};
use stob::defense::DefenseCtx;
use stob::ObfuscationPolicy;
use stob_bench::suite::DefenseKind;

fn cell<'a>(cells: &'a [Json], defense: &str, placement: &str) -> &'a Json {
    cells
        .iter()
        .find(|c| c.req_str("defense") == Ok(defense) && c.req_str("placement") == Ok(placement))
        .unwrap_or_else(|| panic!("no {defense} cell at {placement}"))
}

#[test]
fn a_pass_through_policy_reads_the_same_at_both_placements() {
    let golden = Json::parse(include_str!("golden/defense_matrix.json")).expect("golden parses");
    let cells = golden.req_arr("cells").expect("cells");
    let ctx = DefenseCtx {
        label: 0,
        bank: None,
    };
    let mut padding_only = 0;
    for kind in DefenseKind::WITH_MACHINES {
        let policy = kind.spec().build(&ctx, &mut SimRng::new(7)).policy;
        if policy != ObfuscationPolicy::passthrough(&policy.name) {
            continue;
        }
        padding_only += 1;
        let (app, stack) = (
            cell(cells, kind.name(), "app"),
            cell(cells, kind.name(), "stack"),
        );
        for field in [
            "accuracy_mean",
            "bandwidth_overhead_pct",
            "latency_overhead_pct",
        ] {
            let (a, s) = (app.req_f64(field), stack.req_f64(field));
            assert_eq!(a, s, "{}: {field} app {a:?} vs stack {s:?}", kind.name());
        }
    }
    // `none` and the nine padding defenses.
    assert_eq!(padding_only, 10);
}
