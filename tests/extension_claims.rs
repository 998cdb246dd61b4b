//! The readings EXPERIMENTS.md states for the two extension attacks,
//! held against their goldens (`cc_ident` and `openworld` at their
//! defaults, byte-compared by `scripts/check-golden.sh`): a passive
//! observer identifies the sender's congestion controller well above
//! chance with and without the `cc-hide` shaping, and open-world k-FP
//! attributes monitored visits far more often than it flags background
//! ones, undefended and under split+delay.

use netsim::Json;

fn rows(golden: &str) -> Vec<Json> {
    let report = Json::parse(golden).expect("golden parses");
    report.req_arr("rows").expect("rows").to_vec()
}

#[test]
fn both_cc_rows_beat_chance() {
    let rows = rows(include_str!("golden/cc_ident.json"));
    assert_eq!(rows.len(), 2, "plain and cc-hide");
    for row in &rows {
        let traffic = row.req_str("traffic").expect("traffic");
        let mean = row.req_f64("mean").expect("mean");
        assert!(mean > 1.0 / 3.0, "{traffic}: accuracy {mean:.3} at chance");
    }
}

#[test]
fn open_world_tpr_exceeds_fpr_in_both_rows() {
    let rows = rows(include_str!("golden/openworld.json"));
    assert_eq!(rows.len(), 2, "undefended and split+delay");
    for row in &rows {
        let traffic = row.req_str("traffic").expect("traffic");
        let tpr = row.req_f64("tpr_mean").expect("tpr_mean");
        let fpr = row.req_f64("fpr_mean").expect("fpr_mean");
        assert!(tpr > fpr, "{traffic}: TPR {tpr:.3} not above FPR {fpr:.3}");
    }
}
