//! The readings EXPERIMENTS.md states for the two extension attacks,
//! held against their goldens (`cc_ident` and `openworld` at their
//! defaults, byte-compared by `scripts/check-golden.sh`): a passive
//! observer identifies the sender's congestion controller well above
//! chance with and without the `cc-hide` shaping, and more often with
//! it (the shaping makes the CCA easier to identify), and open-world k-FP
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
fn cc_hide_shaping_makes_the_cca_easier_to_identify() {
    let rows = rows(include_str!("golden/cc_ident.json"));
    let mean = |traffic: &str| {
        let row = rows
            .iter()
            .find(|r| r.req_str("traffic").expect("traffic") == traffic)
            .expect("row present");
        row.req_f64("mean").expect("mean")
    };
    let (plain, hidden) = (mean("plain"), mean("cc-hide"));
    assert!(
        hidden > plain,
        "cc-hide accuracy {hidden:.3} not above plain {plain:.3}"
    );
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
