//! The paper's goodput claims, held against the committed sweeps
//! (byte-compared by `scripts/check-golden.sh`):
//! `tests/golden/figure3.json` (`figure3` at its defaults: α 0..=40 step
//! 4, 50 ms window, seed 3) and `tests/golden/ablations.json`
//! (`ablations` at its defaults: 40 ms window, seed 3).

use netsim::Json;

fn golden(text: &str) -> Json {
    Json::parse(text).expect("golden parses")
}

fn ablation(cells: &[Json], n: u64) -> Vec<&Json> {
    cells
        .iter()
        .filter(|c| c.req_u64("ablation") == Ok(n))
        .collect()
}

fn gbps(cell: &Json, key: &str) -> f64 {
    cell.req_f64(key).unwrap_or_else(|e| panic!("{key}: {e:?}"))
}

/// §4.2: shrinking packets and TSO bursts by α costs goodput, but "preserves
/// 19.7 Gb/s or higher" up to α = 40.
#[test]
fn figure3_goodput_falls_with_alpha_and_stays_above_19_7_gbps() {
    let g = golden(include_str!("golden/figure3.json"));
    let points: Vec<(u64, f64)> = g
        .req_arr("points")
        .expect("points")
        .iter()
        .map(|p| (p.req_u64("alpha").expect("alpha"), gbps(p, "goodput_gbps")))
        .collect();
    assert_eq!(points.first().map(|p| p.0), Some(0));
    assert_eq!(points.last().map(|p| p.0), Some(40));
    for w in points.windows(2) {
        assert!(
            w[1].1 <= w[0].1,
            "goodput rose from α={} ({:.2}) to α={} ({:.2})",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
    let min = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    assert!(min >= 19.7, "minimum goodput {min:.2} Gb/s is below 19.7");
}

/// Ablation 1: TSO shrinkage dominates the cost; packet size alone is
/// comparatively cheap.
#[test]
fn packet_size_alone_is_cheap_and_tso_shrinkage_costs_more() {
    let g = golden(include_str!("golden/ablations.json"));
    let rows = ablation(g.req_arr("cells").expect("cells"), 1);
    let at = |alpha: u64| {
        *rows
            .iter()
            .find(|c| c.req_u64("alpha") == Ok(alpha))
            .unwrap_or_else(|| panic!("no ablation-1 row at α={alpha}"))
    };
    let base = gbps(at(0), "pkt_only_gbps");
    let cost = 1.0 - gbps(at(40), "pkt_only_gbps") / base;
    assert!(
        cost <= 0.15,
        "packet size alone costs {:.1} % at α=40",
        cost * 100.0
    );
    let shaped: Vec<_> = rows
        .iter()
        .filter(|c| c.req_u64("alpha").expect("alpha") > 0)
        .collect();
    assert!(!shaped.is_empty());
    for c in shaped {
        let (pkt, tso) = (gbps(c, "pkt_only_gbps"), gbps(c, "tso_only_gbps"));
        assert!(
            tso < pkt,
            "{c:?}: TSO-only {tso} not below packet-only {pkt}"
        );
    }
}

/// Ablation 2, §2.3: an HTTPOS-style small advertised window throttles the
/// whole transfer.
#[test]
fn a_16_kb_window_costs_two_orders_of_magnitude() {
    let g = golden(include_str!("golden/ablations.json"));
    let rows = ablation(g.req_arr("cells").expect("cells"), 2);
    let at = |wnd: u64| {
        let row = rows
            .iter()
            .find(|c| c.req_u64("recv_wnd_bytes") == Ok(wnd))
            .unwrap_or_else(|| panic!("no ablation-2 row at {wnd} B"));
        gbps(row, "goodput_gbps")
    };
    let ratio = at(32 << 20) / at(16 << 10);
    assert!(ratio >= 100.0, "16 KB window only {ratio:.1}x below 32 MB");
}

/// Ablation 4: the §3 combined defense puts identical sizes on the wire at
/// either placement.
#[test]
fn placements_report_identical_sizes() {
    let g = golden(include_str!("golden/ablations.json"));
    let rows = ablation(g.req_arr("cells").expect("cells"), 4);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].req_bool("sizes_identical"), Ok(true));
}
