//! `--smoke` pass: every workload, untraced and traced, at tiny sizes —
//! the printed metric set must equal the set `BENCHMARK.json` declares,
//! and that file must declare the metrics and the checked workloads this
//! crate declares.

use netsim::Json;
use std::collections::BTreeSet;
use std::process::Command;
use stob_benchmark::decl;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn declared(file: &Json, list: &str) -> Vec<(String, String)> {
    file.req_arr(list)
        .unwrap()
        .iter()
        .map(|m| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (m.req_str("name").unwrap().to_string(), unit.to_string())
        })
        .collect()
}

fn as_pairs(metrics: Vec<decl::Metric>) -> Vec<(String, String)> {
    metrics
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_crate_declares() {
    let file = benchmark_json();
    let workloads: Vec<String> = declared(&file, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, decl::CHECKED);
    assert_eq!(declared(&file, "end_to_end"), as_pairs(decl::end_to_end()));
    assert_eq!(declared(&file, "per_layer"), as_pairs(decl::per_layer()));
    let paths: Vec<&str> = file
        .req_arr("paths")
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    assert_eq!(
        file.req_f64("run_seconds").unwrap(),
        stob_benchmark::run::DEFAULT_SECONDS
    );
}

/// Run the binary at smoke size; returns (descriptive line, result line).
fn smoke(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.05"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("result line")).expect("result JSON");
    let descriptive = Json::parse(lines.next().expect("descriptive line")).expect("JSON");
    (descriptive, result)
}

fn check_result(result: &Json, want: &[(String, String)], what: &str) {
    let Json::Obj(top) = result else {
        panic!("{what}: result is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.req_bool("correct"), Ok(true), "{what}");
    assert!(result.req_u64("attempted").unwrap() >= 1, "{what}");
    assert_eq!(result.req_u64("failed"), Ok(0), "{what}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let printed: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, declared, "{what}: printed metric set");
    for (name, unit) in want {
        let m = result.get("metrics").unwrap().get(name).unwrap();
        let value = m
            .req_f64("value")
            .unwrap_or_else(|e| panic!("{what} {name}: {e}"));
        assert!(value.is_finite(), "{what} {name}: {value}");
        assert_eq!(m.req_str("unit").unwrap(), unit, "{what} {name}");
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let file = benchmark_json();
    let end_to_end = declared(&file, "end_to_end");
    let per_layer = declared(&file, "per_layer");
    for workload in decl::WORKLOADS {
        let (plain, result) = smoke(workload, "0");
        check_result(&result, &end_to_end, &format!("{workload} untraced"));
        for (name, _) in &end_to_end {
            let v = result.get("metrics").unwrap().get(name).unwrap();
            assert!(v.req_f64("value").unwrap() > 0.0, "{workload} {name} is 0");
        }
        let (traced, result) = smoke(workload, "1");
        check_result(&result, &per_layer, &format!("{workload} traced"));
        assert_eq!(
            plain.req_str("sim_digest"),
            traced.req_str("sim_digest"),
            "{workload}: traced and untraced runs simulate the same thing"
        );
    }
}
