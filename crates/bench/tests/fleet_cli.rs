//! The `fleet` bin's command line: what it accepts and what it gates.

use netsim::Json;
use std::process::Command;

fn fleet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
}

/// EXPERIMENTS.md's exploration recipe. The 100k residency floor is
/// calibrated for the built-in quick population, so a run that overrides
/// the population is reported, not gated.
#[test]
fn overridden_quick_population_runs_ungated() {
    let out = fleet()
        .args(["--quick", "--flows=10000"])
        .output()
        .expect("spawn fleet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("ungated"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let report = Json::parse(&stdout).expect("stdout is the report");
    assert_eq!(report.req_u64("flows"), Ok(10_000));
    assert_eq!(report.req_u64("peak_resident"), Ok(10_000));
    assert_eq!(report.req_u64("audit_violations"), Ok(0));
}

/// The timing half (`--out`, `--validate`, `--compare`, `--tolerance`)
/// moved to the layered benchmark, and the report file is the one
/// `STOB_JSON_OUT` names, as for every bin (`--checks-out` is gone):
/// nothing is silently ignored, and the usage line says what is taken.
#[test]
fn retired_flags_are_rejected_before_any_run() {
    for flag in [
        "--out",
        "--validate",
        "--compare",
        "--tolerance",
        "--checks-out",
    ] {
        let out = fleet().args([flag, "x"]).output().expect("spawn fleet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{flag}: {stderr}"
        );
        assert!(
            stderr.contains("usage: fleet [--quick]"),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} printed a report");
    }
}
