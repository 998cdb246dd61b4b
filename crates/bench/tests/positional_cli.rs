//! Every experiment bin's command line: one that cannot run is refused
//! with the usage line before the corpus is collected or any network is
//! simulated.

use std::process::{Command, Output};

fn command(bin: &str) -> Command {
    let exe = match bin {
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "attacks" => env!("CARGO_BIN_EXE_attacks"),
        "cc_ident" => env!("CARGO_BIN_EXE_cc_ident"),
        "chaos" => env!("CARGO_BIN_EXE_chaos"),
        "defense_matrix" => env!("CARGO_BIN_EXE_defense_matrix"),
        "fault_matrix" => env!("CARGO_BIN_EXE_fault_matrix"),
        "figure3" => env!("CARGO_BIN_EXE_figure3"),
        "fleet" => env!("CARGO_BIN_EXE_fleet"),
        "multipath" => env!("CARGO_BIN_EXE_multipath"),
        "openworld" => env!("CARGO_BIN_EXE_openworld"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        _ => unreachable!("{bin}"),
    };
    let mut cmd = Command::new(exe);
    cmd.env_remove("STOB_JSON_OUT");
    cmd
}

fn assert_refused(bin: &str, args: &[&str], why: &str) {
    let out = command(bin).args(args).output();
    assert_output_refused(bin, args, out, why);
}

fn assert_output_refused(bin: &str, args: &[&str], out: std::io::Result<Output>, why: &str) {
    let out = out.unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(why), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(&format!("usage: {bin} ")), "{stderr}");
    assert!(
        !stderr.contains(&format!("[{bin}]")),
        "{bin} {args:?} started work"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
}

/// A zero count leaves nothing to run. Zero repeats used to panic in
/// `wf::metrics` after the whole collection, zero monitored visits in
/// `wf::openworld`; a zero measurement window printed `NaN Gb/s`; zero
/// chaos visits failed the completion floor after the breaker soak.
#[test]
fn zero_repeats_is_refused_before_any_work() {
    for (bin, args, why) in [
        ("table2", &["6", "10", "0", "7"][..], "repeats must be"),
        ("defense_matrix", &["6", "10", "0", "7"], "repeats must be"),
        ("multipath", &["6", "10", "0", "11"], "repeats must be"),
        ("cc_ident", &["4", "10", "0"], "repeats must be"),
        ("attacks", &["6", "10", "0", "7"], "repeats must be"),
        ("openworld", &["0"], "monitored_visits must be"),
        ("ablations", &["0"], "measure_ms must be"),
        ("table1", &["0"], "visits must be"),
        ("chaos", &["--quick", "0"], "visits must be"),
        ("fault_matrix", &["0"], "visits must be"),
        ("figure3", &["40", "0"], "alpha_step must be"),
        ("figure3", &["40", "4", "0"], "measure_ms must be"),
        ("fleet", &["--quick", "--flows=0"], "--flows must be"),
    ] {
        assert_refused(bin, args, &format!("{why} a positive integer, got `0`"));
    }
}

/// One trace per class leaves a stratified split nothing to train on:
/// these used to exit 101 after the whole collection, on "dataset too
/// small" in `wf::eval` or an empty training set in `wf::forest`.
#[test]
fn one_trace_per_class_is_refused_before_any_work() {
    for (bin, args, name) in [
        ("table2", &["1", "5", "1", "7"][..], "visits"),
        ("attacks", &["1", "5", "1", "7"], "visits"),
        ("defense_matrix", &["1", "5", "1", "7"], "visits"),
        ("multipath", &["1", "5", "1", "7"], "visits"),
        ("cc_ident", &["1", "10", "2"], "flows_per_class"),
    ] {
        assert_refused(bin, args, &format!("{name} must be at least 2, got `1`"));
    }
}

/// A value that does not parse used to mean the default, silently; an
/// extra argument or a flag the usage line does not declare was ignored
/// by some bins.
#[test]
fn malformed_values_are_refused() {
    assert_refused(
        "attacks",
        &["abc"],
        "visits must be a positive integer, got `abc`",
    );
    assert_refused("table2", &["--telemetry", "6", "x"], "trees must be");
    assert_refused("cc_ident", &["4", "10", "2", "seven"], "seed must be");
    assert_refused(
        "multipath",
        &["1", "2", "3", "4", "5"],
        "unexpected argument `5`",
    );
    for (bin, args, why) in [
        ("fault_matrix", &["abc"][..], "visits must be"),
        ("figure3", &["x", "y"], "alpha_max must be"),
        ("figure3", &["-4"], "alpha_max must be"),
        ("table1", &["x"], "visits must be"),
        ("ablations", &["40", "s"], "seed must be"),
        ("openworld", &["2", "two"], "bg_sites must be"),
        ("chaos", &["--quick", "1", "-1"], "seed must be"),
        ("defense_matrix", &["6", "1.5"], "trees must be"),
    ] {
        assert_refused(bin, args, why);
    }
    // One argument too many, and a flag the usage line does not name.
    for (bin, args, extra) in [
        ("ablations", &["40", "3", "9"][..], "9"),
        ("chaos", &["1", "2", "3"], "3"),
        ("fault_matrix", &["1", "2", "3"], "3"),
        ("figure3", &["0", "4", "10", "3", "5"], "5"),
        ("fleet", &["1"], "1"),
        ("openworld", &["1", "2", "3", "4", "5"], "5"),
        ("table1", &["1", "2", "3"], "3"),
        ("table2", &["1", "2", "3", "4", "5"], "5"),
        ("fleet", &["--checks-out", "x"], "--checks-out"),
        ("figure3", &["--quick"], "--quick"),
        ("table1", &["--telemetry"], "--telemetry"),
        ("attacks", &["6", "--verbose"], "--verbose"),
        ("cc_ident", &["--telemetry", "4"], "--telemetry"),
        ("defense_matrix", &["--quick"], "--quick"),
        ("multipath", &["--telemetry"], "--telemetry"),
        ("openworld", &["--quick"], "--quick"),
        ("ablations", &["--telemetry"], "--telemetry"),
        ("chaos", &["--full"], "--full"),
        ("fault_matrix", &["--quick"], "--quick"),
        ("table2", &["--quick"], "--quick"),
    ] {
        assert_refused(bin, args, &format!("unexpected argument `{extra}`"));
    }
    // Each valued flag: malformed, out of range, given bare; each boolean
    // flag given a value. At the parent of the flags every one of these
    // was an unexpected argument.
    for (bin, args, why) in [
        (
            "table2",
            &["--placement=stak"][..],
            "--placement must be app or stack, got `stak`",
        ),
        ("table2", &["--placement", "6"], "--placement needs a value"),
        ("multipath", &["--pipes=2,x"], "--pipes must be"),
        ("multipath", &["--pipes=17"], "--pipes must be"),
        ("multipath", &["--pipes"], "--pipes needs a value"),
        ("multipath", &["--splitter=rr"], "--splitter must be"),
        (
            "multipath",
            &["--pipes=2", "--splitter=weighted:3,1,1"],
            "--splitter must be",
        ),
        ("multipath", &["--splitter"], "--splitter needs a value"),
        ("multipath", &["--fec=four"], "--fec must be"),
        ("multipath", &["--fec=1"], "--fec must be"),
        ("multipath", &["--fec"], "--fec needs a value"),
        ("fleet", &["--flows=1e4"], "--flows must be"),
        ("fleet", &["--flows=-1"], "--flows must be"),
        ("fleet", &["--flows"], "--flows needs a value"),
        ("fleet", &["--shards=x"], "--shards must be"),
        ("fleet", &["--flows=10", "--shards=11"], "--shards must be"),
        ("fleet", &["--shards"], "--shards needs a value"),
        ("fleet", &["--machine="], "--machine must be a path"),
        ("fleet", &["--machine"], "--machine needs a value"),
        ("figure3", &["--trace-out="], "--trace-out must be a path"),
        ("figure3", &["--trace-out"], "--trace-out needs a value"),
        (
            "fleet",
            &["--flows=10", "--flows=20"],
            "--flows given twice",
        ),
        ("fleet", &["--quick=1"], "--quick takes no value"),
        ("table2", &["--telemetry=yes"], "--telemetry takes no value"),
        ("figure3", &["--telemetry=1"], "--telemetry takes no value"),
        ("chaos", &["--quick=0"], "--quick takes no value"),
    ] {
        assert_refused(bin, args, why);
    }
}

/// A per-bin setting is a flag on that bin's command line, and a run's
/// faults and auditing are set where the run is built. The environment
/// variables they replaced used to warn and fall back, exit 1, or apply
/// silently; one left in a shell now stops the bin and names where the
/// setting lives. Any other `STOB_*` variable that is not one of the two
/// environment knobs is refused the same way.
#[test]
fn retired_env_knobs_are_refused_naming_their_flag() {
    for (bin, key, value, now) in [
        (
            "multipath",
            "STOB_MUX_PIPES",
            "2",
            "`multipath --pipes=<csv>`",
        ),
        (
            "multipath",
            "STOB_MUX_SPLITTER",
            "2",
            "`multipath --splitter=<spec>`",
        ),
        ("multipath", "STOB_MUX_FEC", "2", "`multipath --fec=<k>`"),
        (
            "table2",
            "STOB_PLACEMENT",
            "2",
            "`table2 --placement=<app|stack>`",
        ),
        ("fleet", "STOB_FLEET_FLOWS", "2", "`fleet --flows=<n>`"),
        ("fleet", "STOB_FLEET_SHARDS", "2", "`fleet --shards=<n>`"),
        (
            "fleet",
            "STOB_FLEET_MACHINE",
            "2",
            "`fleet --machine=<path>`",
        ),
        (
            "figure3",
            "STOB_TRACE_OUT",
            "2",
            "`figure3 --trace-out=<path>`",
        ),
        (
            "table1",
            "STOB_PLACEMENT",
            "2",
            "`table2 --placement=<app|stack>`",
        ),
        (
            "table2",
            "STOB_FAULTS",
            "flap",
            "`LoaderConfig::faults`, or the `fault_matrix` / `chaos` bins",
        ),
        (
            "fault_matrix",
            "STOB_AUDIT",
            "1",
            "a debug build, or `Network::set_audit`",
        ),
    ] {
        let out = command(bin).env(key, value).output();
        assert_output_refused(
            bin,
            &[],
            out,
            &format!("{key} is no longer read; use {now}"),
        );
    }
    let out = command("table1").env("STOB_THREAD", "2").output();
    assert_output_refused("table1", &[], out, "STOB_THREAD is not an environment knob");
}

/// `STOB_THREADS` is read by library code, which warns and falls back on
/// a value it cannot use: `STOB_THREADS=abc` used to run on every core
/// and exit 0. A bin refuses such a value before any work, through the
/// knob's own parser; a valid one runs.
#[test]
fn malformed_env_knobs_are_refused() {
    for (bin, args, key, value, why) in [
        (
            "table1",
            &["1", "7"][..],
            "STOB_THREADS",
            "abc",
            "a positive integer",
        ),
        (
            "table1",
            &["1", "7"],
            "STOB_THREADS",
            "0",
            "a positive integer",
        ),
        (
            "fleet",
            &["--quick"],
            "STOB_THREADS",
            "-3",
            "a positive integer",
        ),
    ] {
        let out = command(bin).args(args).env(key, value).output();
        let why = format!("{key} must be {why}, got `{value}`");
        assert_output_refused(bin, args, out, &why);
    }
    let out = command("table1")
        .args(["1", "7"])
        .env("STOB_THREADS", " 2 ")
        .output()
        .unwrap_or_else(|e| panic!("spawn table1: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("warning"), "{stderr}");
}

/// A report that cannot be written fails the run: an unwritable
/// `STOB_JSON_OUT` used to be a warning on stderr and exit 0, and so was
/// an unwritable `figure3` flow trace. The path runs through the bin
/// itself, a file, so no directory can exist there.
#[test]
fn unwritable_report_path_exits_1() {
    let exe = env!("CARGO_BIN_EXE_table1");
    let out = Command::new(exe)
        .args(["1", "7"])
        .env("STOB_JSON_OUT", format!("{exe}/report.json"))
        .output()
        .unwrap_or_else(|e| panic!("spawn table1: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[table1] could not write"), "{stderr}");

    let exe = env!("CARGO_BIN_EXE_figure3");
    let out = command("figure3")
        .args([&format!("--trace-out={exe}/trace.jsonl"), "0", "4", "1"])
        .output()
        .unwrap_or_else(|e| panic!("spawn figure3: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[figure3] could not write"), "{stderr}");
}
