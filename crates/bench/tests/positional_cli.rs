//! The experiment bins' positional arguments: a command line that cannot
//! run is refused with the usage line before the corpus is collected.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "attacks" => env!("CARGO_BIN_EXE_attacks"),
        "cc_ident" => env!("CARGO_BIN_EXE_cc_ident"),
        "defense_matrix" => env!("CARGO_BIN_EXE_defense_matrix"),
        "multipath" => env!("CARGO_BIN_EXE_multipath"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        _ => unreachable!("{bin}"),
    };
    Command::new(exe)
        .args(args)
        .env_remove("STOB_JSON_OUT")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_refused(bin: &str, args: &[&str], why: &str) {
    let out = run(bin, args);
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

/// Zero repeats leaves no score to average; it used to panic in
/// `wf::metrics` after the whole collection.
#[test]
fn zero_repeats_is_refused_before_any_work() {
    for (bin, args) in [
        ("table2", &["6", "10", "0", "7"][..]),
        ("defense_matrix", &["6", "10", "0", "7"]),
        ("multipath", &["6", "10", "0", "11"]),
        ("cc_ident", &["4", "10", "0"]),
        ("attacks", &["6", "10", "0", "7"]),
    ] {
        assert_refused(bin, args, "repeats must be a positive integer, got `0`");
    }
}

/// A value that does not parse used to mean the default, silently.
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
}
