//! Parsing for the four `STOB_*` environment knobs library code reads
//! under every bin: `STOB_THREADS`, `STOB_AUDIT`, `STOB_FAULTS` and
//! `STOB_JSON_OUT` (a bin's own settings are flags, and a bin refuses any
//! other `STOB_*` variable: `stob_bench::cli::Positional`). A bin
//! refuses an invalid value before any work, through the same parsers;
//! anywhere else (tests, the layered benchmark) library code falls back
//! to the documented default and warns once per knob on stderr, so a
//! typo surfaces in the log exactly once instead of silently changing
//! what the experiment does. The parsers ([`parse_value`],
//! [`flag_value`]) are pure: they neither read the environment nor warn,
//! so a bin can refuse what they reject and tests can feed them
//! malformed input without mutating the process environment.
//!
//! ```
//! use netsim::env::{flag_value, parse_value};
//! assert_eq!(parse_value::<usize>(Some("8")), Some(8));
//! // Invalid, empty and unset values all read as `None`:
//! assert_eq!(parse_value::<usize>(Some("abc")), None);
//! assert_eq!(flag_value(Some("on")), Some(true));
//! ```

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Knob names that have already produced a warning, so each misconfigured
/// knob complains exactly once per process no matter how hot the call site.
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Emit `msg` for `name` on stderr unless `name` already warned.
/// Returns whether the warning was actually printed (used by tests).
pub(crate) fn warn_once(name: &str, msg: &str) -> bool {
    let mut warned = match WARNED.lock() {
        Ok(g) => g,
        // A panic while holding the guard only loses dedup state.
        Err(poisoned) => poisoned.into_inner(),
    };
    if warned.contains(name) {
        return false;
    }
    warned.insert(name.to_string());
    eprintln!("[stob] warning: {msg}");
    true
}

/// `raw` as a `T`: `None` when unset, empty, or invalid.
pub fn parse_value<T: std::str::FromStr>(raw: Option<&str>) -> Option<T> {
    set(raw)?.parse().ok()
}

/// `raw` as a boolean switch. Accepted spellings (case-insensitive):
/// `1/true/yes/on` → `Some(true)`, `0/false/no/off` → `Some(false)`.
/// Unset, empty or anything else → `None`.
pub fn flag_value(raw: Option<&str>) -> Option<bool> {
    match set(raw)?.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// `raw` trimmed; `None` when unset or empty.
fn set(raw: Option<&str>) -> Option<&str> {
    raw.map(str::trim).filter(|v| !v.is_empty())
}

/// `raw`, the value of knob `name`, as `parse` reads it. A set value it
/// rejects warns once (`want` says what it accepts) and reads as `None`,
/// so the caller's default applies.
fn read<T>(
    name: &str,
    raw: Option<&str>,
    want: &str,
    parse: impl Fn(Option<&str>) -> Option<T>,
) -> Option<T> {
    let v = parse(raw);
    if let (None, Some(bad)) = (&v, set(raw)) {
        warn_once(
            name,
            &format!("{name}={bad:?} is not {want}; using the default"),
        );
    }
    v
}

/// Read and parse the environment knob `name` as a `T`, warning once on
/// invalid values. `None` when unset, empty, or invalid.
pub(crate) fn parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok();
    read(name, raw.as_deref(), "a valid value", parse_value)
}

/// Read the environment knob `name` as a boolean switch; `default` applies
/// when the knob is unset, empty, or (after a one-time warning) invalid.
pub(crate) fn flag(name: &str, default: bool) -> bool {
    let raw = std::env::var(name).ok();
    let want = "a recognised boolean (1/0/true/false/yes/no/on/off)";
    read(name, raw.as_deref(), want, flag_value).unwrap_or(default)
}

/// Read the environment knob `name` as a non-empty trimmed string.
pub fn string(name: &str) -> Option<String> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    if v.is_empty() {
        None
    } else {
        Some(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_value_accepts_valid_numbers() {
        assert_eq!(parse_value::<usize>(Some("4")), Some(4));
        assert_eq!(parse_value::<usize>(Some(" 12 ")), Some(12));
        assert_eq!(parse_value::<u64>(Some("0")), Some(0));
        assert_eq!(parse_value::<f64>(Some("0.5")), Some(0.5));
    }

    #[test]
    fn parse_value_rejects_garbage_with_fallback() {
        assert_eq!(parse_value::<usize>(Some("abc")), None);
        assert_eq!(parse_value::<usize>(Some("-3")), None);
        assert_eq!(parse_value::<usize>(Some("4 threads")), None);
    }

    #[test]
    fn parse_value_unset_or_empty_is_silent_none() {
        assert_eq!(parse_value::<usize>(None), None);
        assert_eq!(parse_value::<usize>(Some("")), None);
        assert_eq!(parse_value::<usize>(Some("   ")), None);
    }

    #[test]
    fn flag_value_spellings() {
        for yes in ["1", "true", "YES", "On", " on "] {
            assert_eq!(flag_value(Some(yes)), Some(true), "{yes:?}");
        }
        for no in ["0", "false", "NO", "Off"] {
            assert_eq!(flag_value(Some(no)), Some(false), "{no:?}");
        }
        assert_eq!(flag_value(None), None);
        assert_eq!(flag_value(Some("")), None);
        assert_eq!(flag_value(Some("maybe")), None);
    }

    #[test]
    fn warn_once_is_once_per_name() {
        assert!(warn_once("T_E_UNIQUE", "first"));
        assert!(!warn_once("T_E_UNIQUE", "second"));
        assert!(warn_once("T_E_OTHER", "different name still warns"));
    }

    #[test]
    fn invalid_parse_warns_once_then_stays_quiet() {
        // First bad read warns; the second for the same knob does not
        // (observable through the warn_once dedup set).
        let read_usize = |raw| read("T_F_UNIQUE", Some(raw), "a number", parse_value::<usize>);
        assert_eq!(read_usize("x"), None);
        assert!(!warn_once("T_F_UNIQUE", "already warned by read"));
        assert_eq!(read_usize("y"), None);
        // A value the parser accepts reads through without a warning.
        assert_eq!(
            read("T_F_OTHER", Some("3"), "", parse_value::<usize>),
            Some(3)
        );
        assert!(warn_once("T_F_OTHER", "not warned before"));
    }
}
