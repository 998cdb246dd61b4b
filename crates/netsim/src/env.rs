//! Parsing for the two `STOB_*` environment knobs read under every bin:
//! `STOB_THREADS` and `STOB_JSON_OUT` (a bin's own settings are flags, a
//! run's faults and auditing are set where the run is built, and a bin
//! refuses any other `STOB_*` variable: `stob_bench::cli::Positional`).
//! A bin refuses an invalid value before any work, through the same
//! parser; anywhere else (tests, the layered benchmark) library code
//! falls back to the documented default and warns once per knob on
//! stderr, so a typo surfaces in the log exactly once instead of
//! silently changing what the experiment does. The parser
//! ([`parse_value`]) is pure: it neither reads the environment nor
//! warns, so a bin can refuse what it rejects and tests can feed it
//! malformed input without mutating the process environment.
//!
//! ```
//! use netsim::env::parse_value;
//! assert_eq!(parse_value::<usize>(Some("8")), Some(8));
//! // Invalid, empty and unset values all read as `None`:
//! assert_eq!(parse_value::<usize>(Some("abc")), None);
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
