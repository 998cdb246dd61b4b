//! Parsing for the four `STOB_*` environment knobs library code reads
//! under every bin: `STOB_THREADS`, `STOB_AUDIT`, `STOB_FAULTS` and
//! `STOB_JSON_OUT` (a bin's own settings are flags, and a bin refuses any
//! other `STOB_*` variable: `stob_bench::cli::Positional`). An invalid
//! value falls back to the documented default and warns once per knob
//! on stderr, so a typo surfaces in the log exactly once instead of
//! silently changing what the experiment does. The parsing core is pure
//! ([`parse_value`], [`flag_value`]) so tests can feed it malformed input
//! without mutating the process environment.
//!
//! ```
//! use netsim::env::{flag_value, parse_value};
//! assert_eq!(parse_value::<usize>("STOB_DOC_EXAMPLE", Some("8")), Some(8));
//! // Invalid values warn on stderr (once) and fall back:
//! assert_eq!(parse_value::<usize>("STOB_DOC_EXAMPLE", Some("abc")), None);
//! assert_eq!(flag_value("STOB_DOC_EXAMPLE2", Some("on")), Some(true));
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

/// Parse `raw` as a `T` for knob `name`. `None` when unset, empty, or
/// invalid; invalid values warn once on stderr.
pub fn parse_value<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Option<T> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<T>() {
        Ok(t) => Some(t),
        Err(_) => {
            warn_once(
                name,
                &format!("{name}={v:?} is not a valid value; using the default"),
            );
            None
        }
    }
}

/// Interpret `raw` as a boolean switch for knob `name`.
///
/// Accepted spellings (case-insensitive): `1/true/yes/on` → `Some(true)`,
/// `0/false/no/off` → `Some(false)`. Unset or empty → `None`. Anything
/// else warns once and returns `None` so the caller's default applies.
pub fn flag_value(name: &str, raw: Option<&str>) -> Option<bool> {
    let v = raw?.trim();
    if v.is_empty() {
        return None;
    }
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => {
            warn_once(
                name,
                &format!("{name}={v:?} is not a recognised boolean (1/0/true/false/yes/no/on/off); using the default"),
            );
            None
        }
    }
}

/// Read and parse the environment knob `name` as a `T`, warning once on
/// invalid values. `None` when unset, empty, or invalid.
pub(crate) fn parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok();
    parse_value(name, raw.as_deref())
}

/// Read the environment knob `name` as a boolean switch; `default` applies
/// when the knob is unset, empty, or (after a one-time warning) invalid.
pub(crate) fn flag(name: &str, default: bool) -> bool {
    let raw = std::env::var(name).ok();
    flag_value(name, raw.as_deref()).unwrap_or(default)
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
        assert_eq!(parse_value::<usize>("T_A", Some("4")), Some(4));
        assert_eq!(parse_value::<usize>("T_A", Some(" 12 ")), Some(12));
        assert_eq!(parse_value::<u64>("T_A", Some("0")), Some(0));
        assert_eq!(parse_value::<f64>("T_A", Some("0.5")), Some(0.5));
    }

    #[test]
    fn parse_value_rejects_garbage_with_fallback() {
        assert_eq!(parse_value::<usize>("T_B", Some("abc")), None);
        assert_eq!(parse_value::<usize>("T_B2", Some("-3")), None);
        assert_eq!(parse_value::<usize>("T_B3", Some("4 threads")), None);
    }

    #[test]
    fn parse_value_unset_or_empty_is_silent_none() {
        assert_eq!(parse_value::<usize>("T_C", None), None);
        assert_eq!(parse_value::<usize>("T_C", Some("")), None);
        assert_eq!(parse_value::<usize>("T_C", Some("   ")), None);
    }

    #[test]
    fn flag_value_spellings() {
        for yes in ["1", "true", "YES", "On", " on "] {
            assert_eq!(flag_value("T_D", Some(yes)), Some(true), "{yes:?}");
        }
        for no in ["0", "false", "NO", "Off"] {
            assert_eq!(flag_value("T_D", Some(no)), Some(false), "{no:?}");
        }
        assert_eq!(flag_value("T_D", None), None);
        assert_eq!(flag_value("T_D", Some("")), None);
        assert_eq!(flag_value("T_D_BAD", Some("maybe")), None);
    }

    #[test]
    fn warn_once_is_once_per_name() {
        assert!(warn_once("T_E_UNIQUE", "first"));
        assert!(!warn_once("T_E_UNIQUE", "second"));
        assert!(warn_once("T_E_OTHER", "different name still warns"));
    }

    #[test]
    fn invalid_parse_warns_once_then_stays_quiet() {
        // First bad parse warns; the second for the same knob does not
        // (observable through the warn_once dedup set).
        assert_eq!(parse_value::<usize>("T_F_UNIQUE", Some("x")), None);
        assert!(!warn_once("T_F_UNIQUE", "already warned by parse_value"));
        assert_eq!(parse_value::<usize>("T_F_UNIQUE", Some("y")), None);
    }
}
