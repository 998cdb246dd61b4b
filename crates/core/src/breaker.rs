//! A circuit breaker for the policy table: stop hammering a policy key
//! that keeps failing.
//!
//! [`attach`](crate::sockopt::attach)
//! already degrades a single attachment to pass-through when the
//! resolved policy fails validation. But when a *published policy* is
//! broken, every new connection to that destination re-resolves it,
//! re-validates it, and re-degrades — the host burns a resolution and a
//! validation per flow on a policy that cannot work until someone
//! republishes it. The breaker sits in front of that attach path
//! and, after a run of consecutive failures on one [`PolicyKey`], sheds
//! subsequent attachments outright (counted pass-through, no resolve or
//! validate) for a cooldown, then lets a single half-open trial probe
//! whether the key has been fixed.
//!
//! The circuit opens after [`THRESHOLD`] (4) consecutive failures and
//! sheds [`COOLDOWN`] (8) attempts before the first trial; each failed
//! trial doubles the cooldown, up to [`MAX_COOLDOWN`] (64) attempts.
//!
//! Everything is deterministic and count-based — trips, cooldowns, and
//! trials are functions of the attempt sequence alone, never of wall
//! time — so breaker behaviour is bit-identical across `STOB_THREADS`
//! settings when each worker owns its own registry (the loader's model).

use crate::registry::PolicyKey;
use std::collections::BTreeMap;

/// Consecutive failures on one key before its circuit opens.
const THRESHOLD: u32 = 4;
/// Attempts shed while open before the first half-open trial.
const COOLDOWN: u32 = 8;
/// Upper bound on the cooldown, which each failed trial doubles.
const MAX_COOLDOWN: u32 = 64;

/// Per-key circuit state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Circuit {
    /// Normal operation; counts the current run of failures.
    Closed { consecutive_failures: u32 },
    /// Shedding attempts; `shed_remaining` counts down to the half-open
    /// trial, `cooldown` remembers the length to double on re-trip.
    Open { shed_remaining: u32, cooldown: u32 },
    /// One probe attempt is in flight; its outcome decides the state.
    HalfOpen { cooldown: u32 },
}

/// What the breaker says about one attachment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Proceed normally.
    Allow,
    /// Proceed, but this is the half-open probe: its outcome closes or
    /// re-opens the circuit.
    Trial,
    /// The circuit is open: skip the attach entirely (pass-through).
    Shed,
}

/// Lifetime totals, for reports and the chaos gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    pub trips: u64,
    pub shed: u64,
    pub(crate) trials: u64,
    pub(crate) closes: u64,
}

/// Deterministic, count-based circuit breaker keyed by resolved
/// [`PolicyKey`]. See the module docs for the state machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct CircuitBreaker {
    circuits: BTreeMap<PolicyKey, Circuit>,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// Ask whether an attachment attempt on `key` may proceed. Shed
    /// attempts count down the open cooldown; the attempt that exhausts
    /// it becomes the half-open trial.
    pub(crate) fn admit(&mut self, key: PolicyKey) -> Admission {
        let c = self.circuits.entry(key).or_insert(Circuit::Closed {
            consecutive_failures: 0,
        });
        match *c {
            Circuit::Closed { .. } => Admission::Allow,
            Circuit::Open {
                shed_remaining,
                cooldown,
            } => {
                if shed_remaining > 1 {
                    *c = Circuit::Open {
                        shed_remaining: shed_remaining - 1,
                        cooldown,
                    };
                    self.stats.shed += 1;
                    netsim::tm_counter!("stob.breaker.shed").inc();
                    Admission::Shed
                } else {
                    *c = Circuit::HalfOpen { cooldown };
                    self.stats.trials += 1;
                    netsim::tm_counter!("stob.breaker.trials").inc();
                    Admission::Trial
                }
            }
            Circuit::HalfOpen { .. } => {
                // A trial is already probing; hold everyone else off.
                self.stats.shed += 1;
                netsim::tm_counter!("stob.breaker.shed").inc();
                Admission::Shed
            }
        }
    }

    /// Report that an admitted attempt succeeded (attached cleanly).
    pub(crate) fn record_success(&mut self, key: PolicyKey) {
        let Some(c) = self.circuits.get_mut(&key) else {
            return;
        };
        if matches!(*c, Circuit::HalfOpen { .. }) {
            self.stats.closes += 1;
            netsim::tm_counter!("stob.breaker.closes").inc();
        }
        *c = Circuit::Closed {
            consecutive_failures: 0,
        };
    }

    /// Report that an admitted attempt failed (policy invalid, defense
    /// degraded). Trips the circuit at [`THRESHOLD`]; a
    /// failed half-open trial re-opens with a doubled cooldown.
    pub(crate) fn record_failure(&mut self, key: PolicyKey) {
        let c = self.circuits.entry(key).or_insert(Circuit::Closed {
            consecutive_failures: 0,
        });
        match *c {
            Circuit::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= THRESHOLD {
                    *c = Circuit::Open {
                        shed_remaining: COOLDOWN,
                        cooldown: COOLDOWN,
                    };
                    self.stats.trips += 1;
                    netsim::tm_counter!("stob.breaker.trips").inc();
                } else {
                    *c = Circuit::Closed {
                        consecutive_failures: n,
                    };
                }
            }
            Circuit::HalfOpen { cooldown } => {
                let doubled = (cooldown * 2).min(MAX_COOLDOWN);
                *c = Circuit::Open {
                    shed_remaining: doubled,
                    cooldown: doubled,
                };
                self.stats.trips += 1;
                netsim::tm_counter!("stob.breaker.trips").inc();
            }
            // A failure report against an open circuit (racing callers
            // sharing one registry): leave the countdown alone.
            Circuit::Open { .. } => {}
        }
    }

    pub(crate) fn stats(&self) -> BreakerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: PolicyKey = PolicyKey::Destination(7);

    /// Whether `KEY`'s circuit is open (shedding).
    fn is_open(b: &CircuitBreaker) -> bool {
        matches!(b.circuits.get(&KEY), Some(Circuit::Open { .. }))
    }

    #[test]
    fn closed_circuit_admits_everything() {
        let mut b = CircuitBreaker::default();
        for _ in 0..100 {
            assert_eq!(b.admit(KEY), Admission::Allow);
            b.record_success(KEY);
        }
        assert_eq!(b.stats(), BreakerStats::default());
    }

    /// Admit and fail `n` attempts on `KEY`.
    fn fail(b: &mut CircuitBreaker, n: u32) {
        for _ in 0..n {
            b.admit(KEY);
            b.record_failure(KEY);
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::default();
        for _ in 0..THRESHOLD - 1 {
            assert_eq!(b.admit(KEY), Admission::Allow);
            b.record_failure(KEY);
            assert!(!is_open(&b));
        }
        assert_eq!(b.admit(KEY), Admission::Allow);
        b.record_failure(KEY); // the THRESHOLD-th in a row: trips
        assert!(is_open(&b));
        assert_eq!(b.stats().trips, 1);
    }

    #[test]
    fn a_success_resets_the_failure_run() {
        let mut b = CircuitBreaker::default();
        fail(&mut b, THRESHOLD - 1);
        b.admit(KEY);
        b.record_success(KEY); // run broken
        fail(&mut b, THRESHOLD - 1);
        assert!(!is_open(&b), "run restarted after success");
    }

    #[test]
    fn open_circuit_sheds_then_offers_one_trial() {
        let mut b = CircuitBreaker::default();
        fail(&mut b, THRESHOLD);
        // COOLDOWN - 1 shed attempts, then the trial.
        for _ in 1..COOLDOWN {
            assert_eq!(b.admit(KEY), Admission::Shed);
        }
        assert_eq!(b.admit(KEY), Admission::Trial);
        // Concurrent attempts during the trial are shed too.
        assert_eq!(b.admit(KEY), Admission::Shed);
        b.record_success(KEY);
        assert_eq!(b.admit(KEY), Admission::Allow);
        let s = b.stats();
        assert_eq!(
            (s.trips, s.shed, s.trials, s.closes),
            (1, u64::from(COOLDOWN), 1, 1)
        );
    }

    #[test]
    fn failed_trial_doubles_the_cooldown_up_to_the_cap() {
        let mut b = CircuitBreaker::default();
        fail(&mut b, THRESHOLD); // trips; cooldown 8
                                 // Each failed trial doubles the cooldown: 16, 32, 64, then the
                                 // cap holds it at 64.
        for cooldown in [COOLDOWN, 16, 32, 64, MAX_COOLDOWN] {
            for _ in 1..cooldown {
                assert_eq!(b.admit(KEY), Admission::Shed, "cooldown {cooldown}");
            }
            assert_eq!(b.admit(KEY), Admission::Trial, "cooldown {cooldown}");
            b.record_failure(KEY);
        }
        assert_eq!(b.stats().trips, 6);
    }

    #[test]
    fn keys_are_independent_circuits() {
        let mut b = CircuitBreaker::default();
        fail(&mut b, THRESHOLD);
        assert!(is_open(&b));
        assert_eq!(b.admit(PolicyKey::Destination(8)), Admission::Allow);
        assert_eq!(b.admit(PolicyKey::Default), Admission::Allow);
    }
}
