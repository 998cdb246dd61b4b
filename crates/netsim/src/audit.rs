//! Runtime invariant checking for simulation runs.
//!
//! Fault injection ([`crate::fault`]) is only half the robustness story:
//! the other half is noticing when a fault pushes the stack or a defense
//! into violating one of the properties the reproduction rests on. The
//! [`Auditor`] collects those checks behind one switch:
//!
//! * **event-time monotonicity** — the simulation clock never runs
//!   backwards across popped events (or, where flows keep no shared
//!   clock, across one flow's events);
//! * **pacing-release ordering** — no segment departs the qdisc before
//!   the release time its shaper/pacer assigned;
//! * **the paper's §4.2 safety rule** — obfuscated departures never
//!   exceed what the congestion controller allowed at that instant;
//! * **byte/packet conservation** — everything injected into the path is
//!   eventually delivered, dropped (and counted), or still in transit.
//!
//! Violations are recorded as structured [`Violation`]s in an
//! [`AuditReport`] instead of panicking, so a faulted sweep can report
//! "0 violations across N checks" as a first-class experimental result —
//! and a deliberately broken run can prove the auditor actually fires.
//!
//! The auditor is on by default in debug builds; a release run turns it
//! on where the run is built, with [`Auditor::set_enabled`] (or
//! `Network::set_audit`, which every faulted page load calls). When
//! disabled every check is a cheap early-return.
//!
//! ```
//! use netsim::{Auditor, Nanos};
//! let mut a = Auditor::new();
//! a.set_enabled(true);
//! a.check_monotonic(Nanos(5));
//! a.check_monotonic(Nanos(3)); // clock ran backwards
//! let report = a.report();
//! assert_eq!(report.checks, 2);
//! assert_eq!(report.violations.len(), 1);
//! ```

use crate::time::Nanos;
use std::cell::Cell;

/// The invariant classes the auditor knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    TimeMonotonic,
    PacingRelease,
    SafetyRule,
    Conservation,
    /// A watched flow must be re-examined within a bounded multiple of its
    /// idle timeout: a stall watchdog that fires far past its deadline
    /// means the recovery runtime lost track of the flow.
    ForwardProgress,
    /// Multi-link conservation: every per-pipe ledger must balance on
    /// its own, and the per-pipe ledgers must sum to the flow's
    /// end-to-end ledger — a pipe silently losing FEC-unrecoverable
    /// bytes shows up here.
    MultipathConservation,
}

impl Invariant {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Invariant::TimeMonotonic => "time-monotonic",
            Invariant::PacingRelease => "pacing-release",
            Invariant::SafetyRule => "safety-rule",
            Invariant::Conservation => "conservation",
            Invariant::ForwardProgress => "forward-progress",
            Invariant::MultipathConservation => "multipath-conservation",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: Invariant,
    /// Simulation time at which the violation was observed.
    pub(crate) at: Nanos,
    pub(crate) detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ {}] {}",
            self.invariant.name(),
            self.at,
            self.detail
        )
    }
}

/// Summary of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of individual checks evaluated.
    pub checks: u64,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The invariant checker. One per simulation; checks are O(1) and the
/// caller supplies plain numbers, so `netsim` stays independent of the
/// stack crate's types.
#[derive(Debug)]
pub struct Auditor {
    enabled: bool,
    last_pop: Nanos,
    checks: u64,
    /// How many of `checks` `netsim.audit.checks` already counts.
    flushed: Cell<u64>,
    violations: Vec<Violation>,
    /// Cap so a systematically broken run cannot balloon memory.
    max_recorded: usize,
    dropped: u64,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor::new()
    }
}

impl Auditor {
    /// Debug builds audit by default; release builds only after
    /// [`Auditor::set_enabled`].
    pub fn new() -> Self {
        Auditor {
            enabled: cfg!(debug_assertions),
            last_pop: Nanos::ZERO,
            checks: 0,
            flushed: Cell::new(0),
            violations: Vec::new(),
            max_recorded: 256,
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, invariant: Invariant, at: Nanos, detail: String) {
        crate::tm_counter!("netsim.audit.violations").inc();
        if self.violations.len() < self.max_recorded {
            self.violations.push(Violation {
                invariant,
                at,
                detail,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Event-pop times must be non-decreasing.
    pub fn check_monotonic(&mut self, now: Nanos) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if now < self.last_pop {
            let last = self.last_pop;
            self.record(
                Invariant::TimeMonotonic,
                now,
                format!("event popped at {now} after clock reached {last}"),
            );
        }
        self.last_pop = now;
    }

    /// One flow's event times must be non-decreasing: `now` is the
    /// flow's next event, `prev` the one before it. For runs whose flows
    /// keep no shared clock, where [`Auditor::check_monotonic`] would
    /// compare unrelated flows' events.
    pub fn check_monotonic_after(&mut self, prev: Nanos, now: Nanos, flow: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if now < prev {
            self.record(
                Invariant::TimeMonotonic,
                now,
                format!("flow {flow}: event at {now} after the flow reached {prev}"),
            );
        }
    }

    /// A segment must not depart before its pacer/shaper release time.
    pub fn check_release(&mut self, now: Nanos, eligible_at: Nanos, flow: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if eligible_at > now {
            self.record(
                Invariant::PacingRelease,
                now,
                format!(
                    "flow {flow}: segment departed at {now} before its release time {eligible_at}"
                ),
            );
        }
    }

    /// §4.2 safety rule: bytes the flow has outstanding after a departure
    /// must not exceed the congestion-control grant (`allowed`).
    pub fn check_safety(&mut self, now: Nanos, flow: u64, outstanding: u64, allowed: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if outstanding > allowed {
            self.record(
                Invariant::SafetyRule,
                now,
                format!(
                    "flow {flow}: {outstanding} bytes outstanding exceeds the CCA grant of {allowed}"
                ),
            );
        }
    }

    /// Forward progress: when a stall watchdog examines a watched flow it
    /// must do so within `bound` of the flow's last observed progress
    /// (`idle` is `now - last_progress`). A larger gap means watchdog
    /// events were lost or scheduled wrong — the recovery runtime itself
    /// stalled, which would silently disable every retry above it.
    pub fn check_progress(&mut self, now: Nanos, flow: u64, idle: Nanos, bound: Nanos) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if idle > bound {
            self.record(
                Invariant::ForwardProgress,
                now,
                format!(
                    "flow {flow}: watchdog examined the flow {idle} after its last \
                     progress, past the {bound} forward-progress bound"
                ),
            );
        }
    }

    /// Path conservation: packets injected must equal delivered plus
    /// dropped plus still-in-transit. Checked whenever the caller's
    /// ledgers are supposed to balance (typically every delivery and at
    /// finalize).
    pub fn check_conservation(
        &mut self,
        now: Nanos,
        injected: u64,
        delivered: u64,
        dropped: u64,
        in_transit: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if injected != delivered + dropped + in_transit {
            self.record(
                Invariant::Conservation,
                now,
                format!(
                    "ledger off: injected {injected} != delivered {delivered} \
                     + dropped {dropped} + in transit {in_transit}"
                ),
            );
        }
    }

    /// Per-pipe conservation for a multi-link flow: one pipe's ledger
    /// must balance exactly like the end-to-end path ledger does. A
    /// lossy pipe that drops packets without counting them (e.g. an FEC
    /// group losing more packets than parity can repair, silently
    /// discarded) fails here.
    pub fn check_pipe_conservation(
        &mut self,
        now: Nanos,
        pipe: usize,
        injected: u64,
        delivered: u64,
        dropped: u64,
        in_transit: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if injected != delivered + dropped + in_transit {
            self.record(
                Invariant::MultipathConservation,
                now,
                format!(
                    "pipe {pipe} ledger off: injected {injected} != delivered {delivered} \
                     + dropped {dropped} + in transit {in_transit}"
                ),
            );
        }
    }

    /// Multi-link sum rule: the per-pipe ledgers of a flow, plus its
    /// default-path ledger, must sum to the flow's end-to-end ledger.
    /// `field` names the summed quantity ("injected", "delivered", ...)
    /// for the violation detail.
    pub fn check_multipath_sum(&mut self, now: Nanos, field: &str, pipe_sum: u64, flow_total: u64) {
        if !self.enabled {
            return;
        }
        self.checks += 1;
        if pipe_sum != flow_total {
            self.record(
                Invariant::MultipathConservation,
                now,
                format!(
                    "multipath sum off: per-pipe {field} sums to {pipe_sum} \
                     but the flow ledger counts {flow_total}"
                ),
            );
        }
    }

    /// Bring `netsim.audit.checks` up to date with this auditor: checks
    /// are counted in `self.checks` as they run and added to the
    /// process-wide counter here, once per report (and at drop), not by
    /// one shared-line atomic per check. An auditor that checked nothing
    /// leaves the counter unregistered.
    fn flush_checks(&self) {
        let fresh = self.checks - self.flushed.replace(self.checks);
        if fresh > 0 {
            crate::tm_counter!("netsim.audit.checks").add(fresh);
        }
    }

    pub fn report(&self) -> AuditReport {
        self.flush_checks();
        let mut r = AuditReport {
            checks: self.checks,
            violations: self.violations.clone(),
        };
        if self.dropped > 0 {
            let n = self.dropped;
            r.violations.push(Violation {
                invariant: Invariant::Conservation,
                at: self.last_pop,
                detail: format!("...and {n} further violations not recorded"),
            });
        }
        r
    }
}

impl Drop for Auditor {
    fn drop(&mut self) {
        self.flush_checks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Auditor {
        let mut a = Auditor::new();
        a.set_enabled(true);
        a
    }

    #[test]
    fn clean_run_reports_no_violations() {
        let mut a = on();
        for ms in [0u64, 1, 1, 2, 5] {
            a.check_monotonic(Nanos::from_millis(ms));
        }
        a.check_release(Nanos::from_millis(5), Nanos::from_millis(5), 1);
        a.check_safety(Nanos::from_millis(5), 1, 10_000, 20_000);
        a.check_conservation(Nanos::from_millis(5), 10, 7, 2, 1);
        let r = a.report();
        assert!(r.clean());
        assert_eq!(r.checks, 8);
    }

    #[test]
    fn backwards_clock_is_reported() {
        let mut a = on();
        a.check_monotonic(Nanos::from_millis(10));
        a.check_monotonic(Nanos::from_millis(9));
        let r = a.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, Invariant::TimeMonotonic);
    }

    #[test]
    fn per_flow_order_ignores_other_flows() {
        let mut a = on();
        // Two flows' events interleave backwards, each in order.
        a.check_monotonic_after(Nanos::ZERO, Nanos::from_millis(10), 1);
        a.check_monotonic_after(Nanos::ZERO, Nanos::from_millis(2), 2);
        a.check_monotonic_after(Nanos::from_millis(2), Nanos::from_millis(2), 2);
        assert!(a.report().clean());
        a.check_monotonic_after(Nanos::from_millis(10), Nanos::from_millis(9), 1);
        let r = a.report();
        assert_eq!(r.checks, 4);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, Invariant::TimeMonotonic);
        assert!(
            r.violations[0].detail.contains("flow 1"),
            "{}",
            r.violations[0].detail
        );
    }

    #[test]
    fn early_departure_is_reported() {
        let mut a = on();
        a.check_release(Nanos::from_millis(3), Nanos::from_millis(4), 7);
        let v = &a.report().violations[0];
        assert_eq!(v.invariant, Invariant::PacingRelease);
        assert!(v.detail.contains("flow 7"), "{}", v.detail);
    }

    #[test]
    fn safety_rule_breach_is_reported() {
        let mut a = on();
        a.check_safety(Nanos::from_millis(1), 3, 30_000, 20_000);
        let r = a.report();
        assert_eq!(r.violations[0].invariant, Invariant::SafetyRule);
        assert!(!r.clean());
    }

    #[test]
    fn progress_within_bound_is_clean() {
        let mut a = on();
        a.check_progress(
            Nanos::from_millis(100),
            4,
            Nanos::from_millis(50),
            Nanos::from_millis(100),
        );
        assert!(a.report().clean());
        assert_eq!(a.report().checks, 1);
    }

    #[test]
    fn late_watchdog_is_reported_as_forward_progress_violation() {
        let mut a = on();
        a.check_progress(
            Nanos::from_millis(500),
            4,
            Nanos::from_millis(450),
            Nanos::from_millis(100),
        );
        let r = a.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, Invariant::ForwardProgress);
        assert!(
            r.violations[0].detail.contains("flow 4"),
            "{}",
            r.violations[0].detail
        );
    }

    #[test]
    fn balanced_pipes_summing_to_flow_are_clean() {
        let mut a = on();
        let now = Nanos::from_millis(2);
        // Two pipes: 6 + 4 injected = 10 flow-wide, everything accounted.
        a.check_pipe_conservation(now, 0, 6, 5, 1, 0);
        a.check_pipe_conservation(now, 1, 4, 3, 0, 1);
        a.check_multipath_sum(now, "injected", 10, 10);
        a.check_multipath_sum(now, "delivered", 8, 8);
        assert!(a.report().clean());
    }

    #[test]
    fn silently_lossy_pipe_fires_multipath_conservation() {
        // The negative case the multi-link extension exists for: a pipe
        // dropped FEC-unrecoverable packets without counting them, so
        // its own ledger no longer balances.
        let mut a = on();
        let now = Nanos::from_millis(3);
        a.check_pipe_conservation(now, 1, 10, 7, 0, 1); // 2 packets vanished
        let r = a.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, Invariant::MultipathConservation);
        assert!(r.violations[0].detail.contains("pipe 1"), "{r:?}");
    }

    #[test]
    fn pipe_sum_mismatch_fires_multipath_conservation() {
        let mut a = on();
        a.check_multipath_sum(Nanos::from_millis(1), "delivered", 7, 9);
        let r = a.report();
        assert_eq!(r.violations[0].invariant, Invariant::MultipathConservation);
        assert!(r.violations[0].detail.contains("delivered"), "{r:?}");
    }

    #[test]
    fn conservation_mismatch_is_reported() {
        let mut a = on();
        a.check_conservation(Nanos::from_millis(1), 10, 5, 2, 1);
        assert_eq!(a.report().violations[0].invariant, Invariant::Conservation);
    }

    #[test]
    fn disabled_auditor_checks_nothing() {
        let mut a = Auditor::new();
        a.set_enabled(false);
        a.check_monotonic(Nanos::from_millis(10));
        a.check_monotonic(Nanos::from_millis(1));
        a.check_safety(Nanos::ZERO, 1, u64::MAX, 0);
        let r = a.report();
        assert_eq!(r.checks, 0);
        assert!(r.clean());
    }

    #[test]
    fn recording_is_capped() {
        let mut a = on();
        for i in 0..1000 {
            a.check_monotonic(Nanos::from_millis(1000 - i));
        }
        let r = a.report();
        assert!(r.violations.len() <= 257);
        assert!(r
            .violations
            .last()
            .expect("capped marker")
            .detail
            .contains("not recorded"));
    }
}
