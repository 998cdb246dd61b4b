//! `netsim.audit.checks` counts every check of every [`Auditor`] exactly
//! once, however often the auditor is reported before it is dropped.
//!
//! A binary of its own with this single test: the counter is
//! process-global, so an exact delta needs a process in which nothing
//! else audits.

use netsim::{telemetry, Auditor, Nanos};

#[test]
fn every_check_reaches_the_global_counter_exactly_once() {
    let counter = telemetry::counter("netsim.audit.checks");
    let before = counter.get();
    {
        let mut a = Auditor::new();
        a.set_enabled(true);
        for i in 0..400 {
            a.check_monotonic(Nanos(i));
        }
        assert_eq!(a.report().checks, 400);
        for i in 0..400 {
            a.check_release(Nanos(i), Nanos(i), 1);
        }
        let second = a.report();
        assert_eq!(second.checks, 800);
        assert!(second.clean());
        // Checks after the last report are still owed at drop.
        for i in 0..200 {
            a.check_safety(Nanos(i), 1, 10, 20);
        }
    }
    assert_eq!(counter.get() - before, 1_000);

    // A disabled auditor checks nothing and owes nothing.
    let mut off = Auditor::new();
    off.set_enabled(false);
    off.check_monotonic(Nanos(1));
    assert_eq!(off.report().checks, 0);
    drop(off);
    assert_eq!(counter.get() - before, 1_000);
}
