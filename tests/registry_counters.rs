//! The control plane's `stob.registry.*` counters tick once per thing
//! that happened: a resolution per lookup (whichever view asked, one per
//! `attach`), a withdrawal per key that actually went, a degradation per
//! rejection.
//!
//! A binary of its own with this single test: the counters are
//! process-global, and any other test touching a registry in the same
//! process would move them.

use netsim::{telemetry::counter, SimRng};
use stob::defense::Placement;
use stob::machine::MachineSpec;
use stob::policy::ObfuscationPolicy;
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::{attach, publish_splitter_json};
use stob::SplitterSpec;

#[test]
fn registry_counters_tick_once_per_event() {
    let binds = || {
        [
            counter("stob.registry.publishes").get(),
            counter("stob.registry.defense_binds").get(),
            counter("stob.registry.machine_binds").get(),
            counter("stob.registry.splitter_binds").get(),
        ]
    };
    let reg = PolicyRegistry::new();
    reg.publish(PolicyKey::Flow(7), ObfuscationPolicy::split_and_delay("p"));
    let machine = MachineSpec::padding_only("m", Vec::new(), 0);
    reg.bind_machine(PolicyKey::Destination(1), machine, Placement::App)
        .expect("valid machine");
    reg.bind_splitter(PolicyKey::Destination(1), SplitterSpec::RoundRobin)
        .expect("valid splitter");
    assert_eq!(binds(), [1, 1, 1, 1], "a machine bind is a defense bind");

    // One tick per walk — first-probe hit, fall-through, miss — whichever
    // view asks; `attach` is one walk.
    reg.resolve_defense(7, 0);
    reg.resolve_defense(8, 1);
    reg.resolve_splitter(8, 0);
    reg.resolve(7, 0);
    let _ = attach(&reg, 7, 0, 1, &mut SimRng::new(1));
    assert_eq!(counter("stob.registry.resolutions").get(), 5);

    // Rejections count as degradations and bind nothing.
    let nameless = MachineSpec::padding_only("", Vec::new(), 0);
    assert!(reg
        .bind_machine(PolicyKey::Default, nameless, Placement::App)
        .is_err());
    assert!(publish_splitter_json(&reg, PolicyKey::Default, "{not json").is_err());
    assert_eq!(counter("stob.registry.degraded").get(), 2);
    assert_eq!(binds(), [1, 1, 1, 1]);

    // A withdrawal is counted when something went, not when asked.
    assert!(reg.withdraw(PolicyKey::Destination(1)));
    assert!(!reg.withdraw(PolicyKey::Destination(1)));
    assert_eq!(counter("stob.registry.withdrawals").get(), 1);
}
