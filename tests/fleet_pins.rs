//! A pin for the fleet's owned-direction path, field for field.
//!
//! `tests/golden/fleet_{quick,full}.json` bind FRONT and policies only,
//! so no golden sends a direction a padding core re-emits (BuFLO,
//! Tamaraw, RegulaTor) through `run_fleet`. This test binds four such
//! defenses to separate destinations of one registry, one of them a
//! machine that regulates, pads and carries a size/delay policy, and
//! pins every report field that does not follow the shard layout. The
//! values were read at the commit before the padding core moved into
//! the shaping kernel; re-read them at the parent of the change under
//! test, never from the change.

use defenses::buflo::{BufloConfig, TamarawConfig};
use defenses::front::FrontConfig;
use defenses::machines::{front_machine, regulator_machine};
use defenses::regulator::RegulatorConfig;
use defenses::{BufloDefense, TamarawDefense};
use netsim::{par, Nanos};
use std::sync::Arc;
use stob::defense::{Defense, Placement};
use stob::machine::MachineDefense;
use stob::{run_fleet, FleetConfig, ObfuscationPolicy, PolicyKey, PolicyRegistry};

#[test]
fn owned_direction_defenses_through_the_fleet_are_pinned() {
    let mut mixed = regulator_machine(&RegulatorConfig::default());
    mixed.name = "regulate-pad-policy".into();
    mixed
        .machines
        .extend(front_machine(&FrontConfig::default()).machines);
    mixed.policy = Some(ObfuscationPolicy::split_and_delay("regulate-pad-policy"));
    mixed.validate().expect("the mixed spec validates");
    let bound: [Arc<dyn Defense>; 4] = [
        Arc::new(BufloDefense::new(BufloConfig::default())),
        Arc::new(TamarawDefense::new(TamarawConfig::default())),
        Arc::new(MachineDefense::new(regulator_machine(
            &RegulatorConfig::default(),
        ))),
        Arc::new(MachineDefense::new(mixed)),
    ];
    let reg = PolicyRegistry::new();
    for (dest, d) in (0u32..).zip(bound) {
        reg.bind_defense(PolicyKey::Destination(dest), d, Placement::Stack);
    }
    // Destination 4 stays unbound: pass-through flows in the same shards.
    let cfg = FleetConfig {
        seed: 0x0DD_F1EE7,
        flows: 400,
        shards: 8,
        sites: 5,
        pkts_per_flow: (6, 24),
        gap_ns: (10_000, 400_000),
        window: Nanos::from_millis(2),
    };
    par::set_threads(2);
    let r = run_fleet(&cfg, &reg);
    par::set_threads(0);
    assert!(r.clean(), "{:?}", r.audit.violations);
    assert_eq!(
        (
            r.flows,
            r.egress_pkts,
            r.egress_bytes,
            r.dummy_pkts,
            r.dummy_bytes,
            r.checksum,
            r.events,
            r.audit.checks,
            r.peak_resident,
            r.sim_end.as_nanos(),
        ),
        (
            400,
            200_865,
            302_559_981,
            195_644,
            296_205_016,
            0x55f7_fe61_c70a_0c4e,
            6_404,
            12_647,
            394,
            27_446_691_973,
        ),
    );
}
