//! End-to-end checks for the defenses-as-data runtime: seeded random
//! machine sweeps through both placement backends (never breaching the
//! §4.2 clamp, never panicking), placement invariance for padding-only
//! specs, the sockopt hot-swap path, and an operator-pushed JSON machine
//! running through `stob::fleet` bit-identically at 1 vs 4 threads with
//! the fleet auditor clean.

use defenses::front::FrontConfig;
use defenses::machines::{
    constant_machine, front_machine, scrambler_machine, ConstantConfig, ScramblerConfig,
};
use netsim::json::{Json, Wire};
use netsim::{par, Nanos, SimRng};
use stob::defense::{emulate_flow, enforce_flow, DefenseCtx, Placement, StackParams};
use stob::machine::{MachineDefense, MachineSpec};
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::publish_json;
use stob::{run_fleet, FleetConfig, FleetReport};

mod common;
use common::{arb_flow, arb_spec, SWEEP_CASES};

/// Satellite: N random bounded specs enforced through the egress
/// pipeline. Padding-only machines have no authority over real packets,
/// so §4.2 holds structurally: every real packet survives unmoved and
/// unshrunk, output stays time-sorted, dummy accounting is exact, and
/// the global padding cap is respected. Nothing panics.
#[test]
fn seeded_sweep_of_random_machines_is_safe_under_enforcement() {
    for case in 0..SWEEP_CASES {
        let mut rng = SimRng::new(0x5AFE).fork(case + 1);
        let spec = arb_spec(case, &mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("case {case}: generator emitted invalid spec: {e}"));
        let cap = spec.max_padding_pkts as usize;
        let d = MachineDefense::new(spec);
        let input = arb_flow(&mut rng);
        let out = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut rng,
            &StackParams::with_seed(0x5AFE ^ case),
        );
        assert_eq!(
            out.pkts.len(),
            input.len() + out.dummy_pkts,
            "case {case}: padding-only machines must not add or drop real packets"
        );
        assert!(out.dummy_pkts <= cap, "case {case}: global cap breached");
        // §4.2: real packets are untouched — removing the machine's
        // dummies from the output recovers the input multiset exactly.
        let mut remaining = input.clone();
        let mut dummies = 0usize;
        for p in &out.pkts {
            if let Some(ix) = remaining.iter().position(|q| q == p) {
                remaining.swap_remove(ix);
            } else {
                dummies += 1;
            }
        }
        assert!(
            remaining.is_empty(),
            "case {case}: a real packet was moved, resized, or dropped"
        );
        assert_eq!(dummies, out.dummy_pkts, "case {case}: dummy accounting");
        assert!(
            out.pkts.windows(2).all(|w| w[0].ts <= w[1].ts),
            "case {case}: output not time-sorted"
        );
    }
}

/// Padding-only machine specs are placement-invariant: the identical
/// schedule at the app layer and lowered under the stack clamp.
#[test]
fn random_machines_are_placement_invariant() {
    for case in 0..SWEEP_CASES {
        let mut rng = SimRng::new(0x9A17).fork(case + 1);
        let spec = arb_spec(case, &mut rng);
        let d = MachineDefense::new(spec);
        let input = arb_flow(&mut rng);
        let mut r1 = SimRng::new(case ^ 7);
        let mut r2 = SimRng::new(case ^ 7);
        let app = emulate_flow(&d, &input, &DefenseCtx::default(), &mut r1);
        let stk = enforce_flow(
            &d,
            &input,
            &DefenseCtx::default(),
            &mut r2,
            &StackParams::with_seed(case),
        );
        assert_eq!(app.pkts, stk.pkts, "case {case}");
        assert_eq!(app.dummy_pkts, stk.dummy_pkts, "case {case}");
    }
}

/// The acceptance-criteria path end to end: a machine shipped as JSON
/// text through the sockopt control plane, resolved from the registry,
/// run through both backends — then hot-swapped at runtime without
/// rebinding consumers.
#[test]
fn json_machine_loads_via_sockopt_runs_both_backends_and_hot_swaps() {
    let reg = PolicyRegistry::new();
    let text = front_machine(&FrontConfig {
        n_client: 10,
        n_server: 20,
        ..FrontConfig::default()
    })
    .to_json()
    .to_string_pretty();
    let name = publish_json(&reg, PolicyKey::Destination(7), &text, Placement::App).expect("valid");
    assert_eq!(name, "mFRONT");

    let binding = reg.resolve_defense(3, 7).expect("machine resolves");
    assert_eq!(binding.defense.name(), "mFRONT");
    assert_eq!(binding.placement, Placement::App);
    let input = arb_flow(&mut SimRng::new(42));
    let mut r1 = SimRng::new(5);
    let mut r2 = SimRng::new(5);
    let app = emulate_flow(
        binding.defense.as_ref(),
        &input,
        &DefenseCtx::default(),
        &mut r1,
    );
    let stk = enforce_flow(
        binding.defense.as_ref(),
        &input,
        &DefenseCtx::default(),
        &mut r2,
        &StackParams::with_seed(5),
    );
    assert!(app.dummy_pkts > 0);
    assert_eq!(app.pkts, stk.pkts, "padding-only: both backends agree");

    // Hot swap: republishing under the same key replaces the machine
    // for every subsequent resolution — no rebuild, no rebind.
    let v0 = reg.version();
    let text2 = constant_machine(&ConstantConfig::default())
        .to_json()
        .to_string_compact();
    publish_json(&reg, PolicyKey::Destination(7), &text2, Placement::Stack).expect("valid swap");
    assert!(reg.version() > v0);
    let swapped = reg.resolve_defense(3, 7).expect("still bound");
    assert_eq!(swapped.defense.name(), "mConstant");
    assert_eq!(swapped.placement, Placement::Stack);
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        seed: 0xF1EE7,
        flows: 600,
        shards: 16,
        sites: 8,
        pkts_per_flow: (5, 12),
        gap_ns: (10_000, 200_000),
        window: Nanos::from_millis(1),
    }
}

fn fleet_checks(r: &FleetReport) -> (u64, u64, u64, u64, u64) {
    (
        r.flows,
        r.egress_pkts,
        r.egress_bytes,
        r.dummy_pkts,
        r.checksum,
    )
}

/// Satellite + acceptance: an operator-pushed JSON machine resolves in
/// `stob::fleet`, pads, passes the fleet auditor, and the deterministic
/// checks are bit-identical at 1 vs 4 threads.
#[test]
fn fleet_runs_an_operator_pushed_machine_deterministically() {
    let reg = PolicyRegistry::new();
    let text = scrambler_machine(&ScramblerConfig {
        max_padding_pkts: 50,
        ..ScramblerConfig::default()
    })
    .to_json()
    .to_string_pretty();
    publish_json(&reg, PolicyKey::Default, &text, Placement::Stack).expect("valid");
    // And a second machine scoped to one destination, exercising
    // precedence under fleet resolution.
    let front = front_machine(&FrontConfig {
        n_client: 3,
        n_server: 6,
        w_min: 0.2,
        w_max: 0.8,
        dummy_size: 1514,
    });
    reg.bind_machine(PolicyKey::Destination(2), front, Placement::Stack)
        .expect("valid");

    let cfg = fleet_cfg();
    par::set_threads(1);
    let reference = run_fleet(&cfg, &reg);
    assert!(reference.clean(), "{:?}", reference.audit.violations);
    assert_eq!(reference.flows, cfg.flows);
    assert!(
        reference.dummy_pkts > 0,
        "machines must inject padding at fleet scale"
    );
    par::set_threads(4);
    let r4 = run_fleet(&cfg, &reg);
    assert_eq!(fleet_checks(&r4), fleet_checks(&reference), "threads=4");
    par::set_threads(0);
}

/// Random machines swept through the fleet engine: auditor always clean
/// (machine padding cannot violate §4.2 — only real pieces are audited,
/// and machines never touch them).
#[test]
fn random_machines_keep_the_fleet_auditor_clean() {
    for case in 0..8u64 {
        let mut rng = SimRng::new(0xF1E7).fork(case + 1);
        let spec = arb_spec(case, &mut rng);
        let reg = PolicyRegistry::new();
        reg.bind_machine(PolicyKey::Default, spec, Placement::Stack)
            .expect("valid");
        let cfg = FleetConfig {
            flows: 200,
            ..fleet_cfg()
        };
        let r = run_fleet(&cfg, &reg);
        assert!(r.clean(), "case {case}: {:?}", r.audit.violations);
        assert_eq!(r.flows, cfg.flows, "case {case}");
    }
}

/// The machine wire form itself is deterministic: generate → serialize →
/// decode → re-serialize is a fixed point (what the golden-refresh
/// pipeline relies on).
#[test]
fn wire_form_is_a_fixed_point() {
    for spec in [
        front_machine(&FrontConfig::default()),
        constant_machine(&ConstantConfig::default()),
        scrambler_machine(&ScramblerConfig::default()),
    ] {
        let t1 = spec.to_json().to_string_compact();
        let back = MachineSpec::from_json(&Json::parse(&t1).expect("parse")).expect("decode");
        let t2 = back.to_json().to_string_compact();
        assert_eq!(t1, t2);
    }
}

/// A limit of `Uniform {lo: 0, hi: 1e30}` is valid, and its count draw
/// saturates `hi` to `u64::MAX`: the inclusive range over all of `u64`
/// has no width that fits in one, so the draw used to panic in the
/// datapath. It now saturates to the padding cap like any huge count,
/// and only the global cap stops the machine.
#[test]
fn saturating_uniform_limit_from_json_runs_to_the_padding_cap() {
    let text = r#"{
      "name": "huge-limit",
      "machines": [ { "states": [
        { "action": { "Pad": { "dir": "In",
                               "size":   { "Fixed": { "v": 700 } },
                               "timing": { "Fixed": { "v": 0.001 } },
                               "absolute": false } },
          "limit": { "Uniform": { "lo": 0, "hi": 1e30 } },
          "transitions": [ { "on": "PaddingSent", "to": [[ {"State": 0}, 1.0 ]] },
                           { "on": "LimitReached", "to": [[ "End", 1.0 ]] } ] }
      ] } ],
      "max_padding_pkts": 5,
      "max_blocking_ns": 0
    }"#;
    let reg = PolicyRegistry::new();
    publish_json(&reg, PolicyKey::Default, text, Placement::App).expect("valid machine");
    let binding = reg.resolve_defense(1, 1).expect("machine resolves");
    let input = arb_flow(&mut SimRng::new(3));
    let app = emulate_flow(
        binding.defense.as_ref(),
        &input,
        &DefenseCtx::default(),
        &mut SimRng::new(4),
    );
    let stk = enforce_flow(
        binding.defense.as_ref(),
        &input,
        &DefenseCtx::default(),
        &mut SimRng::new(4),
        &StackParams::with_seed(4),
    );
    assert_eq!(app.dummy_pkts, 5);
    assert_eq!(app.pkts, stk.pkts);
}
