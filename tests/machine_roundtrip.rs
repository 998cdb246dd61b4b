//! Property tests for the machine-spec JSON codec (mirroring
//! `policy_roundtrip.rs`): every representable [`MachineSpec`] must
//! survive `from_json(to_json(s)) == s` through the *textual* wire form
//! operators actually ship, and malformed or hostile specs must be
//! rejected at the control plane — degrading to pass-through with the
//! registry's `degraded` counter bumped, never panicking.

use defenses::front::FrontConfig;
use defenses::machines::{
    constant_machine, front_machine, regulator_machine, scrambler_machine, ConstantConfig,
    ScramblerConfig,
};
use defenses::regulator::RegulatorConfig;
use netsim::json::Json;
use netsim::{Direction, Histogram, Nanos, SimRng};
use stob::defense::{emulate_flow, DefenseCtx, FlowPkt, Placement};
use stob::machine::{
    Action, DistSpec, Machine, MachineDefense, MachineEvent, MachineSpec, State, Target, Transition,
};
use stob::policy::{ObfuscationPolicy, SizeSpec};
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::{publish_machine_json, publish_splitter_json};
use stob::{splitter_to_json, validate_splitter, SplitterSpec};

fn rand_histogram(rng: &mut SimRng) -> Histogram {
    let lo = rng.range_u64(0, 100) as f64;
    let hi = lo + rng.range_u64(1, 2000) as f64;
    let mut h = Histogram::new(lo, hi, rng.range_usize(1, 8));
    for _ in 0..rng.range_usize(1, 40) {
        h.push(rng.range_f64(lo, hi));
    }
    h
}

/// A random *valid* distribution. Integer-valued parameters where exact
/// f64 round-tripping matters is not a concern — the codec prints
/// shortest-round-trip floats — but keep values finite and in-range.
fn rand_dist(rng: &mut SimRng) -> DistSpec {
    match rng.range_usize(0, 7) {
        0 => DistSpec::Fixed {
            v: rng.range_f64(0.0, 2.0),
        },
        1 => {
            let lo = rng.range_f64(0.0, 1.0);
            DistSpec::Uniform {
                lo,
                hi: lo + rng.range_f64(0.0, 3.0),
            }
        }
        2 => DistSpec::Normal {
            mean: rng.range_f64(0.0, 1.0),
            std: rng.range_f64(0.0, 0.5),
        },
        3 => DistSpec::LogNormal {
            mu: rng.range_f64(-9.0, 0.0),
            sigma: rng.range_f64(0.0, 2.0),
        },
        4 => DistSpec::Pareto {
            scale: rng.range_f64(0.001, 1.0),
            shape: rng.range_f64(0.5, 4.0),
        },
        5 => DistSpec::Geometric {
            p: rng.range_f64(0.01, 1.0),
        },
        6 => {
            let w_min = rng.range_f64(0.0, 2.0);
            DistSpec::Rayleigh {
                w_min,
                w_max: w_min + rng.range_f64(0.0, 5.0),
            }
        }
        _ => DistSpec::FromHistogram(rand_histogram(rng)),
    }
}

fn rand_action(rng: &mut SimRng) -> Action {
    match rng.range_usize(0, 3) {
        0 => Action::Nop,
        1 => Action::Pad {
            dir: if rng.chance(0.5) {
                Direction::Out
            } else {
                Direction::In
            },
            size: rand_dist(rng),
            timing: rand_dist(rng),
            absolute: rng.chance(0.3),
        },
        2 => Action::Timer {
            timing: rand_dist(rng),
        },
        _ => Action::Block {
            timing: rand_dist(rng),
            duration: rand_dist(rng),
        },
    }
}

/// A random transition row over `n_states` whose probability mass sums
/// to at most 1 (split across up to 3 targets).
fn rand_transition(on: MachineEvent, n_states: usize, rng: &mut SimRng) -> Transition {
    let n_targets = rng.range_usize(1, 3);
    let mut remaining = 1.0;
    let to = (0..n_targets)
        .map(|_| {
            let p = rng.range_f64(0.0, remaining);
            remaining -= p;
            let t = if rng.chance(0.2) {
                Target::End
            } else {
                Target::State(rng.range_usize(0, n_states - 1) as u32)
            };
            (t, p)
        })
        .collect();
    Transition { on, to }
}

fn rand_machine(rng: &mut SimRng) -> Machine {
    let n_states = rng.range_usize(1, 5);
    let states = (0..n_states)
        .map(|_| {
            // At most one row per event: pick a random subset of events.
            let chosen: Vec<MachineEvent> = MachineEvent::ALL
                .into_iter()
                .filter(|_| rng.chance(0.4))
                .collect();
            let transitions = chosen
                .into_iter()
                .map(|ev| rand_transition(ev, n_states, rng))
                .collect();
            State {
                action: rand_action(rng),
                limit: if rng.chance(0.6) {
                    Some(rand_dist(rng))
                } else {
                    None
                },
                transitions,
            }
        })
        .collect();
    Machine { states }
}

/// A random spec that passes [`MachineSpec::validate`] by construction.
fn rand_spec(i: usize, rng: &mut SimRng) -> MachineSpec {
    MachineSpec {
        name: format!("machine-{i}"),
        machines: (0..rng.range_usize(1, 3))
            .map(|_| rand_machine(rng))
            .collect(),
        policy: if rng.chance(0.3) {
            Some(stob::policy::ObfuscationPolicy::split_and_delay("inner"))
        } else {
            None
        },
        max_padding_pkts: rng.range_u64(0, 500),
        max_blocking: Nanos(rng.range_u64(0, 1_000_000_000)),
    }
}

#[test]
fn random_specs_round_trip_exactly() {
    let mut rng = SimRng::new(0x3A5E_5EED);
    for i in 0..200 {
        let s = rand_spec(i, &mut rng);
        assert!(s.validate().is_ok(), "generator must emit valid specs: {i}");
        let text = s.to_json().to_string_compact();
        let back = MachineSpec::from_json(&Json::parse(&text).expect("parse"))
            .unwrap_or_else(|e| panic!("spec {i} failed to deserialize: {e:?}\n{text}"));
        assert_eq!(back, s, "round-trip drifted for spec {i}:\n{text}");
    }
}

#[test]
fn generator_specs_round_trip_exactly() {
    for s in [
        front_machine(&FrontConfig::default()),
        constant_machine(&ConstantConfig::default()),
        scrambler_machine(&ScramblerConfig::default()),
    ] {
        let text = s.to_json().to_string_pretty();
        let back = MachineSpec::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, s);
    }
}

#[test]
fn unknown_variant_tags_are_rejected() {
    let base = front_machine(&FrontConfig::default()).to_json();
    let text = base.to_string_compact();
    for (needle, replacement) in [
        ("\"Rayleigh\"", "\"Weibull\""),
        ("\"Uniform\"", "\"Zipf\""),
        ("\"Pad\"", "\"Inject\""),
        ("\"PaddingSent\"", "\"PaddingQueued\""),
        ("\"State\"", "\"Goto\""),
        ("\"End\"", "\"Halt\""),
    ] {
        let hostile = text.replacen(needle, replacement, 1);
        assert_ne!(hostile, text, "replacement {needle} must apply");
        let v = Json::parse(&hostile).expect("still syntactically valid");
        assert!(
            MachineSpec::from_json(&v).is_err(),
            "unknown tag {replacement} must be rejected"
        );
    }
}

#[test]
fn missing_fields_and_truncation_are_rejected() {
    let good = constant_machine(&ConstantConfig::default()).to_json();
    let Json::Obj(entries) = good.clone() else {
        panic!("spec must encode as an object")
    };
    for field in ["name", "machines", "max_padding_pkts", "max_blocking_ns"] {
        let pruned = Json::Obj(
            entries
                .iter()
                .filter(|(k, _)| k != field)
                .cloned()
                .collect(),
        );
        assert!(
            MachineSpec::from_json(&pruned).is_err(),
            "missing `{field}` must be rejected"
        );
    }
    let text = good.to_string_compact();
    for cut in [1, text.len() / 2, text.len() - 1] {
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "truncation at {cut} must not parse"
        );
    }
}

/// Shape-valid but semantically hostile specs decode fine, fail
/// `validate()`, and are refused by every control-plane entry point with
/// the degradation counter bumped — while a defense constructed from one
/// anyway silently degrades each flow to pass-through.
#[test]
fn hostile_specs_degrade_never_panic() {
    let mut hostile = front_machine(&FrontConfig::default());
    hostile.machines[0].states[0].transitions[0].to = vec![(Target::State(99), 1.0)];
    assert!(hostile.validate().is_err());
    let text = hostile.to_json().to_string_compact();
    let decoded =
        MachineSpec::from_json(&Json::parse(&text).expect("parse")).expect("shape-valid decodes");
    assert_eq!(decoded, hostile);

    let reg = PolicyRegistry::new();
    let d0 = reg.degraded_count();

    // bind_machine refuses and counts.
    assert!(reg
        .bind_machine(PolicyKey::Default, hostile.clone(), Placement::App)
        .is_err());
    assert_eq!(reg.degraded_count(), d0 + 1);
    assert!(reg.resolve_defense(1, 1).is_none(), "nothing was bound");

    // publish_machine_json refuses decoded-but-invalid...
    assert!(publish_machine_json(&reg, PolicyKey::Default, &text, Placement::App).is_err());
    assert_eq!(reg.degraded_count(), d0 + 2);
    // ...unparseable...
    assert!(publish_machine_json(&reg, PolicyKey::Default, "{not json", Placement::App).is_err());
    assert_eq!(reg.degraded_count(), d0 + 3);
    // ...and undecodable input.
    assert!(publish_machine_json(&reg, PolicyKey::Default, "{\"a\":1}", Placement::App).is_err());
    assert_eq!(reg.degraded_count(), d0 + 4);

    // A MachineDefense built around the hostile spec anyway (bypassing
    // the control plane) degrades every flow to pass-through.
    let d = MachineDefense::new(hostile);
    assert!(!d.is_valid());
    let flow = [
        FlowPkt {
            ts: Nanos::ZERO,
            dir: Direction::Out,
            size: 400,
        },
        FlowPkt {
            ts: Nanos::from_millis(1),
            dir: Direction::In,
            size: 1200,
        },
    ];
    let before = reg.degraded_count();
    let out = emulate_flow(&d, &flow, &DefenseCtx::default(), &mut SimRng::new(1));
    assert_eq!(out.pkts, flow);
    assert_eq!(out.dummy_pkts, 0);
    // The degradation is counted globally (telemetry), not on `reg`'s
    // private counter; just confirm nothing panicked and reg is stable.
    assert_eq!(reg.degraded_count(), before);
}

/// A `Regulate` size of `2^32 + 1514` must not pass the `<= 65 535` check
/// as 1514: it is refused at decode time, before `validate` sees it.
#[test]
fn regulate_size_beyond_u32_is_rejected_not_truncated() {
    let text_with_size = |size: u32| {
        let cfg = RegulatorConfig {
            packet_size: size,
            ..RegulatorConfig::default()
        };
        regulator_machine(&cfg).to_json().to_string_compact()
    };
    let reg = PolicyRegistry::new();
    let publish = |text: &str| publish_machine_json(&reg, PolicyKey::Default, text, Placement::App);

    let top = text_with_size(65_535);
    assert_eq!(top.matches("\"size\":65535").count(), 1, "{top}");
    let wide = top.replace("\"size\":65535", "\"size\":4294968810");
    let err = publish(&wide).expect_err("2^32 + 1514 accepted");
    assert!(
        err.contains("decode error") && err.contains("`size`"),
        "{err}"
    );
    assert!(reg.resolve_defense(1, 1).is_none(), "nothing was bound");

    // u32::MAX decodes as itself and is then out of `validate`'s range.
    let err = publish(&text_with_size(u32::MAX)).expect_err("u32::MAX validates");
    assert!(err.contains("regulate size 4294967295"), "{err}");
    assert_eq!(reg.degraded_count(), 2);

    publish(&top).expect("65 535 is the largest size validate allows");
    assert!(reg.resolve_defense(1, 1).is_some());
}

/// A spec that is shape- and semantics-valid but adversarially cyclic —
/// a zero-sampled limit whose `LimitReached` row re-enters its own state
/// — must be accepted by the control plane and then *terminate* when a
/// flow runs it (action budget -> hard cap), not overflow the stack.
#[test]
fn hostile_zero_limit_cycle_from_json_terminates() {
    let text = r#"{
      "name": "zero-limit-cycle",
      "machines": [ { "states": [
        { "action": "Nop",
          "limit": { "Fixed": { "v": 0 } },
          "transitions": [ { "on": "LimitReached",
                             "to": [[ {"State": 0}, 1.0 ]] } ] }
      ] } ],
      "max_padding_pkts": 8,
      "max_blocking_ns": 0
    }"#;
    let reg = PolicyRegistry::new();
    publish_machine_json(&reg, PolicyKey::Default, text, Placement::App)
        .expect("spec is valid at the control plane");
    let binding = reg.resolve_defense(1, 1).expect("machine resolves");
    let flow = [
        FlowPkt {
            ts: Nanos::ZERO,
            dir: Direction::Out,
            size: 400,
        },
        FlowPkt {
            ts: Nanos::from_millis(1),
            dir: Direction::In,
            size: 1200,
        },
    ];
    let out = emulate_flow(
        binding.defense.as_ref(),
        &flow,
        &DefenseCtx::default(),
        &mut SimRng::new(1),
    );
    assert_eq!(out.pkts, flow, "hostile machine must degrade to no-op");
    assert_eq!(out.dummy_pkts, 0);
}

/// One structural mutation of a valid document: a byte overwritten with
/// a JSON-significant one, dropped, or inserted. `None` when the result
/// is no longer UTF-8.
fn mutated(text: &str, rng: &mut SimRng) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let pos = rng.range_usize(0, bytes.len() - 1);
    match rng.range_usize(0, 2) {
        0 => bytes[pos] = b"0{}[],:\"xE-"[rng.range_usize(0, 10)],
        1 => {
            bytes.remove(pos);
        }
        _ => bytes.insert(pos, b"9[{,"[rng.range_usize(0, 3)]),
    }
    String::from_utf8(bytes).ok()
}

/// Fuzz the decoder with structural mutations of valid documents: every
/// outcome must be a clean `Err` or an equal decode — never a panic.
#[test]
fn mutated_documents_never_panic_the_decoder() {
    let mut rng = SimRng::new(0xFEED);
    let texts: Vec<String> = (0..20)
        .map(|i| rand_spec(i, &mut rng).to_json().to_string_compact())
        .collect();
    for text in &texts {
        for _ in 0..50 {
            let Some(s) = mutated(text, &mut rng) else {
                continue;
            };
            if let Ok(v) = Json::parse(&s) {
                // Decode may succeed or fail; validate may reject; a
                // defense over whatever decodes must still build.
                if let Ok(spec) = MachineSpec::from_json(&v) {
                    let _ = spec.validate();
                    let _ = MachineDefense::new(spec);
                }
            }
        }
    }
}

/// The same 1000 mutations against the table's bulk entry point. A
/// mutated export is imported whole or not at all: a rejection leaves the
/// version, the export and every resolution as they were; an accepted
/// one binds exactly the keys the document writes, one version step each.
#[test]
fn mutated_exports_import_all_or_nothing() {
    let mut rng = SimRng::new(0xFEED_0001);
    let keys = |export: &str| -> Vec<PolicyKey> {
        let doc = Json::parse(export).expect("an export parses");
        let pairs = doc.as_arr().expect("an export is an array");
        pairs
            .iter()
            .map(|pair| PolicyKey::from_json(&pair.as_arr().expect("pair")[0]).expect("key"))
            .collect()
    };
    let mut accepted = 0;
    for i in 0..20u32 {
        let source = PolicyRegistry::new();
        let mut morph = ObfuscationPolicy::passthrough(&format!("morph-{i}"));
        morph.size = SizeSpec::FromHistogram(rand_histogram(&mut rng));
        source.publish(PolicyKey::Flow(i), morph);
        source.publish(
            PolicyKey::Destination(i + 1),
            ObfuscationPolicy::split_and_delay("s3"),
        );
        source.publish(
            PolicyKey::Default,
            ObfuscationPolicy::incremental("inc", 20),
        );
        let text = source.export_json();
        for _ in 0..50 {
            let Some(s) = mutated(&text, &mut rng) else {
                continue;
            };
            let reg = PolicyRegistry::new();
            reg.publish(
                PolicyKey::Destination(999),
                ObfuscationPolicy::passthrough("resident"),
            );
            let (v0, before) = (reg.version(), reg.export_json());
            match reg.import_json(&s) {
                Err(_) => {
                    assert_eq!((reg.version(), reg.len()), (v0, 1), "{s}");
                    assert_eq!(reg.export_json(), before, "{s}");
                    assert!(reg.resolve_defense(i, i + 1).is_none(), "{s}");
                }
                Ok(n) => {
                    accepted += 1;
                    assert_eq!(reg.version(), v0 + n as u64, "{s}");
                    let mut written = keys(&s);
                    assert_eq!(written.len(), n, "{s}");
                    written.push(PolicyKey::Destination(999));
                    written.sort();
                    written.dedup();
                    assert_eq!(keys(&reg.export_json()), written, "{s}");
                }
            }
            assert_eq!(
                reg.resolve(u32::MAX, 999).expect("resident").name,
                "resident"
            );
        }
    }
    assert!(accepted > 0, "some mutations only touch a value");
}

/// And against the splitter's JSON publish: rejected-and-counted or
/// bound under the one key written, never anything else.
#[test]
fn mutated_splitters_reject_or_bind_only_their_key() {
    let mut rng = SimRng::new(0xFEED_0002);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..20 {
        let spec = match i % 4 {
            0 => SplitterSpec::RoundRobin,
            1 => SplitterSpec::PaddedRandom,
            _ => SplitterSpec::Weighted {
                weights: (0..rng.range_usize(1, 6))
                    .map(|_| rng.range_u64(1, 1_000_000))
                    .collect(),
            },
        };
        let text = splitter_to_json(&spec).to_string_compact();
        for _ in 0..50 {
            let Some(s) = mutated(&text, &mut rng) else {
                continue;
            };
            let reg = PolicyRegistry::new();
            match publish_splitter_json(&reg, PolicyKey::Destination(3), &s) {
                Err(_) => {
                    rejected += 1;
                    assert_eq!((reg.degraded_count(), reg.version()), (1, 0), "{s}");
                    assert!(reg.is_empty(), "{s}");
                    assert!(reg.resolve_splitter(0, 3).is_none(), "{s}");
                }
                Ok(name) => {
                    accepted += 1;
                    assert_eq!((reg.degraded_count(), reg.version()), (0, 1), "{s}");
                    assert_eq!(reg.len(), 1, "{s}");
                    let bound = reg.resolve_splitter(0, 3).expect("bound where written");
                    assert_eq!(bound.name(), name, "{s}");
                    assert!(validate_splitter(&bound).is_ok(), "{s}");
                    assert!(reg.resolve_splitter(3, 4).is_none(), "{s}");
                    assert!(reg.resolve_defense(0, 3).is_none(), "{s}");
                }
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
