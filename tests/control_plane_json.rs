//! The control plane's one wire codec (`netsim::json::Wire`) and its one
//! publish entry point (`stob::sockopt::publish_json`):
//!
//! - every document encodes to the bytes committed in
//!   `tests/golden/wire_bytes.json`, written before the codec moved into
//!   `netsim::json`, so a refactor of the format cannot change it;
//! - a key the type does not declare is an error at every level of every
//!   document kind, not a silently dropped field;
//! - `publish_json` binds each kind where it belongs and rejects, and
//!   counts, everything else.

use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::front::FrontConfig;
use defenses::machines::{
    constant_machine, front_machine, regulator_machine, scrambler_machine, ConstantConfig,
    ScramblerConfig,
};
use defenses::regulator::RegulatorConfig;
use netsim::json::{Json, Wire};
use netsim::{Direction, Histogram, Nanos};
use stob::defense::Placement;
use stob::machine::{
    Action, DistSpec, Machine, MachineEvent, MachineSpec, State, Target, Transition,
};
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use stob::sockopt::publish_json;
use stob::{PolicyKey, PolicyRegistry, SplitterSpec};

fn hist(lo: f64, hi: f64, bins: usize, xs: &[f64]) -> Histogram {
    let mut h = Histogram::new(lo, hi, bins);
    for &x in xs {
        h.push(x);
    }
    h
}

/// Policies that between them use every size, delay and TSO variant,
/// fractional histogram bounds and a name that needs escaping.
fn kitchen_policies() -> Vec<ObfuscationPolicy> {
    vec![
        ObfuscationPolicy {
            name: "sink-a".into(),
            size: SizeSpec::Fixed { ip_size: 900 },
            delay: DelaySpec::UniformAbsolute {
                lo: Nanos(1_500),
                hi: Nanos(250_000_000),
            },
            tso: TsoSpec::Cap { pkts: 4 },
            first_n_pkts: 45,
            respect_slow_start: true,
        },
        ObfuscationPolicy {
            name: "sink-b \"quoted\"\n".into(),
            size: SizeSpec::FromHistogram(hist(66.5, 1514.25, 7, &[70.0, 600.0, 1500.0, 1500.0])),
            delay: DelaySpec::FromHistogramMicros(hist(0.0, 12_345.678, 3, &[1.0, 9_000.0])),
            tso: TsoSpec::IncrementalReduce { step: 3, steps: 7 },
            first_n_pkts: 0,
            respect_slow_start: false,
        },
        ObfuscationPolicy {
            name: "sink-c".into(),
            size: SizeSpec::IncrementalReduce {
                step: 40,
                steps: 10,
            },
            delay: DelaySpec::UniformFraction {
                lo_frac: 0.05,
                hi_frac: 0.2,
            },
            tso: TsoSpec::Unchanged,
            first_n_pkts: 15,
            respect_slow_start: false,
        },
    ]
}

/// A valid spec using every action, distribution, event and target, an
/// optional limit both set and unset, and an inner policy.
fn kitchen_machine() -> MachineSpec {
    let pad = State {
        action: Action::Pad {
            dir: Direction::Out,
            size: DistSpec::FromHistogram(hist(0.0, 1500.0, 5, &[700.0, 1400.0])),
            timing: DistSpec::Rayleigh {
                w_min: 1.0,
                w_max: 7.5,
            },
            absolute: true,
        },
        limit: Some(DistSpec::Uniform { lo: 1.0, hi: 120.0 }),
        transitions: vec![
            Transition {
                on: MachineEvent::PaddingSent,
                to: vec![(Target::State(0), 1.0)],
            },
            Transition {
                on: MachineEvent::LimitReached,
                to: vec![(Target::State(1), 0.5), (Target::End, 0.25)],
            },
        ],
    };
    let block = State {
        action: Action::Block {
            timing: DistSpec::Fixed { v: 0.25 },
            duration: DistSpec::LogNormal {
                mu: -3.0,
                sigma: 0.5,
            },
        },
        limit: None,
        transitions: vec![Transition {
            on: MachineEvent::BlockingEnd,
            to: vec![(Target::State(2), 1.0)],
        }],
    };
    let timer = State {
        action: Action::Timer {
            timing: DistSpec::Normal {
                mean: 0.01,
                std: 0.002,
            },
        },
        limit: Some(DistSpec::Geometric { p: 0.3 }),
        transitions: vec![
            Transition {
                on: MachineEvent::TimerExpired,
                to: vec![(Target::State(3), 0.9)],
            },
            Transition {
                on: MachineEvent::PacketSent,
                to: vec![(Target::End, 1.0)],
            },
            Transition {
                on: MachineEvent::PacketReceived,
                to: vec![(Target::State(0), 0.1)],
            },
            Transition {
                on: MachineEvent::BlockingBegin,
                to: vec![(Target::End, 1.0)],
            },
        ],
    };
    let nop = State {
        action: Action::Nop,
        limit: Some(DistSpec::Pareto {
            scale: 0.5,
            shape: 2.0,
        }),
        transitions: vec![],
    };
    let regulate = Machine {
        states: vec![State {
            action: Action::Regulate {
                dir: Direction::Out,
                size: 1200,
                rate: 277.5,
                decay: 0.94,
                surge_threshold: 3,
                budget_frac: 1.5,
            },
            limit: None,
            transitions: vec![],
        }],
    };
    MachineSpec {
        name: "kitchen-sink".into(),
        machines: vec![
            Machine {
                states: vec![pad, block, timer, nop],
            },
            regulate,
        ],
        policy: Some(kitchen_policies().remove(1)),
        max_padding_pkts: 777,
        max_blocking: Nanos::from_millis(250),
    }
}

/// Every document of the fixture, named as the fixture names it: the
/// four machine generators and the kitchen-sink spec, the canned and
/// kitchen-sink policies, the three splitters, and one registry export.
fn documents() -> Vec<(String, String)> {
    let mut docs = Vec::new();
    for spec in [
        front_machine(&FrontConfig::default()),
        constant_machine(&ConstantConfig::default()),
        scrambler_machine(&ScramblerConfig::default()),
        regulator_machine(&RegulatorConfig::default()),
        kitchen_machine(),
    ] {
        docs.push((
            format!("machine {}", spec.name),
            spec.to_json().to_string_compact(),
        ));
    }
    let mut policies = vec![
        ObfuscationPolicy::passthrough("none"),
        ObfuscationPolicy::split_and_delay("s3"),
        ObfuscationPolicy::incremental("fig3", 20),
        stob::fit::fit_morphing_policy("morph", &[600, 650, 1400, 66], &[120.5, 800.0, 3.25], 6),
    ];
    for cm in CounterMeasure::all() {
        policies.push(Section3Defense::new(cm, EmulateConfig::default()).policy());
    }
    policies.extend(kitchen_policies());
    for p in &policies {
        docs.push((
            format!("policy {}", p.name),
            p.to_json().to_string_compact(),
        ));
    }
    for s in [
        SplitterSpec::RoundRobin,
        SplitterSpec::Weighted {
            weights: vec![3, 1, 4294967295],
        },
        SplitterSpec::PaddedRandom,
    ] {
        docs.push((
            format!("splitter {}", s.name()),
            s.to_json().to_string_compact(),
        ));
    }
    let reg = PolicyRegistry::new();
    reg.publish(PolicyKey::Default, ObfuscationPolicy::passthrough("d"));
    reg.publish(
        PolicyKey::Destination(4),
        ObfuscationPolicy::split_and_delay("cdn-4"),
    );
    reg.publish(PolicyKey::Flow(9), ObfuscationPolicy::incremental("f9", 20));
    reg.publish(PolicyKey::Flow(u32::MAX), policies[3].clone());
    docs.push(("registry export_json".to_string(), reg.export_json()));
    docs
}

#[test]
fn wire_bytes_match_the_committed_fixture() {
    let text = include_str!("golden/wire_bytes.json");
    let Json::Obj(fixture) = Json::parse(text).expect("the fixture parses") else {
        panic!("the fixture is an object")
    };
    let docs = documents();
    assert_eq!(docs.len(), fixture.len());
    for ((name, doc), (want_name, want)) in docs.iter().zip(&fixture) {
        assert_eq!(name, want_name);
        assert_eq!(Some(doc.as_str()), want.as_str(), "{name}");
    }
}

/// Publish a fixture document the way its kind is published.
fn publish(reg: &PolicyRegistry, name: &str, doc: &str) -> Result<(), String> {
    if name.starts_with("registry") {
        reg.import_json(doc).map(drop).map_err(|e| e.message)
    } else {
        publish_json(reg, PolicyKey::Flow(1), doc, Placement::Stack).map(drop)
    }
}

/// Every object in `v`, each as a copy of the document with `key` added
/// to that object alone.
fn with_key_added(v: &Json, key: &str) -> Vec<Json> {
    let mut out = Vec::new();
    match v {
        Json::Obj(entries) => {
            let mut grown = entries.clone();
            grown.push((key.to_string(), Json::Null));
            out.push(Json::Obj(grown));
            for (i, (_, child)) in entries.iter().enumerate() {
                for doc in with_key_added(child, key) {
                    let mut copy = entries.clone();
                    copy[i].1 = doc;
                    out.push(Json::Obj(copy));
                }
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                for doc in with_key_added(child, key) {
                    let mut copy = items.clone();
                    copy[i] = doc;
                    out.push(Json::Arr(copy));
                }
            }
        }
        _ => {}
    }
    out
}

/// Between them the fixture's documents use every policy, machine and
/// splitter struct: each publishes as written, and adding one key to any
/// object in it — a struct's fields or a variant's `{"Name": body}`
/// wrapper — gets the document rejected and counted, with nothing bound.
#[test]
fn unknown_keys_are_rejected_at_every_level() {
    let mut checked = 0;
    for (name, doc) in documents() {
        let reg = PolicyRegistry::new();
        publish(&reg, &name, &doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        for hostile in with_key_added(&Json::parse(&doc).expect("parse"), "zzz") {
            let text = hostile.to_string_compact();
            let reg = PolicyRegistry::new();
            let err = publish(&reg, &name, &text).expect_err(&text);
            let why = ["`zzz`", "variant", "not a machine spec"];
            assert!(why.iter().any(|w| err.contains(w)), "{text}: {err}");
            assert_eq!((reg.degraded_count(), reg.len()), (1, 0), "{text}");
            checked += 1;
        }
    }
    assert!(checked > 150, "{checked} objects");

    // The misspellings that used to bind: a state with no limit (it ran
    // 500 dummies where 3 were meant) and a spec with no policy.
    let spec = kitchen_machine().to_json().to_string_compact();
    for (field, typo) in [("\"limit\"", "\"limt\""), ("\"policy\"", "\"polcy\"")] {
        let reg = PolicyRegistry::new();
        let err = publish_json(
            &reg,
            PolicyKey::Default,
            &spec.replacen(field, typo, 1),
            Placement::App,
        )
        .expect_err(typo);
        assert!(
            err.contains(&format!("unknown field `{}`", typo.trim_matches('"'))),
            "{err}"
        );
        assert_eq!((reg.degraded_count(), reg.len()), (1, 0));
    }
}

#[test]
fn publish_json_dispatches_each_document_kind_and_rejects_the_rest() {
    let reg = PolicyRegistry::new();
    let machine = front_machine(&FrontConfig::default())
        .to_json()
        .to_string_pretty();
    let policy = ObfuscationPolicy::split_and_delay("s3")
        .to_json()
        .to_string_compact();
    let splitter = r#"{"Weighted":{"weights":[2,1]}}"#;
    let publish = |key, text: &str, placement| publish_json(&reg, key, text, placement);

    assert_eq!(
        publish(PolicyKey::Flow(1), &machine, Placement::App),
        Ok("mFRONT".into())
    );
    let b = reg.resolve_defense(1, 0).expect("machine bound");
    assert_eq!((b.defense.name(), b.placement), ("mFRONT", Placement::App));
    assert!(b.defense.as_policy().is_none());

    for (flow, placement) in [(2, Placement::App), (3, Placement::Stack)] {
        assert_eq!(
            publish(PolicyKey::Flow(flow), &policy, placement),
            Ok("s3".into())
        );
        let b = reg.resolve_defense(flow, 0).expect("policy bound");
        assert_eq!(b.placement, placement);
        assert_eq!(
            b.defense.as_policy(),
            Some(&ObfuscationPolicy::split_and_delay("s3"))
        );
    }
    // Only the stack-placed policy is part of the table's export.
    assert_eq!(reg.export_json().matches("\"s3\"").count(), 1);

    assert_eq!(
        publish(PolicyKey::Flow(4), splitter, Placement::Stack),
        Ok("weighted".into())
    );
    assert_eq!(
        reg.resolve_splitter(4, 0),
        Some(SplitterSpec::Weighted {
            weights: vec![2, 1]
        })
    );
    assert!(
        reg.resolve_defense(4, 0).is_none(),
        "a splitter is not a defense"
    );
    assert_eq!((reg.len(), reg.degraded_count()), (4, 0));

    let mut inverted = ObfuscationPolicy::split_and_delay("inverted");
    inverted.delay = DelaySpec::UniformFraction {
        lo_frac: 0.3,
        hi_frac: 0.1,
    };
    let nameless = MachineSpec::padding_only("", Vec::new(), 0);
    let rejected = [
        "{not json".to_string(),
        "42".to_string(),
        "null".to_string(),
        "[]".to_string(),
        r#"{"name":"neither"}"#.to_string(),
        r#""ZigZag""#.to_string(),
        r#"{"Weighted":{"weights":[]}}"#.to_string(),
        r#"{"RoundRobin":{}}"#.to_string(),
        inverted.to_json().to_string_compact(),
        nameless.to_json().to_string_compact(),
        reg.export_json(),
    ];
    let v0 = reg.version();
    for (i, text) in rejected.iter().enumerate() {
        let err = publish(PolicyKey::Default, text, Placement::Stack).expect_err(text);
        assert!(!err.is_empty());
        assert_eq!(reg.degraded_count(), i as u64 + 1, "{text}: counted once");
    }
    assert_eq!((reg.version(), reg.len()), (v0, 4), "nothing was bound");
}
