//! Property tests for the policy JSON codec: every representable
//! [`ObfuscationPolicy`] must survive `from_json(to_json(p)) == p`
//! through the *textual* form (the registry's export format), and
//! malformed inputs must fail loudly instead of decaying into a
//! different policy.

use netsim::json::{Json, Wire};
use netsim::{Direction, FlowId, Histogram, Nanos, SimRng};
use stack::ShapeCtx;
use stob::defense::{emulate_flow, DefenseCtx, FlowPkt, Placement};
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::{attach, publish_json, Attachment};

fn rand_histogram(rng: &mut SimRng) -> Histogram {
    // Integer bounds: bin edges then hold exact f64 values, so the
    // round-trip equality below tests the codec, not float printing.
    let lo = rng.range_u64(0, 100) as f64;
    let hi = lo + rng.range_u64(1, 2000) as f64;
    let mut h = Histogram::new(lo, hi, rng.range_usize(1, 8));
    for _ in 0..rng.range_usize(1, 40) {
        h.push(rng.range_f64(lo, hi));
    }
    h
}

fn rand_size(rng: &mut SimRng) -> SizeSpec {
    match rng.range_usize(0, 4) {
        0 => SizeSpec::Unchanged,
        1 => SizeSpec::SplitAbove {
            threshold: rng.range_u64(1, 1500) as u32,
        },
        2 => SizeSpec::IncrementalReduce {
            step: rng.range_u64(0, 100) as u32,
            steps: rng.range_u64(1, 20) as u32,
        },
        3 => SizeSpec::FromHistogram(rand_histogram(rng)),
        _ => SizeSpec::Fixed {
            ip_size: rng.range_u64(1, 1500) as u32,
        },
    }
}

fn rand_delay(rng: &mut SimRng) -> DelaySpec {
    match rng.range_usize(0, 3) {
        0 => DelaySpec::Unchanged,
        1 => {
            let lo = rng.range_f64(0.0, 0.5);
            DelaySpec::UniformFraction {
                lo_frac: lo,
                hi_frac: lo + rng.range_f64(0.0, 0.5),
            }
        }
        2 => {
            let lo = rng.range_u64(0, 1_000_000);
            DelaySpec::UniformAbsolute {
                lo: Nanos(lo),
                hi: Nanos(lo + rng.range_u64(0, 1_000_000)),
            }
        }
        _ => DelaySpec::FromHistogramMicros(rand_histogram(rng)),
    }
}

fn rand_tso(rng: &mut SimRng) -> TsoSpec {
    match rng.range_usize(0, 2) {
        0 => TsoSpec::Unchanged,
        1 => TsoSpec::IncrementalReduce {
            step: rng.range_u64(0, 16) as u32,
            steps: rng.range_u64(1, 12) as u32,
        },
        _ => TsoSpec::Cap {
            pkts: rng.range_u64(1, 64) as u32,
        },
    }
}

fn rand_policy(i: usize, rng: &mut SimRng) -> ObfuscationPolicy {
    ObfuscationPolicy {
        name: format!("policy-{i}"),
        size: rand_size(rng),
        delay: rand_delay(rng),
        tso: rand_tso(rng),
        first_n_pkts: rng.range_u64(0, 100),
        respect_slow_start: rng.next_f64() < 0.5,
    }
}

#[test]
fn random_policies_round_trip_exactly() {
    let mut rng = SimRng::new(0x5EED_CAFE);
    for i in 0..200 {
        let p = rand_policy(i, &mut rng);
        let text = p.to_json().to_string_compact();
        let back = ObfuscationPolicy::from_json(&Json::parse(&text).expect("parse"))
            .unwrap_or_else(|e| panic!("policy {i} failed to deserialize: {e:?}\n{text}"));
        assert_eq!(back, p, "round-trip drifted for policy {i}:\n{text}");
    }
}

#[test]
fn stock_policies_round_trip_exactly() {
    for p in [
        ObfuscationPolicy::passthrough("none"),
        ObfuscationPolicy::split_and_delay("s3"),
        ObfuscationPolicy::incremental("fig3", 20),
    ] {
        let text = p.to_json().to_string_pretty();
        let back =
            ObfuscationPolicy::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, p);
    }
}

#[test]
fn unknown_variant_tags_are_rejected() {
    for (field, bad) in [
        ("size", r#"{"Bogus":{"threshold":1}}"#),
        ("delay", r#"{"Exponential":{"mean":0.1}}"#),
        ("tso", r#""Disabled""#),
    ] {
        let mut obj = std::collections::BTreeMap::from([
            ("name", r#""m""#.to_string()),
            ("size", r#""Unchanged""#.to_string()),
            ("delay", r#""Unchanged""#.to_string()),
            ("tso", r#""Unchanged""#.to_string()),
            ("first_n_pkts", "0".to_string()),
            ("respect_slow_start", "false".to_string()),
        ]);
        obj.insert(field, bad.to_string());
        let text = format!(
            "{{{}}}",
            obj.iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let v = Json::parse(&text).expect("syntactically valid");
        assert!(
            ObfuscationPolicy::from_json(&v).is_err(),
            "unknown {field} variant must be rejected: {text}"
        );
    }
}

#[test]
fn missing_and_mistyped_fields_are_rejected() {
    let good = ObfuscationPolicy::split_and_delay("m").to_json();

    // Drop each required top-level field in turn.
    for field in [
        "name",
        "size",
        "delay",
        "tso",
        "first_n_pkts",
        "respect_slow_start",
    ] {
        let text = good.to_string_compact();
        // Rebuild without the field by decoding and re-encoding through
        // the generic Json value.
        let v = Json::parse(&text).expect("parse");
        let Json::Obj(entries) = v else {
            panic!("policy must encode as an object")
        };
        let pruned = Json::Obj(entries.into_iter().filter(|(k, _)| k != field).collect());
        assert!(
            ObfuscationPolicy::from_json(&pruned).is_err(),
            "missing `{field}` must be rejected"
        );
    }

    // Wrong scalar type.
    let v = Json::parse(
        r#"{"name":"m","size":"Unchanged","delay":"Unchanged","tso":"Unchanged",
            "first_n_pkts":"lots","respect_slow_start":false}"#,
    )
    .expect("parse");
    assert!(ObfuscationPolicy::from_json(&v).is_err());
}

#[test]
fn truncated_json_fails_to_parse() {
    let text = ObfuscationPolicy::split_and_delay("t")
        .to_json()
        .to_string_compact();
    for cut in [1, text.len() / 2, text.len() - 1] {
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "truncation at {cut} must not parse"
        );
    }
}

#[test]
fn forged_histogram_mass_deserializes_but_fails_validation() {
    // The codec is shape-only; semantic checks live in validate(). A
    // histogram whose claimed total disagrees with its bins must be
    // caught before it can drive a sampler.
    let mut h = Histogram::new(0.0, 1500.0, 4);
    h.push(700.0);
    h.total = 9;
    let mut p = ObfuscationPolicy::passthrough("forged");
    p.size = SizeSpec::FromHistogram(h);
    let text = p.to_json().to_string_compact();
    let back = ObfuscationPolicy::from_json(&Json::parse(&text).expect("parse"))
        .expect("shape-valid JSON decodes");
    assert_eq!(back, p);
    assert!(back.validate().is_err(), "forged mass must fail validation");
}

#[test]
fn policy_key_ids_beyond_u32_are_rejected_not_truncated() {
    // 2^32 + 1 must not wrap to Flow(1): the import fails whole and
    // binds nothing; u32::MAX is the largest id that decodes.
    let policy = ObfuscationPolicy::passthrough("p")
        .to_json()
        .to_string_compact();
    let export = |key: &str| format!("[[{key},{policy}]]");
    for key in ["Flow", "Destination"] {
        let r = PolicyRegistry::new();
        let wide = export(&format!("{{\"{key}\":4294967297}}"));
        assert!(r.import_json(&wide).is_err(), "{key}: 2^32 + 1 accepted");
        let edge = export(&format!("{{\"{key}\":4294967296}}"));
        assert!(r.import_json(&edge).is_err(), "{key}: 2^32 accepted");
        assert!(r.is_empty(), "{key}: a rejected import bound something");
        assert!(r.resolve(1, 1).is_none());
        let max = export(&format!("{{\"{key}\":{}}}", u32::MAX));
        assert_eq!(r.import_json(&max).expect("u32::MAX decodes"), 1);
        assert!(r.resolve(u32::MAX, u32::MAX).is_some());
    }
}

#[test]
fn u32_fields_beyond_u32_are_rejected_not_truncated() {
    // `2^32 + 1200` must not bind as 1200: the import fails whole and
    // binds nothing; u32::MAX is the largest value any field decodes.
    const MAX: u32 = u32::MAX;
    let with_size = |size| ObfuscationPolicy {
        size,
        ..ObfuscationPolicy::passthrough("p")
    };
    let with_tso = |tso| ObfuscationPolicy {
        tso,
        ..ObfuscationPolicy::passthrough("p")
    };
    let policies = [
        with_size(SizeSpec::SplitAbove { threshold: MAX }),
        with_size(SizeSpec::IncrementalReduce {
            step: MAX,
            steps: 1,
        }),
        with_size(SizeSpec::IncrementalReduce {
            step: 1,
            steps: MAX,
        }),
        with_size(SizeSpec::Fixed { ip_size: MAX }),
        with_tso(TsoSpec::IncrementalReduce {
            step: MAX,
            steps: 1,
        }),
        with_tso(TsoSpec::IncrementalReduce {
            step: 1,
            steps: MAX,
        }),
        with_tso(TsoSpec::Cap { pkts: MAX }),
    ];
    for p in policies {
        assert!(p.validate().is_ok(), "{p:?}");
        let max = format!("[[\"Default\",{}]]", p.to_json().to_string_compact());
        assert_eq!(max.matches("4294967295").count(), 1, "{max}");
        let r = PolicyRegistry::new();
        let wide = max.replace("4294967295", "4294968496");
        let err = r.import_json(&wide).expect_err("2^32 + 1200 accepted");
        assert!(err.message.contains("u32"), "{p:?}: {err}");
        assert!(r.is_empty(), "{p:?}: a rejected import bound something");
        assert_eq!(r.import_json(&max).expect("u32::MAX decodes"), 1);
        assert_eq!(r.resolve(1, 1).expect("bound"), p);
    }
}

/// Three delays `validate` used to accept, each large enough that the
/// app placement's accumulated shift overflowed ("attempt to add with
/// overflow" in `emulate_flow`), and `import_json` bound without
/// validating at all. An import now refuses each and counts it; the
/// emulation below runs only if one slips through.
#[test]
fn overflowing_delays_are_rejected_and_counted_at_import() {
    let flow: Vec<FlowPkt> = (0..20)
        .map(|i| FlowPkt::new(Nanos::from_millis(i), Direction::In, 1000))
        .collect();
    for delay in [
        r#"{"UniformAbsolute":{"lo":0,"hi":1.8e19}}"#,
        r#"{"UniformFraction":{"lo_frac":0,"hi_frac":1e301}}"#,
        r#"{"FromHistogramMicros":{"lo":0,"hi":1e300,"counts":[1],"total":1}}"#,
    ] {
        let export = format!(
            r#"[["Default",{{"name":"huge","size":"Unchanged","delay":{delay},"tso":"Unchanged","first_n_pkts":0,"respect_slow_start":false}}]]"#
        );
        let r = PolicyRegistry::new();
        if r.import_json(&export).is_ok() {
            let bound = r.resolve_defense(1, 1).expect("imported");
            let out = emulate_flow(
                bound.defense.as_ref(),
                &flow,
                &DefenseCtx::default(),
                &mut SimRng::new(1),
            );
            panic!("{delay} imported and shaped {} packets", out.pkts.len());
        }
        assert_eq!((r.degraded_count(), r.len()), (1, 0), "{delay}");
    }
}

/// A Figure 3 walk whose step passes validation (`validate` bounds
/// `steps`, not `step`) but whose `index × step` product does not fit a
/// `u32`. The reduction saturates: the walk drops to the floor and
/// resets, as any step past the MTU does, instead of panicking ("attempt
/// to multiply with overflow") or wrapping into a non-monotone walk.
#[test]
fn an_oversized_walk_step_saturates_at_both_placements() {
    let walk = |step: u64| {
        format!(
            r#"{{"name":"big-step","size":{{"IncrementalReduce":{{"step":{step},"steps":3}}}},"delay":"Unchanged","tso":{{"IncrementalReduce":{{"step":{step},"steps":3}}}},"first_n_pkts":0,"respect_slow_start":false}}"#
        )
    };
    let reg = PolicyRegistry::new();
    let key = PolicyKey::Default;
    let published = publish_json(&reg, key, &walk(2_147_483_649), Placement::Stack);
    assert_eq!(published.as_deref(), Ok("big-step"));

    // In-stack, through the attached connection's shaper.
    let mut shaper = attach(&reg, 1, 1, 7, &mut SimRng::new(7))
        .attached()
        .and_then(Attachment::into_shaper)
        .expect("a valid walk attaches with a shaper");
    let ctx = ShapeCtx {
        flow: FlowId(1),
        now: Nanos::ZERO,
        cwnd: 64 * 1448,
        pacing_rate_bps: None,
        in_slow_start: false,
        bytes_sent: 0,
        pkts_sent: 0,
        segs_sent: 0,
        mtu_ip: 1500,
        mss: 1448,
    };
    let sizes: Vec<u32> = (0..8)
        .map(|i| shaper.packet_ip_size(&ctx, i, 1500))
        .collect();
    let tso: Vec<u32> = (0..8).map(|_| shaper.tso_segment_pkts(&ctx, 44)).collect();
    assert_eq!(sizes, [1500, 1, 1, 1, 1500, 1, 1, 1]);
    assert_eq!(tso, [44, 1, 1, 1, 44, 1, 1, 1]);

    // At the application layer: the same pieces as a walk whose step
    // just clears the wire MTU, with no overflow in sight.
    let flow: Vec<FlowPkt> = (0..6)
        .map(|i| FlowPkt::new(Nanos::from_millis(i), Direction::In, 1000))
        .collect();
    let emulate = |text: &str| {
        let policy =
            ObfuscationPolicy::from_json(&Json::parse(text).expect("parses")).expect("decodes");
        emulate_flow(&policy, &flow, &DefenseCtx::default(), &mut SimRng::new(1)).pkts
    };
    let big = emulate(&walk(2_147_483_649));
    assert_eq!(big, emulate(&walk(1514)));
    assert!(
        big.iter().any(|p| p.size == 64),
        "the walk reached its floor"
    );
}
