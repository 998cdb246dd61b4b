//! The `setsockopt`-style control surface (§5.3).
//!
//! "The host stack already adjusts packet transmission behavior based on
//! the application-informed policies through setsockopt, including
//! TCP_NODELAY ... and TCP_CORK" — attaching an obfuscation policy to a
//! connection is the same kind of cross-layer hint, not a layering
//! violation. [`attach`] is that one call: resolve the flow's binding
//! from the shared registry, let the defense decide and validate what it
//! built, once. The [`Attachment`] it hands over lowers the policy into
//! its one live shaper inside the safety cap when the stack asks
//! ([`Attachment::into_shaper`]), and the fleet drives the same lowering
//! through its replay kernel. It only reads the table:
//! entries arrive through [`PolicyRegistry::publish`], the
//! `bind_*` calls, [`PolicyRegistry::import_json`], or [`publish_json`]
//! at the bottom of this module — the one entry point for a JSON
//! document of any kind.

use crate::breaker::Admission;
use crate::defense::{DefenseCtx, FlowDefense, Placement, StackParams};
use crate::machine::MachineSpec;
use crate::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use crate::registry::{PolicyKey, PolicyRegistry};
use crate::safety::{SafetyAudit, SafetyCap};
use crate::splitter::SplitterSpec;
use crate::strategies::PolicyShaper;
use netsim::json::{variant, Json, JsonError, Wire};
use netsim::SimRng;
use stack::shaper::BoxShaper;
use std::sync::Arc;

/// Assemble the enforcement of a borrowed policy, audited: its
/// `PolicyShaper` (rules, first-N window and slow-start hold) inside the
/// §4.2 [`SafetyCap`], plus the cap's audit handle. It copies the rules
/// it lowers (not the name). A harness that owns its policy and reads
/// no audit lowers it through [`StackParams::shaper`] instead, moved and
/// unaudited, as an attached flow's policy does
/// ([`Attachment::into_shaper`]).
pub fn assemble_policy_shaper(
    policy: &ObfuscationPolicy,
    seed: u64,
    flow_salt: u64,
) -> (BoxShaper, Arc<SafetyAudit>) {
    let rules = ObfuscationPolicy {
        name: String::new(),
        size: policy.size.clone(),
        delay: policy.delay.clone(),
        tso: policy.tso.clone(),
        ..*policy
    };
    let mut cap = SafetyCap::new(PolicyShaper::new(rules, seed, flow_salt));
    let audit = cap.audit_handle();
    (Box::new(cap), audit)
}

/// What [`attach`] hands the stack for a flow it is to shape: the built,
/// validated defense, not yet lowered.
pub struct Attachment {
    /// What the defense decided for this flow. The stack enforces
    /// `defense.policy`; the padding schedule stays with whoever drives
    /// the flow — §4.2 scopes the stack's authority to sizing and
    /// departure timing of real data.
    pub(crate) defense: FlowDefense,
    /// The seed and flow salt (the flow id) the policy's RNGs draw from.
    pub(crate) params: StackParams,
}

impl Attachment {
    /// Name of the policy being enforced.
    pub fn name(&self) -> &str {
        &self.defense.policy.name
    }

    /// The flow's live shaper: the policy moved into its `PolicyShaper`
    /// inside the safety cap. Install it with `set_shaper` /
    /// `connect_with`. `None` for a policy without a rule (size, delay
    /// and TSO all `Unchanged`, as for a padding-only defense): the
    /// transport keeps its pass-through shaper, which answers as the
    /// capped pass-through policy would.
    pub fn into_shaper(self) -> Option<BoxShaper> {
        let p = &self.defense.policy;
        let rule_less = matches!(p.size, SizeSpec::Unchanged)
            && matches!(p.delay, DelaySpec::Unchanged)
            && matches!(p.tso, TsoSpec::Unchanged);
        (!rule_less).then(|| self.params.shaper(self.defense.policy))
    }
}

/// Outcome of [`attach`]: a live shaper, or an explicit account of why
/// the stack runs this flow unshaped.
pub enum AttachOutcome {
    /// A stack-placed binding resolved, built and validated.
    Attached(Attachment),
    /// The binding is placed at the application layer: the stack stays
    /// pass-through and emulation ([`crate::defense::emulate_flow`]) is
    /// responsible for the flow's shape.
    AppLayer { key: PolicyKey, name: String },
    /// Nothing is bound to this flow: pass-through by configuration.
    Unbound,
    /// The binding resolved but the policy it built failed
    /// [`ObfuscationPolicy::validate`]: the stack degrades to
    /// pass-through (counted in the registry) rather than shaping with
    /// inconsistent parameters or panicking in the datapath — it must
    /// never let obfuscation break delivery (§4.2).
    Degraded {
        key: PolicyKey,
        name: String,
        reason: String,
    },
    /// The registry's circuit breaker (`crate::breaker`) is open for
    /// the resolved key: a run of degradations tripped it, and this
    /// attempt was shed to pass-through without building or validating
    /// the broken binding again.
    Shed { key: PolicyKey },
}

impl AttachOutcome {
    /// The attachment, if one was made; every other outcome is the
    /// stack running the flow pass-through.
    pub fn attached(self) -> Option<Attachment> {
        match self {
            AttachOutcome::Attached(a) => Some(a),
            _ => None,
        }
    }
}

/// Resolve the binding for `(flow, destination)` and, when it is placed
/// in the stack, build and validate it. `rng` feeds the defense's
/// per-flow `build` decisions (reference picks, budgets); `seed` and the
/// flow id feed the live strategy RNGs when the attachment is lowered.
///
/// With a breaker installed ([`PolicyRegistry::set_breaker`]) every
/// admitted attempt reports its outcome against the resolved key, so a
/// run of consecutive degradations opens that key's circuit and later
/// attempts come back [`AttachOutcome::Shed`].
pub fn attach(
    registry: &PolicyRegistry,
    flow: u32,
    destination: u32,
    seed: u64,
    rng: &mut SimRng,
) -> AttachOutcome {
    let Some(binding) = registry.resolve_defense(flow, destination) else {
        return AttachOutcome::Unbound;
    };
    let key = binding.key;
    if registry.with_breaker(|b| b.admit(key)) == Some(Admission::Shed) {
        return AttachOutcome::Shed { key };
    }
    let name = || binding.defense.name().to_string();
    let outcome = match binding.placement {
        Placement::App => AttachOutcome::AppLayer { key, name: name() },
        Placement::Stack => {
            let defense = binding.defense.build(&DefenseCtx::default(), rng);
            match defense.policy.validate() {
                Ok(()) => AttachOutcome::Attached(Attachment {
                    defense,
                    params: StackParams::for_flow(seed, u64::from(flow)),
                }),
                Err(reason) => {
                    registry.note_degraded();
                    AttachOutcome::Degraded {
                        key,
                        name: name(),
                        reason,
                    }
                }
            }
        }
    };
    registry.with_breaker(|b| match outcome {
        AttachOutcome::Degraded { .. } => b.record_failure(key),
        _ => b.record_success(key),
    });
    outcome
}

/// Publish a JSON document under `key` — the one JSON entry point, and
/// the defenses-as-data path an operator exercises: no recompile, and a
/// re-publish hot-swaps the entry for later flows like any update. The
/// document says what it is:
///
/// - an object with `machines` is a [`MachineSpec`], bound at
///   `placement` through [`PolicyRegistry::bind_machine`];
/// - an object with `size` is an [`ObfuscationPolicy`], validated and
///   bound at `placement`;
/// - a splitter tag (`"RoundRobin"`, `{"Weighted": ...}`,
///   `"PaddedRandom"`) is a [`crate::SplitterSpec`], bound through
///   [`PolicyRegistry::bind_splitter`] (`placement` does not apply).
///
/// Anything else, and any document that fails to parse, decode (an
/// unknown key included) or validate, is rejected with the registry's
/// degradation counter bumped once; it never reaches the table. Returns
/// the bound entry's name.
pub fn publish_json(
    registry: &PolicyRegistry,
    key: PolicyKey,
    text: &str,
    placement: Placement,
) -> Result<String, String> {
    let rejected = |reason: String| {
        registry.note_degraded();
        reason
    };
    let doc = Json::parse(text)
        .map_err(|e| rejected(format!("JSON parse error at {}: {}", e.offset, e.message)))?;
    let decode_error =
        |what: &str, e: JsonError| rejected(format!("{what} decode error: {}", e.message));
    if doc.get("machines").is_some() {
        let spec = MachineSpec::from_json(&doc).map_err(|e| decode_error("machine", e))?;
        registry.bind_machine(key, spec, placement)
    } else if doc.get("size").is_some() {
        let policy = ObfuscationPolicy::from_json(&doc).map_err(|e| decode_error("policy", e))?;
        policy.validate().map_err(rejected)?;
        let name = policy.name.clone();
        registry.bind_defense(key, Arc::new(policy), placement);
        Ok(name)
    } else if let Ok(("RoundRobin" | "Weighted" | "PaddedRandom", _)) = variant(&doc, "splitter") {
        let spec = SplitterSpec::from_json(&doc).map_err(|e| decode_error("splitter", e))?;
        registry.bind_splitter(key, spec)
    } else {
        Err(rejected(
            "not a machine spec (`machines`), a policy (`size`) or a splitter tag".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DelaySpec;
    use netsim::{FlowId, Nanos};
    use stack::ShapeCtx;

    fn ctx(in_ss: bool, pkts_sent: u64) -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 14480,
            pacing_rate_bps: Some(1_000_000_000),
            in_slow_start: in_ss,
            bytes_sent: 0,
            pkts_sent,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    /// [`attach`] with the test-wide seed and a fresh build stream.
    fn att(reg: &PolicyRegistry, flow: u32, destination: u32) -> AttachOutcome {
        attach(reg, flow, destination, 42, &mut SimRng::new(9))
    }

    fn attached(reg: &PolicyRegistry, flow: u32, destination: u32) -> Attachment {
        att(reg, flow, destination)
            .attached()
            .expect("a valid stack binding attaches")
    }

    fn shaper(a: Attachment) -> BoxShaper {
        a.into_shaper().expect("a policy with a rule lowers")
    }

    /// A policy that fails validation (inverted jitter range).
    fn invalid(name: &str) -> ObfuscationPolicy {
        let mut bad = ObfuscationPolicy::split_and_delay(name);
        bad.delay = DelaySpec::UniformFraction {
            lo_frac: 0.30,
            hi_frac: 0.10,
        };
        bad
    }

    /// The two ways an entry reaches the table — published as a policy,
    /// bound as a stack-placed defense — attach alike.
    #[test]
    fn attach_resolves_and_shapes() {
        let reg = PolicyRegistry::new();
        reg.publish(
            PolicyKey::Destination(5),
            ObfuscationPolicy::split_and_delay("dest5"),
        );
        reg.bind_defense(
            PolicyKey::Destination(6),
            Arc::new(ObfuscationPolicy::split_and_delay("s3")),
            Placement::Stack,
        );
        for (dest, name) in [(5, "dest5"), (6, "s3")] {
            let a = attached(&reg, 1, dest);
            assert_eq!(a.name(), name);
            let mut s = shaper(a);
            assert_eq!(s.packet_ip_size(&ctx(false, 0), 0, 1500), 750);
            assert!(s.extra_delay(&ctx(false, 0)) > Nanos::ZERO);
        }
        assert_eq!(reg.degraded_count(), 0);
    }

    #[test]
    fn attach_returns_none_without_policy() {
        let reg = PolicyRegistry::new();
        assert!(matches!(att(&reg, 1, 5), AttachOutcome::Unbound));
        assert!(att(&reg, 1, 5).attached().is_none());
        assert_eq!(reg.degraded_count(), 0);
    }

    #[test]
    fn app_placement_defers_to_emulation() {
        let reg = PolicyRegistry::new();
        reg.bind_defense(
            PolicyKey::Default,
            Arc::new(ObfuscationPolicy::split_and_delay("s3")),
            Placement::App,
        );
        match att(&reg, 1, 1) {
            AttachOutcome::AppLayer { key, name } => {
                assert_eq!((key, name.as_str()), (PolicyKey::Default, "s3"));
            }
            _ => panic!("app binding must leave the stack pass-through"),
        }
    }

    #[test]
    fn slow_start_respecting_policy_is_silent_in_startup() {
        let reg = PolicyRegistry::new();
        let mut p = ObfuscationPolicy::split_and_delay("careful");
        p.respect_slow_start = true;
        reg.publish(PolicyKey::Default, p);
        let mut s = shaper(attached(&reg, 1, 1));
        assert_eq!(s.packet_ip_size(&ctx(true, 0), 0, 1500), 1500);
        assert_eq!(s.extra_delay(&ctx(true, 0)), Nanos::ZERO);
        assert_eq!(s.packet_ip_size(&ctx(false, 0), 0, 1500), 750);
    }

    #[test]
    fn first_n_policy_stops_after_n() {
        let reg = PolicyRegistry::new();
        let mut p = ObfuscationPolicy::split_and_delay("front");
        p.first_n_pkts = 30;
        reg.publish(PolicyKey::Default, p);
        let mut s = shaper(attached(&reg, 1, 1));
        assert_eq!(s.packet_ip_size(&ctx(false, 29), 0, 1500), 750);
        assert_eq!(s.packet_ip_size(&ctx(false, 30), 0, 1500), 1500);
    }

    /// Invalid entries degrade and count, however they were written.
    #[test]
    fn checked_attach_degrades_on_an_invalid_policy() {
        let reg = PolicyRegistry::new();
        reg.publish(PolicyKey::Default, invalid("bad"));
        reg.bind_defense(
            PolicyKey::Flow(2),
            Arc::new(invalid("bad-bound")),
            Placement::Stack,
        );
        for (flow, want_key, want_name) in [
            (1, PolicyKey::Default, "bad"),
            (2, PolicyKey::Flow(2), "bad-bound"),
        ] {
            match att(&reg, flow, 1) {
                AttachOutcome::Degraded { key, name, reason } => {
                    assert_eq!((key, name.as_str()), (want_key, want_name));
                    assert!(!reason.is_empty());
                }
                _ => panic!("invalid policy must degrade"),
            }
        }
        assert_eq!(reg.degraded_count(), 2);
        // Degradation folds to pass-through, and is counted every time.
        assert!(att(&reg, 1, 1).attached().is_none());
        assert_eq!(reg.degraded_count(), 3);
    }

    #[test]
    fn breaker_sheds_attachments_on_a_repeatedly_failing_key() {
        let reg = PolicyRegistry::new();
        reg.set_breaker();
        reg.publish(PolicyKey::Destination(5), invalid("bad"));
        // The first four flows degrade normally and trip the circuit.
        for flow in 0..4 {
            assert!(matches!(att(&reg, flow, 5), AttachOutcome::Degraded { .. }));
        }
        assert_eq!(reg.degraded_count(), 4);
        // Cooldown of 8: seven shed flows, then the half-open trial —
        // which degrades again (nothing was republished) and re-opens
        // the circuit with a doubled cooldown.
        for flow in 4..11 {
            match att(&reg, flow, 5) {
                AttachOutcome::Shed { key } => assert_eq!(key, PolicyKey::Destination(5)),
                _ => panic!("open circuit must shed"),
            }
        }
        assert!(matches!(att(&reg, 11, 5), AttachOutcome::Degraded { .. }));
        // Shed flows never touched validation: degradations counted
        // only the admitted attempts.
        assert_eq!(reg.degraded_count(), 5);
        let s = reg.breaker_stats().expect("breaker installed");
        assert_eq!((s.trips, s.shed, s.trials), (2, 7, 1));
        // Republishing a fixed policy heals the key at the next trial.
        reg.publish(
            PolicyKey::Destination(5),
            ObfuscationPolicy::split_and_delay("fixed"),
        );
        // The doubled cooldown of 16 sheds flows 12..27; flow 27 is the trial.
        let healed = (12..40)
            .find_map(|flow| att(&reg, flow, 5).attached())
            .expect("trial with the fixed policy must close the circuit");
        assert_eq!(healed.name(), "fixed");
        assert_eq!(reg.breaker_stats().unwrap().closes, 1);
        // Closed circuit: everything attaches again.
        attached(&reg, 50, 5);
        // Other keys were never affected.
        reg.publish(
            PolicyKey::Destination(9),
            ObfuscationPolicy::split_and_delay("ok"),
        );
        attached(&reg, 51, 9);
    }

    /// Under an installed breaker, successes — attachments and app-layer
    /// deferrals alike — never open a circuit.
    #[test]
    fn checked_attach_passes_valid_policies_through() {
        let reg = PolicyRegistry::new();
        reg.set_breaker();
        reg.publish(
            PolicyKey::Destination(5),
            ObfuscationPolicy::split_and_delay("dest5"),
        );
        reg.bind_defense(
            PolicyKey::Destination(6),
            Arc::new(ObfuscationPolicy::split_and_delay("app6")),
            Placement::App,
        );
        for flow in 0..20 {
            let a = attached(&reg, flow, 5);
            assert_eq!(a.name(), "dest5");
            assert_eq!(shaper(a).packet_ip_size(&ctx(false, 0), 0, 1500), 750);
            assert!(matches!(att(&reg, flow, 6), AttachOutcome::AppLayer { .. }));
        }
        assert_eq!(reg.degraded_count(), 0);
        let s = reg.breaker_stats().expect("breaker installed");
        assert_eq!((s.trips, s.shed), (0, 0));
    }

    /// Weights whose sum overflows the splitter's `i64` credits — or that
    /// JSON can only carry as a float past `u64` — are refused at publish
    /// time instead of panicking (or wrapping) on the datapath.
    #[test]
    fn publish_splitter_json_rejects_overflowing_weights() {
        let reg = PolicyRegistry::new();
        for text in [
            r#"{"Weighted":{"weights":[4611686018427387904,4611686018427387904]}}"#,
            r#"{"Weighted":{"weights":[1e300,1]}}"#,
            r#"{"Weighted":{"weights":[4294967296,1]}}"#,
        ] {
            let got = publish_json(&reg, PolicyKey::Default, text, Placement::Stack);
            assert!(got.is_err(), "{text} bound as {got:?}");
        }
        let max = r#"{"Weighted":{"weights":[4294967295,1]}}"#;
        assert!(publish_json(&reg, PolicyKey::Default, max, Placement::Stack).is_ok());
    }

    #[test]
    fn audit_survives_attachment() {
        let policy = ObfuscationPolicy::split_and_delay("a");
        let (mut shaper, audit) = assemble_policy_shaper(&policy, 1, 1);
        let _ = shaper.packet_ip_size(&ctx(false, 0), 0, 1500);
        assert!(audit.decisions.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_eq!(audit.total_clamped(), 0, "benign policy never clamps");
    }
}
