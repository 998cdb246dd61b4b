//! The `setsockopt`-style control surface (§5.3).
//!
//! "The host stack already adjusts packet transmission behavior based on
//! the application-informed policies through setsockopt, including
//! TCP_NODELAY ... and TCP_CORK" — attaching an obfuscation policy to a
//! connection is the same kind of cross-layer hint, not a layering
//! violation. [`attach`] is that one call: resolve the flow's binding
//! from the shared registry, let the defense decide, validate what it
//! built, lower it into the live strategy inside the safety cap and the
//! guards, and hand over the shaper plus an audit handle. It only reads
//! the table: entries arrive through [`PolicyRegistry::publish`], the
//! `bind_*` calls, or the JSON wire forms at the bottom of this module.

use crate::breaker::Admission;
use crate::defense::{DefenseCtx, FlowDefense, Placement};
use crate::guard::{CcaPhaseGuard, FirstNGuard};
use crate::machine::MachineSpec;
use crate::policy::ObfuscationPolicy;
use crate::registry::{PolicyKey, PolicyRegistry};
use crate::safety::{SafetyAudit, SafetyCap};
use crate::splitter::splitter_from_json;
use crate::strategies::build_shaper;
use netsim::json::{Json, JsonError};
use netsim::SimRng;
use stack::shaper::BoxShaper;
use std::sync::Arc;

/// Assemble the full enforcement stack for one policy: the live strategy
/// from [`build_shaper`], inside the §4.2 [`SafetyCap`], inside the
/// guards the policy requests. Shared by [`attach`] (live connections
/// and the fleet) and the replay backend
/// ([`crate::defense::enforce_flow`]).
pub fn assemble_policy_shaper(
    policy: &ObfuscationPolicy,
    seed: u64,
    flow_salt: u64,
) -> (BoxShaper, Arc<SafetyAudit>) {
    let strategy = build_shaper(policy, seed, flow_salt);
    let cap = SafetyCap::new(strategy);
    let audit = cap.audit_handle();
    // Guard order: position guard innermost (counts data packets), CCA
    // phase guard outermost (a policy that must respect slow start is
    // silent there regardless of position).
    let guarded: BoxShaper = match (policy.respect_slow_start, policy.first_n_pkts) {
        (true, 0) => Box::new(CcaPhaseGuard::new(cap)),
        (true, n) => Box::new(CcaPhaseGuard::new(FirstNGuard::new(cap, n))),
        (false, 0) => Box::new(cap),
        (false, n) => Box::new(FirstNGuard::new(cap, n)),
    };
    (guarded, audit)
}

/// What [`attach`] hands the stack for a flow it is to shape.
pub struct Attachment {
    /// The key the binding was found under.
    pub key: PolicyKey,
    /// What the defense decided for this flow. The stack enforces
    /// `defense.policy` (through `shaper`); the padding schedule stays
    /// with whoever drives the flow — §4.2 scopes the stack's authority
    /// to sizing and departure timing of real data.
    pub defense: FlowDefense,
    /// `defense.policy` lowered: strategy inside the safety cap inside
    /// the guards. Install it with `set_shaper` / `connect_with`.
    pub shaper: BoxShaper,
    /// The safety cap's clamp counters for this connection.
    pub audit: Arc<SafetyAudit>,
}

impl Attachment {
    /// Name of the policy being enforced.
    pub fn name(&self) -> &str {
        &self.defense.policy.name
    }
}

/// Outcome of [`attach`]: a live shaper, or an explicit account of why
/// the stack runs this flow unshaped.
pub enum AttachOutcome {
    /// A stack-placed binding resolved, validated, and was assembled.
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
    /// The registry's circuit breaker ([`crate::breaker`]) is open for
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
/// in the stack, build, validate and lower it. `rng` feeds the defense's
/// per-flow `build` decisions (reference picks, budgets); `seed` and the
/// flow id feed the live strategy RNGs.
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
                Ok(()) => {
                    let (shaper, audit) =
                        assemble_policy_shaper(&defense.policy, seed, u64::from(flow));
                    AttachOutcome::Attached(Attachment {
                        key,
                        defense,
                        shaper,
                        audit,
                    })
                }
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

/// The wire half every JSON publish shares: parse `text`, then `decode`
/// the spec; the caller binds it (which validates). A spec that fails at
/// any of the three steps is rejected with the registry's degradation
/// counter bumped once; it never reaches the table.
fn decode_json<S>(
    registry: &PolicyRegistry,
    what: &str,
    text: &str,
    decode: impl FnOnce(&Json) -> Result<S, JsonError>,
) -> Result<S, String> {
    Json::parse(text)
        .map_err(|e| format!("{what} JSON parse error at {}: {}", e.offset, e.message))
        .and_then(|v| decode(&v).map_err(|e| format!("{what} decode error: {}", e.message)))
        .inspect_err(|_| registry.note_degraded())
}

/// Publish a machine defense from its JSON wire form — the full
/// defenses-as-data path an operator exercises: no recompile,
/// hot-swappable like any entry. Binds under `key` at `placement` via
/// [`PolicyRegistry::bind_machine`]; returns the bound machine's name.
pub fn publish_machine_json(
    registry: &PolicyRegistry,
    key: PolicyKey,
    json_text: &str,
    placement: Placement,
) -> Result<String, String> {
    let spec = decode_json(registry, "machine", json_text, MachineSpec::from_json)?;
    registry.bind_machine(key, spec, placement)
}

/// Publish a multipath splitting policy from its JSON wire form, bound
/// under `key` via [`PolicyRegistry::bind_splitter`]. The splitter is
/// resolved at multipath flow setup with the usual precedence and handed
/// to the `Multiplex` transport. Returns the bound spec's stable name.
pub fn publish_splitter_json(
    registry: &PolicyRegistry,
    key: PolicyKey,
    json_text: &str,
) -> Result<String, String> {
    let spec = decode_json(registry, "splitter", json_text, splitter_from_json)?;
    registry.bind_splitter(key, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::policy::DelaySpec;
    use netsim::{FlowId, Nanos};
    use stack::{ShapeCtx, Shaper};

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
            let mut a = attached(&reg, 1, dest);
            assert_eq!((a.name(), a.key), (name, PolicyKey::Destination(dest)));
            assert_eq!(a.shaper.packet_ip_size(&ctx(false, 0), 0, 1500), 750);
            assert!(a.shaper.extra_delay(&ctx(false, 0)) > Nanos::ZERO);
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
        let mut s = attached(&reg, 1, 1).shaper;
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
        let mut s = attached(&reg, 1, 1).shaper;
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
        reg.set_breaker(BreakerConfig {
            threshold: 3,
            cooldown: 4,
            max_cooldown: 16,
        });
        reg.publish(PolicyKey::Destination(5), invalid("bad"));
        // First three flows degrade normally and trip the circuit.
        for flow in 0..3 {
            assert!(matches!(att(&reg, flow, 5), AttachOutcome::Degraded { .. }));
        }
        assert_eq!(reg.degraded_count(), 3);
        // Cooldown of 4: three shed flows, then the half-open trial —
        // which degrades again (nothing was republished) and re-opens
        // the circuit with a doubled cooldown.
        for flow in 3..6 {
            match att(&reg, flow, 5) {
                AttachOutcome::Shed { key } => assert_eq!(key, PolicyKey::Destination(5)),
                _ => panic!("open circuit must shed"),
            }
        }
        assert!(matches!(att(&reg, 6, 5), AttachOutcome::Degraded { .. }));
        // Shed flows never touched validation: degradations counted
        // only the admitted attempts.
        assert_eq!(reg.degraded_count(), 4);
        let s = reg.breaker_stats().expect("breaker installed");
        assert_eq!((s.trips, s.shed, s.trials), (2, 3, 1));
        // Republishing a fixed policy heals the key at the next trial.
        reg.publish(
            PolicyKey::Destination(5),
            ObfuscationPolicy::split_and_delay("fixed"),
        );
        let healed = (7..30)
            .find_map(|flow| att(&reg, flow, 5).attached())
            .expect("trial with the fixed policy must close the circuit");
        assert_eq!(healed.name(), "fixed");
        assert_eq!(reg.breaker_stats().unwrap().closes, 1);
        // Closed circuit: everything attaches again.
        attached(&reg, 40, 5);
        // Other keys were never affected.
        reg.publish(
            PolicyKey::Destination(9),
            ObfuscationPolicy::split_and_delay("ok"),
        );
        attached(&reg, 41, 9);
    }

    /// Under an installed breaker, successes — attachments and app-layer
    /// deferrals alike — never open a circuit.
    #[test]
    fn checked_attach_passes_valid_policies_through() {
        let reg = PolicyRegistry::new();
        reg.set_breaker(BreakerConfig {
            threshold: 3,
            cooldown: 4,
            max_cooldown: 16,
        });
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
            let mut a = attached(&reg, flow, 5);
            assert_eq!(a.name(), "dest5");
            assert_eq!(a.shaper.packet_ip_size(&ctx(false, 0), 0, 1500), 750);
            assert!(matches!(att(&reg, flow, 6), AttachOutcome::AppLayer { .. }));
        }
        assert_eq!(reg.degraded_count(), 0);
        let s = reg.breaker_stats().expect("breaker installed");
        assert_eq!((s.trips, s.shed), (0, 0));
    }

    #[test]
    fn audit_survives_attachment() {
        let reg = PolicyRegistry::new();
        reg.publish(PolicyKey::Default, ObfuscationPolicy::split_and_delay("a"));
        let mut a = attached(&reg, 1, 1);
        let _ = a.shaper.packet_ip_size(&ctx(false, 0), 0, 1500);
        assert!(a.audit.decisions.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_eq!(a.audit.total_clamped(), 0, "benign policy never clamps");
    }
}
