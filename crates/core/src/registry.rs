//! The shared policy table between applications and the stack.
//!
//! §4.1: policies "could be maintained in the shared memory between the
//! application and stack". We model that as a registry protected by an
//! `RwLock` behind an `Arc`: the application side publishes and updates
//! entries; the stack side resolves them per flow or per destination
//! with a read lock on the datapath. There is **one** keyed table of
//! [`DefenseBinding`]s — a published [`ObfuscationPolicy`] is stored as
//! the stack-placed defense it already is — so "which defense shapes
//! this flow" has one answer. Specs sit behind an `Arc`: a resolved
//! binding never blocks behind a writer.

use crate::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use crate::defense::{Defense, Placement};
use crate::machine::{MachineDefense, MachineSpec};
use crate::policy::ObfuscationPolicy;
use crate::splitter::{validate_splitter, SplitterSpec};
use netsim::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// What an entry is keyed on. Destination-scoped entries let many flows
/// to the same server share one instance (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKey {
    /// A specific flow.
    Flow(u32),
    /// All flows to a destination (server id in our model).
    Destination(u32),
    /// The host-wide default.
    Default,
}

/// One entry of the table: a defense together with where it is to be
/// enforced — at the application layer (trace emulation) or inside the
/// stack (lowered into a shaper) — and the key it sits under.
#[derive(Clone)]
pub struct DefenseBinding {
    /// The key the entry was found under: the flow class the circuit
    /// breaker tracks attach outcomes against.
    pub key: PolicyKey,
    /// The placement-agnostic decision spec.
    pub defense: Arc<dyn Defense>,
    /// Which backend enforces it.
    pub placement: Placement,
}

#[derive(Default)]
struct Inner {
    bindings: BTreeMap<PolicyKey, DefenseBinding>,
    /// Multipath splitting policies (see [`crate::splitter`]): which leg
    /// carries each datagram, resolved with the same precedence.
    splitters: BTreeMap<PolicyKey, SplitterSpec>,
    /// Bumped once per mutated entry; lets the stack cache resolutions.
    version: u64,
}

/// Shared, concurrently readable policy registry.
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    inner: Arc<RwLock<Inner>>,
    /// Specs rejected at the control plane plus attachments that fell
    /// back to pass-through (shared across clones, like the table
    /// itself — it is the host's degradation counter).
    degraded: Arc<AtomicU64>,
    /// Optional circuit breaker over [`crate::sockopt::attach`], keyed
    /// by resolved [`PolicyKey`] (shared across clones; unset =
    /// disabled, the default, and one load per attach — no lock).
    breaker: Arc<OnceLock<Mutex<CircuitBreaker>>>,
}

fn bad(message: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: message.to_string(),
    }
}

impl PolicyKey {
    pub fn to_json(&self) -> Json {
        match self {
            PolicyKey::Flow(id) => Json::obj().set("Flow", *id),
            PolicyKey::Destination(id) => Json::obj().set("Destination", *id),
            PolicyKey::Default => Json::from("Default"),
        }
    }

    pub fn from_json(v: &Json) -> Result<PolicyKey, JsonError> {
        match v {
            Json::Str(s) if s == "Default" => Ok(PolicyKey::Default),
            Json::Obj(entries) if entries.len() == 1 => {
                let id = entries[0]
                    .1
                    .as_u32()
                    .ok_or_else(|| bad("policy key id is not a u32"))?;
                match entries[0].0.as_str() {
                    "Flow" => Ok(PolicyKey::Flow(id)),
                    "Destination" => Ok(PolicyKey::Destination(id)),
                    tag => Err(bad(&format!("unknown PolicyKey variant `{tag}`"))),
                }
            }
            _ => Err(bad("expected a PolicyKey")),
        }
    }
}

impl PolicyRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every mutation: `edit` the tables under the write lock and report
    /// how many entries changed; the version moves by exactly that. A
    /// poisoned lock is recovered — each edit is a run of `insert` /
    /// `remove` calls, so a panicked writer cannot tear an entry.
    fn mutate(&self, edit: impl FnOnce(&mut Inner) -> usize) -> usize {
        let mut g = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let changed = edit(&mut g);
        g.version += changed as u64;
        changed
    }

    /// Every resolution: one tick, one precedence walk over `table` —
    /// exact flow match, then its destination, then the host default.
    fn lookup<T: Clone>(
        &self,
        table: impl FnOnce(&Inner) -> &BTreeMap<PolicyKey, T>,
        flow: u32,
        destination: u32,
    ) -> Option<T> {
        netsim::tm_counter!("stob.registry.resolutions").inc();
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let table = table(&g);
        let hit = table.get(&PolicyKey::Flow(flow));
        let hit = hit.or_else(|| table.get(&PolicyKey::Destination(destination)));
        hit.or_else(|| table.get(&PolicyKey::Default)).cloned()
    }

    /// Publish (or replace) a plain policy under `key`: the entry is the
    /// policy as a stack-placed defense.
    pub fn publish(&self, key: PolicyKey, policy: ObfuscationPolicy) {
        netsim::tm_counter!("stob.registry.publishes").inc();
        self.bind(key, Arc::new(policy), Placement::Stack);
    }

    /// Bind (or replace) a defense with its enforcement placement under
    /// `key`.
    pub fn bind_defense(&self, key: PolicyKey, defense: Arc<dyn Defense>, placement: Placement) {
        netsim::tm_counter!("stob.registry.defense_binds").inc();
        self.bind(key, defense, placement);
    }

    fn bind(&self, key: PolicyKey, defense: Arc<dyn Defense>, placement: Placement) {
        let entry = DefenseBinding {
            key,
            defense,
            placement,
        };
        self.mutate(|g| {
            g.bindings.insert(key, entry);
            1
        });
    }

    /// Publish a [`MachineSpec`] under `key`: the defenses-as-data
    /// control-plane entry point. The spec is validated first — a
    /// hostile or malformed spec is rejected (and counted as a
    /// degradation) rather than bound, so a resolved machine binding is
    /// always runnable. Re-binding an existing key hot-swaps the machine
    /// for subsequent flows, like any update. Returns the spec's name.
    pub fn bind_machine(
        &self,
        key: PolicyKey,
        spec: MachineSpec,
        placement: Placement,
    ) -> Result<String, String> {
        spec.validate().inspect_err(|_| self.note_degraded())?;
        netsim::tm_counter!("stob.registry.machine_binds").inc();
        let name = spec.name.clone();
        self.bind_defense(key, Arc::new(MachineDefense::new(spec)), placement);
        Ok(name)
    }

    /// Bind a multipath splitting policy under `key`, validated first
    /// like [`bind_machine`](Self::bind_machine): a malformed spec is
    /// rejected and counted, never bound. Returns the spec's name.
    pub fn bind_splitter(&self, key: PolicyKey, spec: SplitterSpec) -> Result<String, String> {
        validate_splitter(&spec).inspect_err(|_| self.note_degraded())?;
        netsim::tm_counter!("stob.registry.splitter_binds").inc();
        let name = spec.name().to_string();
        self.mutate(|g| {
            g.splitters.insert(key, spec);
            1
        });
        Ok(name)
    }

    /// Remove whatever sits under `key` — its defense binding and its
    /// splitter. Returns true (and counts a withdrawal) if something was
    /// removed.
    pub fn withdraw(&self, key: PolicyKey) -> bool {
        let removed = self.mutate(|g| {
            usize::from(g.bindings.remove(&key).is_some())
                + usize::from(g.splitters.remove(&key).is_some())
        }) > 0;
        if removed {
            netsim::tm_counter!("stob.registry.withdrawals").inc();
        }
        removed
    }

    /// The binding that shapes `(flow, destination)`: the one resolution
    /// every consumer goes through ([`crate::sockopt::attach`], the
    /// fleet, the policy view below).
    pub fn resolve_defense(&self, flow: u32, destination: u32) -> Option<DefenseBinding> {
        self.lookup(|g| &g.bindings, flow, destination)
    }

    /// The policy view of [`resolve_defense`](Self::resolve_defense):
    /// the resolved entry's plain policy, `None` when nothing is bound
    /// or the entry is a defense that decides per flow.
    pub fn resolve(&self, flow: u32, destination: u32) -> Option<ObfuscationPolicy> {
        let binding = self.resolve_defense(flow, destination)?;
        binding.defense.as_policy().cloned()
    }

    /// Resolve the splitting policy for a flow with the standard
    /// precedence. `None` means the flow is single-path (or the
    /// transport's built-in default applies).
    pub fn resolve_splitter(&self, flow: u32, destination: u32) -> Option<SplitterSpec> {
        self.lookup(|g| &g.splitters, flow, destination)
    }

    /// Current mutation counter (for cache invalidation on the datapath).
    pub fn version(&self) -> u64 {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).version
    }

    /// Record one rejected spec or pass-through fallback.
    pub(crate) fn note_degraded(&self) {
        netsim::tm_counter!("stob.registry.degraded").inc();
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// How many specs were rejected or attachments degraded so far.
    pub fn degraded_count(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Install a circuit breaker over [`crate::sockopt::attach`] (see
    /// [`crate::breaker`]). Disabled by default; installing replaces any
    /// previous breaker and clears its state.
    pub fn set_breaker(&self, cfg: BreakerConfig) {
        let slot = self.breaker.get_or_init(Default::default);
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = CircuitBreaker::new(cfg);
    }

    /// Run `f` on the breaker; `None` means none is installed (an attach
    /// attempt always proceeds and has nowhere to report).
    pub(crate) fn with_breaker<R>(&self, f: impl FnOnce(&mut CircuitBreaker) -> R) -> Option<R> {
        let slot = self.breaker.get()?;
        Some(f(&mut slot.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Lifetime breaker totals, if a breaker is installed.
    pub fn breaker_stats(&self) -> Option<BreakerStats> {
        self.with_breaker(|b| b.stats())
    }

    /// Entries in the table: defense bindings plus splitters.
    pub fn len(&self) -> usize {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        g.bindings.len() + g.splitters.len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the table's plain stack-placed policies as `[key,
    /// policy]` pairs — the administrator's view of the host's
    /// obfuscation configuration (§4.1: policies are compact and
    /// shareable). Machines travel as their own JSON
    /// ([`crate::sockopt::publish_machine_json`]).
    pub fn export_json(&self) -> String {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let entries = g
            .bindings
            .values()
            .filter(|b| b.placement == Placement::Stack)
            .filter_map(|b| Some((b.key.to_json(), b.defense.as_policy()?.to_json())))
            .map(|(key, policy)| Json::Arr(vec![key, policy]))
            .collect();
        Json::Arr(entries).to_string_pretty()
    }

    /// Merge the policies of a JSON export into this registry, all or
    /// nothing: an export with any undecodable entry is rejected whole
    /// and leaves the table and its version untouched.
    pub fn import_json(&self, json: &str) -> Result<usize, JsonError> {
        let parsed = Json::parse(json)?;
        let items = parsed
            .as_arr()
            .ok_or_else(|| bad("policy export is not an array"))?;
        let entries = items
            .iter()
            .map(|item| {
                let pair = item
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad("policy entry is not a [key, policy] pair"))?;
                Ok(DefenseBinding {
                    key: PolicyKey::from_json(&pair[0])?,
                    defense: Arc::new(ObfuscationPolicy::from_json(&pair[1])?),
                    placement: Placement::Stack,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(self.mutate(|g| {
            let n = entries.len();
            g.bindings.extend(entries.into_iter().map(|b| (b.key, b)));
            n
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sockopt::{attach, AttachOutcome};
    use netsim::SimRng;

    #[test]
    fn resolution_precedence_flow_then_dest_then_default() {
        let r = PolicyRegistry::new();
        r.publish(
            PolicyKey::Default,
            ObfuscationPolicy::passthrough("default"),
        );
        r.publish(
            PolicyKey::Destination(7),
            ObfuscationPolicy::passthrough("dest7"),
        );
        r.publish(
            PolicyKey::Flow(42),
            ObfuscationPolicy::passthrough("flow42"),
        );

        assert_eq!(r.resolve(42, 7).unwrap().name, "flow42");
        assert_eq!(r.resolve(43, 7).unwrap().name, "dest7");
        assert_eq!(r.resolve(43, 8).unwrap().name, "default");
    }

    /// The fork this table replaced: a policy published under `Flow(7)`
    /// and a defense bound under `Default` used to live in two maps, and
    /// the defense view answered `default-defense` for flow 7 while the
    /// policy view answered `flow7`. One table, one walk, one answer.
    #[test]
    fn every_view_walks_the_same_precedence() {
        let r = PolicyRegistry::new();
        r.publish(
            PolicyKey::Flow(7),
            ObfuscationPolicy::split_and_delay("flow7"),
        );
        r.bind_defense(
            PolicyKey::Default,
            Arc::new(ObfuscationPolicy::split_and_delay("default-defense")),
            Placement::Stack,
        );
        assert_eq!((r.len(), r.is_empty()), (2, false));
        for (flow, key, name) in [
            (7, PolicyKey::Flow(7), "flow7"),
            (8, PolicyKey::Default, "default-defense"),
        ] {
            let b = r.resolve_defense(flow, 0).expect("binding view");
            assert_eq!((b.key, b.defense.name()), (key, name));
            assert_eq!(r.resolve(flow, 0).expect("policy view").name, name);
            match attach(&r, flow, 0, 42, &mut SimRng::new(9)) {
                AttachOutcome::Attached(a) => assert_eq!((a.key, a.name()), (key, name)),
                _ => panic!("flow {flow}: a valid stack binding attaches"),
            }
        }
        // Splitters are entries too.
        r.bind_splitter(PolicyKey::Default, SplitterSpec::RoundRobin)
            .expect("valid splitter");
        assert_eq!(r.len(), 3);
        assert!(r.withdraw(PolicyKey::Default), "binding and splitter go");
        assert_eq!(r.len(), 1);
        assert!(r.resolve_splitter(8, 0).is_none());
    }

    #[test]
    fn empty_registry_resolves_to_none() {
        let r = PolicyRegistry::new();
        assert!(r.resolve(1, 1).is_none());
        assert!(r.resolve_defense(1, 1).is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn withdraw_and_version_bumps() {
        let r = PolicyRegistry::new();
        let v0 = r.version();
        r.publish(PolicyKey::Default, ObfuscationPolicy::passthrough("a"));
        assert!(r.version() > v0);
        let v1 = r.version();
        assert!(r.withdraw(PolicyKey::Default));
        assert!(r.version() > v1);
        let v2 = r.version();
        assert!(!r.withdraw(PolicyKey::Default));
        assert_eq!(r.version(), v2, "nothing removed, nothing mutated");
        assert!(r.resolve(1, 1).is_none());
    }

    #[test]
    fn shared_between_clones_like_shared_memory() {
        let app_side = PolicyRegistry::new();
        let stack_side = app_side.clone();
        app_side.publish(
            PolicyKey::Destination(3),
            ObfuscationPolicy::split_and_delay("srv3"),
        );
        // The stack side observes the publication immediately.
        assert_eq!(stack_side.resolve(99, 3).unwrap().name, "srv3");
    }

    #[test]
    fn export_import_round_trip() {
        let a = PolicyRegistry::new();
        a.publish(PolicyKey::Default, ObfuscationPolicy::passthrough("d"));
        a.publish(
            PolicyKey::Destination(4),
            ObfuscationPolicy::split_and_delay("cdn-4"),
        );
        a.publish(PolicyKey::Flow(9), ObfuscationPolicy::incremental("f9", 20));
        // Not a plain stack-placed policy: has no place in the export.
        a.bind_defense(
            PolicyKey::Flow(10),
            Arc::new(ObfuscationPolicy::passthrough("app-side")),
            Placement::App,
        );
        let json = a.export_json();
        let b = PolicyRegistry::new();
        let n = b.import_json(&json).expect("valid export");
        assert_eq!((n, b.len()), (3, 3));
        assert_eq!(b.resolve(9, 4).expect("flow").name, "f9");
        assert_eq!(b.resolve(1, 4).expect("dest").name, "cdn-4");
        assert_eq!(b.resolve(1, 1).expect("default").name, "d");
        assert_eq!(b.export_json(), json);
        let v = b.version();
        assert!(b.import_json("[not json").is_err());
        assert_eq!(b.import_json("[]").expect("empty export"), 0);
        assert_eq!(b.version(), v, "zero mutations leave the version alone");
    }

    #[test]
    fn defense_bindings_resolve_with_placement_precedence() {
        let r = PolicyRegistry::new();
        r.bind_defense(
            PolicyKey::Default,
            Arc::new(ObfuscationPolicy::passthrough("default-d")),
            Placement::App,
        );
        r.bind_defense(
            PolicyKey::Destination(7),
            Arc::new(ObfuscationPolicy::split_and_delay("dest7-d")),
            Placement::Stack,
        );
        let b = r.resolve_defense(1, 7).expect("destination binding");
        assert_eq!(b.defense.name(), "dest7-d");
        assert_eq!(b.placement, Placement::Stack);
        let b = r.resolve_defense(1, 8).expect("default binding");
        assert_eq!(b.defense.name(), "default-d");
        assert_eq!(b.placement, Placement::App);
        assert!(r.withdraw(PolicyKey::Default));
        assert!(!r.withdraw(PolicyKey::Default));
        assert!(r.resolve_defense(1, 8).is_none());
    }

    #[test]
    fn plain_policy_table_is_the_degenerate_defense_table() {
        // A published ObfuscationPolicy is a defense binding: the policy
        // is the spec, placed in-stack.
        let r = PolicyRegistry::new();
        r.publish(
            PolicyKey::Destination(3),
            ObfuscationPolicy::split_and_delay("srv3"),
        );
        let b = r.resolve_defense(9, 3).expect("published policy");
        assert_eq!(b.defense.name(), "srv3");
        assert_eq!(b.placement, Placement::Stack);
        // Binding a defense under the same key replaces the entry — for
        // every view.
        r.bind_defense(
            PolicyKey::Destination(3),
            Arc::new(ObfuscationPolicy::passthrough("override")),
            Placement::App,
        );
        assert_eq!(r.resolve_defense(9, 3).unwrap().defense.name(), "override");
        assert_eq!(r.resolve(9, 3).unwrap().name, "override");
        assert_eq!(r.len(), 1);
    }

    /// 200 seeded control-plane histories over a seven-key space, checked
    /// step by step against the obvious model: a list of `(key, name,
    /// placement)` and the flow → destination → default walk over it.
    #[test]
    fn random_histories_match_the_list_model() {
        let mut rng = SimRng::new(0x7AB1E);
        for history in 0..200 {
            let r = PolicyRegistry::new();
            let mut model: Vec<(PolicyKey, String, Placement)> = Vec::new();
            for step in 0..12 {
                let key = match rng.next_below(7) {
                    0 => PolicyKey::Default,
                    n if n % 2 == 0 => PolicyKey::Flow(n as u32 / 2),
                    n => PolicyKey::Destination(n as u32 / 2),
                };
                let name = format!("h{history}s{step}");
                let placement = Placement::ALL[rng.next_below(2) as usize];
                let (v0, d0, before) = (r.version(), r.degraded_count(), model.clone());
                model.retain(|e| e.0 != key);
                let wrote = match rng.next_below(5) {
                    0 => {
                        r.publish(key, ObfuscationPolicy::passthrough(&name));
                        Some(Placement::Stack)
                    }
                    1 => {
                        let d = Arc::new(ObfuscationPolicy::split_and_delay(&name));
                        r.bind_defense(key, d, placement);
                        Some(placement)
                    }
                    2 => {
                        let spec = MachineSpec::padding_only(&name, Vec::new(), 0);
                        assert_eq!(r.bind_machine(key, spec, placement), Ok(name.clone()));
                        Some(placement)
                    }
                    3 => {
                        // A nameless machine is rejected and counted.
                        let spec = MachineSpec::padding_only("", Vec::new(), 0);
                        assert!(r.bind_machine(key, spec, placement).is_err());
                        assert_eq!(r.degraded_count(), d0 + 1);
                        model = before.clone();
                        None
                    }
                    _ => {
                        assert_eq!(r.withdraw(key), model.len() < before.len());
                        None
                    }
                };
                model.extend(wrote.map(|placed| (key, name, placed)));
                assert_eq!(r.version() > v0, model != before, "moves iff the table did");
                assert_eq!(r.len(), model.len());
                for _ in 0..50 {
                    let (flow, dest) = (rng.next_below(4) as u32, rng.next_below(4) as u32);
                    let walk = [PolicyKey::Flow(flow), PolicyKey::Destination(dest)];
                    let want = walk
                        .iter()
                        .chain([&PolicyKey::Default])
                        .find_map(|k| model.iter().find(|e| e.0 == *k));
                    let got = r.resolve_defense(flow, dest);
                    assert_eq!(
                        got.map(|b| (b.key, b.defense.name().to_string(), b.placement)),
                        want.cloned(),
                        "history {history} step {step}: ({flow}, {dest})"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::thread;
        let r = PolicyRegistry::new();
        r.publish(PolicyKey::Default, ObfuscationPolicy::passthrough("d"));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let rr = r.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        let p = rr.resolve(1, 1).expect("default always present");
                        assert!(!p.name.is_empty());
                    }
                })
            })
            .collect();
        let writer = {
            let rw = r.clone();
            thread::spawn(move || {
                for i in 0..100 {
                    rw.publish(
                        PolicyKey::Destination(i),
                        ObfuscationPolicy::passthrough("x"),
                    );
                }
            })
        };
        for h in readers {
            h.join().expect("reader panicked");
        }
        writer.join().expect("writer panicked");
        assert_eq!(r.len(), 101);
    }

    /// The fleet regime: many threads resolving defenses through one
    /// registry while bindings are concurrently attached and replaced.
    /// Every resolution must observe a coherent binding (never a torn
    /// one), and the version counter must end exactly at the mutation
    /// count.
    #[test]
    fn concurrent_attach_and_resolve_defense() {
        use std::thread;
        let r = PolicyRegistry::new();
        let v0 = r.version();
        r.bind_defense(
            PolicyKey::Default,
            Arc::new(ObfuscationPolicy::passthrough("default")),
            Placement::Stack,
        );
        let resolvers: Vec<_> = (0..4)
            .map(|t| {
                let rr = r.clone();
                thread::spawn(move || {
                    for i in 0..2_000u32 {
                        let b = rr
                            .resolve_defense(t * 10_000 + i, i % 16)
                            .expect("default binding always present");
                        // A coherent binding: name readable, placement
                        // one of the two variants.
                        let name = b.defense.name().to_string();
                        assert!(name == "default" || name.starts_with("site-"), "{name}");
                        let _ = b.placement;
                    }
                })
            })
            .collect();
        let attachers: Vec<_> = (0..2)
            .map(|a| {
                let rw = r.clone();
                thread::spawn(move || {
                    for i in 0..500u32 {
                        // Repeatedly attach and replace destination-
                        // scoped defenses, as a control plane rolling
                        // out policy updates across a fleet would.
                        rw.bind_defense(
                            PolicyKey::Destination(i % 16),
                            Arc::new(ObfuscationPolicy::passthrough(&format!(
                                "site-{}-{a}",
                                i % 16
                            ))),
                            if i % 2 == 0 {
                                Placement::Stack
                            } else {
                                Placement::App
                            },
                        );
                    }
                })
            })
            .collect();
        for h in resolvers {
            h.join().expect("resolver panicked");
        }
        for h in attachers {
            h.join().expect("attacher panicked");
        }
        // 1 default bind + 2 × 500 attacher binds, each bumping once.
        assert_eq!(r.version(), v0 + 1 + 1_000);
        // All 16 destinations end bound; resolution prefers them over
        // the default.
        for d in 0..16u32 {
            let name = r
                .resolve_defense(999_999, d)
                .unwrap()
                .defense
                .name()
                .to_string();
            assert!(name.starts_with(&format!("site-{d}-")), "{name}");
        }
    }
}
