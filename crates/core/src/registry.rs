//! The shared policy table between applications and the stack.
//!
//! §4.1: policies "could be maintained in the shared memory between the
//! application and stack". We model that as a registry protected by an
//! `RwLock` behind an `Arc`: the application side publishes
//! and updates policies; the stack side resolves them per flow or per
//! destination with a read lock on the datapath. Policies are stored as
//! `Arc<ObfuscationPolicy>` so a resolved policy never blocks behind a
//! writer.

use crate::breaker::{Admission, BreakerConfig, BreakerStats, CircuitBreaker};
use crate::defense::{Defense, Placement};
use crate::policy::ObfuscationPolicy;
use netsim::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What a policy is keyed on. Destination-scoped entries let many flows
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

/// A defense bound into the registry together with where it is to be
/// enforced: at the application layer (trace emulation) or inside the
/// stack (lowered into a shaper). One table serves both placements —
/// the registry is the single source of truth for "what shape should
/// this flow have, and who enforces it".
#[derive(Clone)]
pub struct DefenseBinding {
    /// The placement-agnostic decision spec.
    pub defense: Arc<dyn Defense>,
    /// Which backend enforces it.
    pub placement: Placement,
}

#[derive(Default)]
struct Inner {
    table: BTreeMap<PolicyKey, Arc<ObfuscationPolicy>>,
    defenses: BTreeMap<PolicyKey, DefenseBinding>,
    /// Multipath splitting policies (see [`crate::splitter`]): which leg
    /// carries each datagram, resolved with the same precedence as
    /// policies and defenses.
    splitters: BTreeMap<PolicyKey, crate::splitter::SplitterSpec>,
    /// Bumped on every mutation; lets the stack cache resolutions.
    version: u64,
}

/// Shared, concurrently readable policy registry.
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    inner: Arc<RwLock<Inner>>,
    /// Connections that resolved a policy but fell back to pass-through
    /// because it failed validation (shared across clones, like the
    /// table itself — it is the host's degradation counter).
    degraded: Arc<AtomicU64>,
    /// Optional circuit breaker over the checked attach path, keyed by
    /// resolved [`PolicyKey`] (shared across clones; `None` = disabled,
    /// which is the default so plain registries behave exactly as
    /// before).
    breaker: Arc<Mutex<Option<CircuitBreaker>>>,
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
        let bad = |msg: &str| JsonError {
            offset: 0,
            message: msg.to_string(),
        };
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

/// The precedence walk every resolution shares: exact flow match, then
/// its destination, then the host-wide default.
fn lookup<T>(
    table: &BTreeMap<PolicyKey, T>,
    flow: u32,
    destination: u32,
) -> Option<(PolicyKey, &T)> {
    [
        PolicyKey::Flow(flow),
        PolicyKey::Destination(destination),
        PolicyKey::Default,
    ]
    .into_iter()
    .find_map(|key| table.get(&key).map(|v| (key, v)))
}

impl PolicyRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the table, recovering from a poisoned lock: the table itself
    /// is always in a consistent state (mutations are single `insert` /
    /// `remove` calls), so a panicked writer cannot corrupt it.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish (or replace) a policy under `key`.
    pub fn publish(&self, key: PolicyKey, policy: ObfuscationPolicy) {
        netsim::tm_counter!("stob.registry.publishes").inc();
        let mut g = self.write();
        g.table.insert(key, Arc::new(policy));
        g.version += 1;
    }

    /// Remove a policy. Returns true if something was removed.
    pub fn withdraw(&self, key: PolicyKey) -> bool {
        netsim::tm_counter!("stob.registry.withdrawals").inc();
        let mut g = self.write();
        let removed = g.table.remove(&key).is_some();
        if removed {
            g.version += 1;
        }
        removed
    }

    /// Resolve the policy for a flow: exact flow match, then its
    /// destination, then the default.
    pub fn resolve(&self, flow: u32, destination: u32) -> Option<Arc<ObfuscationPolicy>> {
        self.resolve_with_key(flow, destination).map(|(_, p)| p)
    }

    /// Like [`resolve`](Self::resolve), but also reports *which* key the
    /// policy was found under — the flow class the circuit breaker
    /// tracks failures against.
    pub fn resolve_with_key(
        &self,
        flow: u32,
        destination: u32,
    ) -> Option<(PolicyKey, Arc<ObfuscationPolicy>)> {
        netsim::tm_counter!("stob.registry.resolutions").inc();
        lookup(&self.read().table, flow, destination).map(|(key, p)| (key, Arc::clone(p)))
    }

    /// Bind a defense (with its enforcement placement) under `key`.
    pub fn bind_defense(&self, key: PolicyKey, defense: Arc<dyn Defense>, placement: Placement) {
        netsim::tm_counter!("stob.registry.defense_binds").inc();
        let mut g = self.write();
        g.defenses
            .insert(key, DefenseBinding { defense, placement });
        g.version += 1;
    }

    /// Remove a defense binding. Returns true if something was removed.
    pub fn unbind_defense(&self, key: PolicyKey) -> bool {
        let mut g = self.write();
        let removed = g.defenses.remove(&key).is_some();
        if removed {
            g.version += 1;
        }
        removed
    }

    /// Resolve the defense binding for a flow with the same precedence
    /// as [`resolve`](Self::resolve) (flow, destination, default).
    ///
    /// A registry holding only plain policies still resolves here: a
    /// bare [`ObfuscationPolicy`] *is* the degenerate defense (no
    /// padding schedule), bound at the stack placement — the policy
    /// table is one instantiation of the defense table.
    pub fn resolve_defense(&self, flow: u32, destination: u32) -> Option<DefenseBinding> {
        self.resolve_defense_with_key(flow, destination)
            .map(|(_, b)| b)
    }

    /// Like [`resolve_defense`](Self::resolve_defense), but also reports
    /// *which* key the binding was found under — the flow class the
    /// circuit breaker tracks attach outcomes against. The plain-policy
    /// fallback reports the key its policy was found under.
    pub fn resolve_defense_with_key(
        &self,
        flow: u32,
        destination: u32,
    ) -> Option<(PolicyKey, DefenseBinding)> {
        netsim::tm_counter!("stob.registry.resolutions").inc();
        let g = self.read();
        if let Some((key, b)) = lookup(&g.defenses, flow, destination) {
            return Some((key, b.clone()));
        }
        lookup(&g.table, flow, destination).map(|(key, policy)| {
            let binding = DefenseBinding {
                defense: Arc::clone(policy) as Arc<dyn Defense>,
                placement: Placement::Stack,
            };
            (key, binding)
        })
    }

    /// Publish a [`MachineSpec`](crate::machine::MachineSpec) under
    /// `key`: the defenses-as-data control-plane entry point. The spec
    /// is validated first — a hostile or malformed spec is rejected (and
    /// counted as a degradation) rather than bound, so a resolved
    /// machine binding is always runnable. Re-binding an existing key
    /// hot-swaps the machine for subsequent flows, like any policy
    /// update. Returns the bound spec's name.
    pub fn bind_machine(
        &self,
        key: PolicyKey,
        spec: crate::machine::MachineSpec,
        placement: Placement,
    ) -> Result<String, String> {
        if let Err(e) = spec.validate() {
            self.note_degraded();
            return Err(e);
        }
        netsim::tm_counter!("stob.registry.machine_binds").inc();
        let name = spec.name.clone();
        self.bind_defense(
            key,
            Arc::new(crate::machine::MachineDefense::new(spec)),
            placement,
        );
        Ok(name)
    }

    /// Bind a multipath splitting policy under `key`. The spec is
    /// validated first (like [`bind_machine`](Self::bind_machine)): a
    /// malformed spec is rejected and counted as a degradation rather
    /// than bound, so a resolved splitter is always runnable.
    pub fn bind_splitter(
        &self,
        key: PolicyKey,
        spec: crate::splitter::SplitterSpec,
    ) -> Result<(), String> {
        if let Err(e) = crate::splitter::validate_splitter(&spec) {
            self.note_degraded();
            return Err(e);
        }
        netsim::tm_counter!("stob.registry.splitter_binds").inc();
        let mut g = self.write();
        g.splitters.insert(key, spec);
        g.version += 1;
        Ok(())
    }

    /// Remove a splitter binding. Returns true if something was removed.
    pub fn unbind_splitter(&self, key: PolicyKey) -> bool {
        let mut g = self.write();
        let removed = g.splitters.remove(&key).is_some();
        if removed {
            g.version += 1;
        }
        removed
    }

    /// Resolve the splitting policy for a flow with the standard
    /// precedence (flow, destination, default). `None` means the flow is
    /// single-path (or the transport's built-in default applies).
    pub fn resolve_splitter(
        &self,
        flow: u32,
        destination: u32,
    ) -> Option<crate::splitter::SplitterSpec> {
        self.resolve_splitter_with_key(flow, destination)
            .map(|(_, s)| s)
    }

    /// Like [`resolve_splitter`](Self::resolve_splitter), but also
    /// reports which key matched.
    pub fn resolve_splitter_with_key(
        &self,
        flow: u32,
        destination: u32,
    ) -> Option<(PolicyKey, crate::splitter::SplitterSpec)> {
        netsim::tm_counter!("stob.registry.resolutions").inc();
        lookup(&self.read().splitters, flow, destination).map(|(key, s)| (key, s.clone()))
    }

    /// Current mutation counter (for cache invalidation on the datapath).
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Record one pass-through fallback caused by an invalid policy.
    pub fn note_degraded(&self) {
        netsim::tm_counter!("stob.registry.degraded").inc();
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// How many attachments fell back to pass-through so far.
    pub fn degraded_count(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Install a circuit breaker over the checked attach path (see
    /// [`crate::breaker`]). Disabled by default; installing replaces any
    /// previous breaker and clears its state.
    pub fn set_breaker(&self, cfg: BreakerConfig) {
        *self.breaker.lock().unwrap_or_else(|e| e.into_inner()) = Some(CircuitBreaker::new(cfg));
    }

    /// Lifetime breaker totals, if a breaker is installed.
    pub fn breaker_stats(&self) -> Option<BreakerStats> {
        self.breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(CircuitBreaker::stats)
    }

    /// Ask the breaker (if any) whether an attach attempt on `key` may
    /// proceed. `None` means no breaker is installed — always proceed.
    pub(crate) fn breaker_admit(&self, key: PolicyKey) -> Option<Admission> {
        self.breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
            .map(|b| b.admit(key))
    }

    /// Report an admitted attempt's outcome to the breaker, if any.
    pub(crate) fn breaker_record(&self, key: PolicyKey, ok: bool) {
        if let Some(b) = self
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            if ok {
                b.record_success(key);
            } else {
                b.record_failure(key);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.read().table.len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the whole table — the administrator's view of the
    /// host's obfuscation configuration (§4.1: policies are compact and
    /// shareable).
    pub fn export_json(&self) -> String {
        let g = self.read();
        let entries: Vec<Json> = g
            .table
            .iter()
            .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
            .collect();
        Json::Arr(entries).to_string_pretty()
    }

    /// Merge policies from a JSON export into this registry.
    pub fn import_json(&self, json: &str) -> Result<usize, JsonError> {
        let parsed = Json::parse(json)?;
        let items = parsed.as_arr().ok_or(JsonError {
            offset: 0,
            message: "policy export is not an array".to_string(),
        })?;
        let entries = items
            .iter()
            .map(|item| {
                let pair = item.as_arr().filter(|p| p.len() == 2).ok_or(JsonError {
                    offset: 0,
                    message: "policy entry is not a [key, policy] pair".to_string(),
                })?;
                Ok((
                    PolicyKey::from_json(&pair[0])?,
                    ObfuscationPolicy::from_json(&pair[1])?,
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let n = entries.len();
        let mut g = self.write();
        for (k, p) in entries {
            g.table.insert(k, Arc::new(p));
        }
        g.version += 1;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn empty_registry_resolves_to_none() {
        let r = PolicyRegistry::new();
        assert!(r.resolve(1, 1).is_none());
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
        assert!(!r.withdraw(PolicyKey::Default));
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
        let json = a.export_json();
        let b = PolicyRegistry::new();
        let n = b.import_json(&json).expect("valid export");
        assert_eq!(n, 3);
        assert_eq!(b.resolve(9, 4).expect("flow").name, "f9");
        assert_eq!(b.resolve(1, 4).expect("dest").name, "cdn-4");
        assert_eq!(b.resolve(1, 1).expect("default").name, "d");
        assert!(b.import_json("[not json").is_err());
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
        assert!(r.unbind_defense(PolicyKey::Default));
        assert!(!r.unbind_defense(PolicyKey::Default));
        assert!(r.resolve_defense(1, 8).is_none());
    }

    #[test]
    fn plain_policy_table_is_the_degenerate_defense_table() {
        // A registry carrying only ObfuscationPolicy entries still
        // resolves defenses: the policy is the spec, placed in-stack.
        let r = PolicyRegistry::new();
        r.publish(
            PolicyKey::Destination(3),
            ObfuscationPolicy::split_and_delay("srv3"),
        );
        let b = r.resolve_defense(9, 3).expect("policy fallback");
        assert_eq!(b.defense.name(), "srv3");
        assert_eq!(b.placement, Placement::Stack);
        // An explicit defense binding takes precedence over the policy.
        r.bind_defense(
            PolicyKey::Destination(3),
            Arc::new(ObfuscationPolicy::passthrough("override")),
            Placement::App,
        );
        assert_eq!(r.resolve_defense(9, 3).unwrap().defense.name(), "override");
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
