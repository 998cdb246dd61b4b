//! Structured telemetry: metric registry, spans, and per-flow event traces.
//!
//! The paper's whole argument is that the *stack* decides the wire packet
//! sequence (§2.3, §4.2) — so when a throughput point or a fault scenario
//! regresses, the question is always "which layer made the decision that
//! changed the wire sequence?". This module makes every such decision
//! observable without giving up the workspace's two core properties:
//!
//! * **zero dependencies** — counters are `AtomicU64`, histograms are
//!   power-of-two atomic buckets, output is [`crate::json::Json`];
//! * **determinism** — every value in [`metrics_json`] is an
//!   order-independent integer aggregate (sums, counts, maxima over
//!   *simulated* quantities), so the metrics snapshot is bit-identical
//!   at any `STOB_THREADS` setting. Wall-clock self-profiling is kept in
//!   a separate [`wall_profile_json`] export that deliberately never
//!   mixes into the deterministic snapshot.
//!
//! Three instruments:
//!
//! 1. **Metrics** — a process-wide registry of named [`Counter`]s,
//!    [`Gauge`]s and [`Histo`]s. Instrumentation sites use the cached
//!    macros so the steady-state cost is one atomic op:
//!
//!    ```
//!    netsim::tm_counter!("doc.example.packets").add(3);
//!    netsim::tm_histo!("doc.example.release_delay_ns").record(125);
//!    let snap = netsim::telemetry::metrics_json();
//!    assert!(snap.to_string_compact().contains("doc.example.packets"));
//!    ```
//!
//!    Names follow `crate.layer.metric` (see `OBSERVABILITY.md` for the
//!    full catalogue): `stack.tcp.tso_resegmented`,
//!    `stack.qdisc.release_delay_ns`, `defense.app.split_pkts`, …
//!
//! 2. **Spans** — RAII wall-clock + sim-clock timers for the hot paths
//!    (`Forest::fit`, `predict_batch`, `emulate::apply_all`, the event
//!    loop). They accumulate into a per-path profile that extends the
//!    per-stage [`crate::par::Timings`] story:
//!
//!    ```
//!    {
//!        let mut s = netsim::telemetry::span("doc.example.stage");
//!        s.sim_window(netsim::Nanos(0), netsim::Nanos(1_000));
//!    } // dropped: wall + sim elapsed recorded under "doc.example.stage"
//!    ```
//!
//! 3. **Flow traces** — a bounded ring ([`FlowTrace`], shared as a
//!    [`Tracer`]) of [`FlowEvent`]s, one per shaping decision: which
//!    layer, at what sim-time, turned `before` into `after`, and why.
//!    When full it drops the *oldest* event and counts the drop, so
//!    memory stays bounded on arbitrarily long runs. Bench binaries dump
//!    it as JSONL via `STOB_TRACE_OUT=<path>`.
//!
//! Environment knobs: `STOB_TRACE_OUT=<path>` routes flow traces to a
//! JSONL file; `STOB_TELEMETRY=1` makes the bench binaries print the
//! metrics summary (equivalent to their `--telemetry` flag).

use crate::json::Json;
use crate::time::Nanos;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------

/// Process-wide metric switch. Recording is on by default; perf-critical
/// callers (a benchmark measuring instrumentation overhead, or
/// an operator who wants the last few ns/packet back) can turn every
/// counter/gauge/histogram write into a single relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is metric recording currently enabled? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable all metric recording. Handles stay valid and
/// readable either way; only the write paths ([`Counter::add`],
/// [`Gauge::set_max`], [`Histo::record`]) become no-ops while disabled.
/// Spans and flow traces are opt-in at the call site and unaffected.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// A monotonically increasing event count. Sums are order-independent,
/// so a counter incremented from any number of worker threads reads the
/// same at snapshot time regardless of interleaving.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.v.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A high-water-mark gauge. Only `set_max` is offered — a last-writer-wins
/// `set` would depend on thread interleaving and break the determinism
/// contract, while a maximum over simulated quantities does not.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    pub fn set_max(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.v.fetch_max(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets: bucket 0 holds zeros, bucket `i`
/// holds values in `[2^(i-1), 2^i)`, bucket 64 holds `[2^63, u64::MAX]`.
const HISTO_BUCKETS: usize = 65;

/// A histogram over `u64` samples (sizes in bytes, delays in sim-ns)
/// with power-of-two buckets. Every field is an order-independent
/// aggregate (per-bucket counts, sum, min, max; the sample count is the
/// sum of the buckets, taken when read), so like [`Counter`] it is safe
/// to populate from any number of threads without losing bit-identical
/// snapshots.
#[derive(Debug)]
pub struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` range of bucket `i` (see [`Histo`]).
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histo {
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // `min` only falls and `max` only rises, so a load that already
        // bounds `v` proves the read-modify-write would store nothing.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Non-empty buckets as `[lo, hi, count]` triples plus aggregates.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    Json::Arr(vec![Json::from(lo), Json::from(hi), Json::from(n)])
                })
            })
            .collect();
        Json::obj()
            .set("count", self.count())
            .set("sum", self.sum())
            .set("min", self.min().unwrap_or(0))
            .set("max", self.max().unwrap_or(0))
            .set("buckets", Json::Arr(buckets))
    }
}

// ---------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histos: Mutex<BTreeMap<&'static str, &'static Histo>>,
    profile: Mutex<BTreeMap<String, ProfEntry>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::default)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Look up (creating on first use) the counter registered under `name`.
/// Returns a `'static` handle; hot paths should cache it via
/// [`tm_counter!`](crate::tm_counter) rather than re-resolving.
pub fn counter(name: &'static str) -> &'static Counter {
    lock(&registry().counters)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Look up (creating on first use) the gauge registered under `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock(&registry().gauges)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Look up (creating on first use) the histogram registered under `name`.
pub fn histo(name: &'static str) -> &'static Histo {
    lock(&registry().histos)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Cached counter handle: resolves the registry entry once per call
/// site, then costs a single atomic load + add.
#[macro_export]
macro_rules! tm_counter {
    ($name:expr) => {{
        static __C: std::sync::OnceLock<&'static $crate::telemetry::Counter> =
            std::sync::OnceLock::new();
        *__C.get_or_init(|| $crate::telemetry::counter($name))
    }};
}

/// Cached gauge handle (see [`tm_counter!`](crate::tm_counter)).
#[macro_export]
macro_rules! tm_gauge {
    ($name:expr) => {{
        static __G: std::sync::OnceLock<&'static $crate::telemetry::Gauge> =
            std::sync::OnceLock::new();
        *__G.get_or_init(|| $crate::telemetry::gauge($name))
    }};
}

/// Cached histogram handle (see [`tm_counter!`](crate::tm_counter)).
#[macro_export]
macro_rules! tm_histo {
    ($name:expr) => {{
        static __H: std::sync::OnceLock<&'static $crate::telemetry::Histo> =
            std::sync::OnceLock::new();
        *__H.get_or_init(|| $crate::telemetry::histo($name))
    }};
}

/// Zero every registered metric and clear the span profile. Handles
/// stay valid (they are `'static`); only the values reset. Used by the
/// determinism test to compare fresh runs at different thread counts.
pub fn reset() {
    for c in lock(&registry().counters).values() {
        c.reset();
    }
    for g in lock(&registry().gauges).values() {
        g.reset();
    }
    for h in lock(&registry().histos).values() {
        h.reset();
    }
    lock(&registry().profile).clear();
}

/// The deterministic metrics snapshot: counters, gauges and histograms,
/// sorted by name, integer-valued. Contains **no wall-clock data**, so
/// two runs of the same workload produce byte-identical snapshots at any
/// `STOB_THREADS` setting (enforced by `tests/determinism.rs`).
pub fn metrics_json() -> Json {
    let mut counters = Json::obj();
    for (name, c) in lock(&registry().counters).iter() {
        counters = counters.set(name, c.get());
    }
    let mut gauges = Json::obj();
    for (name, g) in lock(&registry().gauges).iter() {
        gauges = gauges.set(name, g.get());
    }
    let mut histos = Json::obj();
    for (name, h) in lock(&registry().histos).iter() {
        histos = histos.set(name, h.to_json());
    }
    Json::obj()
        .set("counters", counters)
        .set("gauges", gauges)
        .set("histograms", histos)
}

/// Human-readable rendering of [`metrics_json`] for the bench binaries'
/// `--telemetry` section. Deterministic for the same reason the JSON is.
pub fn metrics_summary() -> String {
    let mut s = String::from("telemetry metrics (deterministic)\n");
    let counters = lock(&registry().counters);
    if !counters.is_empty() {
        s.push_str("  counters:\n");
        for (name, c) in counters.iter() {
            s.push_str(&format!("    {:<44} {}\n", name, c.get()));
        }
    }
    drop(counters);
    let gauges = lock(&registry().gauges);
    if !gauges.is_empty() {
        s.push_str("  gauges (high-water marks):\n");
        for (name, g) in gauges.iter() {
            s.push_str(&format!("    {:<44} {}\n", name, g.get()));
        }
    }
    drop(gauges);
    let histos = lock(&registry().histos);
    if !histos.is_empty() {
        s.push_str("  histograms:\n");
        for (name, h) in histos.iter() {
            s.push_str(&format!(
                "    {:<44} n={} sum={} min={} max={} mean={:.1}\n",
                name,
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean()
            ));
        }
    }
    s
}

// ---------------------------------------------------------------------
// Spans & self-profiling
// ---------------------------------------------------------------------

/// Accumulated profile for one span path.
#[derive(Debug, Default, Clone, Copy)]
struct ProfEntry {
    calls: u64,
    wall_secs: f64,
    sim_ns: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An RAII profiling span. Carries both clocks: wall time (measured
/// between construction and drop) and sim time (reported by the caller
/// via [`Span::sim_window`], since only the caller knows the simulated
/// interval the work covered). Nested spans on the same thread form a
/// `/`-joined hierarchical path (`table2/emulate/…`).
pub struct Span {
    path: String,
    wall_start: Instant,
    sim_ns: u64,
}

/// Open a span named `name`, nested under any span already open on this
/// thread. Dropping the guard records the elapsed wall time (and any
/// sim window) into the global profile, readable via
/// [`wall_profile_json`].
pub fn span(name: &'static str) -> Span {
    let path = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.join("/")
    });
    Span {
        path,
        wall_start: Instant::now(),
        sim_ns: 0,
    }
}

impl Span {
    /// Attribute a simulated time window to this span (e.g. the interval
    /// an event-loop drive covered). Accumulates across multiple calls.
    pub fn sim_window(&mut self, start: Nanos, end: Nanos) {
        self.sim_ns += end.saturating_sub(start).as_nanos();
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall = self.wall_start.elapsed().as_secs_f64();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let mut profile = lock(&registry().profile);
        let e = profile.entry(std::mem::take(&mut self.path)).or_default();
        e.calls += 1;
        e.wall_secs += wall;
        e.sim_ns += self.sim_ns;
    }
}

/// The span profile: per-path call counts, wall seconds, and attributed
/// sim-nanoseconds. **Not deterministic** (it contains wall time) — keep
/// it out of anything byte-compared across runs; the bench binaries
/// print it to stderr only, extending the `par::Timings` per-stage view.
pub fn wall_profile_json() -> Json {
    let mut out = Json::obj();
    for (path, e) in lock(&registry().profile).iter() {
        out = out.set(
            path.as_str(),
            Json::obj()
                .set("calls", e.calls)
                .set("wall_secs", e.wall_secs)
                .set("sim_ns", e.sim_ns),
        );
    }
    out
}

/// Human-readable rendering of [`wall_profile_json`] (stderr-only).
pub fn wall_profile_summary() -> String {
    let profile = lock(&registry().profile);
    let mut s = String::from("telemetry self-profile (wall clock; NOT deterministic)\n");
    for (path, e) in profile.iter() {
        s.push_str(&format!(
            "    {:<44} calls={} wall={:.3}s sim={}\n",
            path,
            e.calls,
            e.wall_secs,
            Nanos(e.sim_ns)
        ));
    }
    s
}

// ---------------------------------------------------------------------
// Flow traces
// ---------------------------------------------------------------------

/// One shaping decision: at sim-time `sim_ns`, `layer` turned `before`
/// into `after` for `flow`, because `reason`. The unit meaning of
/// `before`/`after` depends on `event` (packet bytes for size events,
/// sim-ns for timing events, packet counts for TSO events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEvent {
    pub sim_ns: u64,
    pub flow: u64,
    /// Which layer decided: `tcp`, `quic`, `qdisc`, `nic`, `net`,
    /// `emulate`, `registry`.
    pub layer: &'static str,
    /// What kind of decision: `tso-pkts`, `pkt-size`, `pacing`,
    /// `release`, `tx`, `split`, `delay`, …
    pub event: &'static str,
    pub before: u64,
    pub after: u64,
    pub reason: &'static str,
}

impl FlowEvent {
    /// One JSONL record (compact object, stable key order).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("t_ns", self.sim_ns)
            .set("flow", self.flow)
            .set("layer", self.layer)
            .set("event", self.event)
            .set("before", self.before)
            .set("after", self.after)
            .set("reason", self.reason)
    }
}

/// Default per-run flow-trace capacity (events, not bytes).
pub const DEFAULT_TRACE_CAP: usize = 65_536;

/// A bounded ring of [`FlowEvent`]s. When full, recording drops the
/// *oldest* event and increments [`FlowTrace::dropped`] — memory stays
/// bounded on arbitrarily long runs while the tail (usually the
/// interesting part of a regression) is preserved.
#[derive(Debug)]
pub struct FlowTrace {
    cap: usize,
    events: VecDeque<FlowEvent>,
    dropped: u64,
}

impl FlowTrace {
    pub fn new(cap: usize) -> Self {
        FlowTrace {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    pub fn record(&mut self, ev: FlowEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
    pub fn capacity(&self) -> usize {
        self.cap
    }
    /// Events evicted so far to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn events(&self) -> impl Iterator<Item = &FlowEvent> {
        self.events.iter()
    }

    pub fn into_events(self) -> Vec<FlowEvent> {
        self.events.into()
    }

    /// Render every retained event as JSON Lines (one compact object per
    /// line), the `STOB_TRACE_OUT` file format.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in &self.events {
            s.push_str(&ev.to_json().to_string_compact());
            s.push('\n');
        }
        s
    }
}

/// A cheaply clonable handle to a shared [`FlowTrace`]; this is what
/// gets threaded into the stack layers (one per `stack::net::Network`,
/// into each connection and the event loop). `None` tracing costs one
/// branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<FlowTrace>>,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(FlowTrace::new(cap))),
        }
    }

    pub fn record(&self, ev: FlowEvent) {
        lock(&self.inner).record(ev);
    }

    /// Convenience constructor-and-record.
    #[allow(clippy::too_many_arguments)]
    pub fn rec(
        &self,
        now: Nanos,
        flow: u64,
        layer: &'static str,
        event: &'static str,
        before: u64,
        after: u64,
        reason: &'static str,
    ) {
        self.record(FlowEvent {
            sim_ns: now.as_nanos(),
            flow,
            layer,
            event,
            before,
            after,
            reason,
        });
    }

    /// Take the accumulated trace out, leaving an empty ring with the
    /// same capacity behind.
    pub fn take(&self) -> FlowTrace {
        let mut g = lock(&self.inner);
        let cap = g.cap;
        std::mem::replace(&mut g, FlowTrace::new(cap))
    }

    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped()
    }
}

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

/// `STOB_TRACE_OUT=<path>`: where the bench binaries should write the
/// JSONL flow trace (`None` when unset or empty).
pub fn trace_out() -> Option<String> {
    crate::env::string("STOB_TRACE_OUT")
}

/// `STOB_TELEMETRY=1`: ask the bench binaries for their telemetry
/// summary section without passing `--telemetry` explicitly.
/// Unrecognised values warn once on stderr and leave the summary off.
pub fn summary_enabled() -> bool {
    crate::env::flag("STOB_TELEMETRY", false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that record metrics and assert exact values must not overlap
    /// with the test that flips the global enable switch — serialize them
    /// on one mutex (poisoning is irrelevant, recover the guard).
    fn recording_guard() -> MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_fast_path_drops_writes_and_restores() {
        let _g = recording_guard();
        let c = counter("telemetry.test.switch_counter");
        let h = histo("telemetry.test.switch_histo");
        let g = gauge("telemetry.test.switch_gauge");
        c.add(2);
        assert!(enabled(), "recording is on by default");
        set_enabled(false);
        c.add(40);
        c.inc();
        h.record(9);
        g.set_max(77);
        assert_eq!(c.get(), 2, "disabled counter writes are dropped");
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 0);
        set_enabled(true);
        c.inc();
        h.record(9);
        g.set_max(77);
        assert_eq!(c.get(), 3, "re-enabling restores recording");
        assert_eq!(h.count(), 1);
        assert_eq!(g.get(), 77);
    }

    #[test]
    fn ring_bounds_memory_drops_oldest_and_counts() {
        let mut ring = FlowTrace::new(4);
        for i in 0..10u64 {
            ring.record(FlowEvent {
                sim_ns: i,
                flow: 1,
                layer: "tcp",
                event: "pkt-size",
                before: 1500,
                after: 1400,
                reason: "test",
            });
        }
        // Never exceeds capacity; drops are oldest-first and counted.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.dropped(), 6);
        let kept: Vec<u64> = ring.events().map(|e| e.sim_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "tail retained, head evicted");
        // The JSONL render matches the retained events, one per line.
        assert_eq!(ring.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn tracer_is_shared_across_clones() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        t.rec(Nanos(5), 3, "qdisc", "release", 5, 7, "nic-busy");
        assert_eq!(t2.len(), 1);
        let trace = t2.take();
        assert!(t.is_empty(), "take drains the shared ring");
        let evs = trace.into_events();
        assert_eq!(evs[0].flow, 3);
        assert_eq!(evs[0].layer, "qdisc");
    }

    #[test]
    fn flow_event_jsonl_round_trips() {
        let ev = FlowEvent {
            sim_ns: 42,
            flow: 7,
            layer: "nic",
            event: "tx",
            before: 3,
            after: 3,
            reason: "tso-burst",
        };
        let line = ev.to_json().to_string_compact();
        let parsed = Json::parse(&line).expect("jsonl line parses");
        assert_eq!(parsed.get("t_ns").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            parsed
                .get("layer")
                .and_then(|v| v.as_str().map(String::from)),
            Some("nic".to_string())
        );
    }

    #[test]
    fn histo_buckets_cover_u64() {
        let _g = recording_guard();
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64).1, u64::MAX);
        let h = Histo::default();
        h.record(0);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1027);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn histo_equals_a_naive_reference_on_one_thread_and_on_four() {
        let _g = recording_guard();
        let empty = Histo::default().to_json();
        assert_eq!(empty.get("count").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(empty.get("min").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(empty.get("max").and_then(|v| v.as_u64()), Some(0));

        // A strictly decreasing run first (every sample a new minimum),
        // then the edge values, repeats, and a seeded spread over forty
        // octaves.
        let mut rng = crate::SimRng::new(0x4157);
        let mut seq: Vec<u64> = (0..64).map(|i| (1u64 << 63) >> i).collect();
        seq.extend([0, 1, u64::MAX, 1, 0, 7, 7, 7, u64::MAX]);
        seq.extend((0..600).map(|_| {
            let octave = rng.next_below(40);
            rng.next_below(1 << octave)
        }));

        let mut buckets = [0u64; HISTO_BUCKETS];
        for &v in &seq {
            buckets[bucket_index(v)] += 1;
        }
        let triples = buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                Json::Arr(vec![Json::from(lo), Json::from(hi), Json::from(n)])
            });
        let want = Json::obj()
            .set("count", seq.len() as u64)
            .set("sum", seq.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
            .set("min", *seq.iter().min().unwrap())
            .set("max", *seq.iter().max().unwrap())
            .set("buckets", Json::Arr(triples.collect()));

        let serial = Histo::default();
        seq.iter().for_each(|&v| serial.record(v));
        assert_eq!(serial.to_json(), want, "one thread");

        let shared = Histo::default();
        let quarters: Vec<&[u64]> = seq.chunks(seq.len().div_ceil(4)).collect();
        crate::par::par_map_n(4, &quarters, |_, q| {
            q.iter().for_each(|&v| shared.record(v))
        });
        assert_eq!(shared.to_json(), want, "four workers");
    }

    #[test]
    fn registry_handles_are_stable_and_resettable() {
        let _g = recording_guard();
        let c = counter("telemetry.test.stable_counter");
        c.add(5);
        // Same name resolves to the same leaked handle.
        assert!(std::ptr::eq(c, counter("telemetry.test.stable_counter")));
        assert_eq!(counter("telemetry.test.stable_counter").get(), 5);
        let g = gauge("telemetry.test.stable_gauge");
        g.set_max(9);
        g.set_max(4);
        assert_eq!(g.get(), 9, "gauge keeps the high-water mark");
        let snap = metrics_json().to_string_compact();
        assert!(snap.contains("telemetry.test.stable_counter"));
        assert!(!snap.contains("wall"), "metrics snapshot has no wall time");
    }

    #[test]
    fn spans_accumulate_hierarchical_profile() {
        {
            let mut outer = span("telemetry.test.outer");
            outer.sim_window(Nanos(100), Nanos(600));
            let _inner = span("inner");
        }
        let prof = wall_profile_json();
        let outer = prof.get("telemetry.test.outer").expect("outer span");
        assert_eq!(outer.get("calls").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(outer.get("sim_ns").and_then(|v| v.as_u64()), Some(500));
        assert!(
            prof.get("telemetry.test.outer/inner").is_some(),
            "nested span path is /-joined: {}",
            prof.to_string_compact()
        );
    }

    #[test]
    fn macros_cache_the_same_handle() {
        let _g = recording_guard();
        let a = tm_counter!("telemetry.test.macro_counter");
        let b = tm_counter!("telemetry.test.macro_counter");
        a.inc();
        b.inc();
        assert_eq!(counter("telemetry.test.macro_counter").get(), 2);
        tm_histo!("telemetry.test.macro_histo").record(7);
        assert_eq!(histo("telemetry.test.macro_histo").count(), 1);
        tm_gauge!("telemetry.test.macro_gauge").set_max(3);
        assert_eq!(gauge("telemetry.test.macro_gauge").get(), 3);
    }
}
