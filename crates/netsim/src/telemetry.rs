//! Structured telemetry: metric registry, spans, and per-flow event traces.
//!
//! The paper's whole argument is that the *stack* decides the wire packet
//! sequence (§2.3, §4.2) — so when a throughput point or a fault scenario
//! regresses, the question is always "which layer made the decision that
//! changed the wire sequence?". This module makes every such decision
//! observable without giving up the workspace's two core properties:
//!
//! * **zero dependencies** — an instrument is an index into per-thread
//!   blocks of `u64` slots, histograms are power-of-two buckets, output
//!   is [`crate::json::Json`];
//! * **determinism** — every value in [`metrics_json`] is an
//!   order-independent integer aggregate (sums, counts, minima and maxima
//!   over *simulated* quantities), so the metrics snapshot is
//!   bit-identical at any `STOB_THREADS` setting. Wall-clock
//!   self-profiling is kept in a separate [`wall_profile_summary`] that
//!   deliberately never mixes into the deterministic snapshot.
//!
//! Three instruments:
//!
//! 1. **Metrics** — a process-wide registry of named [`Counter`]s,
//!    [`Gauge`]s and [`Histo`]s. Instrumentation sites use the cached
//!    macros so the steady-state cost is a plain load and store into the
//!    recording thread's own shard (below):
//!
//!    ```
//!    netsim::tm_counter!("doc.example.packets").add(3);
//!    netsim::tm_histo!("doc.example.release_delay_ns").record(125);
//!    let snap = netsim::telemetry::metrics_json();
//!    assert!(snap.to_string_compact().contains("doc.example.packets"));
//!    ```
//!
//!    Names follow `crate.layer.metric` (see `OBSERVABILITY.md` for the
//!    full catalogue): `stack.egress.resegmented`,
//!    `stack.qdisc.release_delay_ns`, `defense.app.split_pkts`, …
//!
//!    **Shards.** An instrument is a slot index: one slot for a counter
//!    or a gauge, 68 for a histogram (sum, min, max and 65 buckets).
//!    Each thread adopts a shard at its first write — a block of
//!    `AtomicU64` slots that no other thread writes — and updates it with
//!    a relaxed load and a relaxed store, never a lock-prefixed
//!    read-modify-write. A shard grows a page at a time, each page twice
//!    the last, from zeroed memory, the first time the thread writes a
//!    slot in it. When the thread exits, its shard goes to a free list
//!    and the next new thread adopts it with its values intact, so memory
//!    follows the most threads ever recording at once, not how many were
//!    spawned. A read merges every shard: counters, buckets and sums add
//!    (wrapping, as `fetch_add` would), gauges and maxima take the largest
//!    value, minima the smallest — the same order-free aggregate at any
//!    thread count. [`reset`] zeroes every shard and is for quiescent
//!    points: a write racing it may survive it.
//!
//! 2. **Spans** — RAII wall-clock + sim-clock timers for the hot paths
//!    (`Forest::fit`, `predict_batch`, `defend_all`, the event
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
//!    memory stays bounded on arbitrarily long runs. `figure3
//!    --trace-out=<path>` dumps it as JSONL.
//!
//! The bench binaries print the metrics summary when given
//! `--telemetry`.

use crate::json::Json;
use crate::time::Nanos;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Per-thread shards
// ---------------------------------------------------------------------

/// A shard's first page holds `PAGE0` slots (4 KiB) and page `k` holds
/// `PAGE0 << k`, so `PAGES` pages cover every slot index below
/// `usize::MAX - PAGE0`: there is no capacity to run out of.
const PAGE0_BITS: u32 = 9;
const PAGE0: usize = 1 << PAGE0_BITS;
const PAGES: usize = (usize::BITS - PAGE0_BITS) as usize;

/// First slot index of page `k`.
fn page_start(k: usize) -> usize {
    (PAGE0 << k) - PAGE0
}

/// Page of slot index `i`.
fn page_of(i: usize) -> usize {
    ((i >> PAGE0_BITS) + 1).ilog2() as usize
}

/// Where an instrument's first slot sits in every shard. An instrument's
/// slots never straddle two pages.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: usize,
    off: usize,
}

/// One thread's values of every instrument. Only the thread holding the
/// shard writes it; any thread may read it.
struct Shard {
    pages: [OnceLock<Box<[AtomicU64]>>; PAGES],
}

impl Shard {
    /// The slots from `at` to the end of its page, if this shard has
    /// written that page.
    #[inline]
    fn written(&self, at: Slot) -> Option<&[AtomicU64]> {
        Some(&self.pages[at.page].get()?[at.off..])
    }

    /// The slots from `at` to the end of its page, allocating the page.
    fn slots(&self, at: Slot) -> &[AtomicU64] {
        let page = self.pages[at.page].get_or_init(|| {
            // SAFETY: `AtomicU64` has the same size and bit validity as
            // `u64`, so all-zero memory is a valid slot holding 0.
            unsafe { Box::<[AtomicU64]>::new_zeroed_slice(PAGE0 << at.page).assume_init() }
        });
        &page[at.off..]
    }

    /// The value `i` slots after `at`; 0 when its page was never written.
    fn load(&self, at: Slot, i: usize) -> u64 {
        self.written(at)
            .map_or(0, |slots| slots[i].load(Ordering::Relaxed))
    }

    fn zero(&self) {
        let slots = self
            .pages
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|p| p.iter());
        // Storing only where a value is leaves untouched memory untouched.
        for slot in slots.filter(|s| s.load(Ordering::Relaxed) != 0) {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

/// Every shard ever made (a read merges them all) and those whose thread
/// has exited, waiting for the next thread that records.
struct Pool {
    all: Vec<&'static Shard>,
    free: Vec<&'static Shard>,
    /// Threads holding a shard now, and the most that ever did.
    #[cfg(test)]
    holders: usize,
    #[cfg(test)]
    peak_holders: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    all: Vec::new(),
    free: Vec::new(),
    #[cfg(test)]
    holders: 0,
    #[cfg(test)]
    peak_holders: 0,
});

/// A shard for the calling thread: an exited thread's, else a new one.
#[cold]
fn adopt() -> &'static Shard {
    let mut pool = lock(&POOL);
    #[cfg(test)]
    {
        pool.holders += 1;
        pool.peak_holders = pool.peak_holders.max(pool.holders);
    }
    if let Some(shard) = pool.free.pop() {
        return shard;
    }
    let shard: &'static Shard = Box::leak(Box::new(Shard {
        pages: [const { OnceLock::new() }; PAGES],
    }));
    pool.all.push(shard);
    shard
}

/// Shards ever allocated, and the most threads that held one at once.
#[cfg(test)]
fn shard_counts() -> (usize, usize) {
    let pool = lock(&POOL);
    (pool.all.len(), pool.peak_holders)
}

fn release(shard: &'static Shard) {
    let mut pool = lock(&POOL);
    #[cfg(test)]
    {
        pool.holders -= 1;
    }
    pool.free.push(shard);
}

/// This thread's shard, adopted at its first write and handed back to
/// the pool when the thread exits.
struct Local(Cell<Option<&'static Shard>>);

impl Local {
    #[inline]
    fn shard(&self) -> &'static Shard {
        match self.0.get() {
            Some(shard) => shard,
            None => {
                let shard = adopt();
                self.0.set(Some(shard));
                shard
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(shard) = self.0.take() {
            release(shard);
        }
    }
}

thread_local! {
    static LOCAL: Local = const { Local(Cell::new(None)) };
}

/// Apply `f` to the calling thread's slots from `at` on.
#[inline]
fn write(at: Slot, f: impl FnOnce(&[AtomicU64])) {
    match LOCAL.try_with(|l| l.0.get().and_then(|shard| shard.written(at))) {
        Ok(Some(slots)) => f(slots),
        _ => write_cold(at, f),
    }
}

/// [`write`] when the thread has no shard yet, its shard lacks the page,
/// or the thread is exiting.
#[cold]
#[inline(never)]
fn write_cold(at: Slot, f: impl FnOnce(&[AtomicU64])) {
    match LOCAL.try_with(Local::shard) {
        Ok(shard) => f(shard.slots(at)),
        Err(_) => {
            // The thread is exiting and has handed its shard back (a
            // write from another thread-local's destructor): borrow one
            // for this write alone.
            let shard = adopt();
            f(shard.slots(at));
            release(shard);
        }
    }
}

/// Add `n` to a slot only this thread writes: a relaxed load and store,
/// wrapping as `fetch_add` does.
#[inline]
fn bump(slot: &AtomicU64, n: u64) {
    slot.store(
        slot.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// Raise a slot only this thread writes to `v` if `v` is larger.
#[inline]
fn raise(slot: &AtomicU64, v: u64) {
    if v > slot.load(Ordering::Relaxed) {
        slot.store(v, Ordering::Relaxed);
    }
}

/// Reserve `n <= PAGE0` consecutive slots on one page.
fn alloc_slots(n: usize) -> Slot {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut base = 0;
    NEXT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |next| {
        let last = page_of(next + n - 1);
        base = if page_of(next) == last {
            next
        } else {
            page_start(last)
        };
        Some(base + n)
    })
    .expect("the update always proceeds");
    let page = page_of(base);
    Slot {
        page,
        off: base - page_start(page),
    }
}

/// Slot `at` merged over every shard with `merge`, starting from 0.
fn merged(at: Slot, merge: fn(u64, u64) -> u64) -> u64 {
    lock(&POOL)
        .all
        .iter()
        .fold(0, |acc, shard| merge(acc, shard.load(at, 0)))
}

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// A monotonically increasing event count. Sums are order-independent,
/// so a counter incremented from any number of worker threads reads the
/// same at snapshot time regardless of interleaving.
#[derive(Debug)]
pub struct Counter {
    at: Slot,
}

impl Counter {
    fn new() -> Self {
        Counter { at: alloc_slots(1) }
    }
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        write(self.at, |s| bump(&s[0], n));
    }
    pub fn get(&self) -> u64 {
        merged(self.at, u64::wrapping_add)
    }
}

/// A high-water-mark gauge. Only `set_max` is offered — a last-writer-wins
/// `set` would depend on thread interleaving and break the determinism
/// contract, while a maximum over simulated quantities does not.
#[derive(Debug)]
pub struct Gauge {
    at: Slot,
}

impl Gauge {
    fn new() -> Self {
        Gauge { at: alloc_slots(1) }
    }
    #[inline]
    pub fn set_max(&self, n: u64) {
        write(self.at, |s| raise(&s[0], n));
    }
    pub(crate) fn get(&self) -> u64 {
        merged(self.at, u64::max)
    }
}

/// Number of power-of-two buckets: bucket 0 holds zeros, bucket `i`
/// holds values in `[2^(i-1), 2^i)`, bucket 64 holds `[2^63, u64::MAX]`.
const HISTO_BUCKETS: usize = 65;

/// A histogram's slots: the sum, the minimum *complemented* (so that,
/// like every other slot, it starts at 0 and merges by taking the
/// largest), the maximum, then the buckets.
const SUM: usize = 0;
const NOT_MIN: usize = 1;
const MAX: usize = 2;
const BUCKET0: usize = 3;
const HISTO_SLOTS: usize = BUCKET0 + HISTO_BUCKETS;

/// A histogram over `u64` samples (sizes in bytes, delays in sim-ns)
/// with power-of-two buckets. Every field is an order-independent
/// aggregate (per-bucket counts, sum, min, max; the sample count is the
/// sum of the buckets, taken when read), so like [`Counter`] it is safe
/// to populate from any number of threads without losing bit-identical
/// snapshots.
#[derive(Debug)]
pub struct Histo {
    at: Slot,
}

/// A histogram's slots merged over every shard.
struct HistoTotals {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
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
    fn new() -> Self {
        Histo {
            at: alloc_slots(HISTO_SLOTS),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        write(self.at, |s| {
            let s = &s[..HISTO_SLOTS];
            bump(&s[BUCKET0 + bucket_index(v)], 1);
            bump(&s[SUM], v);
            raise(&s[NOT_MIN], !v);
            raise(&s[MAX], v);
        });
    }

    fn totals(&self) -> HistoTotals {
        let mut slots = [0u64; HISTO_SLOTS];
        for shard in &lock(&POOL).all {
            for (i, acc) in slots.iter_mut().enumerate() {
                let v = shard.load(self.at, i);
                *acc = match i {
                    NOT_MIN | MAX => (*acc).max(v),
                    _ => acc.wrapping_add(v),
                };
            }
        }
        let buckets: [u64; HISTO_BUCKETS] = std::array::from_fn(|b| slots[BUCKET0 + b]);
        let count = buckets.iter().sum();
        HistoTotals {
            buckets,
            count,
            sum: slots[SUM],
            min: (count > 0).then_some(!slots[NOT_MIN]),
            max: (count > 0).then_some(slots[MAX]),
        }
    }

    pub fn count(&self) -> u64 {
        self.totals().count
    }
    pub fn sum(&self) -> u64 {
        self.totals().sum
    }
    pub fn min(&self) -> Option<u64> {
        self.totals().min
    }
    pub fn max(&self) -> Option<u64> {
        self.totals().max
    }

    /// Non-empty buckets as `[lo, hi, count]` triples plus aggregates.
    pub(crate) fn to_json(&self) -> Json {
        let t = self.totals();
        let buckets: Vec<Json> = t
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                Json::Arr(vec![Json::from(lo), Json::from(hi), Json::from(n)])
            })
            .collect();
        Json::obj()
            .set("count", t.count)
            .set("sum", t.sum)
            .set("min", t.min.unwrap_or(0))
            .set("max", t.max.unwrap_or(0))
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
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Look up (creating on first use) the gauge registered under `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock(&registry().gauges)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Look up (creating on first use) the histogram registered under `name`.
pub fn histo(name: &'static str) -> &'static Histo {
    lock(&registry().histos)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histo::new())))
}

/// Cached counter handle: resolves the registry entry once per call
/// site, then costs one load and one store into the thread's shard.
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

/// Zero every metric in every shard, live threads' and exited ones',
/// and clear the span profile. Handles stay valid (they are `'static`);
/// only the values reset. For quiescent points: a write racing the reset
/// may survive it. Used by the determinism test to compare fresh runs at
/// different thread counts.
pub fn reset() {
    for shard in &lock(&POOL).all {
        shard.zero();
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
            let t = h.totals();
            let mean = if t.count == 0 {
                0.0
            } else {
                t.sum as f64 / t.count as f64
            };
            s.push_str(&format!(
                "    {:<44} n={} sum={} min={} max={} mean={:.1}\n",
                name,
                t.count,
                t.sum,
                t.min.unwrap_or(0),
                t.max.unwrap_or(0),
                mean
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
/// [`wall_profile_summary`].
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

/// The span profile — per-path call counts, wall seconds, and attributed
/// sim-nanoseconds — rendered for humans. **Not deterministic** (it
/// contains wall time): the bench binaries print it to stderr only,
/// extending the `par::Timings` per-stage view.
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
    pub(crate) sim_ns: u64,
    pub(crate) flow: u64,
    /// Which layer decided: `tcp`, `quic`, `qdisc`, `nic`, `net`,
    /// `emulate`, `registry`.
    pub layer: &'static str,
    /// What kind of decision: `tso-pkts`, `pkt-size`, `pacing`,
    /// `release`, `tx`, `split`, `delay`, …
    pub event: &'static str,
    pub(crate) before: u64,
    pub(crate) after: u64,
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
/// *oldest* event and counts it as dropped — memory stays
/// bounded on arbitrarily long runs while the tail (usually the
/// interesting part of a regression) is preserved.
#[derive(Debug)]
pub struct FlowTrace {
    cap: usize,
    events: VecDeque<FlowEvent>,
    dropped: u64,
}

impl FlowTrace {
    pub(crate) fn new(cap: usize) -> Self {
        FlowTrace {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, ev: FlowEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub fn into_events(self) -> Vec<FlowEvent> {
        self.events.into()
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

    pub(crate) fn record(&self, ev: FlowEvent) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that record metrics and assert exact values must not overlap
    /// with the ones that call `reset` — serialize them on one mutex
    /// (poisoning is irrelevant, recover the guard).
    fn recording_guard() -> MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
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
        assert_eq!(ring.events.len(), 4);
        assert_eq!(ring.cap, 4);
        assert_eq!(ring.dropped, 6);
        let kept: Vec<u64> = ring.into_events().iter().map(|e| e.sim_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "tail retained, head evicted");
    }

    #[test]
    fn tracer_is_shared_across_clones() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        t.rec(Nanos(5), 3, "qdisc", "release", 5, 7, "nic-busy");
        assert_eq!(lock(&t2.inner).events.len(), 1);
        let trace = t2.take();
        assert!(
            lock(&t.inner).events.is_empty(),
            "take drains the shared ring"
        );
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
        let h = Histo::new();
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

    type Instruments = (Counter, Gauge, Histo);

    fn fresh() -> Instruments {
        (Counter::new(), Gauge::new(), Histo::new())
    }

    fn record_all((c, g, h): &Instruments, samples: &[u64]) {
        for &v in samples {
            c.add(v);
            g.set_max(v);
            h.record(v);
        }
    }

    #[test]
    fn histo_equals_a_naive_reference_on_one_thread_and_on_four() {
        let _g = recording_guard();
        let empty = Histo::new().to_json();
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

        // A counter adds every sample, a gauge keeps the largest.
        let want_sum = seq.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        let want_max = *seq.iter().max().unwrap();
        let check = |(c, g, h): &Instruments, how: &str| {
            assert_eq!(h.to_json(), want, "histogram, {how}");
            assert_eq!(c.get(), want_sum, "counter, {how}");
            assert_eq!(g.get(), want_max, "gauge, {how}");
        };

        let serial = fresh();
        record_all(&serial, &seq);
        check(&serial, "one thread");

        let quarters: Vec<Vec<u64>> = seq
            .chunks(seq.len().div_ceil(4))
            .map(<[u64]>::to_vec)
            .collect();
        let workers = fresh();
        crate::par::par_map_n(4, &quarters, |_, q| record_all(&workers, q));
        check(&workers, "four workers");

        // Plain threads that have exited, shards handed back, by the read.
        let exited = Arc::new(fresh());
        let threads: Vec<_> = quarters
            .into_iter()
            .map(|q| {
                let ins = Arc::clone(&exited);
                std::thread::spawn(move || record_all(&ins, &q))
            })
            .collect();
        for t in threads {
            t.join().expect("a recording thread");
        }
        check(&exited, "four exited threads");
    }

    #[test]
    fn exited_threads_hand_their_shards_to_the_next() {
        let _g = recording_guard();
        let c = counter("telemetry.test.churn_counter");
        for _ in 0..256 {
            std::thread::spawn(move || c.inc())
                .join()
                .expect("a recording thread");
        }
        assert_eq!(c.get(), 256);
        let (allocated, peak) = shard_counts();
        assert!(
            allocated <= peak + 1,
            "{allocated} shards allocated for at most {peak} threads recording at once"
        );
    }

    #[test]
    fn reset_zeroes_what_exited_threads_recorded() {
        let _g = recording_guard();
        let c = counter("telemetry.test.reset_counter");
        let g = gauge("telemetry.test.reset_gauge");
        let h = histo("telemetry.test.reset_histo");
        let on_a_thread = |f: fn(&'static Counter, &'static Gauge, &'static Histo)| {
            std::thread::spawn(move || f(c, g, h))
                .join()
                .expect("a recording thread");
        };
        // This thread holds a shard of its own, so the exited thread's
        // values sit in another one.
        c.inc();
        on_a_thread(|c, g, h| {
            c.add(7);
            g.set_max(9);
            h.record(5);
        });
        assert_eq!((c.get(), g.get(), h.count()), (8, 9, 1));
        reset();
        assert_eq!((c.get(), g.get()), (0, 0));
        assert_eq!(h.to_json(), Histo::new().to_json(), "an empty histogram");
        // The zeroed shards record from scratch, the minimum included.
        on_a_thread(|_, _, h| h.record(300));
        assert_eq!((h.count(), h.min(), h.max()), (1, Some(300), Some(300)));
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
        let _g = recording_guard(); // `reset` clears the profile
        {
            let mut outer = span("telemetry.test.outer");
            outer.sim_window(Nanos(100), Nanos(600));
            let _inner = span("inner");
        }
        let prof = lock(&registry().profile);
        let outer = &prof["telemetry.test.outer"];
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.sim_ns, 500);
        assert!(
            prof.contains_key("telemetry.test.outer/inner"),
            "nested span path is /-joined: {:?}",
            prof.keys().collect::<Vec<_>>()
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
