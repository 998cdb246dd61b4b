//! The simulated data-collection pipeline: load a page through the full
//! stack and capture it at the client vantage point, as §3 does with a
//! real browser and tcpdump.
//!
//! The browser model is deliberately simple but structurally faithful:
//! TCP handshake, an emulated TLS 1.3 exchange (ClientHello / server
//! flight / Finished with realistic flight sizes), then HTTP/1.1-style
//! request-response on a small connection pool, with server think times
//! and client request gaps. The *server* application is where a Stob
//! policy can be attached (§5.4: server-side deployment), so defended
//! traces are generated by the same pipeline with a policy installed.

use crate::model::Trace;
use crate::sites::{SiteProfile, VisitPlan};
use netsim::{AuditReport, FaultSchedule, FaultStats, FlowId, Nanos, SimRng};
use stack::cpu::CpuModel;
use stack::net::{Api, App, Network, CLIENT, SERVER};
use stack::tls::framed_bytes;
use stack::{HostConfig, PathConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use stob::policy::ObfuscationPolicy;
use stob::registry::{PolicyKey, PolicyRegistry};
use stob::sockopt::{attach, Attachment};

/// TLS ClientHello size (ciphertext bytes on the stream).
const CLIENT_HELLO: u64 = 517;
/// TLS client Finished flight, sent together with the first request.
const CLIENT_FINISHED: u64 = 80;

/// Outcome of one simulated visit.
#[derive(Debug)]
pub struct VisitOutcome {
    pub trace: Trace,
    /// True when every object completed before the deadline.
    pub complete: bool,
    /// Wire bytes the server sent (for overhead accounting).
    pub server_wire_bytes: u64,
    /// Runtime invariant report for this visit (empty and trivially
    /// clean when auditing was off).
    pub audit: AuditReport,
    /// Fault-injection counters, when a schedule was installed.
    pub fault_stats: Option<FaultStats>,
    /// Connections that fell back to pass-through because the server
    /// policy failed validation.
    #[cfg(test)]
    pub(crate) policy_degraded: u64,
    /// Object-level completion and recovery accounting for the visit.
    pub progress: VisitProgress,
    /// Circuit-breaker totals, when the registry carried one.
    pub breaker: Option<stob::BreakerStats>,
}

/// Object-level accounting of how far a visit got and what the recovery
/// runtime did on the way. `bytes_remaining` maps unfinished object
/// indices (0 = main document, then satellites in plan order) to the
/// stream bytes still missing when the run ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisitProgress {
    pub(crate) objects_total: usize,
    pub(crate) objects_done: usize,
    pub(crate) bytes_remaining: BTreeMap<usize, u64>,
    /// Watchdog firings observed by the browser.
    pub stalls: u64,
    /// Objects whose remainder was re-queued after a stall.
    pub retries: u64,
    /// Replacement connections opened after backoff.
    pub reconnects: u64,
    /// Objects abandoned after exhausting their retries.
    pub gave_up: u64,
}

/// Application-level recovery (all deterministic): stall watchdogs on
/// the browser's connections and retry with backoff. Turned on by
/// holding one in [`LoaderConfig::recovery`]. It carries no settings:
/// they are the loader's constants `IDLE_TIMEOUT`, `BACKOFF_BASE`,
/// `BACKOFF_MAX`, `JITTER_FRAC` and `MAX_RETRIES`. Braced, not a unit
/// struct, so callers keep building it with `RecoveryConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryConfig {}

/// Which transport the browser uses (Figure 1's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    Tcp,
    Quic,
}

/// Loader configuration.
pub struct LoaderConfig {
    /// Simulated-time budget per visit; incomplete visits are flagged
    /// (the sanitizer drops them, like the paper's connection-error
    /// check).
    pub deadline: Nanos,
    /// Random per-packet loss on the path.
    pub loss: f64,
    /// Optional Stob policy installed server-side for every connection.
    pub server_policy: Option<ObfuscationPolicy>,
    /// Transport the browser speaks (HTTP/1.1-over-TLS-over-TCP or
    /// HTTP/3-style over QUIC).
    pub transport: TransportKind,
    /// TLS record padding quantum in bytes (0 = none): the application-
    /// level padding channel §4.2 leaves to the app — every response's
    /// records are padded up to a multiple of this size.
    pub record_pad_quantum: u64,
    /// Deterministic fault schedule to install on the path (also turns
    /// the runtime invariant auditor on for the visit).
    pub faults: Option<FaultSchedule>,
    /// Application-level recovery (stall watchdogs + retry with backoff).
    /// `None` (the default) reproduces the historical loader exactly:
    /// no watchdogs are armed and no recovery RNG is ever drawn from.
    pub recovery: Option<RecoveryConfig>,
    /// Install the circuit breaker over the server's policy-attach
    /// path (`PolicyRegistry::set_breaker`).
    pub breaker: bool,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            deadline: Nanos::from_secs(60),
            loss: 0.001,
            server_policy: None,
            transport: TransportKind::Tcp,
            record_pad_quantum: 0,
            faults: None,
            recovery: None,
            breaker: false,
        }
    }
}

// ---------------------------------------------------------------------
// Shared visit state (the "content the server knows it will serve")
// ---------------------------------------------------------------------

struct Shared {
    /// Per-flow queue of (response stream bytes, think time) for requests
    /// the client has issued but the server has not yet answered.
    pending: BTreeMap<u32, VecDeque<(u64, Nanos)>>,
    /// Set by the client when the page load finished.
    done: bool,
    /// Object-level progress mirror, read out after the run.
    progress: VisitProgress,
}

/// Both apps run inside one `Network`, on one thread, and `load_page`
/// reads the state only after the run.
type SharedRef = Rc<RefCell<Shared>>;

// ---------------------------------------------------------------------
// Client (browser) application
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    /// Sent ClientHello, waiting for the server flight.
    Handshaking,
    /// Waiting for `expect` more response bytes.
    Busy,
    /// Idle, can issue the next request.
    Ready,
}

/// One unit of download work: an object (or the remainder of one after a
/// stall) expressed in post-TLS stream bytes.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Object index: 0 = main document, then satellites in plan order.
    object: usize,
    /// Stream bytes still to fetch for this object.
    stream_bytes: u64,
    /// Server think time before the response.
    think: Nanos,
    /// How many times this object stalled and was re-requested.
    attempt: u32,
    is_main: bool,
}

struct ConnState {
    phase: ConnPhase,
    recv: u64,
    expect: u64,
    /// The job currently in flight on this connection, if Busy.
    job: Option<Job>,
}

/// App-timer tokens at or above this are reconnect wake-ups; below are
/// per-flow re-dispatch gaps (flow ids are u32, so the spaces never
/// collide — the server's tokens start at `1 << 32`).
const RECONNECT_TOKEN: u64 = 1 << 40;

/// Idle bound for the per-connection stall watchdog.
const IDLE_TIMEOUT: Nanos = Nanos::from_millis(750);
/// First reconnect backoff; doubles per consecutive stall.
const BACKOFF_BASE: Nanos = Nanos::from_millis(250);
/// Ceiling on the doubled backoff.
const BACKOFF_MAX: Nanos = Nanos::from_secs(2);
/// Jitter added on top of the backoff, as a fraction of it, drawn from a
/// per-stall fork of the visit's recovery RNG.
const JITTER_FRAC: f64 = 0.5;
/// Retries per object before the browser gives up on it.
const MAX_RETRIES: u32 = 8;

struct Browser {
    plan: VisitPlan,
    transport: TransportKind,
    pad_quantum: u64,
    shared: SharedRef,
    /// Work queue of (object index, object bytes, think) not yet assigned.
    queue: VecDeque<(usize, u64, Nanos)>,
    /// Stalled work to retry ahead of fresh queue entries.
    retry: VecDeque<Job>,
    conns: BTreeMap<u32, ConnState>,
    opened: usize,
    main_flow: Option<u32>,
    main_done: bool,
    /// The main-document connection died; the next opened connection
    /// takes over as the main flow.
    need_main: bool,
    outstanding: usize,
    closed: bool,
    /// Stall watchdogs and retry with backoff are on.
    recovery: bool,
    /// Root of all recovery jitter draws, forked per stall — never the
    /// network RNG (which feeds loss draws) and never consulted unless
    /// recovery is on, so default runs are bit-identical to before.
    recovery_rng: SimRng,
    /// Monotonic stall sequence number (jitter fork index).
    stall_seq: u64,
    /// Consecutive stalls without an intervening completed object
    /// (backoff exponent).
    streak: u32,
}

impl Browser {
    fn new(
        plan: VisitPlan,
        transport: TransportKind,
        pad_quantum: u64,
        shared: SharedRef,
        recovery: bool,
        recovery_rng: SimRng,
    ) -> Self {
        let mut queue = VecDeque::new();
        for (i, &obj) in plan.objects.iter().enumerate() {
            queue.push_back((i + 1, obj, plan.thinks[i + 1]));
        }
        shared.borrow_mut().progress.objects_total = 1 + plan.objects.len();
        Browser {
            plan,
            transport,
            pad_quantum,
            shared,
            queue,
            retry: VecDeque::new(),
            conns: BTreeMap::new(),
            opened: 0,
            main_flow: None,
            main_done: false,
            need_main: false,
            outstanding: 0,
            closed: false,
            recovery,
            recovery_rng,
            stall_seq: 0,
            streak: 0,
        }
    }

    fn with_progress(&self, f: impl FnOnce(&mut VisitProgress)) {
        f(&mut self.shared.borrow_mut().progress);
    }

    fn open_conn(&mut self, api: &mut Api) {
        let flow = match self.transport {
            TransportKind::Tcp => api.connect(),
            TransportKind::Quic => api.connect_quic(stack::StackConfig::default(), None),
        };
        self.opened += 1;
        if self.main_flow.is_none() || self.need_main {
            self.main_flow = Some(flow.0);
            self.need_main = false;
        }
        // Supervise the handshake too: a SYN swallowed by an outage
        // stalls the connection exactly like a dead transfer.
        if self.recovery {
            api.watch(flow, IDLE_TIMEOUT);
        }
        self.conns.insert(
            flow.0,
            ConnState {
                phase: ConnPhase::Handshaking,
                recv: 0,
                expect: 0,
                job: None,
            },
        );
    }

    /// Issue the request for `job` on `flow`.
    fn request(&mut self, api: &mut Api, flow: u32, job: Job) {
        // An untracked flow (closed under the caller) gets no request —
        // better an incomplete visit than a panic mid-dataset. Stalled
        // work survives in the retry queue.
        let Some(st) = self.conns.get_mut(&flow) else {
            if job.attempt > 0 {
                self.retry.push_front(job);
            }
            return;
        };
        {
            let mut sh = self.shared.borrow_mut();
            sh.pending
                .entry(flow)
                .or_default()
                .push_back((job.stream_bytes, job.think));
            sh.progress
                .bytes_remaining
                .insert(job.object, job.stream_bytes);
        }
        st.phase = ConnPhase::Busy;
        st.recv = 0;
        st.expect = job.stream_bytes;
        st.job = Some(job);
        self.outstanding += 1;
        if self.recovery {
            api.watch(FlowId(flow), IDLE_TIMEOUT);
        }
        api.send(FlowId(flow), CLIENT_FINISHED + self.plan.request_size);
    }

    /// A connection became ready: give it work, or finish up.
    fn dispatch(&mut self, api: &mut Api, flow: u32) {
        // Stalled remainders go first — they block page completion.
        if let Some(job) = self.retry.pop_front() {
            self.request(api, flow, job);
            return;
        }
        if !self.main_done {
            // The main document goes first, alone, on the first conn.
            if Some(flow) == self.main_flow {
                let job = Job {
                    object: 0,
                    stream_bytes: framed_bytes(self.plan.main_doc, self.pad_quantum),
                    think: self.plan.thinks[0],
                    attempt: 0,
                    is_main: true,
                };
                self.request(api, flow, job);
            }
            return;
        }
        if let Some((object, obj, think)) = self.queue.pop_front() {
            let job = Job {
                object,
                stream_bytes: framed_bytes(obj, self.pad_quantum),
                think,
                attempt: 0,
                is_main: false,
            };
            self.request(api, flow, job);
        } else if self.outstanding == 0 && !self.closed {
            self.closed = true;
            let flows: Vec<u32> = self.conns.keys().copied().collect();
            for f in flows {
                api.unwatch(FlowId(f));
                api.close(FlowId(f));
            }
            let mut sh = self.shared.borrow_mut();
            // Abandoned objects mean the page did not fully load.
            sh.done = sh.progress.gave_up == 0;
        }
    }

    fn object_complete(&mut self, api: &mut Api, flow: u32) {
        self.outstanding -= 1;
        self.streak = 0;
        let job = self
            .conns
            .get_mut(&flow)
            .and_then(|st| st.job.take())
            .expect("Busy connection carries a job");
        self.with_progress(|p| {
            p.objects_done += 1;
            p.bytes_remaining.remove(&job.object);
        });
        if self.recovery {
            api.unwatch(FlowId(flow));
        }
        if job.is_main && !self.main_done {
            self.main_done = true;
            // The browser parsed the document: open the rest of the pool.
            while self.opened < self.plan.connections {
                self.open_conn(api);
            }
        }
        // Re-dispatch after a parse/layout gap.
        api.set_timer(self.plan.request_gap, flow as u64);
        // If everything is already done, dispatch immediately to close.
        if self.queue.is_empty() && self.retry.is_empty() && self.outstanding == 0 {
            self.dispatch(api, flow);
        }
    }
}

impl App for Browser {
    fn on_start(&mut self, api: &mut Api) {
        self.open_conn(api);
    }

    fn on_connected(&mut self, api: &mut Api, flow: FlowId) {
        // TLS ClientHello.
        api.send(flow, CLIENT_HELLO);
    }

    fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
        let Some(st) = self.conns.get_mut(&flow.0) else {
            return;
        };
        st.recv += bytes;
        match st.phase {
            ConnPhase::Handshaking => {
                if st.recv >= self.plan.server_flight() {
                    st.recv -= self.plan.server_flight();
                    st.phase = ConnPhase::Ready;
                    // The handshake watch served its purpose; transfers
                    // arm their own in `request`. An idle pool member
                    // must not trip the watchdog while a sibling works.
                    if self.recovery {
                        api.unwatch(flow);
                    }
                    self.dispatch(api, flow.0);
                }
            }
            ConnPhase::Busy => {
                if st.recv >= st.expect {
                    st.recv -= st.expect;
                    st.expect = 0;
                    st.phase = ConnPhase::Ready;
                    self.object_complete(api, flow.0);
                } else if let Some(obj) = st.job.as_ref().map(|j| j.object) {
                    let left = st.expect - st.recv;
                    self.with_progress(|p| {
                        p.bytes_remaining.insert(obj, left);
                    });
                }
            }
            ConnPhase::Ready => {}
        }
    }

    fn on_stall(&mut self, api: &mut Api, flow: FlowId, _idle: Nanos) {
        if !self.recovery {
            return;
        }
        let Some(st) = self.conns.remove(&flow.0) else {
            return;
        };
        api.abort(flow);
        self.with_progress(|p| p.stalls += 1);
        self.stall_seq += 1;
        // Requeue the remainder of whatever was in flight.
        if let Some(mut job) = st.job {
            self.outstanding -= 1;
            job.stream_bytes = st.expect.saturating_sub(st.recv);
            job.attempt += 1;
            if job.attempt > MAX_RETRIES {
                self.with_progress(|p| p.gave_up += 1);
            } else {
                self.with_progress(|p| p.retries += 1);
                self.retry.push_front(job);
            }
        }
        if Some(flow.0) == self.main_flow {
            self.need_main = true;
        }
        // Replacement connection after exponential backoff plus
        // deterministic jitter: the delay depends only on the visit
        // seed and the stall sequence, never on scheduling.
        let shift = self.streak.min(6);
        self.streak += 1;
        let backoff = (BACKOFF_BASE * (1u64 << shift)).min(BACKOFF_MAX);
        let jitter = backoff.mul_f64(
            JITTER_FRAC
                * self
                    .recovery_rng
                    .fork(u64::from(flow.0))
                    .fork(self.stall_seq)
                    .next_f64(),
        );
        api.set_timer(backoff + jitter, RECONNECT_TOKEN + self.stall_seq);
    }

    fn on_timer(&mut self, api: &mut Api, token: u64) {
        if token >= RECONNECT_TOKEN {
            if !self.closed {
                self.with_progress(|p| p.reconnects += 1);
                self.open_conn(api);
            }
            return;
        }
        let flow = token as u32;
        if self
            .conns
            .get(&flow)
            .is_some_and(|st| st.phase == ConnPhase::Ready)
        {
            self.dispatch(api, flow);
        }
    }
}

// ---------------------------------------------------------------------
// Server (web server) application
// ---------------------------------------------------------------------

struct WebServer {
    shared: SharedRef,
    /// Per-flow: handshake completed? + unconsumed request bytes.
    flows: BTreeMap<u32, (bool, u64)>,
    /// Timer token -> (flow, response bytes).
    timers: BTreeMap<u64, (u32, u64)>,
    next_token: u64,
    /// The host's policy table (§4.1 shared memory). The driver keeps a
    /// clone, so degradation counters survive the simulation.
    registry: PolicyRegistry,
    seed: u64,
    /// This site's TLS server flight (certificate chain size).
    server_flight: u64,
    /// Size of one client request on the stream.
    request_len: u64,
}

impl WebServer {
    fn new(
        shared: SharedRef,
        registry: PolicyRegistry,
        seed: u64,
        server_flight: u64,
        request_len: u64,
    ) -> Self {
        WebServer {
            shared,
            flows: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_token: 1 << 32, // above any flow-id token space
            registry,
            seed,
            server_flight,
            request_len,
        }
    }
}

impl App for WebServer {
    fn on_accept(&mut self, api: &mut Api, flow: FlowId) {
        self.flows.insert(flow.0, (false, 0));
        // §5.4: the server side attaches the Stob policy to every
        // accepted connection, via the registry + sockopt path. Every
        // other outcome is pass-through: an inconsistent policy degrades
        // (and is counted) — the page load must survive a bad policy
        // table. The defense's per-flow build draws from a stream forked
        // off the server seed and the flow id, never from the network's
        // RNG, so attaching cannot move a packet of the simulation.
        let mut build_rng = SimRng::new(self.seed).fork(u64::from(flow.0));
        let outcome = attach(&self.registry, flow.0, 0, self.seed, &mut build_rng);
        if let Some(shaper) = outcome.attached().and_then(Attachment::into_shaper) {
            api.set_shaper(flow, shaper);
        }
    }

    fn on_data(&mut self, api: &mut Api, flow: FlowId, bytes: u64) {
        let Some((hs_done, buf)) = self.flows.get_mut(&flow.0) else {
            return;
        };
        *buf += bytes;
        if !*hs_done {
            if *buf < CLIENT_HELLO {
                return;
            }
            *buf -= CLIENT_HELLO;
            *hs_done = true;
            api.send(flow, self.server_flight);
        }
        let req = self.request_len;
        while let Some(entry) = self.flows.get_mut(&flow.0).filter(|(_, b)| *b >= req) {
            entry.1 -= req;
            let popped = self
                .shared
                .borrow_mut()
                .pending
                .get_mut(&flow.0)
                .and_then(|q| q.pop_front());
            let Some((resp, think)) = popped else {
                break; // request without registered content: drop
            };
            let token = self.next_token;
            self.next_token += 1;
            self.timers.insert(token, (flow.0, resp));
            api.set_timer(think, token);
        }
    }

    fn on_timer(&mut self, api: &mut Api, token: u64) {
        if let Some((flow, resp)) = self.timers.remove(&token) {
            api.send(FlowId(flow), resp);
        }
    }

    fn on_peer_closed(&mut self, api: &mut Api, flow: FlowId) {
        api.close(flow);
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Simulate one visit to `site` and return the captured trace.
pub fn load_page(
    site: &SiteProfile,
    label: usize,
    visit: usize,
    seed: u64,
    cfg: &LoaderConfig,
) -> VisitOutcome {
    let mut rng = SimRng::new(seed).fork(label as u64).fork(visit as u64 + 1);
    let plan = site.plan_visit(&mut rng);
    // Forking does not consume parent state, so carving out a recovery
    // stream leaves the plan and network RNGs untouched: default runs
    // (recovery off) are bit-identical to the historical loader.
    let recovery_rng = rng.fork(0x07EC_04E7);
    let shared: SharedRef = Rc::new(RefCell::new(Shared {
        pending: BTreeMap::new(),
        done: false,
        progress: VisitProgress::default(),
    }));

    let mut path = PathConfig {
        bottleneck_bps: plan.bottleneck_mbps * 1_000_000,
        one_way_delay: plan.rtt / 2,
        queue_bytes: (plan.bottleneck_mbps * 1_000_000 / 8) / 4,
        loss: cfg.loss,
    };
    if path.queue_bytes == 0 {
        path.queue_bytes = 64 * 1024;
    }

    let host = HostConfig {
        nic_rate_bps: 10_000_000_000, // access NICs, not 100 GbE
        cpu: CpuModel::default(),
        ..HostConfig::default()
    };
    // Server-side infrastructure knobs are site-specific (§3's sites run
    // on different CDNs): initial window, path MTU.
    let mut server_host = host.clone();
    server_host.stack.init_cwnd_segs = plan.server_init_cwnd;
    server_host.stack.mtu_ip = plan.server_mtu_ip;

    let server_flight = plan.server_flight();
    let request_len = CLIENT_FINISHED + plan.request_size;
    let browser = Browser::new(
        plan,
        cfg.transport,
        cfg.record_pad_quantum,
        Rc::clone(&shared),
        cfg.recovery.is_some(),
        recovery_rng,
    );
    let registry = PolicyRegistry::new();
    if let Some(pol) = &cfg.server_policy {
        registry.publish(PolicyKey::Default, pol.clone());
    }
    if cfg.breaker {
        registry.set_breaker();
    }
    let server = WebServer::new(
        Rc::clone(&shared),
        registry.clone(),
        seed,
        server_flight,
        request_len,
    );

    let mut net = Network::new(
        host,
        server_host,
        path,
        Box::new(browser),
        Box::new(server),
        seed ^ 0x5157_AB1E,
    );
    net.record_capture(CLIENT);
    if let Some(faults) = &cfg.faults {
        net.set_faults(faults);
        net.set_audit(true);
    }
    net.run_until(cfg.deadline);
    let (complete, progress) = {
        let sh = shared.borrow();
        (sh.done, sh.progress.clone())
    };
    let trace = Trace::from_capture(&net.client_capture, label, visit);
    let server_wire_bytes = net.wire_bytes_out(SERVER);
    let audit = net.audit_report();
    let fault_stats = net.fault_stats();
    VisitOutcome {
        trace,
        complete,
        server_wire_bytes,
        audit,
        fault_stats,
        #[cfg(test)]
        policy_degraded: registry.degraded_count(),
        progress,
        breaker: registry.breaker_stats(),
    }
}

/// A visit that panicked inside the simulator, caught at the visit
/// boundary so one poisoned (site, visit) pair cannot take down a whole
/// collection fan-out.
#[derive(Debug, Clone)]
pub struct VisitError {
    pub(crate) label: usize,
    pub(crate) visit: usize,
    pub(crate) seed: u64,
    /// The panic payload, stringified.
    pub(crate) panic: String,
}

impl std::fmt::Display for VisitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "visit panicked (label {} visit {} seed {}): {}",
            self.label, self.visit, self.seed, self.panic
        )
    }
}

impl std::error::Error for VisitError {}

/// [`load_page`] with panic containment: a panic anywhere in the visit
/// (site model, stack, defense) is caught and returned as a structured
/// [`VisitError`] instead of unwinding through the caller. Parallel
/// drivers use this so a chaos schedule
/// that trips a bug loses one visit, not the batch.
pub fn load_page_supervised(
    site: &SiteProfile,
    label: usize,
    visit: usize,
    seed: u64,
    cfg: &LoaderConfig,
) -> Result<VisitOutcome, VisitError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        load_page(site, label, visit, seed, cfg)
    }))
    .map_err(|e| VisitError {
        label,
        visit,
        seed,
        panic: netsim::par::panic_message(e),
    })
}

/// Collect `visits` traces per site for every site in `sites`.
/// Incomplete visits are still returned (the sanitizer filters them).
pub fn collect(
    sites: &[SiteProfile],
    visits: usize,
    seed: u64,
    cfg: &LoaderConfig,
) -> Vec<Vec<VisitOutcome>> {
    sites
        .iter()
        .enumerate()
        .map(|(label, site)| {
            (0..visits)
                .map(|v| load_page(site, label, v, seed, cfg))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::paper_sites;
    use netsim::Direction;

    fn quick_cfg() -> LoaderConfig {
        LoaderConfig {
            deadline: Nanos::from_secs(60),
            loss: 0.0,
            server_policy: None,
            transport: TransportKind::Tcp,
            record_pad_quantum: 0,
            faults: None,
            recovery: None,
            breaker: false,
        }
    }

    #[test]
    fn tls_wrapping_math() {
        assert_eq!(framed_bytes(0, 0), 0);
        assert_eq!(framed_bytes(1000, 0), 1022);
        assert_eq!(framed_bytes(16_384, 0), 16_384 + 22);
        assert_eq!(framed_bytes(16_385, 0), 16_385 + 44);
    }

    #[test]
    fn one_visit_completes_and_looks_like_a_page_load() {
        let sites = paper_sites();
        let out = load_page(&sites[7], 7, 0, 123, &quick_cfg());
        assert!(out.complete, "visit must finish within the deadline");
        let t = &out.trace;
        assert!(t.is_well_formed());
        assert!(t.len() > 60, "too few packets: {}", t.len());
        // Downloads dominate uploads for a page load.
        assert!(
            t.bytes(Direction::In) > 4 * t.bytes(Direction::Out),
            "in {} out {}",
            t.bytes(Direction::In),
            t.bytes(Direction::Out)
        );
        // Page weight is in the plausible band for the site model.
        let dl = t.download_bytes();
        assert!(dl > 80_000, "download {dl}");
        assert!(dl < 10_000_000, "download {dl}");
        // The visit takes web-plausible time.
        assert!(t.duration() > Nanos::from_millis(100));
        assert!(t.duration() < Nanos::from_secs(30));
    }

    #[test]
    fn visits_are_deterministic_per_seed_and_vary_across_visits() {
        let sites = paper_sites();
        let a = load_page(&sites[0], 0, 0, 5, &quick_cfg());
        let b = load_page(&sites[0], 0, 0, 5, &quick_cfg());
        assert_eq!(a.trace, b.trace, "same seed, same trace");
        let c = load_page(&sites[0], 0, 1, 5, &quick_cfg());
        assert_ne!(a.trace.packets, c.trace.packets, "visits must differ");
    }

    #[test]
    fn different_sites_produce_different_scale_traffic() {
        let sites = paper_sites();
        let small = load_page(&sites[6], 6, 0, 9, &quick_cfg()); // whatsapp
        let large = load_page(&sites[8], 8, 0, 9, &quick_cfg()); // youtube
        assert!(small.complete && large.complete);
        assert!(
            large.trace.download_bytes() > 3 * small.trace.download_bytes(),
            "expected youtube ({}) >> whatsapp ({})",
            large.trace.download_bytes(),
            small.trace.download_bytes()
        );
    }

    #[test]
    fn loss_does_not_break_page_loads() {
        let sites = paper_sites();
        let cfg = LoaderConfig {
            loss: 0.01,
            ..quick_cfg()
        };
        let out = load_page(&sites[1], 1, 0, 77, &cfg);
        assert!(out.complete, "TCP must recover from 1% loss");
    }

    #[test]
    fn server_policy_changes_the_packet_sequence() {
        let sites = paper_sites();
        let plain = load_page(&sites[2], 2, 0, 31, &quick_cfg());
        let cfg = LoaderConfig {
            server_policy: Some(ObfuscationPolicy::split_and_delay("defend")),
            ..quick_cfg()
        };
        let defended = load_page(&sites[2], 2, 0, 31, &cfg);
        assert!(plain.complete && defended.complete);
        // Same content, but the defended trace has more, smaller,
        // incoming packets.
        let p_in = plain
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In && p.size > 100)
            .count();
        let d_in = defended
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In && p.size > 100)
            .count();
        assert!(
            d_in > p_in + p_in / 4,
            "defense must split packets: {d_in} vs {p_in}"
        );
        // And no defended data packet exceeds the split threshold much.
        let max_in = defended
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .map(|p| p.size)
            .max()
            .unwrap_or(0);
        assert!(max_in <= 1200 + 66, "split threshold violated: {max_in}");
    }

    #[test]
    fn record_padding_inflates_downloads() {
        assert_eq!(framed_bytes(100, 4096), 4096 + 22);
        assert_eq!(framed_bytes(100, 0), 122);
        let sites = paper_sites();
        let plain = load_page(&sites[7], 7, 0, 71, &quick_cfg());
        let pcfg = LoaderConfig {
            record_pad_quantum: 8192,
            ..quick_cfg()
        };
        let padded = load_page(&sites[7], 7, 0, 71, &pcfg);
        assert!(plain.complete && padded.complete);
        assert!(
            padded.trace.download_bytes() as f64 > plain.trace.download_bytes() as f64 * 1.15,
            "padding must inflate: {} vs {}",
            padded.trace.download_bytes(),
            plain.trace.download_bytes()
        );
    }

    #[test]
    fn quic_page_load_completes_and_differs_from_tcp() {
        let sites = paper_sites();
        let tcp = load_page(&sites[5], 5, 0, 61, &quick_cfg());
        let qcfg = LoaderConfig {
            transport: TransportKind::Quic,
            ..quick_cfg()
        };
        let quic = load_page(&sites[5], 5, 0, 61, &qcfg);
        assert!(tcp.complete && quic.complete, "both transports must load");
        // Same content scale...
        let ratio = quic.trace.download_bytes() as f64 / tcp.trace.download_bytes() as f64;
        assert!((0.7..1.4).contains(&ratio), "download ratio {ratio}");
        // ...but a QUIC wire image: data-bearing packets are capped at
        // the 1350-byte datagram + 60-byte overhead, below TCP's 1514.
        let max_quic = quic.trace.packets.iter().map(|p| p.size).max().unwrap();
        assert!(
            max_quic <= 3760,
            "QUIC packet {max_quic} (hs flight is 3760)"
        );
        let big_data = quic
            .trace
            .packets
            .iter()
            .filter(|p| p.size > 1410 && p.size < 3000)
            .count();
        assert_eq!(big_data, 0, "no datagram may exceed 1410 wire bytes");
    }

    #[test]
    fn faulted_page_load_completes_and_audits_clean() {
        let sites = paper_sites();
        let cfg = LoaderConfig {
            faults: FaultSchedule::scenario("ge-burst", 0xFA17, Nanos::from_secs(60)),
            ..quick_cfg()
        };
        let out = load_page(&sites[3], 3, 0, 41, &cfg);
        assert!(out.complete, "TCP must recover from the burst-loss fault");
        let stats = out.fault_stats.expect("schedule installed");
        assert!(stats.ge_drops > 0, "the burst must actually drop packets");
        assert!(
            out.audit.clean(),
            "invariants must hold under faults: {:?}",
            out.audit.violations
        );
        assert!(out.audit.checks > 0, "auditor must have been active");
    }

    #[test]
    fn invalid_server_policy_degrades_to_passthrough() {
        use stob::policy::DelaySpec;
        let sites = paper_sites();
        let mut bad = ObfuscationPolicy::split_and_delay("bad");
        bad.delay = DelaySpec::UniformFraction {
            lo_frac: 0.30,
            hi_frac: 0.10, // inverted: fails validation
        };
        let cfg = LoaderConfig {
            server_policy: Some(bad),
            ..quick_cfg()
        };
        let out = load_page(&sites[2], 2, 0, 31, &cfg);
        assert!(out.complete, "a bad policy must not break the page load");
        assert!(
            out.policy_degraded > 0,
            "every accepted connection should count a degradation"
        );
        // Pass-through means the trace matches an undefended load.
        let plain = load_page(&sites[2], 2, 0, 31, &quick_cfg());
        assert_eq!(out.trace, plain.trace);
    }

    /// A hard outage from t=0: SYN retransmits land at ~1/3/7/15 s and
    /// the next would be past the deadline, so an unsupervised load can
    /// never establish a connection in time. QUIC-lite is stricter
    /// still: a lost Initial is never retransmitted.
    fn blackout_cfg(recovery: Option<RecoveryConfig>, transport: TransportKind) -> LoaderConfig {
        LoaderConfig {
            deadline: Nanos::from_secs(25),
            transport,
            recovery,
            faults: Some(
                FaultSchedule::new(0x000B_1AC0).push(netsim::FaultKind::LinkFlap {
                    down_at: Nanos::ZERO,
                    up_at: Nanos::from_secs(16),
                    drop: true,
                }),
            ),
            ..quick_cfg()
        }
    }

    #[test]
    fn tcp_recovery_rescues_a_page_load_from_an_early_blackout() {
        let sites = paper_sites();
        let off = load_page(&sites[6], 6, 0, 91, &blackout_cfg(None, TransportKind::Tcp));
        assert!(!off.complete, "no recovery: the blackout must win");
        let on = load_page(
            &sites[6],
            6,
            0,
            91,
            &blackout_cfg(Some(RecoveryConfig::default()), TransportKind::Tcp),
        );
        assert!(on.complete, "recovery must finish the load");
        assert!(on.progress.stalls >= 1, "{:?}", on.progress);
        assert!(on.progress.reconnects >= 1, "{:?}", on.progress);
        assert_eq!(on.progress.objects_done, on.progress.objects_total);
        assert!(on.progress.bytes_remaining.is_empty(), "{:?}", on.progress);
        assert_eq!(on.progress.gave_up, 0);
        assert!(on.audit.clean(), "violations: {:?}", on.audit.violations);
    }

    #[test]
    fn quic_recovery_rescues_a_page_load_from_an_early_blackout() {
        let sites = paper_sites();
        let off = load_page(
            &sites[6],
            6,
            0,
            92,
            &blackout_cfg(None, TransportKind::Quic),
        );
        assert!(!off.complete, "a lost Initial is fatal without recovery");
        let on = load_page(
            &sites[6],
            6,
            0,
            92,
            &blackout_cfg(Some(RecoveryConfig::default()), TransportKind::Quic),
        );
        assert!(on.complete, "recovery must finish the QUIC load");
        assert!(on.progress.stalls >= 1 && on.progress.reconnects >= 1);
        assert_eq!(on.progress.objects_done, on.progress.objects_total);
        assert!(on.audit.clean(), "violations: {:?}", on.audit.violations);
    }

    #[test]
    fn mid_flow_outage_resumes_objects_on_fresh_connections() {
        // The outage starts after the load is underway, so in-flight
        // objects stall and their *remainders* ride the retry queue.
        let sites = paper_sites();
        let cfg = LoaderConfig {
            deadline: Nanos::from_secs(25),
            recovery: Some(RecoveryConfig::default()),
            faults: Some(FaultSchedule::new(0x0D0).push(netsim::FaultKind::LinkFlap {
                down_at: Nanos::from_millis(400),
                up_at: Nanos::from_secs(6),
                drop: true,
            })),
            ..quick_cfg()
        };
        let out = load_page(&sites[8], 8, 0, 93, &cfg);
        assert!(out.complete, "resumed load must finish");
        assert!(out.progress.retries >= 1, "{:?}", out.progress);
        assert_eq!(out.progress.objects_done, out.progress.objects_total);
        assert!(out.progress.bytes_remaining.is_empty());
        assert!(out.audit.clean(), "violations: {:?}", out.audit.violations);
    }

    #[test]
    fn recovery_runs_are_deterministic_per_seed() {
        let sites = paper_sites();
        let cfg = blackout_cfg(Some(RecoveryConfig::default()), TransportKind::Tcp);
        let a = load_page(&sites[3], 3, 0, 94, &cfg);
        let b = load_page(&sites[3], 3, 0, 94, &cfg);
        assert_eq!(a.trace, b.trace, "same seed, same recovered trace");
        assert_eq!(a.progress, b.progress);
    }

    #[test]
    fn recovery_off_is_bit_identical_to_the_historical_loader() {
        // The recovery RNG is forked but never drawn from when recovery
        // is off, so default-config traces cannot shift (goldens).
        let sites = paper_sites();
        let a = load_page(&sites[0], 0, 0, 5, &quick_cfg());
        let b = load_page(
            &sites[0],
            0,
            0,
            5,
            &LoaderConfig {
                recovery: None,
                ..quick_cfg()
            },
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn supervised_visit_converts_a_panic_into_a_structured_error() {
        let sites = paper_sites();
        // Healthy visit: passes through untouched.
        let ok = load_page_supervised(&sites[0], 0, 0, 5, &quick_cfg());
        assert!(ok.is_ok());
        // A zero-rate bottleneck makes the link math panic; supervision
        // must contain it and identify the visit.
        let mut broken = sites[0].clone();
        broken.bottleneck_mbps = 0;
        let err = load_page_supervised(&broken, 3, 7, 11, &quick_cfg())
            .expect_err("zero-rate link must panic inside the sim");
        assert_eq!((err.label, err.visit, err.seed), (3, 7, 11));
        assert!(!err.panic.is_empty());
    }

    #[test]
    fn breaker_stats_surface_in_the_visit_outcome() {
        use stob::policy::DelaySpec;
        let sites = paper_sites();
        let mut bad = ObfuscationPolicy::split_and_delay("bad");
        bad.delay = DelaySpec::UniformFraction {
            lo_frac: 0.30,
            hi_frac: 0.10, // inverted: fails validation
        };
        let cfg = LoaderConfig {
            server_policy: Some(bad),
            breaker: true,
            ..quick_cfg()
        };
        let out = load_page(&sites[8], 8, 0, 31, &cfg);
        assert!(out.complete, "shed attachments are pass-through");
        let b = out.breaker.expect("breaker installed");
        assert!(b.trips >= 1, "repeated degradations must trip: {b:?}");
        // Without a breaker the field stays None.
        assert!(load_page(&sites[8], 8, 0, 31, &quick_cfg())
            .breaker
            .is_none());
    }

    #[test]
    fn collect_returns_per_site_batches() {
        let sites: Vec<_> = paper_sites().into_iter().take(2).collect();
        let all = collect(&sites, 3, 11, &quick_cfg());
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|v| v.len() == 3));
        assert!(all
            .iter()
            .flatten()
            .all(|o| o.complete && o.trace.len() > 30));
    }
}
