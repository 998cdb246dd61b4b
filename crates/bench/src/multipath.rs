//! Multipath defense matrix: traffic splitting as a defense, measured
//! from every vantage point.
//!
//! The paper's central argument — defenses belong in the network stack —
//! opens a door single-path emulation cannot: a stack that owns the
//! transport can *split one flow across several network paths*. An
//! on-path observer then sees only the datagrams routed onto its leg,
//! while the converged view (all legs merged) is what a colluding or
//! access-link adversary reconstructs. This harness measures that gap:
//! k-FP accuracy per leg vs merged, across splitting policies × pipe
//! counts × fault scenarios, at both placements.
//!
//! * **App placement** splits each captured trace packet-by-packet with
//!   the real [`stack::mux::Splitter`] (the same code the transport
//!   runs), with a deterministic outage model marking legs dead during
//!   scenario windows — the trace-emulation methodology extended to
//!   multipath.
//! * **Stack placement** replays each trace through a full
//!   [`Network`] with the [`Multiplex`] transport on both ends over
//!   provisioned [`PipeProfile`] legs (each with its own rate, delay
//!   and independently-seeded fault schedule); the merged view is the
//!   client access-link capture, each per-leg view its slice by pipe
//!   tag ([`netsim::Capture::for_pipe`]).
//!
//! Splitting policies are *control-plane data*: the harness publishes
//! each one into a [`PolicyRegistry`] through the JSON sockopt path and
//! resolves it per destination before any cell runs, exactly as a
//! deployment would.
//!
//! Cells are independent and fan out on `netsim::par`; every cell forks
//! its randomness from the run seed by cell index (and per trace by
//! trace index), so the matrix is byte-identical at any `STOB_THREADS`.

use crate::cli;
use netsim::json::Wire;
use netsim::{par, Nanos, PipeProfile, SimRng};
use stack::mux::{Multiplex, MuxConfig, Splitter, SplitterSpec, MAX_PIPES};
use stack::net::{Api, App, Network, CLIENT};
use stack::{HostConfig, PathConfig};
use stob::defense::Placement;
use stob::sockopt::publish_json;
use stob::{PolicyKey, PolicyRegistry};
use traces::{Dataset, Trace, TracePacket};
use wf::eval::EvalConfig;
use wf::forest::ForestConfig;
use wf::openworld::OpenWorldConfig;
use wf::vantage::{evaluate_vantage_open_world, VantageOpenWorld};

use netsim::FlowId;

/// Scenario axis: no faults, or independently-seeded outage storms on
/// every leg (the recovery-heavy case where failover does real work).
pub(crate) const SCENARIOS: [&str; 2] = ["baseline", "outage-storm"];

/// Observation prefix: every vantage point keeps only the first 150
/// packets it captures — the paper's Table 2 convention, and what keeps
/// the fixed-width k-FP feature windows covering the same page span from
/// every vantage point.
const PREFIX_CAP: usize = 150;

/// One (splitter, pipes, scenario, placement) cell of the matrix.
#[derive(Debug, Clone)]
pub struct MultipathCell {
    pub splitter: String,
    pub pipes: usize,
    pub scenario: String,
    pub placement: Placement,
    /// Converged (merged-view) adversary accuracy.
    pub merged_mean: f64,
    /// Single-leg adversary accuracy, one entry per pipe.
    pub(crate) per_path_mean: Vec<f64>,
}

impl MultipathCell {
    pub fn best_path_mean(&self) -> f64 {
        self.per_path_mean.iter().copied().fold(0.0, f64::max)
    }

    /// Accuracy lost by an adversary demoted from the merged view to
    /// the best single leg.
    pub fn split_advantage(&self) -> f64 {
        self.merged_mean - self.best_path_mean()
    }
}

/// Matrix knobs (axes + evaluation sizes).
#[derive(Debug, Clone)]
pub struct MultipathConfig {
    pub splitters: Vec<SplitterSpec>,
    pub pipe_counts: Vec<usize>,
    pub scenarios: Vec<String>,
    pub placements: Vec<Placement>,
    /// XOR-parity group for the stack-placement transport (`None` = off).
    pub fec_group: Option<u32>,
    pub trees: usize,
    pub repeats: usize,
    pub seed: u64,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig {
            splitters: vec![SplitterSpec::RoundRobin, SplitterSpec::PaddedRandom],
            pipe_counts: vec![1, 2, 4],
            scenarios: SCENARIOS.iter().map(|s| s.to_string()).collect(),
            placements: Placement::ALL.to_vec(),
            fec_group: None,
            trees: 20,
            repeats: 6,
            seed: 0xA117,
        }
    }
}

/// Full matrix output plus the open-world slice.
#[derive(Debug)]
pub struct MultipathReport {
    pub cells: Vec<MultipathCell>,
    /// Open-world TPR/FPR for the first splitter at 2 pipes, baseline,
    /// app placement — the deployment-realistic attacker from each
    /// vantage point.
    pub open_world: VantageOpenWorld,
}

impl MultipathReport {
    /// Canonical JSON rendering — the `multipath` bin writes exactly
    /// this to `STOB_JSON_OUT`, and the
    /// determinism sweep compares these bytes across thread counts.
    pub fn to_json(&self) -> netsim::Json {
        use netsim::Json;
        Json::obj()
            .set(
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .set("splitter", c.splitter.as_str())
                                .set("pipes", c.pipes as u64)
                                .set("scenario", c.scenario.as_str())
                                .set("placement", c.placement.name())
                                .set("merged_accuracy", c.merged_mean)
                                .set(
                                    "per_path_accuracy",
                                    Json::Arr(
                                        c.per_path_mean.iter().map(|&m| Json::from(m)).collect(),
                                    ),
                                )
                                .set("best_path_accuracy", c.best_path_mean())
                                .set("split_advantage", c.split_advantage())
                        })
                        .collect(),
                ),
            )
            .set(
                "open_world",
                Json::obj()
                    .set(
                        "merged",
                        Json::obj()
                            .set("tpr", self.open_world.merged.tpr_mean)
                            .set("fpr", self.open_world.merged.fpr_mean),
                    )
                    .set(
                        "per_path",
                        Json::Arr(
                            self.open_world
                                .per_path
                                .iter()
                                .map(|l| Json::obj().set("tpr", l.tpr_mean).set("fpr", l.fpr_mean))
                                .collect(),
                        ),
                    ),
            )
    }
}

// ---------------------------------------------------------------------
// App placement: trace-level splitting with the real Splitter
// ---------------------------------------------------------------------

/// Deterministic outage model for app-placement cells, mirroring the
/// stack placement's fault wiring: under `outage-storm` the *first* leg
/// suffers repeated outages (down for the first 300 ms of every
/// second). Healthy legs stay up — with one leg there is no
/// alternative, which is the stack placement's collapsed cell.
fn leg_alive(scenario: &str, pipe: usize, n: usize, ts: Nanos) -> bool {
    if scenario != "outage-storm" || n <= 1 || pipe != 0 {
        return true;
    }
    ts.0 % OUTAGE_PERIOD >= OUTAGE_LEN
}

const OUTAGE_PERIOD: u64 = 1_000_000_000;
const OUTAGE_LEN: u64 = 300_000_000;

/// When an app-placement packet is assigned to a leg that is inside an
/// outage window, the link buffers it until the window ends — the
/// on-path observer sees it leave in the recovery burst. The app
/// splitter itself is *outage-blind*: unlike the transport (which owns
/// liveness state and fails over), the application cannot observe link
/// health, so it keeps assigning packets to the dead leg. This is the
/// paper's placement argument expressed as a fault model.
fn observed_ts(scenario: &str, pipe: usize, n: usize, ts: Nanos) -> Nanos {
    if leg_alive(scenario, pipe, n, ts) {
        ts
    } else {
        Nanos(ts.0 - ts.0 % OUTAGE_PERIOD + OUTAGE_LEN)
    }
}

/// Split one trace's packets across `n` legs with a [`Splitter`] forked
/// from the flow rng — the app-placement model of what each on-path
/// observer captures. Every packet lands on exactly one leg
/// (outage-blind; see `observed_ts`); the merged view is the union of
/// the leg captures in arrival order.
pub(crate) fn split_trace(
    t: &Trace,
    spec: &SplitterSpec,
    n: usize,
    scenario: &str,
    rng: &mut SimRng,
) -> (Trace, Vec<Trace>) {
    let mut splitter = Splitter::new(spec.clone(), n, rng.fork(1));
    let mut legs: Vec<Vec<TracePacket>> = vec![Vec::new(); n];
    let alive = vec![true; n];
    let mut merged: Vec<TracePacket> = Vec::with_capacity(t.packets.len());
    for p in &t.packets {
        let leg = splitter.pick(&alive, false);
        let mut obs = *p;
        obs.ts = observed_ts(scenario, leg, n, p.ts);
        legs[leg].push(obs);
        merged.push(obs);
    }
    // Recovery bursts can reorder the converged view; a stable sort
    // keeps ties in original order for determinism.
    merged.sort_by_key(|p| p.ts);
    (
        Trace::new(t.label, t.visit, merged),
        legs.into_iter()
            .map(|pkts| Trace::new(t.label, t.visit, pkts))
            .collect(),
    )
}

/// Split a whole dataset: returns the merged-view dataset plus one
/// aligned per-leg dataset per pipe. Per-trace randomness forks from
/// `root` by trace index, so the split is identical at any thread count.
pub fn split_dataset(
    d: &Dataset,
    spec: &SplitterSpec,
    n: usize,
    scenario: &str,
    root: &SimRng,
) -> (Dataset, Vec<Dataset>) {
    let mut merged: Vec<Trace> = Vec::with_capacity(d.traces.len());
    let mut legs: Vec<Vec<Trace>> = vec![Vec::with_capacity(d.traces.len()); n];
    for (ti, t) in d.traces.iter().enumerate() {
        let mut rng = root.fork(ti as u64 + 1);
        let (m, split) = split_trace(t, spec, n, scenario, &mut rng);
        merged.push(m);
        for (leg, sp) in legs.iter_mut().zip(split) {
            leg.push(sp);
        }
    }
    (
        Dataset::new(merged, d.class_names.clone()),
        legs.into_iter()
            .map(|traces| Dataset::new(traces, d.class_names.clone()))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Stack placement: replay through Multiplex over provisioned pipes
// ---------------------------------------------------------------------

/// Connection-establishment grace before the replay schedule starts:
/// covers the mux hello crossing the longest provisioned leg.
const GRACE: Nanos = Nanos(60_000_000);

/// Replay slack after the last scheduled packet: lets retransmissions
/// and failover drain before the captures are read.
const DRAIN: Nanos = Nanos(3_000_000_000);

/// Client replay app: opens the custom [`Multiplex`] transport, kicks
/// the hello immediately, then pushes each outbound packet's bytes at
/// its recorded timestamp.
struct ReplayClient {
    sched: Vec<(Nanos, u64)>,
    cfg: Option<MuxConfig>,
    seed: u64,
    flow: Option<FlowId>,
}

impl App for ReplayClient {
    fn on_start(&mut self, api: &mut Api) {
        let cfg = self.cfg.take().expect("client config");
        let seed = self.seed;
        let flow = api.connect_custom(move |f| Box::new(Multiplex::client(f, cfg, seed)));
        self.flow = Some(flow);
        // A zero-byte send flushes the transport's hello so the server
        // side exists well before the first scheduled payload.
        api.send(flow, 0);
        for &(ts, size) in &self.sched {
            api.set_timer(GRACE + ts, size);
        }
    }
    fn on_timer(&mut self, api: &mut Api, token: u64) {
        if let Some(flow) = self.flow {
            api.send(flow, token);
        }
    }
    fn on_sendable(&mut self, api: &mut Api, flow: FlowId) {
        // Establishment may race a dead leg; flush anything queued
        // while the transport was still connecting.
        api.send(flow, 0);
    }
}

/// Server replay app: timers are armed up front (the flow id arrives
/// with the accepted connection); bytes scheduled before the accept are
/// buffered and flushed the moment the transport exists.
struct ReplayServer {
    sched: Vec<(Nanos, u64)>,
    flow: Option<FlowId>,
    pending: u64,
}

impl App for ReplayServer {
    fn on_start(&mut self, api: &mut Api) {
        for &(ts, size) in &self.sched {
            api.set_timer(GRACE + ts, size);
        }
    }
    fn on_accept(&mut self, api: &mut Api, flow: FlowId) {
        self.flow = Some(flow);
        if self.pending > 0 {
            let bytes = self.pending;
            self.pending = 0;
            api.send(flow, bytes);
        }
    }
    fn on_timer(&mut self, api: &mut Api, token: u64) {
        match self.flow {
            Some(flow) => {
                api.send(flow, token);
            }
            None => self.pending += token,
        }
    }
}

/// Replay one trace through a real network with `Multiplex` on both
/// ends over `n` provisioned legs. Returns the merged client-vantage
/// trace and one per-leg trace (data-bearing packets only, like the §3
/// collection pipeline).
pub fn replay_multipath(
    t: &Trace,
    spec: &SplitterSpec,
    n: usize,
    scenario: &str,
    fec_group: Option<u32>,
    seed: u64,
) -> (Trace, Vec<Trace>) {
    let out: Vec<(Nanos, u64)> = t
        .packets
        .iter()
        .filter(|p| p.dir == netsim::Direction::Out)
        .map(|p| (p.ts, p.size as u64))
        .collect();
    let inbound: Vec<(Nanos, u64)> = t
        .packets
        .iter()
        .filter(|p| p.dir == netsim::Direction::In)
        .map(|p| (p.ts, p.size as u64))
        .collect();
    let deadline = GRACE + t.duration() + DRAIN;

    let mux_cfg = MuxConfig {
        n_pipes: n,
        splitter: spec.clone(),
        fec_group,
    };
    let client = ReplayClient {
        sched: out,
        cfg: Some(mux_cfg.clone()),
        seed: seed ^ 0xC11E,
        flow: None,
    };
    let server = ReplayServer {
        sched: inbound,
        flow: None,
        pending: 0,
    };
    let host = HostConfig::default();
    let mut net = Network::new(
        host.clone(),
        host,
        PathConfig::internet(50, 20),
        Box::new(client),
        Box::new(server),
        seed,
    );
    let srv_cfg = mux_cfg.clone();
    let srv_seed = seed ^ 0x5E4E;
    net.set_custom_acceptor(move |f| Box::new(Multiplex::server(f, srv_cfg.clone(), srv_seed)));

    // One leg per pipe, equal shares of the single-path budget with
    // staggered delays. Outage cells put the storm on the first leg
    // (its schedule is still independently seeded by `provision`): the
    // defended flow survives by failing over, and the single-leg cell
    // honestly collapses — there is nowhere to fail over to.
    // Symmetric legs: a delay stagger between legs would systematically
    // reorder the converged arrival stream, handing the merged observer
    // multipath jitter the per-leg observers never see — the comparison
    // is about *which packets* each vantage point gets, so the legs are
    // provisioned identically.
    let mut profiles = PipeProfile::fan(n, 50_000_000, Nanos::from_millis(10), Nanos::ZERO);
    if scenario == "outage-storm" {
        profiles[0].fault_scenario = Some("outage-storm".to_string());
    }
    net.provision_pipes(&profiles, seed, deadline);
    net.record_capture(CLIENT);
    // A permanently-dead leg keeps the probe timer armed forever, so
    // the replay runs to a deadline rather than to idle.
    net.run_until(deadline);

    // All vantage points are colocated at the client access network:
    // the merged observer taps every leg, each per-path observer taps
    // one. Slicing the client capture by pipe tag keeps every leg view
    // a strict sub-record of the merged view — same packets, same
    // clocks, less of them.
    let cap = net.client_capture.without_acks();
    let t0 = cap.records.first().map(|r| r.ts).unwrap_or(Nanos::ZERO);
    let rebased = |cap: &netsim::Capture| -> Trace {
        let packets = cap
            .records
            .iter()
            .map(|r| traces::TracePacket::new(r.ts - t0, r.dir, r.wire_len))
            .collect();
        Trace::new(t.label, t.visit, packets)
    };
    let merged = rebased(&cap);
    let per_path = (0..n as u8).map(|i| rebased(&cap.for_pipe(i))).collect();
    (merged, per_path)
}

/// Stack-placement datasets for one cell: every trace replayed through
/// its own network, seeds forked per trace index.
fn replay_dataset(
    d: &Dataset,
    spec: &SplitterSpec,
    n: usize,
    scenario: &str,
    fec_group: Option<u32>,
    root: &SimRng,
) -> (Dataset, Vec<Dataset>) {
    let mut merged = Vec::with_capacity(d.traces.len());
    let mut legs: Vec<Vec<Trace>> = vec![Vec::with_capacity(d.traces.len()); n];
    for (ti, t) in d.traces.iter().enumerate() {
        let seed = root.fork(ti as u64 + 1).next_u64();
        let (m, per_path) = replay_multipath(t, spec, n, scenario, fec_group, seed);
        merged.push(m);
        for (leg, p) in legs.iter_mut().zip(per_path) {
            leg.push(p);
        }
    }
    (
        Dataset::new(merged, d.class_names.clone()),
        legs.into_iter()
            .map(|traces| Dataset::new(traces, d.class_names.clone()))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

/// Number of monitored classes in the open-world slice.
const OW_MONITORED: usize = 5;

/// Run the full matrix on a collected dataset. Splitting policies go
/// through the control plane first: published as JSON into a
/// [`PolicyRegistry`] (one destination key per policy) and resolved
/// back before the cells fan out — a cell never sees a spec that did
/// not survive publish-time validation.
pub fn run_multipath(dataset: &Dataset, cfg: &MultipathConfig) -> MultipathReport {
    let registry = PolicyRegistry::new();
    let mut resolved = Vec::with_capacity(cfg.splitters.len());
    for (i, spec) in cfg.splitters.iter().enumerate() {
        let dest = i as u32 + 1;
        let text = spec.to_json().to_string_pretty();
        publish_json(
            &registry,
            PolicyKey::Destination(dest),
            &text,
            Placement::Stack,
        )
        .expect("matrix splitter must pass control-plane validation");
        let spec = registry
            .resolve_splitter(0, dest)
            .expect("just-published splitter resolves");
        resolved.push(spec);
    }

    let grid: Vec<(SplitterSpec, usize, String, Placement)> = resolved
        .iter()
        .flat_map(|s| {
            cfg.pipe_counts.iter().flat_map(move |&n| {
                cfg.scenarios.iter().flat_map(move |sc| {
                    cfg.placements
                        .iter()
                        .map(move |&p| (s.clone(), n, sc.clone(), p))
                })
            })
        })
        .collect();

    let eval_cfg = EvalConfig {
        forest: ForestConfig { n_trees: cfg.trees },
        repeats: cfg.repeats,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    let root = SimRng::new(cfg.seed);
    let fec = cfg.fec_group;
    // Every vantage point observes the same page prefix; the replayed
    // stack captures are clipped to the same budget after transport
    // re-segmentation so neither placement sees more page than the other.
    let view = dataset.truncated(PREFIX_CAP);

    let cells: Vec<MultipathCell> = par::par_map(&grid, |ci, (spec, n, scenario, placement)| {
        let cell_root = root.fork(ci as u64 + 1);
        let (merged, per_path) = match placement {
            Placement::App => split_dataset(&view, spec, *n, scenario, &cell_root),
            // The stack placement's captures are NOT re-clipped: the
            // replay already consumed the clipped view, and trimming the
            // merged capture again would hand the legs (which keep their
            // full, shorter streams) a spurious feature-window edge.
            Placement::Stack => replay_dataset(&view, spec, *n, scenario, fec, &cell_root),
        };
        let report = wf::evaluate_vantage(&merged, &per_path, &eval_cfg);
        MultipathCell {
            splitter: spec.name().to_string(),
            pipes: *n,
            scenario: scenario.clone(),
            placement: *placement,
            merged_mean: report.merged.mean,
            per_path_mean: report.per_path.iter().map(|r| r.mean).collect(),
        }
    });

    // Open-world slice: first splitter, 2 legs, baseline, app placement.
    let ow_spec = resolved
        .first()
        .cloned()
        .unwrap_or(SplitterSpec::RoundRobin);
    let ow_root = root.fork(grid.len() as u64 + 1);
    let (ow_merged, legs) = split_dataset(&view, &ow_spec, 2, "baseline", &ow_root);
    let split_pools = |d: &Dataset| -> (Vec<Trace>, Vec<Trace>) {
        let mon = d
            .traces
            .iter()
            .filter(|t| t.label < OW_MONITORED)
            .cloned()
            .collect();
        let bg = d
            .traces
            .iter()
            .filter(|t| t.label >= OW_MONITORED)
            .cloned()
            .collect();
        (mon, bg)
    };
    let (mon, bg) = split_pools(&ow_merged);
    let per_path_pools: Vec<(Vec<Trace>, Vec<Trace>)> = legs.iter().map(&split_pools).collect();
    let ow_cfg = OpenWorldConfig {
        forest: ForestConfig { n_trees: cfg.trees },
        repeats: cfg.repeats,
        seed: cfg.seed,
    };
    let open_world = evaluate_vantage_open_world(&mon, &bg, &per_path_pools, OW_MONITORED, &ow_cfg);

    MultipathReport { cells, open_world }
}

impl MultipathConfig {
    /// The `multipath` bin's matrix flags over `self`: `--pipes=1,2,4`
    /// (the pipe-count axis, each in `1..=MAX_PIPES`), `--splitter=<spec>`
    /// (one policy: `roundrobin`, `padded-random`, or `weighted:3,1,...`
    /// with one weight per pipe of every count), `--fec=<k>` (XOR parity
    /// every `k >= 2` data datagrams in the stack placement). A value the
    /// `Multiplex` transport cannot run is refused with exit 2.
    pub fn with_flags(mut self, args: &cli::Positional) -> MultipathConfig {
        let want = format!("pipe counts in 1..={MAX_PIPES}, comma-separated");
        let pipes = args.value("--pipes", &want, parse_pipes);
        self.pipe_counts = pipes.unwrap_or(self.pipe_counts);
        let counts = &self.pipe_counts;
        let want = format!("roundrobin, padded-random or weighted:<w,...> for pipes {counts:?}");
        let splitter = args.value("--splitter", &want, |s| parse_splitter(s, counts));
        self.splitters = splitter.map_or(self.splitters, |s| vec![s]);
        let fec = args.value("--fec", "a parity group size k >= 2", parse_fec);
        self.fec_group = fec.or(self.fec_group);
        self
    }
}

/// `--pipes`: every item a pipe count the transport runs, or nothing.
fn parse_pipes(raw: &str) -> Option<Vec<usize>> {
    raw.split(',')
        .map(|n| n.parse().ok().filter(|n| (1..=MAX_PIPES).contains(n)))
        .collect()
}

/// `--splitter`: a policy that fits every count in `pipe_counts`.
fn parse_splitter(raw: &str, pipe_counts: &[usize]) -> Option<SplitterSpec> {
    let spec = match raw {
        "roundrobin" => SplitterSpec::RoundRobin,
        "padded-random" => SplitterSpec::PaddedRandom,
        w => SplitterSpec::Weighted {
            weights: (w.strip_prefix("weighted:")?.split(','))
                .map(|w| w.parse().ok())
                .collect::<Option<_>>()?,
        },
    };
    (pipe_counts.iter().all(|&n| spec.validate(n).is_ok())).then_some(spec)
}

/// `--fec`: a parity group has at least two members.
fn parse_fec(raw: &str) -> Option<u32> {
    raw.parse().ok().filter(|&k| k >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::sites::paper_sites;
    use traces::statgen::generate_corpus;

    fn quick_dataset() -> Dataset {
        let sites: Vec<_> = paper_sites().into_iter().take(6).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, 12, 7), names)
    }

    /// The flags' parsers take a whole value or none of it: one bad
    /// item used to be warned about and the default axis kept.
    #[test]
    fn mux_flags_parse_whole_or_refuse() {
        assert_eq!(parse_pipes("1,2,8"), Some(vec![1, 2, 8]));
        assert_eq!(
            parse_splitter("padded-random", &[1, 2, 8]),
            Some(SplitterSpec::PaddedRandom)
        );
        assert_eq!(parse_fec("4"), Some(4));
        // A weighted splitter carries one weight per pipe, so it needs a
        // single pipe count.
        assert_eq!(
            parse_splitter("weighted:3,1", &[2]),
            Some(SplitterSpec::Weighted {
                weights: vec![3, 1]
            })
        );
        // One bad item refuses the whole value; a parity group needs two
        // members; a value that parses but that the transport cannot run
        // (a pipe count outside 1..=MAX_PIPES, two weights for the
        // 1/2/4-pipe axis) is refused the same way.
        let axis = MultipathConfig::default().pipe_counts;
        for (pipes, splitter, fec) in [
            ("2,x,8", "weighted:3,,1", "1"),
            (",", "weighted:", "four"),
            ("-1", "Roundrobin", "0"),
            ("0", "weighted:3,1", "1"),
            ("2,17", "weighted:0,1", "0"),
            (" 2", "roundrobin ", " 4"),
            ("", "", ""),
        ] {
            assert_eq!(parse_pipes(pipes), None, "{pipes:?}");
            assert_eq!(parse_splitter(splitter, &axis), None, "{splitter:?}");
            assert_eq!(parse_fec(fec), None, "{fec:?}");
        }
    }

    /// The corpus for the knob fuzz: the edge values each parser meets
    /// first (empty, whitespace, zero, negatives, 2^64, 1e300, unicode,
    /// comma lists, every accepted spelling), plus seeded mixtures.
    fn knob_corpus(n: usize, seed: u64) -> Vec<String> {
        const ATOMS: &[&str] = &[
            "",
            " ",
            "\t",
            "0",
            "1",
            "2",
            "4",
            "16",
            "17",
            "-1",
            "-0",
            "0.5",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1e300",
            "NaN",
            "inf",
            "on",
            "OFF",
            "yes",
            "maybe",
            "app",
            "Stack",
            "none",
            "ge-burst",
            "chaos-mix",
            "roundrobin",
            "padded-random",
            "weighted:",
            "weighted:3,1",
            "weighted:0,1",
            "é",
            "日本",
            "🦀",
            ",",
            ",,",
            "1,2,4",
            " 1, 2 ,8",
            "\u{0}",
        ];
        let mut rng = SimRng::new(seed);
        let mut out: Vec<String> = ATOMS.iter().map(|a| a.to_string()).collect();
        while out.len() < n {
            let parts = 1 + rng.next_below(4) as usize;
            let sep = [",", "", " ", ":"][rng.next_below(4) as usize];
            let s: Vec<&str> = (0..parts)
                .map(|_| ATOMS[rng.next_below(ATOMS.len() as u64) as usize])
                .collect();
            out.push(s.join(sep));
        }
        out
    }

    /// The `STOB_THREADS` parser and every flag parser, fed hostile
    /// strings: the knob degrades to something runnable, each flag
    /// parser accepts or refuses, and none panics. Every accepted mux
    /// config builds a `Multiplex`.
    #[test]
    fn stob_knob_parsers_reject_or_degrade_never_panic() {
        let corpus = knob_corpus(1200, 0x5EED);
        assert!(corpus.len() >= 1000);
        let pick = |rng: &mut SimRng| {
            let i = rng.next_below(corpus.len() as u64) as usize;
            corpus[i].as_str()
        };
        let mut rng = SimRng::new(7);
        // Values of --pipes, --splitter and --fec accepted.
        let mut accepted = [0; 3];
        for raw in &corpus {
            // The environment knob STOB_THREADS; a fault scenario name.
            let _ = netsim::env::parse_value::<usize>(Some(raw));
            let _ = netsim::FaultSchedule::scenario(raw, 1, Nanos::from_secs(3));
            // table2 --placement, fleet --flows / --shards.
            let _ = raw.parse::<Placement>();
            let _ = raw.parse::<u64>();

            let base = MultipathConfig::default();
            let pipes = parse_pipes(pick(&mut rng));
            let pipe_counts = pipes.clone().unwrap_or(base.pipe_counts);
            let splitter = parse_splitter(raw, &pipe_counts);
            let fec = parse_fec(pick(&mut rng));
            accepted[0] += usize::from(pipes.is_some());
            accepted[1] += usize::from(splitter.is_some());
            accepted[2] += usize::from(fec.is_some());
            let splitters = splitter.map_or(base.splitters, |s| vec![s]);
            let fec_group = fec.or(base.fec_group);
            for spec in &splitters {
                for &n in &pipe_counts {
                    let mux = MuxConfig {
                        n_pipes: n,
                        splitter: spec.clone(),
                        fec_group,
                    };
                    Multiplex::client(FlowId(1), mux, 1);
                }
            }
        }
        assert!(accepted.iter().all(|&n| n > 0), "accepted {accepted:?}");
    }

    #[test]
    fn split_trace_partitions_packets() {
        let d = quick_dataset();
        let mut rng = SimRng::new(3);
        for scenario in SCENARIOS {
            let (merged, legs) = split_trace(
                &d.traces[0],
                &SplitterSpec::RoundRobin,
                3,
                scenario,
                &mut rng,
            );
            let total: usize = legs.iter().map(|l| l.packets.len()).sum();
            assert_eq!(total, d.traces[0].packets.len());
            assert_eq!(merged.packets.len(), d.traces[0].packets.len());
        }
    }

    #[test]
    fn single_pipe_split_is_the_identity() {
        let d = quick_dataset();
        let (merged, legs) = split_dataset(
            &d,
            &SplitterSpec::PaddedRandom,
            1,
            "baseline",
            &SimRng::new(5),
        );
        assert_eq!(legs.len(), 1);
        for (a, b) in legs[0].traces.iter().zip(&d.traces) {
            assert_eq!(a.packets, b.packets, "pipes=1 must be the baseline trace");
        }
        for (a, b) in merged.traces.iter().zip(&d.traces) {
            assert_eq!(a.packets, b.packets, "pipes=1 merged view is the trace");
        }
    }

    #[test]
    fn outage_windows_buffer_blind_leg_packets() {
        // The app splitter cannot see link health: pipe 0 keeps
        // receiving its round-robin share during outages, but those
        // packets are observed only at the recovery edge.
        let mut rng = SimRng::new(8);
        let t = Trace::new(
            0,
            0,
            (0..100)
                .map(|i| {
                    TracePacket::new(
                        Nanos(i * 10_000_000), // 10 ms apart: crosses windows
                        netsim::Direction::Out,
                        1000,
                    )
                })
                .collect(),
        );
        let (merged, legs) =
            split_trace(&t, &SplitterSpec::RoundRobin, 2, "outage-storm", &mut rng);
        assert_eq!(legs[0].packets.len(), 50, "the split stays blind");
        let mut delayed = 0;
        for p in &legs[0].packets {
            assert!(
                leg_alive("outage-storm", 0, 2, p.ts),
                "packet at {:?} observed inside an outage window",
                p.ts
            );
            if p.ts.0 % OUTAGE_PERIOD == OUTAGE_LEN {
                delayed += 1;
            }
        }
        assert!(delayed > 0, "some packets were buffered to the window end");
        assert_eq!(merged.packets.len(), 100);
        assert!(merged.packets.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Pipe 1 is healthy: its share is observed on schedule.
        assert!(legs[1]
            .packets
            .iter()
            .all(|p| { t.packets.iter().any(|q| q.ts == p.ts && q.size == p.size) }));
    }

    #[test]
    fn stack_replay_delivers_and_splits() {
        let d = quick_dataset();
        let (merged, per_path) = replay_multipath(
            &d.traces[0],
            &SplitterSpec::RoundRobin,
            2,
            "baseline",
            None,
            42,
        );
        assert_eq!(per_path.len(), 2);
        assert!(!merged.packets.is_empty());
        // Both legs carry traffic and the merged view sees at least as
        // many data packets as either leg.
        for leg in &per_path {
            assert!(!leg.packets.is_empty());
            assert!(leg.packets.len() <= merged.packets.len());
        }
    }

    #[test]
    fn split_legs_leak_less_than_merged_view() {
        // Run the bench's own regime in miniature: collected traces on
        // the matrix's observation prefix, split by the padded-random
        // policy (the strongest splitter — a random half of the packet
        // sequence carries much less page structure than a strict
        // alternation). The synthetic statgen corpus is too separable
        // for this check: its classes survive halving at the accuracy
        // ceiling, so only the collected corpus exercises the gap.
        let d = crate::collect_dataset(4, 7).dataset;
        let cfg = MultipathConfig {
            splitters: vec![SplitterSpec::PaddedRandom],
            pipe_counts: vec![2],
            scenarios: vec!["baseline".to_string()],
            placements: vec![Placement::App],
            trees: 30,
            repeats: 4,
            ..MultipathConfig::default()
        };
        let report = run_multipath(&d, &cfg);
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert!(
            c.best_path_mean() < c.merged_mean,
            "per-path accuracy {} should be below merged {}",
            c.best_path_mean(),
            c.merged_mean
        );
        assert!(c.split_advantage() > 0.0);
    }

    #[test]
    fn single_pipe_cell_matches_merged_accuracy() {
        let d = quick_dataset();
        let cfg = MultipathConfig {
            splitters: vec![SplitterSpec::RoundRobin],
            pipe_counts: vec![1],
            scenarios: vec!["baseline".to_string()],
            placements: vec![Placement::App],
            trees: 15,
            repeats: 2,
            ..MultipathConfig::default()
        };
        let report = run_multipath(&d, &cfg);
        let c = &report.cells[0];
        assert_eq!(c.per_path_mean.len(), 1);
        assert_eq!(c.per_path_mean[0], c.merged_mean);
    }
}
