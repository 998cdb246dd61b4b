//! The hot-path rewrites' equivalence suite: every speed-motivated
//! rewrite (single-pass feature extraction, batched forest prediction,
//! cursor-driven close-out schedules) must be **bit-identical** to the
//! code it replaced. The goldens pin end-to-end behavior; these tests
//! pin each rewrite in isolation, on the full nine-site dataset, so a
//! divergence points at the exact layer that drifted.

use defenses::machines::regulator_machine;
use defenses::regulator::{RegulatorConfig, RegulatorDefense};
use defenses::surakav::SurakavConfig;
use defenses::{SurakavDefense, TraceBank};
use netsim::{Direction, Nanos, SimRng};
use stob::defense::{
    CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore, ReferenceBank,
};
use stob::machine::MachineDefense;
use stob_bench::collect_dataset;
use traces::sites::paper_sites;
use traces::statgen::generate_corpus;
use traces::Trace;
use wf::features::{extract_features, FeatureConfig, FeatureExtractor};
use wf::forest::{Forest, ForestConfig};

/// Seed for every workload below. Feature equivalence runs on the §3
/// collection pipeline's real output — sanitized stack traces, not
/// statistical synthetics — so it is proven on exactly the
/// distribution the benchmarks feed the rewritten code.
const EQ_SEED: u64 = 0x0E9;

#[test]
fn single_pass_features_match_reference_on_full_dataset() {
    let traces = collect_dataset(8, EQ_SEED).dataset.traces;
    for cfg in [FeatureConfig::paper(), FeatureConfig::with_sizes()] {
        let mut ex = FeatureExtractor::new(&cfg);
        for (i, t) in traces.iter().enumerate() {
            let reference = extract_features(t, &cfg);
            let fast = ex.extract(t);
            assert_eq!(reference.len(), fast.len());
            for (j, (a, b)) in reference.iter().zip(&fast).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "trace {i} feature {j} diverged (use_sizes={})",
                    cfg.use_sizes
                );
            }
            // Truncated prefixes hit the empty/degenerate stat paths.
            for keep in [0, 1, 2, t.len() / 2] {
                let prefix = Trace::new(t.label, t.visit, t.packets[..keep].to_vec());
                let reference = extract_features(&prefix, &cfg);
                let fast = ex.extract(&prefix);
                let same = reference
                    .iter()
                    .zip(&fast)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "trace {i} prefix {keep} diverged");
            }
        }
    }
}

#[test]
fn batched_prediction_matches_scalar_for_every_seed() {
    let corpus = generate_corpus(&paper_sites(), 6, EQ_SEED ^ 2);
    let cfg = FeatureConfig::paper();
    let x = wf::features::extract_all(&corpus, &cfg);
    let y: Vec<usize> = corpus.iter().map(|t| t.label).collect();
    // Every forest seed the committed experiments use (the table2 /
    // defense_matrix harness seeds) plus a few arbitrary ones.
    for seed in [7, 0xDEF, 0xBE6C, 0, 1, 2] {
        let fcfg = ForestConfig { n_trees: 60 };
        let mut rng = netsim::SimRng::new(seed);
        let forest = Forest::fit(&x, &y, 9, &fcfg, &mut rng);
        let rows: Vec<&[f64]> = x.iter().map(|r| r.as_slice()).collect();
        let batched = forest.predict_rows(&rows);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                batched[i],
                forest.predict(row),
                "seed {seed:#x} sample {i} diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Close-out schedules: the pre-cursor loops, transcribed from the parent
// of the commit that made them linear
// ---------------------------------------------------------------------

/// RegulaTor's close-out as it was before the cursor (then the native
/// `RegulatorCore::on_close`): the backlog recounted from `next_real` on
/// every slot.
struct RescanRegulator {
    cfg: RegulatorConfig,
    arrivals: Vec<Nanos>,
}

impl PadderCore for RescanRegulator {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In]
    }

    fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
        let inbound = pkts.iter().filter(|p| p.dir == Direction::In);
        self.arrivals.extend(inbound.map(|p| p.ts));
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let incoming = &self.arrivals;
        let mut emits = Vec::new();

        let mut dummy_pkts = 0usize;
        let dummy_budget = (incoming.len() as f64 * cfg.padding_budget) as usize;
        let mut next_real = 0usize;
        let mut schedule_start = incoming.first().copied().unwrap_or(Nanos::ZERO);
        let mut t = schedule_start;
        let mut real_done = Nanos::ZERO;

        while next_real < incoming.len() {
            let age = (t.saturating_sub(schedule_start)).as_secs_f64();
            let rate = (cfg.rate * cfg.decay.powf(age)).max(10.0);
            let slot = Nanos::from_secs_f64(1.0 / rate);

            let backlog = incoming[next_real..]
                .iter()
                .take_while(|&&ts| ts <= t)
                .count();
            if backlog > cfg.surge_threshold {
                schedule_start = t;
            }

            let emit_real = backlog > 0;
            if emit_real {
                real_done = t;
                next_real += 1;
            } else if dummy_pkts < dummy_budget {
                dummy_pkts += 1;
            } else {
                t += slot;
                continue;
            }
            emits.push(Emit {
                pkt: FlowPkt {
                    ts: t,
                    dir: Direction::In,
                    size: cfg.packet_size,
                },
                dummy: !emit_real,
            });
            t += slot;
        }

        CloseOut {
            emits,
            real_done: Some(real_done),
        }
    }
}

/// `MachineCore::run_regulate` as it was, for a spec whose only machine
/// regulates the inbound direction: the same loop in the runtime's
/// integer types, its dummy budget clipped by the spec's padding cap.
struct RescanRegulateMachine {
    cfg: RegulatorConfig,
    max_padding_pkts: u64,
    reg_in: Vec<Nanos>,
}

impl PadderCore for RescanRegulateMachine {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In]
    }

    fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
        let inbound = pkts.iter().filter(|p| p.dir == Direction::In);
        self.reg_in.extend(inbound.map(|p| p.ts));
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let (dir, size) = (Direction::In, self.cfg.packet_size);
        let (rate, decay) = (self.cfg.rate, self.cfg.decay);
        let surge_threshold = self.cfg.surge_threshold as u64;
        let incoming: &[Nanos] = &self.reg_in;
        let mut dummy_pkts = 0u64;
        let native_budget = (incoming.len() as f64 * self.cfg.padding_budget) as u64;
        let dummy_budget = native_budget.min(self.max_padding_pkts);
        let mut next_real = 0usize;
        let mut schedule_start = incoming.first().copied().unwrap_or(Nanos::ZERO);
        let mut t = schedule_start;
        let mut real_done = Nanos::ZERO;
        let mut emits = Vec::new();
        while next_real < incoming.len() {
            let age = (t.saturating_sub(schedule_start)).as_secs_f64();
            let cur_rate = (rate * decay.powf(age)).max(10.0);
            let slot = Nanos::from_secs_f64(1.0 / cur_rate);
            let backlog = incoming[next_real..]
                .iter()
                .take_while(|&&ts| ts <= t)
                .count();
            if backlog as u64 > surge_threshold {
                schedule_start = t;
            }
            let emit_real = backlog > 0;
            if emit_real {
                real_done = t;
                next_real += 1;
            } else if dummy_pkts < dummy_budget {
                dummy_pkts += 1;
            } else {
                t += slot;
                continue;
            }
            emits.push(Emit {
                pkt: FlowPkt { ts: t, dir, size },
                dummy: !emit_real,
            });
            t += slot;
        }
        CloseOut {
            emits,
            real_done: Some(real_done),
        }
    }
}

/// `SurakavCore::on_close` as it was: `available_at` by `find` from
/// index 0 for every scheduled packet.
struct FindSurakav {
    cfg: SurakavConfig,
    ref_times: Vec<Nanos>,
    orig_in: Vec<(Nanos, u64)>,
    real_bytes: u64,
}

impl PadderCore for FindSurakav {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In]
    }

    fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
        for pkt in pkts.iter().filter(|p| p.dir == Direction::In) {
            self.real_bytes += u64::from(pkt.size);
            self.orig_in.push((pkt.ts, self.real_bytes));
        }
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let ref_times = &self.ref_times;
        let real_bytes = self.real_bytes;
        let orig_in = &self.orig_in;
        let available_at = |bytes: u64| -> Nanos {
            match orig_in.iter().find(|&&(_, cum)| cum >= bytes) {
                Some(&(t, _)) => t,
                None => orig_in.last().map(|&(t, _)| t).unwrap_or(Nanos::ZERO),
            }
        };

        let mut emits = Vec::new();
        let mut remaining = real_bytes;
        let mut real_done = Nanos::ZERO;
        let mut schedule: Vec<Nanos> = ref_times.clone();
        if !ref_times.is_empty() {
            let need = real_bytes.div_ceil(cfg.packet_size as u64) as usize;
            let mut replays = 0;
            while schedule.len() < need && replays < cfg.max_tail_replays {
                let base = *schedule.last().expect("nonempty");
                let tail_start = ref_times.len().saturating_sub(32);
                let tail = &ref_times[tail_start..];
                if tail.len() < 2 {
                    schedule.push(base + Nanos::from_millis(5));
                } else {
                    for w in tail.windows(2) {
                        schedule.push(base + (w[1] - w[0]).max(Nanos(1)));
                        if schedule.len() >= need {
                            break;
                        }
                    }
                }
                replays += 1;
            }
        }
        let mut shift = Nanos::ZERO;
        let mut sent_real = 0u64;
        for &sched_t in &schedule {
            let mut t = sched_t + shift;
            let dummy = remaining == 0;
            if !dummy {
                let need_bytes = (sent_real + cfg.packet_size as u64).min(real_bytes);
                let ready = available_at(need_bytes);
                if t < ready {
                    shift += ready - t;
                    t = ready;
                }
                sent_real = need_bytes;
                remaining = real_bytes - sent_real;
                if remaining == 0 {
                    real_done = t;
                }
            }
            emits.push(Emit {
                pkt: FlowPkt {
                    ts: t,
                    dir: Direction::In,
                    size: cfg.packet_size,
                },
                dummy,
            });
        }
        CloseOut {
            emits,
            real_done: Some(real_done),
        }
    }
}

/// A pass-through policy in front of one of the reference cores.
struct Transcribed<F>(F);

impl<F: Fn() -> Box<dyn PadderCore> + Send + Sync> Defense for Transcribed<F> {
    fn name(&self) -> &str {
        "transcribed"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense {
            padding: Some((self.0)()),
            ..FlowDefense::passthrough("transcribed")
        }
    }
}

/// What a core hands the harness at close: every emitted packet with
/// its dummy flag, in emission order, and `real_done`. The harness's
/// `pkts` / `dummy_pkts` / `dummy_bytes` / `real_done` are a function of
/// exactly this, so equal close-outs are equal defended flows — and the
/// cores can be fed arrival orders the batch harness would refuse.
type Closed = (Vec<(FlowPkt, bool)>, Option<Nanos>);

fn close_out(defense: &dyn Defense, ctx: &DefenseCtx, flow: &[FlowPkt]) -> Closed {
    let mut rng = SimRng::new(0);
    let mut core = defense.build(ctx, &mut rng).padding.expect("a core");
    core.on_data(flow, &mut rng);
    let out = core.on_close(&mut rng);
    let emits = out.emits.iter().map(|e| (e.pkt, e.dummy)).collect();
    (emits, out.real_done)
}

fn dummies(closed: &Closed) -> usize {
    closed.0.iter().filter(|(_, dummy)| *dummy).count()
}

/// How many flow shapes [`close_out_flow`] cycles through.
const FLOW_SHAPES: u64 = 8;

/// One seeded flow per call, cycling through the shapes the schedules
/// branch on: a page-load-like mix of bursts and gaps; the same with
/// timestamps out of order and duplicated (the cores buffer arrivals
/// as handed over); no inbound
/// packets at all; a single packet; zero-size packets (plateaus in
/// Surakav's cumulative byte column); a late burst of exactly
/// `surge_threshold` packets and one above it; and a long flow.
fn close_out_flow(seed: u64, surge_threshold: usize) -> Vec<FlowPkt> {
    let mut rng = SimRng::new(seed ^ 0xC105E);
    let shape = seed % FLOW_SHAPES;
    let n = match shape {
        3 => 1,
        5 | 6 => rng.range_u64(3, 20),
        7 => 600,
        _ => rng.range_u64(20, 250),
    };
    let mut ts = Nanos::ZERO;
    let mut pkts: Vec<FlowPkt> = (0..n)
        .map(|i| {
            if i > 0 && rng.next_below(3) > 0 {
                ts += Nanos(rng.range_u64(1, 30_000_000));
            }
            let outbound = shape == 2 || rng.next_below(100) < 25;
            let dir = if outbound && (shape != 3 || seed % 16 == 3) {
                Direction::Out
            } else {
                Direction::In
            };
            let size = if shape == 4 && rng.next_below(3) == 0 {
                0
            } else {
                rng.range_u64(40, 1514) as u32
            };
            FlowPkt::new(ts, dir, size)
        })
        .collect();
    match shape {
        1 => {
            for _ in 0..n / 3 {
                let (a, b) = (rng.next_below(n) as usize, rng.next_below(n) as usize);
                pkts.swap(a, b);
                let (c, d) = (rng.next_below(n) as usize, rng.next_below(n) as usize);
                pkts[c].ts = pkts[d].ts;
            }
        }
        5 | 6 => {
            let extra = if shape == 5 {
                0
            } else {
                rng.range_usize(1, 50)
            };
            let at = ts + Nanos::from_millis(rng.range_u64(1_000, 2_000));
            pkts.extend(vec![
                FlowPkt::new(at, Direction::In, 1514);
                surge_threshold + extra
            ]);
            pkts.push(FlowPkt::new(
                at + Nanos::from_millis(400),
                Direction::In,
                700,
            ));
        }
        _ => {}
    }
    pkts
}

#[test]
fn surge_schedule_matches_both_rescanning_loops() {
    let cfgs = [
        RegulatorConfig::default(),
        RegulatorConfig {
            rate: 120.0,
            decay: 0.5,
            surge_threshold: 5,
            padding_budget: 2.0,
            packet_size: 1200,
        },
        RegulatorConfig {
            rate: 1_000.0,
            decay: 1.0,
            surge_threshold: 0,
            padding_budget: 0.0,
            packet_size: 600,
        },
        RegulatorConfig {
            rate: 4.0, // below the 10/s floor from the first slot
            decay: 0.8,
            surge_threshold: 17,
            padding_budget: 0.4,
            packet_size: 1514,
        },
    ];
    let ctx = DefenseCtx::default();
    let mut capped_flows = 0;
    for seed in 0..240u64 {
        let cfg = cfgs[(seed / FLOW_SHAPES) as usize % cfgs.len()];
        let flow = close_out_flow(seed, cfg.surge_threshold);
        let case = format!("seed {seed} {cfg:?}");

        let shipped = close_out(&RegulatorDefense::new(cfg), &ctx, &flow);
        let rescan = Transcribed(|| -> Box<dyn PadderCore> {
            Box::new(RescanRegulator {
                cfg,
                arrivals: Vec::new(),
            })
        });
        assert_eq!(shipped, close_out(&rescan, &ctx, &flow), "shipped, {case}");

        // The machine at a cap that clips the dummy budget.
        let max_padding_pkts = seed % 4;
        let mut spec = regulator_machine(&cfg);
        spec.max_padding_pkts = max_padding_pkts;
        let capped = close_out(&MachineDefense::new(spec), &ctx, &flow);
        let rescan = Transcribed(|| -> Box<dyn PadderCore> {
            Box::new(RescanRegulateMachine {
                cfg,
                max_padding_pkts,
                reg_in: Vec::new(),
            })
        });
        assert_eq!(capped, close_out(&rescan, &ctx, &flow), "capped, {case}");
        capped_flows += usize::from(dummies(&capped) < dummies(&shipped));
    }
    assert!(capped_flows >= 30, "the cap bound on {capped_flows} flows");
}

#[test]
fn cursor_matches_lookup_by_find_in_surakav() {
    let cfgs = [
        SurakavConfig::default(),
        SurakavConfig {
            packet_size: 512,
            ..SurakavConfig::default()
        },
    ];
    let (mut replayed, mut padded) = (0, 0);
    for seed in 0..240u64 {
        let cfg = cfgs[(seed / FLOW_SHAPES) as usize % cfgs.len()];
        let flow = close_out_flow(seed, 60);
        let real_bytes: u64 = flow
            .iter()
            .filter(|p| p.dir == Direction::In)
            .map(|p| u64::from(p.size))
            .sum();
        let need = real_bytes.div_ceil(u64::from(cfg.packet_size));
        // A reference shorter than the data (its tail is replayed; one-
        // and two-packet references take the degenerate branches) and one
        // longer (the surplus is pure padding).
        let mut rng = SimRng::new(seed ^ 0x5E7A);
        for ref_len in [1 + seed % 5, need + rng.range_u64(1, 50)] {
            let mut ts = Nanos::ZERO;
            let ref_pkts = (0..ref_len)
                .map(|_| {
                    ts += Nanos(rng.next_below(20_000_000));
                    FlowPkt::new(ts, Direction::In, 1514)
                })
                .collect();
            // A one-entry bank of another label: the only possible pick.
            let bank_traces = [Trace::new(1, 0, ref_pkts)];
            let bank = TraceBank::new(&bank_traces);
            let ctx = DefenseCtx {
                label: 0,
                bank: Some(&bank),
            };
            let ref_times = bank.in_times(0);
            let by_find = Transcribed(|| -> Box<dyn PadderCore> {
                Box::new(FindSurakav {
                    cfg,
                    ref_times: ref_times.clone(),
                    orig_in: Vec::new(),
                    real_bytes: 0,
                })
            });
            let shipped = close_out(&SurakavDefense::new(cfg), &ctx, &flow);
            let case = format!("seed {seed} ref_len {ref_len} need {need}");
            assert_eq!(shipped, close_out(&by_find, &ctx, &flow), "{case}");
            replayed += usize::from(ref_len < need);
            padded += usize::from(dummies(&shipped) > 0);
        }
    }
    assert!(replayed >= 150 && padded >= 200, "{replayed} / {padded}");
}
