//! Unit-cost probes: each times one layer's public functions in
//! isolation, on inputs shaped like the workload that owns the probe
//! (same gap mix, packet sizes, policy). A probe reports the median of
//! several timed batches as host nanoseconds per operation.

use crate::stats::median;
use crate::workloads::Scale;
use netsim::{Arena, Auditor, Capture, Direction, EventQueue, FlowId, Link, Nanos, Packet, SimRng};
use stack::egress::{EgressLabels, EgressPipeline};
use stack::nic::Nic;
use stack::qdisc::{FqQdisc, SegDesc};
use stack::shaper::{BoxShaper, ShapeCtx};
use stack::tcp::{TcpAction, TcpConn, TimerKind};
use stack::tls::{TlsMode, TlsSession, MAX_RECORD_PLAINTEXT};
use stack::{Cpu, CpuModel, StackConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use stob::sockopt::assemble_policy_shaper;
use stob::{ObfuscationPolicy, PolicyRegistry};
use traces::Trace;
use wf::features::{FeatureConfig, FeatureExtractor};
use wf::forest::{Forest, ForestConfig};

/// Batch timing: how long one batch runs and how many are taken.
#[derive(Debug, Clone, Copy)]
pub struct Prober {
    batch_s: f64,
    batches: usize,
}

impl Prober {
    pub fn new(scale: &Scale) -> Self {
        Prober {
            batch_s: scale.probe_batch_s,
            batches: scale.probe_batches,
        }
    }

    /// Median host ns per operation. `run(n)` performs `n` operations on
    /// state it keeps across calls; the batch size is calibrated first so
    /// one batch lasts at least `batch_s`.
    pub fn ns_per_op(&self, mut run: impl FnMut(u64)) -> f64 {
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            run(iters);
            let dt = t.elapsed().as_secs_f64().max(1e-9);
            if dt >= self.batch_s / 4.0 || iters >= 1 << 34 {
                iters = ((iters as f64 * self.batch_s / dt).ceil() as u64).max(1);
                break;
            }
            iters *= 8;
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t = Instant::now();
                run(iters);
                t.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        median(&samples)
    }
}

/// Inline xorshift: gap and size draws for the probes, cheap enough
/// (about a nanosecond) not to show in what they measure.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

// ---------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------

/// `EventQueue::pop` + `schedule_at` with `pending` events resident and
/// re-arm gaps uniform in `gap_ns`.
pub fn event_ns_per_op(p: &Prober, pending: usize, gap_ns: (u64, u64)) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for i in 0..pending {
        q.schedule_at(Nanos(rng.range(gap_ns.0, gap_ns.1)), i as u32);
    }
    p.ns_per_op(|n| {
        for _ in 0..n {
            let (t, ev) = q.pop().expect("queue holds its pending set");
            q.schedule_at(t + Nanos(rng.range(gap_ns.0, gap_ns.1)), black_box(ev));
        }
    })
}

/// `Arena::take` + `alloc` with `live` descriptors resident.
pub fn arena_ns_per_op(p: &Prober, live: usize) -> f64 {
    let mut arena: Arena<[u64; 3]> = Arena::with_capacity(live);
    let mut ring: VecDeque<_> = (0..live).map(|i| arena.alloc([i as u64; 3])).collect();
    p.ns_per_op(|n| {
        for _ in 0..n {
            let h = ring.pop_front().expect("ring holds the live set");
            let v = arena.take(h).expect("live handle");
            ring.push_back(arena.alloc(black_box(v)));
        }
    })
}

/// One `SimRng::range_u64` draw (the fleet's size/gap draw).
pub fn rng_ns_per_draw(p: &Prober) -> f64 {
    let mut rng = SimRng::new(12);
    p.ns_per_op(|n| {
        for _ in 0..n {
            black_box(rng.range_u64(80, 1460));
        }
    })
}

/// One auditor check: `check_monotonic` + `check_release`, halved.
pub fn audit_ns_per_check(p: &Prober) -> f64 {
    let mut auditor = Auditor::new();
    auditor.set_enabled(true);
    let mut t = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            t += 1;
            auditor.check_monotonic(Nanos(t));
            auditor.check_release(Nanos(t), Nanos(t), black_box(7));
        }
    }) / 2.0
}

/// One cached-handle counter add, telemetry switch at its default.
pub fn telemetry_ns_per_add(p: &Prober) -> f64 {
    p.ns_per_op(|n| {
        for i in 0..n {
            netsim::tm_counter!("benchmark.probe.add").add(black_box(i) & 1);
        }
    })
}

/// `Link::transmit` of MTU-sized packets on a busy link.
pub fn link_ns_per_pkt(p: &Prober) -> f64 {
    let mut link = Link::new(10_000_000_000, Nanos::from_millis(10));
    let mut now = Nanos::ZERO;
    p.ns_per_op(|n| {
        for _ in 0..n {
            now += Nanos(1_000);
            black_box(link.transmit(now, 1514));
        }
    })
}

/// `Capture::observe`, with a fresh capture every `per_capture` packets
/// so buffer growth is priced as in a real visit.
pub fn capture_ns_per_pkt(p: &Prober, per_capture: usize) -> f64 {
    let pkt = Packet::tcp_data(FlowId(1), 0, 0, 1448);
    let mut cap = Capture::new();
    let mut t = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            t += 1;
            cap.observe(Nanos(t), Direction::In, black_box(&pkt));
            if cap.len() >= per_capture {
                cap = Capture::new();
            }
        }
    })
}

// ---------------------------------------------------------------------
// stack
// ---------------------------------------------------------------------

fn replay_shape_ctx(pkts_sent: u64, now: Nanos, rate: Option<u64>) -> ShapeCtx {
    ShapeCtx {
        flow: FlowId(1),
        now,
        cwnd: u64::MAX,
        pacing_rate_bps: rate,
        in_slow_start: false,
        bytes_sent: 0,
        pkts_sent,
        segs_sent: 0,
        mtu_ip: 1514,
        mss: 1448,
    }
}

fn policy_pipeline(labels: EgressLabels, policy: &ObfuscationPolicy) -> EgressPipeline {
    let mut pipe = EgressPipeline::new(labels);
    pipe.set_shaper(assemble_policy_shaper(policy, 12, 1).0);
    pipe
}

/// `EgressPipeline::pace_replay` under `policy`'s delay stage, recorded
/// gaps uniform in `gap_ns`, shift accumulated as the replay callers do.
pub fn pace_replay_ns(
    p: &Prober,
    labels: EgressLabels,
    policy: &ObfuscationPolicy,
    gap_ns: (u64, u64),
) -> f64 {
    let mut pipe = policy_pipeline(labels, policy);
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    let (mut ts, mut shift, mut idx) = (0u64, 0u64, 0u64);
    p.ns_per_op(|n| {
        for _ in 0..n {
            let gap = rng.range(gap_ns.0, gap_ns.1);
            ts += gap;
            idx += 1;
            let intended = Nanos(ts + shift);
            // The synthetic rate under which `gap` serializes 2 * mss.
            let rate = (1448u64 * 2 * 8 * 1_000_000_000 / gap.max(1)).max(1);
            let ctx = replay_shape_ctx(idx, intended, Some(rate));
            let eligible = pipe.pace_replay(&ctx, intended);
            shift += black_box(eligible).as_nanos() - intended.as_nanos();
        }
    })
}

/// `EgressPipeline::packet_ip_size` under `policy`'s size stage, packet
/// sizes uniform in `size`.
pub fn packet_ip_size_ns(
    p: &Prober,
    labels: EgressLabels,
    policy: &ObfuscationPolicy,
    size: (u64, u64),
) -> f64 {
    let mut pipe = policy_pipeline(labels, policy);
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let mut idx = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            idx += 1;
            let proposed = rng.range(size.0, size.1) as u32;
            let ctx = replay_shape_ctx(idx, Nanos(idx * 1_000), None);
            black_box(pipe.packet_ip_size(&ctx, 0, proposed, 1, proposed));
        }
    })
}

/// `EgressPipeline::pace_segment` for segments of `pkts_per_seg` full
/// packets, with `shaper` installed (or the identity shaper).
pub fn pace_segment_ns(p: &Prober, shaper: Option<BoxShaper>, pkts_per_seg: u32) -> f64 {
    let mut pipe = EgressPipeline::new(EgressLabels::TCP);
    if let Some(s) = shaper {
        pipe.set_shaper(s);
    }
    let mut cpu = Cpu::new(CpuModel::default());
    let payload = 1448 * u64::from(pkts_per_seg);
    let wire = 1514 * u64::from(pkts_per_seg);
    let mut i = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            i += 1;
            let now = Nanos(i * 100_000);
            let ctx = ShapeCtx {
                flow: FlowId(1),
                now,
                cwnd: 1 << 20,
                pacing_rate_bps: Some(10_000_000_000),
                in_slow_start: false,
                bytes_sent: i * payload,
                pkts_sent: i * u64::from(pkts_per_seg),
                segs_sent: i,
                mtu_ip: 1500,
                mss: 1448,
            };
            black_box(pipe.pace_segment(&ctx, now, &mut cpu, payload, pkts_per_seg, wire, false));
        }
    })
}

/// Two `TcpConn`s wired back to back through `connect` / `write` /
/// `output` / `input` — no qdisc, NIC or link — per packet delivered in
/// either direction (data and ACKs alike, as `stack.nic.packets_tx`
/// counts them).
pub fn tcp_shuttle_ns_per_pkt(p: &Prober) -> f64 {
    let mut wire = TcpWire::new();
    p.ns_per_op(|n| wire.shuttle(n))
}

struct TcpWire {
    a: TcpConn,
    b: TcpConn,
    cpu_a: Cpu,
    cpu_b: Cpu,
    now: Nanos,
    inbox: VecDeque<(bool, Packet)>,
    /// Armed delayed-ACK timer generation per side (a, b).
    delack: [Option<u64>; 2],
}

impl TcpWire {
    fn new() -> Self {
        // No NIC means no TSQ completions: lift the TSQ cap so the
        // sender is never parked waiting for them, and leave pacing off
        // because nothing here advances a pacing clock.
        let cfg = StackConfig {
            pacing: false,
            tsq_limit: u64::MAX,
            ..StackConfig::default()
        };
        let mut w = TcpWire {
            a: TcpConn::new(FlowId(1), cfg.clone(), true),
            b: TcpConn::new(FlowId(1), cfg, false),
            cpu_a: Cpu::new(CpuModel::infinitely_fast()),
            cpu_b: Cpu::new(CpuModel::infinitely_fast()),
            now: Nanos::from_micros(1),
            inbox: VecDeque::new(),
            delack: [None, None],
        };
        let syn = w.a.connect(w.now);
        w.absorb(syn, true);
        w.drain(&mut 0);
        assert!(
            w.a.established() && w.b.established(),
            "tcp probe: handshake did not complete"
        );
        w
    }

    fn absorb(&mut self, acts: Vec<TcpAction>, from_a: bool) {
        for act in acts {
            match act {
                TcpAction::SendSeg(seg) => {
                    self.inbox.extend(seg.pkts.into_iter().map(|p| (from_a, p)));
                }
                TcpAction::SendCtl(pkt) => self.inbox.push_back((from_a, pkt)),
                TcpAction::ArmTimer {
                    kind: TimerKind::DelAck,
                    gen,
                    ..
                } => self.delack[usize::from(!from_a)] = Some(gen),
                _ => {}
            }
        }
    }

    /// Deliver everything in flight; when the wire idles, fire the
    /// delayed-ACK timers as the event loop eventually would.
    fn drain(&mut self, delivered: &mut u64) {
        loop {
            while let Some((from_a, pkt)) = self.inbox.pop_front() {
                self.now += Nanos(1_000);
                *delivered += 1;
                if from_a {
                    let acts = self.b.input(&pkt, self.now, &mut self.cpu_b);
                    self.absorb(acts, false);
                } else {
                    let acts = self.a.input(&pkt, self.now, &mut self.cpu_a);
                    self.absorb(acts, true);
                    let more = self.a.output(self.now, &mut self.cpu_a);
                    self.absorb(more, true);
                }
            }
            let mut fired = false;
            for side in 0..2 {
                if let Some(gen) = self.delack[side].take() {
                    let conn = if side == 0 { &mut self.a } else { &mut self.b };
                    let acts = conn.on_timer(TimerKind::DelAck, gen, self.now);
                    self.absorb(acts, side == 0);
                    fired = true;
                }
            }
            if !fired && self.inbox.is_empty() {
                return;
            }
        }
    }

    /// Deliver at least `pkts` packets while a streams data to b.
    fn shuttle(&mut self, pkts: u64) {
        let mut moved = 0u64;
        while moved < pkts {
            if self.a.send_complete() {
                self.a.write(1 << 20);
            }
            let acts = self.a.output(self.now, &mut self.cpu_a);
            self.absorb(acts, true);
            let before = moved;
            self.drain(&mut moved);
            assert!(
                moved > before || !self.a.send_complete(),
                "tcp probe: the back-to-back pair stopped moving data"
            );
        }
    }
}

fn one_segment(flow: FlowId, pkts_per_seg: u32, eligible_at: Nanos) -> SegDesc {
    let pkts = (0..pkts_per_seg)
        .map(|i| Packet::tcp_data(flow, u64::from(i) * 1448, 0, 1448))
        .collect();
    SegDesc::new(flow, pkts, eligible_at)
}

/// `FqQdisc::dequeue` + `enqueue` with `flows` backlogged flows of four
/// segments each.
pub fn qdisc_ns_per_seg(p: &Prober, flows: u32, pkts_per_seg: u32) -> f64 {
    let mut q = FqQdisc::new();
    for round in 0..4u64 {
        for f in 0..flows {
            q.enqueue(one_segment(FlowId(f + 1), pkts_per_seg, Nanos(round)));
        }
    }
    let mut now = 4u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            now += 1;
            let mut seg = q.dequeue(Nanos(now)).expect("backlogged qdisc");
            seg.eligible_at = Nanos(now);
            q.enqueue(black_box(seg));
        }
    })
}

/// `Nic::transmit_segment` for segments of `pkts_per_seg` packets. The
/// descriptor is rebuilt from the transmitted packets each time, as the
/// transport would build the next one.
pub fn nic_ns_per_seg(p: &Prober, nic_rate_bps: u64, pkts_per_seg: u32) -> f64 {
    let mut nic = Nic::new(nic_rate_bps);
    let mut seg = Some(one_segment(FlowId(1), pkts_per_seg, Nanos::ZERO));
    let mut now = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            now += 100_000;
            let (_, out) = nic.transmit_segment(Nanos(now), seg.take().expect("segment"));
            let pkts = out.into_iter().map(|(_, pkt)| pkt).collect();
            seg = Some(SegDesc::new(FlowId(1), black_box(pkts), Nanos(now)));
        }
    })
}

/// `TlsSession::wrap` of one full record.
pub fn tls_ns_per_record(p: &Prober) -> f64 {
    let mut tls = TlsSession::new(TlsMode::Userspace);
    p.ns_per_op(|n| {
        for _ in 0..n {
            black_box(tls.wrap(black_box(MAX_RECORD_PLAINTEXT)));
        }
    })
}

// ---------------------------------------------------------------------
// stob (core)
// ---------------------------------------------------------------------

/// `PolicyRegistry::resolve_defense` across `sites` destinations.
pub fn registry_resolve_ns(p: &Prober, registry: &PolicyRegistry, sites: u32) -> f64 {
    let mut f = 0u32;
    p.ns_per_op(|n| {
        for _ in 0..n {
            f = f.wrapping_add(1);
            black_box(registry.resolve_defense(f, f % sites));
        }
    })
}

/// `assemble_policy_shaper` for `policy`, one per flow.
pub fn sockopt_assemble_ns(p: &Prober, policy: &ObfuscationPolicy) -> f64 {
    let mut salt = 0u64;
    p.ns_per_op(|n| {
        for _ in 0..n {
            salt += 1;
            black_box(assemble_policy_shaper(policy, 12, salt));
        }
    })
}

// ---------------------------------------------------------------------
// wf
// ---------------------------------------------------------------------

/// `FeatureExtractor::extract`, cycling over `corpus`.
pub fn features_ns_per_trace(p: &Prober, corpus: &[Trace]) -> f64 {
    let mut ex = FeatureExtractor::new(&FeatureConfig::paper());
    let mut i = 0usize;
    p.ns_per_op(|n| {
        for _ in 0..n {
            black_box(ex.extract(&corpus[i % corpus.len()]));
            i += 1;
        }
    })
}

/// `Forest::fit` throughput in tree·samples per host second.
pub fn forest_fit_tree_samples_per_s(
    p: &Prober,
    x: &[Vec<f64>],
    y: &[usize],
    classes: usize,
    cfg: &ForestConfig,
) -> f64 {
    let ns_per_fit = p.ns_per_op(|n| {
        for _ in 0..n {
            let mut rng = SimRng::new(12);
            black_box(Forest::fit(x, y, classes, cfg, &mut rng));
        }
    });
    (x.len() * cfg.n_trees) as f64 / (ns_per_fit / 1e9)
}

/// `Forest::predict_rows` per sample.
pub fn forest_predict_ns_per_sample(p: &Prober, forest: &Forest, x: &[Vec<f64>]) -> f64 {
    let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
    p.ns_per_op(|n| {
        for _ in 0..n {
            black_box(forest.predict_rows(&rows));
        }
    }) / rows.len() as f64
}
