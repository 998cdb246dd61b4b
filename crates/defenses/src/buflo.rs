//! BuFLO-family defenses: constant-rate, fixed-size regularization
//! (Dyer et al.), plus Tamaraw (Cai et al.), the stronger variant with
//! per-direction rates and count padding to a multiple of L.
//!
//! These are the canonical *regularization* baselines of Table 1 — and
//! the canonical example of §2.3's cost argument: they buy protection
//! with massive padding bandwidth and added latency.

use netsim::{Direction, Nanos, SimRng};
use stob::defense::{CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore};

/// BuFLO parameters.
#[derive(Debug, Clone, Copy)]
pub struct BufloConfig {
    /// Fixed wire size every emitted packet gets.
    pub packet_size: u32,
    /// Inter-packet interval per direction.
    pub rho: Nanos,
    /// Minimum defended duration: keep sending dummies until then.
    pub tau: Nanos,
}

impl Default for BufloConfig {
    fn default() -> Self {
        BufloConfig {
            packet_size: 1514,
            rho: Nanos::from_millis(10),
            tau: Nanos::from_secs(10),
        }
    }
}

/// Regularize one direction's byte stream onto a constant-rate grid,
/// appending to `emits`. Returns the time real data finished.
fn constant_rate(
    emits: &mut Vec<Emit>,
    total_real_bytes: u64,
    dir: Direction,
    size: u32,
    rho: Nanos,
    tau: Nanos,
) -> Nanos {
    let mut remaining = total_real_bytes;
    let mut t = Nanos::ZERO;
    let mut real_done = Nanos::ZERO;
    while remaining > 0 || t < tau {
        let dummy = remaining == 0;
        emits.push(Emit {
            pkt: FlowPkt { ts: t, dir, size },
            dummy,
        });
        if !dummy {
            remaining = remaining.saturating_sub(size as u64);
            if remaining == 0 {
                real_done = t;
            }
        }
        t += rho;
    }
    real_done
}

/// BuFLO's schedule: count each direction's real bytes, then re-emit
/// everything on the fixed-size constant-rate grid. Owns both
/// directions — nothing of the original shape survives.
struct BufloCore {
    cfg: BufloConfig,
    in_bytes: u64,
    out_bytes: u64,
}

impl PadderCore for BufloCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In, Direction::Out]
    }

    fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
        match pkt.dir {
            Direction::In => self.in_bytes += u64::from(pkt.size),
            Direction::Out => self.out_bytes += u64::from(pkt.size),
        }
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let mut emits = Vec::new();
        let done_in = constant_rate(
            &mut emits,
            self.in_bytes,
            Direction::In,
            cfg.packet_size,
            cfg.rho,
            cfg.tau,
        );
        let done_out = constant_rate(
            &mut emits,
            self.out_bytes,
            Direction::Out,
            cfg.packet_size,
            cfg.rho,
            cfg.tau,
        );
        CloseOut {
            emits,
            real_done: Some(done_in.max(done_out)),
        }
    }
}

/// BuFLO as a placement-agnostic [`Defense`].
#[derive(Debug, Clone, Copy)]
pub struct BufloDefense {
    pub cfg: BufloConfig,
}

impl BufloDefense {
    pub fn new(cfg: BufloConfig) -> Self {
        BufloDefense { cfg }
    }
}

impl Defense for BufloDefense {
    fn name(&self) -> &str {
        "BuFLO"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense {
            padding: Some(Box::new(BufloCore {
                cfg: self.cfg,
                in_bytes: 0,
                out_bytes: 0,
            })),
            ..FlowDefense::passthrough("BuFLO")
        }
    }
}

/// Tamaraw parameters.
#[derive(Debug, Clone, Copy)]
pub struct TamarawConfig {
    pub packet_size: u32,
    /// Interval for outgoing (client->server) packets.
    pub rho_out: Nanos,
    /// Interval for incoming packets (faster: downloads dominate).
    pub rho_in: Nanos,
    /// Pad each direction's packet count to a multiple of L.
    pub l: usize,
}

impl Default for TamarawConfig {
    fn default() -> Self {
        TamarawConfig {
            packet_size: 1514,
            rho_out: Nanos::from_millis(40),
            rho_in: Nanos::from_millis(5),
            l: 100,
        }
    }
}

/// Tamaraw's schedule: per-direction constant-rate grids with the
/// packet count padded to a multiple of L. Owns both directions.
struct TamarawCore {
    cfg: TamarawConfig,
    in_bytes: u64,
    out_bytes: u64,
}

impl PadderCore for TamarawCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In, Direction::Out]
    }

    fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
        match pkt.dir {
            Direction::In => self.in_bytes += u64::from(pkt.size),
            Direction::Out => self.out_bytes += u64::from(pkt.size),
        }
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let mut emits = Vec::new();
        let mut real_done = Nanos::ZERO;
        for (dir, rho, real_bytes) in [
            (Direction::In, cfg.rho_in, self.in_bytes),
            (Direction::Out, cfg.rho_out, self.out_bytes),
        ] {
            let n_real = real_bytes.div_ceil(cfg.packet_size as u64) as usize;
            let n_total = n_real.div_ceil(cfg.l).max(1) * cfg.l;
            for i in 0..n_total {
                let t = rho * i as u64;
                emits.push(Emit {
                    pkt: FlowPkt {
                        ts: t,
                        dir,
                        size: cfg.packet_size,
                    },
                    dummy: i >= n_real,
                });
                if i + 1 == n_real {
                    real_done = real_done.max(t);
                }
            }
        }
        CloseOut {
            emits,
            real_done: Some(real_done),
        }
    }
}

/// Tamaraw as a placement-agnostic [`Defense`].
#[derive(Debug, Clone, Copy)]
pub struct TamarawDefense {
    pub cfg: TamarawConfig,
}

impl TamarawDefense {
    pub fn new(cfg: TamarawConfig) -> Self {
        TamarawDefense { cfg }
    }
}

impl Defense for TamarawDefense {
    fn name(&self) -> &str {
        "Tamaraw"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense {
            padding: Some(Box::new(TamarawCore {
                cfg: self.cfg,
                in_bytes: 0,
                out_bytes: 0,
            })),
            ..FlowDefense::passthrough("Tamaraw")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::emulate_trace;
    use crate::overhead::{bandwidth_overhead, latency_overhead, Defended};
    use traces::sites::paper_sites;
    use traces::statgen::generate;
    use traces::Trace;

    /// Both schedules are deterministic: no randomness is consumed.
    fn run(defense: &dyn Defense, t: &Trace) -> Defended {
        emulate_trace(defense, t, &DefenseCtx::default(), &mut SimRng::new(0))
    }

    fn sample() -> Trace {
        generate(&paper_sites()[0], 0, 0, 1)
    }

    #[test]
    fn buflo_output_is_perfectly_regular() {
        let t = sample();
        let d = run(&BufloDefense::new(BufloConfig::default()), &t);
        // All packets the same size.
        assert!(d.trace.packets.iter().all(|p| p.size == 1514));
        // Per-direction IATs constant at rho.
        for dir in [Direction::In, Direction::Out] {
            let times: Vec<Nanos> = d
                .trace
                .packets
                .iter()
                .filter(|p| p.dir == dir)
                .map(|p| p.ts)
                .collect();
            assert!(times
                .windows(2)
                .all(|w| w[1] - w[0] == Nanos::from_millis(10)));
        }
    }

    #[test]
    fn buflo_runs_at_least_tau() {
        let t = sample();
        let cfg = BufloConfig {
            tau: Nanos::from_secs(12),
            ..BufloConfig::default()
        };
        let d = run(&BufloDefense::new(cfg), &t);
        assert!(d.trace.duration() >= Nanos::from_secs(11));
    }

    #[test]
    fn buflo_pads_heavily() {
        let t = sample();
        let d = run(&BufloDefense::new(BufloConfig::default()), &t);
        assert!(d.dummy_pkts > 0);
        let bw = bandwidth_overhead(&t, &d);
        assert!(bw > 0.5, "BuFLO should be expensive, got {bw}");
    }

    #[test]
    fn buflo_carries_all_real_bytes() {
        let t = sample();
        let d = run(&BufloDefense::new(BufloConfig::default()), &t);
        let capacity: u64 = d.trace.bytes(Direction::In);
        assert!(capacity >= t.bytes(Direction::In));
    }

    #[test]
    fn tamaraw_pads_to_multiple_of_l() {
        let t = sample();
        let cfg = TamarawConfig::default();
        let d = run(&TamarawDefense::new(cfg), &t);
        for dir in [Direction::In, Direction::Out] {
            let n = d.trace.packets.iter().filter(|p| p.dir == dir).count();
            assert_eq!(n % cfg.l, 0, "direction count {n} not multiple of L");
            assert!(n > 0);
        }
    }

    #[test]
    fn tamaraw_anonymity_set_same_bucket_same_shape() {
        // Two different visits whose packet counts land in the same L
        // bucket produce identical defended shapes - the regularization
        // promise.
        let sites = paper_sites();
        let a = generate(&sites[6], 6, 0, 1);
        let b = generate(&sites[6], 6, 1, 1);
        let cfg = TamarawConfig::default();
        let da = run(&TamarawDefense::new(cfg), &a);
        let db = run(&TamarawDefense::new(cfg), &b);
        let shape = |d: &Defended| {
            (
                d.trace
                    .packets
                    .iter()
                    .filter(|p| p.dir == Direction::In)
                    .count(),
                d.trace
                    .packets
                    .iter()
                    .filter(|p| p.dir == Direction::Out)
                    .count(),
            )
        };
        // Same bucket (likely for same site) -> same shape; if bucket
        // differs the counts differ by a multiple of L.
        let (ia, oa) = shape(&da);
        let (ib, ob) = shape(&db);
        assert_eq!((ia as i64 - ib as i64) % cfg.l as i64, 0);
        assert_eq!((oa as i64 - ob as i64) % cfg.l as i64, 0);
    }

    #[test]
    fn tamaraw_latency_tracks_slowest_direction() {
        let t = sample();
        let d = run(&TamarawDefense::new(TamarawConfig::default()), &t);
        let lat = latency_overhead(&t, &d);
        assert!(lat.is_finite());
        assert!(d.real_done <= d.trace.duration() + Nanos(1));
    }
}
