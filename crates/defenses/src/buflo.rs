//! BuFLO-family defenses: constant-rate, fixed-size regularization
//! (Dyer et al.), plus Tamaraw (Cai et al.), the stronger variant with
//! per-direction rates and count padding to a multiple of L.
//!
//! These are the canonical *regularization* baselines of Table 1 — and
//! the canonical example of §2.3's cost argument: they buy protection
//! with massive padding bandwidth and added latency. Both run one
//! constant-rate grid; they differ only in its minimum length and in
//! the multiple its packet count is padded to.

use netsim::{Direction, Nanos, SimRng};
use stob::defense::{CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore};

/// BuFLO parameters.
#[derive(Debug, Clone, Copy)]
pub struct BufloConfig {
    /// Fixed wire size every emitted packet gets.
    pub(crate) packet_size: u32,
    /// Inter-packet interval per direction.
    pub(crate) rho: Nanos,
    /// Minimum defended duration: keep sending dummies until then.
    pub(crate) tau: Nanos,
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

/// Tamaraw parameters.
#[derive(Debug, Clone, Copy)]
pub struct TamarawConfig {
    pub(crate) packet_size: u32,
    /// Interval for outgoing (client->server) packets.
    pub(crate) rho_out: Nanos,
    /// Interval for incoming packets (faster: downloads dominate).
    pub(crate) rho_in: Nanos,
    /// Pad each direction's packet count to a multiple of L.
    pub(crate) l: usize,
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

/// The constant-rate grid: each direction's real bytes re-emitted as
/// `size`-byte packets, one every `rho` from the flow start, then
/// dummies until the direction has sent at least `min_pkts` packets and
/// a multiple of `l`. BuFLO's minimum is its duration τ in slots and its
/// multiple 1; Tamaraw's minimum is one packet and its multiple L.
#[derive(Debug, Clone, Copy)]
struct Grid {
    size: u32,
    /// Slot interval, inbound then outbound.
    rho: [Nanos; 2],
    min_pkts: u64,
    l: u64,
}

impl Grid {
    fn flow(self, name: &str) -> FlowDefense {
        FlowDefense {
            padding: Some(Box::new(GridCore {
                grid: self,
                bytes: [0; 2],
            })),
            ..FlowDefense::passthrough(name)
        }
    }
}

/// One flow on a [`Grid`]: count each direction's real bytes, then
/// re-emit everything on the grid. Owns both directions — nothing of
/// the original shape survives.
struct GridCore {
    grid: Grid,
    /// Real bytes seen, inbound then outbound.
    bytes: [u64; 2],
}

impl PadderCore for GridCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In, Direction::Out]
    }

    fn on_data(&mut self, pkts: &[FlowPkt], _rng: &mut SimRng) {
        for pkt in pkts {
            self.bytes[usize::from(pkt.dir == Direction::Out)] += u64::from(pkt.size);
        }
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let Grid { size, rho, l, .. } = self.grid;
        let mut emits = Vec::new();
        let mut real_done = Nanos::ZERO;
        for (i, dir) in [Direction::In, Direction::Out].into_iter().enumerate() {
            let n_real = self.bytes[i].div_ceil(u64::from(size));
            let n = n_real.max(self.grid.min_pkts).div_ceil(l) * l;
            emits.extend((0..n).map(|k| Emit {
                pkt: FlowPkt {
                    ts: rho[i] * k,
                    dir,
                    size,
                },
                dummy: k >= n_real,
            }));
            if n_real > 0 {
                real_done = real_done.max(rho[i] * (n_real - 1));
            }
        }
        CloseOut {
            emits,
            real_done: Some(real_done),
        }
    }
}

/// BuFLO as a placement-agnostic [`Defense`].
#[derive(Debug, Clone, Copy)]
pub struct BufloDefense(Grid);

impl BufloDefense {
    pub fn new(cfg: BufloConfig) -> Self {
        BufloDefense(Grid {
            size: cfg.packet_size,
            rho: [cfg.rho; 2],
            min_pkts: cfg.tau.0.div_ceil(cfg.rho.0.max(1)),
            l: 1,
        })
    }
}

impl Defense for BufloDefense {
    fn name(&self) -> &str {
        "BuFLO"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        self.0.flow("BuFLO")
    }
}

/// Tamaraw as a placement-agnostic [`Defense`].
#[derive(Debug, Clone, Copy)]
pub struct TamarawDefense(Grid);

impl TamarawDefense {
    pub fn new(cfg: TamarawConfig) -> Self {
        TamarawDefense(Grid {
            size: cfg.packet_size,
            rho: [cfg.rho_in, cfg.rho_out],
            min_pkts: 1,
            l: cfg.l as u64,
        })
    }
}

impl Defense for TamarawDefense {
    fn name(&self) -> &str {
        "Tamaraw"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        self.0.flow("Tamaraw")
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
