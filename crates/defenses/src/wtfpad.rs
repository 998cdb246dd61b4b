//! WTF-PAD-lite (Juarez et al.): adaptive padding. Instead of a constant
//! stream of dummies, WTF-PAD watches inter-arrival gaps and fills
//! *statistically unusual* silences with dummy packets, sampling fill
//! delays from histograms. We implement the single-level "lite" variant:
//! per direction, a gap histogram is fit to the trace family's typical
//! burst-internal IATs; whenever a real gap exceeds a sampled threshold,
//! a dummy packet is planted inside it.
//!
//! Table 1 row: Tor-class, obfuscation, padding + timing modification.

use netsim::{Direction, Nanos, SimRng};
use stob::defense::{CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore};

#[derive(Debug, Clone, Copy)]
pub struct WtfPadConfig {
    /// Gap threshold sampling band (seconds): a fresh threshold is drawn
    /// per gap, U(lo, hi). Gaps longer than the draw get a dummy.
    pub gap_lo: f64,
    pub gap_hi: f64,
    /// Max dummies planted inside one gap.
    pub max_per_gap: usize,
    pub dummy_size: u32,
}

impl Default for WtfPadConfig {
    fn default() -> Self {
        WtfPadConfig {
            gap_lo: 0.005,
            gap_hi: 0.05,
            max_per_gap: 3,
            dummy_size: 1514,
        }
    }
}

/// WTF-PAD's adaptive schedule: observe each direction's packet times,
/// then plant dummies inside conspicuous silences. Pure padding.
struct WtfPadCore {
    cfg: WtfPadConfig,
    in_times: Vec<Nanos>,
    out_times: Vec<Nanos>,
}

impl PadderCore for WtfPadCore {
    fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
        match pkt.dir {
            Direction::In => self.in_times.push(pkt.ts),
            Direction::Out => self.out_times.push(pkt.ts),
        }
    }

    fn on_close(&mut self, rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let mut emits = Vec::new();
        for (dir, times) in [
            (Direction::In, &self.in_times),
            (Direction::Out, &self.out_times),
        ] {
            for w in times.windows(2) {
                let mut cursor = w[0];
                for _ in 0..cfg.max_per_gap {
                    let thr = rng.range_f64(cfg.gap_lo, cfg.gap_hi);
                    let remaining = (w[1] - cursor).as_secs_f64();
                    if remaining <= thr {
                        break;
                    }
                    // Plant a dummy `thr` after the cursor: the silence
                    // now looks like ongoing burst traffic.
                    cursor += Nanos::from_secs_f64(thr);
                    emits.push(Emit {
                        pkt: FlowPkt {
                            ts: cursor,
                            dir,
                            size: cfg.dummy_size,
                        },
                        dummy: true,
                    });
                }
            }
        }
        CloseOut {
            emits,
            real_done: None,
        }
    }
}

/// WTF-PAD-lite as a placement-agnostic [`Defense`]. Padding-only.
#[derive(Debug, Clone, Copy)]
pub struct WtfPadDefense {
    pub cfg: WtfPadConfig,
}

impl WtfPadDefense {
    pub fn new(cfg: WtfPadConfig) -> Self {
        WtfPadDefense { cfg }
    }
}

impl Defense for WtfPadDefense {
    fn name(&self) -> &str {
        "WTF-PAD (lite)"
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense {
            padding: Some(Box::new(WtfPadCore {
                cfg: self.cfg,
                in_times: Vec::new(),
                out_times: Vec::new(),
            })),
            ..FlowDefense::passthrough("WTF-PAD (lite)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::emulate_trace;
    use crate::buflo::{BufloConfig, BufloDefense};
    use crate::overhead::{bandwidth_overhead, latency_overhead, Defended};
    use traces::sites::paper_sites;
    use traces::statgen::generate;
    use traces::{Trace, TracePacket};

    fn run(defense: &dyn Defense, t: &Trace, rng: &mut SimRng) -> Defended {
        emulate_trace(defense, t, &DefenseCtx::default(), rng)
    }

    fn sample() -> Trace {
        generate(&paper_sites()[4], 4, 0, 1)
    }

    #[test]
    fn fills_large_gaps_with_dummies() {
        let t = sample();
        let mut rng = SimRng::new(1);
        let d = run(&WtfPadDefense::new(WtfPadConfig::default()), &t, &mut rng);
        assert!(d.dummy_pkts > 0, "page loads have think-time gaps");
        assert!(d.trace.is_well_formed());
        assert_eq!(d.trace.len(), t.len() + d.dummy_pkts);
    }

    #[test]
    fn zero_delay_for_real_packets() {
        let t = sample();
        let mut rng = SimRng::new(2);
        let d = run(&WtfPadDefense::new(WtfPadConfig::default()), &t, &mut rng);
        assert!(latency_overhead(&t, &d).abs() < 1e-9);
    }

    #[test]
    fn cheaper_than_buflo() {
        // Adaptive padding was designed to undercut constant-rate
        // padding costs; verify the ordering on the same trace.
        let t = sample();
        let mut rng = SimRng::new(3);
        let wp = run(&WtfPadDefense::new(WtfPadConfig::default()), &t, &mut rng);
        let bf = run(&BufloDefense::new(BufloConfig::default()), &t, &mut rng);
        let bw_wp = bandwidth_overhead(&t, &wp);
        let bw_bf = bandwidth_overhead(&t, &bf);
        assert!(
            bw_wp < bw_bf,
            "WTF-PAD ({bw_wp}) should cost less than BuFLO ({bw_bf})"
        );
    }

    #[test]
    fn reduces_long_gap_count() {
        // The defense's purpose: fewer conspicuous silences per
        // direction.
        let t = sample();
        let mut rng = SimRng::new(4);
        let cfg = WtfPadConfig::default();
        let d = run(&WtfPadDefense::new(cfg), &t, &mut rng);
        let long_gaps = |tr: &Trace| {
            let times: Vec<Nanos> = tr
                .packets
                .iter()
                .filter(|p| p.dir == Direction::In)
                .map(|p| p.ts)
                .collect();
            times
                .windows(2)
                .filter(|w| (w[1] - w[0]).as_secs_f64() > cfg.gap_hi * 1.5)
                .count()
        };
        assert!(
            long_gaps(&d.trace) < long_gaps(&t),
            "defense must smooth the gap profile"
        );
    }

    #[test]
    fn max_per_gap_caps_injection() {
        let t = Trace::new(
            0,
            0,
            vec![
                TracePacket::new(Nanos(0), Direction::In, 1514),
                TracePacket::new(Nanos::from_secs(10), Direction::In, 1514),
            ],
        );
        let cfg = WtfPadConfig {
            max_per_gap: 2,
            ..WtfPadConfig::default()
        };
        let mut rng = SimRng::new(5);
        let d = run(&WtfPadDefense::new(cfg), &t, &mut rng);
        assert!(d.dummy_pkts <= 2);
    }
}
