//! The paper's §3 countermeasure emulation, verbatim:
//!
//! * **Splitting**: "dividing packets of size larger than 1200 bytes into
//!   two individual packets of half the size of the original packet."
//! * **Delaying**: "we increment the inter-arrival time between the
//!   original packet and the one before by 10-30%, where the percentage
//!   is drawn uniformly at random."
//! * Both are "only applied on incoming traffic from the server,
//!   emulating a deployment of the defense at the server-side."
//! * For the censorship setting they are additionally applied "on the
//!   first 15, 30, and 45 packets only."
//!
//! Delays are applied cumulatively: stretching one inter-arrival time
//! shifts everything after it, as a real in-stack delay would.

use crate::backend::{defend_all, emulate_trace};
use crate::overhead::Defended;
use netsim::{Direction, SimRng};
use stob::defense::{Defense, DefenseCtx, FlowDefense, Placement};
use stob::policy::{DelaySpec, ObfuscationPolicy, SizeSpec, TsoSpec};
use traces::Trace;

/// Which §3 countermeasure to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterMeasure {
    /// No modification (the "Original" column).
    Original,
    /// Packet splitting above the threshold.
    Split,
    /// Inter-arrival stretching.
    Delayed,
    /// Split, then delay.
    Combined,
}

impl CounterMeasure {
    pub fn name(self) -> &'static str {
        match self {
            CounterMeasure::Original => "Original",
            CounterMeasure::Split => "Split",
            CounterMeasure::Delayed => "Delayed",
            CounterMeasure::Combined => "Combined",
        }
    }

    pub fn all() -> [CounterMeasure; 4] {
        [
            CounterMeasure::Original,
            CounterMeasure::Split,
            CounterMeasure::Delayed,
            CounterMeasure::Combined,
        ]
    }
}

/// Emulation parameters (§3's values as defaults).
#[derive(Debug, Clone, Copy)]
pub struct EmulateConfig {
    /// Split packets strictly larger than this (wire bytes).
    pub split_threshold: u32,
    /// Uniform IAT stretch band.
    pub delay_lo: f64,
    pub delay_hi: f64,
    /// Apply to the first N packets only (0 = whole trace).
    pub first_n: usize,
    /// Apply only to this direction (the paper: incoming).
    pub direction: Option<Direction>,
}

impl Default for EmulateConfig {
    fn default() -> Self {
        EmulateConfig {
            split_threshold: 1200,
            delay_lo: 0.10,
            delay_hi: 0.30,
            first_n: 0,
            direction: Some(Direction::In),
        }
    }
}

/// The §3 countermeasures as a placement-agnostic [`Defense`]: the
/// split/delay rules become an [`ObfuscationPolicy`] scoped to the
/// configured direction and first-N window, so the *same spec* runs as
/// trace emulation (`Placement::App`) or through the in-stack shaper
/// (`Placement::Stack`).
#[derive(Debug, Clone, Copy)]
pub struct Section3Defense {
    pub cm: CounterMeasure,
    pub cfg: EmulateConfig,
}

impl Section3Defense {
    pub fn new(cm: CounterMeasure, cfg: EmulateConfig) -> Self {
        Section3Defense { cm, cfg }
    }

    /// The policy this countermeasure lowers to.
    pub fn policy(&self) -> ObfuscationPolicy {
        let size = match self.cm {
            CounterMeasure::Split | CounterMeasure::Combined => SizeSpec::SplitAbove {
                threshold: self.cfg.split_threshold,
            },
            _ => SizeSpec::Unchanged,
        };
        let delay = match self.cm {
            CounterMeasure::Delayed | CounterMeasure::Combined => DelaySpec::UniformFraction {
                lo_frac: self.cfg.delay_lo,
                hi_frac: self.cfg.delay_hi,
            },
            _ => DelaySpec::Unchanged,
        };
        ObfuscationPolicy {
            name: self.cm.name().to_string(),
            size,
            delay,
            tso: TsoSpec::Unchanged,
            first_n_pkts: self.cfg.first_n as u64,
            respect_slow_start: false,
        }
    }
}

impl Defense for Section3Defense {
    fn name(&self) -> &str {
        self.cm.name()
    }

    fn build(&self, _ctx: &DefenseCtx, _rng: &mut SimRng) -> FlowDefense {
        FlowDefense {
            policy: self.policy(),
            padding: None,
            apply_dir: self.cfg.direction,
        }
    }
}

/// Apply one §3 countermeasure at the app placement, returning the
/// defended trace with overhead bookkeeping. A split's second half lands
/// at the first's timestamp (back-to-back on the wire at trace
/// resolution) and draws no randomness; a delay stretches each
/// qualifying inter-arrival time by `U(delay_lo, delay_hi)`, shifting
/// every later packet.
pub fn apply(cm: CounterMeasure, trace: &Trace, cfg: &EmulateConfig, rng: &mut SimRng) -> Defended {
    let d = Section3Defense::new(cm, *cfg);
    emulate_trace(&d, trace, &DefenseCtx::default(), rng)
}

/// Apply one countermeasure to every trace in a corpus, in parallel:
/// [`defend_all`] at the app placement.
///
/// Each trace's randomness is forked from `root` by corpus index, so the
/// output is a pure function of (traces, cfg, root seed) — bit-identical
/// at any thread count, and identical to applying `apply` sequentially
/// with `root.fork(i + 1)` per trace. This is the determinism contract
/// the parallel driver (`netsim::par`) relies on.
pub fn apply_all(
    cm: CounterMeasure,
    traces: &[Trace],
    cfg: &EmulateConfig,
    root: &SimRng,
) -> Vec<Defended> {
    let defense = Section3Defense::new(cm, *cfg);
    defend_all(&defense, Placement::App, traces, None, root, 0)
}

/// The paper's 16-dataset grid: every countermeasure × every prefix
/// length (15, 30, 45, all). The countermeasure is applied to the first
/// `n` packets and the attack will be evaluated on the first `n` packets
/// of the result.
pub fn section3_grid() -> Vec<(CounterMeasure, usize)> {
    let mut grid = Vec::new();
    for n in [15usize, 30, 45, 0] {
        for cm in CounterMeasure::all() {
            grid.push((cm, n));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Nanos;
    use traces::TracePacket;

    fn split(t: &Trace, cfg: &EmulateConfig) -> Trace {
        apply(CounterMeasure::Split, t, cfg, &mut SimRng::new(0)).trace
    }

    fn delay(t: &Trace, cfg: &EmulateConfig, rng: &mut SimRng) -> Trace {
        apply(CounterMeasure::Delayed, t, cfg, rng).trace
    }

    fn trace() -> Trace {
        Trace::new(
            0,
            0,
            vec![
                TracePacket::new(Nanos(0), Direction::Out, 583),
                TracePacket::new(Nanos::from_millis(10), Direction::In, 1514),
                TracePacket::new(Nanos::from_millis(12), Direction::In, 900),
                TracePacket::new(Nanos::from_millis(13), Direction::Out, 1400),
                TracePacket::new(Nanos::from_millis(20), Direction::In, 1514),
            ],
        )
    }

    #[test]
    fn split_divides_large_incoming_packets_only() {
        let t = trace();
        let s = split(&t, &EmulateConfig::default());
        // Two 1514-byte incoming packets split; 900 stays; outgoing 1400
        // stays (server-side deployment).
        assert_eq!(s.len(), 7);
        let sizes: Vec<u32> = s.packets.iter().map(|p| p.size).collect();
        assert!(sizes.contains(&757));
        assert!(sizes.contains(&900));
        assert!(sizes.contains(&1400), "outgoing must not be split");
        assert!(s.packets.iter().all(|p| p.size <= 1400));
        // Payload conserved.
        let orig: u64 = t.packets.iter().map(|p| p.size as u64).sum();
        let new: u64 = s.packets.iter().map(|p| p.size as u64).sum();
        assert_eq!(orig, new);
    }

    #[test]
    fn split_halves_are_balanced_for_odd_sizes() {
        let t = Trace::new(0, 0, vec![TracePacket::new(Nanos(0), Direction::In, 1501)]);
        let s = split(&t, &EmulateConfig::default());
        let sizes: Vec<u32> = s.packets.iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![751, 750]);
    }

    #[test]
    fn delay_stretches_iats_within_band_and_accumulates() {
        let t = trace();
        let mut rng = SimRng::new(1);
        let d = delay(&t, &EmulateConfig::default(), &mut rng);
        assert_eq!(d.len(), t.len());
        assert!(d.is_well_formed());
        // Every affected IAT grew; total duration grew by 10-30% of the
        // affected gaps.
        assert!(d.duration() > t.duration());
        let max_growth = t.duration().mul_f64(0.30) + Nanos(1);
        assert!(d.duration() - t.duration() <= max_growth);
        // Packet count, sizes, directions unchanged.
        for (a, b) in t.packets.iter().zip(&d.packets) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.dir, b.dir);
        }
    }

    #[test]
    fn delay_shifts_subsequent_outgoing_packets_too() {
        let t = trace();
        let mut rng = SimRng::new(2);
        let d = delay(&t, &EmulateConfig::default(), &mut rng);
        // The outgoing packet at index 3 rides behind delayed incoming
        // packets, so its absolute time moved even though its own IAT
        // was not stretched.
        assert!(d.packets[3].ts > t.packets[3].ts);
    }

    #[test]
    fn first_n_limits_the_modification() {
        let cfg = EmulateConfig {
            first_n: 2,
            ..EmulateConfig::default()
        };
        let t = trace();
        let s = split(&t, &cfg);
        // Only packet index 1 qualifies (first 2 packets, incoming,
        // >1200): one extra packet.
        assert_eq!(s.len(), 6);
        // The last 1514 (index 4) stays whole.
        assert_eq!(s.packets.last().expect("nonempty").size, 1514);
    }

    #[test]
    fn original_is_identity() {
        let t = trace();
        let mut rng = SimRng::new(3);
        let d = apply(
            CounterMeasure::Original,
            &t,
            &EmulateConfig::default(),
            &mut rng,
        );
        assert_eq!(d.trace, t);
        assert_eq!(d.dummy_pkts, 0);
    }

    #[test]
    fn combined_splits_then_delays() {
        let t = trace();
        let mut rng = SimRng::new(4);
        let d = apply(
            CounterMeasure::Combined,
            &t,
            &EmulateConfig::default(),
            &mut rng,
        );
        assert_eq!(d.trace.len(), 7, "split happened");
        assert!(d.trace.duration() > t.duration(), "delay happened");
        assert!(d.trace.is_well_formed());
    }

    #[test]
    fn grid_is_sixteen_datasets() {
        let g = section3_grid();
        assert_eq!(g.len(), 16);
        assert_eq!(
            g.iter()
                .filter(|(cm, _)| *cm == CounterMeasure::Split)
                .count(),
            4
        );
        assert_eq!(g.iter().filter(|(_, n)| *n == 0).count(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace();
        let a = delay(&t, &EmulateConfig::default(), &mut SimRng::new(9));
        let b = delay(&t, &EmulateConfig::default(), &mut SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn apply_all_matches_sequential_per_trace_forks() {
        let corpus: Vec<Trace> = (0..17).map(|_| trace()).collect();
        let cfg = EmulateConfig::default();
        let root = SimRng::new(0xC0FFEE);
        let par = apply_all(CounterMeasure::Combined, &corpus, &cfg, &root);
        let seq: Vec<Defended> = corpus
            .iter()
            .enumerate()
            .map(|(i, t)| {
                apply(
                    CounterMeasure::Combined,
                    t,
                    &cfg,
                    &mut root.fork(i as u64 + 1),
                )
            })
            .collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.trace, b.trace);
        }
    }
}
