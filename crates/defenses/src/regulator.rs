//! RegulaTor-lite (Holland & Hopper, PETS 2022): surge-based
//! regularization. Downloads start as bursts ("surges"); RegulaTor
//! re-emits the incoming stream on a schedule whose rate starts at R and
//! decays geometrically, restarting the schedule when a new surge
//! arrives. Slots with no queued real packet emit a dummy, up to a
//! padding budget. Outgoing traffic passes through untouched.
//!
//! "Lite": we keep the surge schedule and dummy fill, but skip the full
//! design's upload side — there, outgoing packets are sent at a fraction
//! of the incoming rate; here the schedule owns only the inbound
//! direction. The schedule is the machine runtime's `Action::Regulate`:
//! [`RegulatorDefense`] runs the machine [`regulator_machine`] generates.

use crate::machines::regulator_machine;
use netsim::SimRng;
use stob::defense::{Defense, DefenseCtx, FlowDefense};
use stob::machine::{MachineDefense, MachineSpec};

#[derive(Debug, Clone, Copy)]
pub struct RegulatorConfig {
    /// Initial surge rate, packets/second.
    pub rate: f64,
    /// Geometric decay per second of schedule age.
    pub decay: f64,
    /// A backlog of more than this many queued real packets restarts
    /// the schedule at full rate.
    pub surge_threshold: usize,
    /// Dummy budget as a fraction of real incoming packets.
    pub padding_budget: f64,
    pub packet_size: u32,
}

impl Default for RegulatorConfig {
    fn default() -> Self {
        RegulatorConfig {
            rate: 300.0,
            decay: 0.9,
            surge_threshold: 60,
            padding_budget: 0.4,
            packet_size: 1514,
        }
    }
}

/// RegulaTor-lite as a placement-agnostic [`Defense`]. A config the
/// machine refuses (a rate that is not positive, a decay outside
/// `(0, 1]`) builds pass-through flows, counted in
/// `defense.machine.degraded`.
pub struct RegulatorDefense(MachineDefense);

impl RegulatorDefense {
    pub fn new(cfg: RegulatorConfig) -> Self {
        RegulatorDefense(MachineDefense::new(MachineSpec {
            name: "RegulaTor (lite)".to_string(),
            ..regulator_machine(&cfg)
        }))
    }
}

impl Defense for RegulatorDefense {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn build(&self, ctx: &DefenseCtx, rng: &mut SimRng) -> FlowDefense {
        self.0.build(ctx, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::emulate_trace;
    use crate::buflo::{BufloConfig, BufloDefense};
    use crate::overhead::{bandwidth_overhead, Defended};
    use netsim::{Direction, Nanos};
    use traces::sites::paper_sites;
    use traces::statgen::generate;
    use traces::Trace;

    /// The schedule is deterministic: no randomness is consumed.
    fn run(defense: &dyn Defense, t: &Trace) -> Defended {
        emulate_trace(defense, t, &DefenseCtx::default(), &mut SimRng::new(0))
    }

    fn sample() -> Trace {
        generate(&paper_sites()[2], 2, 0, 1)
    }

    #[test]
    fn all_real_incoming_packets_are_reemitted() {
        let t = sample();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &t);
        let n_in_orig = t.packets.iter().filter(|p| p.dir == Direction::In).count();
        let n_in_def = d
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .count();
        assert_eq!(n_in_def, n_in_orig + d.dummy_pkts);
    }

    #[test]
    fn incoming_sizes_are_uniform() {
        let t = sample();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &t);
        assert!(d
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .all(|p| p.size == 1514));
    }

    #[test]
    fn outgoing_traffic_is_untouched() {
        let t = sample();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &t);
        let orig: Vec<_> = t
            .packets
            .iter()
            .filter(|p| p.dir == Direction::Out)
            .collect();
        let def: Vec<_> = d
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::Out)
            .collect();
        assert_eq!(orig.len(), def.len());
    }

    /// Complexity gate, not a timing test: recounting the backlog per
    /// slot made this 5 x 10^9 compare steps (over a minute in a debug
    /// build); with the cursor it is 10^5 slots, milliseconds.
    #[test]
    fn hundred_thousand_packet_burst_is_linear() {
        let pkt = traces::TracePacket::new(Nanos::ZERO, Direction::In, 1514);
        let burst = Trace::new(0, 0, vec![pkt; 100_000]);
        let started = std::time::Instant::now();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &burst);
        let took = started.elapsed();
        assert!(took.as_secs() < 2, "100k-packet burst took {took:?}");
        // The backlog never empties, so every slot carries a real packet
        // and the surge restarts keep the schedule at the full rate.
        assert_eq!(d.dummy_pkts, 0);
        assert_eq!(d.trace.len(), 100_000);
        assert_eq!(d.real_done, d.trace.duration());
    }

    #[test]
    fn padding_respects_budget() {
        let t = sample();
        let cfg = RegulatorConfig::default();
        let d = run(&RegulatorDefense::new(cfg), &t);
        let n_in = t.packets.iter().filter(|p| p.dir == Direction::In).count();
        assert!(d.dummy_pkts <= (n_in as f64 * cfg.padding_budget) as usize);
    }

    #[test]
    fn cheaper_than_buflo_more_than_nothing() {
        let t = sample();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &t);
        let bw = bandwidth_overhead(&t, &d);
        let bf = run(&BufloDefense::new(BufloConfig::default()), &t);
        let bw_bf = bandwidth_overhead(&t, &bf);
        assert!(bw > 0.0, "RegulaTor pads at least a little: {bw}");
        assert!(bw < bw_bf, "RegulaTor ({bw}) must undercut BuFLO ({bw_bf})");
    }

    #[test]
    fn decaying_rate_spreads_the_tail() {
        // Later slots are wider than early ones within one surge.
        let t = sample();
        let d = run(&RegulatorDefense::new(RegulatorConfig::default()), &t);
        let times: Vec<Nanos> = d
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .map(|p| p.ts)
            .collect();
        assert!(times.len() > 10);
        let early = times[1] - times[0];
        let late = times[times.len() - 1] - times[times.len() - 2];
        assert!(late >= early, "late gap {late} vs early {early}");
    }
}
