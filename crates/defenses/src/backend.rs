//! Trace-level adapters for the placement-agnostic defense layer.
//!
//! `stob::defense` works on bare packet sequences of [`FlowPkt`], which
//! is also the packet type a [`Trace`] holds (`traces::TracePacket` is a
//! re-export), so a trace's packets go to the kernel as they are and the
//! defended sequence is moved into the result. This module runs a
//! [`Defense`] at either [`Placement`] and wraps the outcome in the
//! [`Defended`] bookkeeping the overhead metrics consume. There is no
//! per-defense function API beside it: every harness builds the
//! `*Defense` spec and calls [`defend_trace`] / [`defend_all`].
//!
//! [`FlowPkt`]: stob::defense::FlowPkt

use crate::overhead::Defended;
use netsim::{par, Direction, Nanos, SimRng};
use std::collections::HashMap;
use stob::defense::{
    emulate_flow, enforce_flow, DefendedFlow, Defense, DefenseCtx, Placement, ReferenceBank,
    StackParams,
};
use traces::Trace;

/// Wrap a defended flow as a trace with the victim's identity. The
/// packet vector is moved, not copied, and exact-sized first: a defended
/// corpus is long-lived, and the slack a push-grown vector carries would
/// be resident once per trace.
fn to_defended(victim: &Trace, mut flow: DefendedFlow) -> Defended {
    flow.pkts.shrink_to_fit();
    Defended {
        trace: Trace::new(victim.label, victim.visit, flow.pkts),
        dummy_pkts: flow.dummy_pkts,
        dummy_bytes: flow.dummy_bytes,
        real_done: flow.real_done,
    }
}

/// Run a defense over one trace at the **application layer** (trace
/// emulation, the historical behavior of this crate).
pub fn emulate_trace(
    defense: &dyn Defense,
    trace: &Trace,
    ctx: &DefenseCtx,
    rng: &mut SimRng,
) -> Defended {
    to_defended(trace, emulate_flow(defense, &trace.packets, ctx, rng))
}

/// Run a defense over one trace **in the stack**: the same spec, lowered
/// into a live shaper and replayed through the egress pipeline.
pub fn enforce_trace(
    defense: &dyn Defense,
    trace: &Trace,
    ctx: &DefenseCtx,
    rng: &mut SimRng,
    params: &StackParams,
) -> Defended {
    to_defended(
        trace,
        enforce_flow(defense, &trace.packets, ctx, rng, params),
    )
}

/// Run a defense at the given placement — the single entry point the
/// benchmarks' placement axis goes through.
pub fn defend_trace(
    defense: &dyn Defense,
    placement: Placement,
    trace: &Trace,
    ctx: &DefenseCtx,
    rng: &mut SimRng,
    params: &StackParams,
) -> Defended {
    match placement {
        Placement::App => emulate_trace(defense, trace, ctx, rng),
        Placement::Stack => enforce_trace(defense, trace, ctx, rng, params),
    }
}

/// Apply one defense to every trace in a corpus, in parallel, at the
/// given placement.
///
/// Same determinism contract as `emulate::apply_all`: each trace's
/// randomness is forked from `root` by corpus index (`root.fork(i + 1)`),
/// and the stack backend's shaper seed is derived from the root seed and
/// the corpus index, so output is a pure function of
/// (traces, defense, placement, root) at any thread count.
pub fn defend_all(
    defense: &(dyn Defense + Sync),
    placement: Placement,
    traces: &[Trace],
    bank: Option<&(dyn ReferenceBank + Sync)>,
    root: &SimRng,
    seed: u64,
) -> Vec<Defended> {
    let _sp = netsim::telemetry::span("defenses.backend.defend_all");
    netsim::tm_counter!("defenses.emulate.traces").add(traces.len() as u64);
    par::par_map(traces, |i, t| {
        let mut rng = root.fork(i as u64 + 1);
        let ctx = DefenseCtx {
            label: t.label,
            bank: bank.map(|b| b as &dyn ReferenceBank),
        };
        let params = StackParams::with_seed(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        defend_trace(defense, placement, t, &ctx, &mut rng, &params)
    })
}

/// A slice of traces as a [`ReferenceBank`] for mimicry defenses.
///
/// The inbound timestamp column of every candidate is extracted once at
/// construction (a struct-of-arrays view of the bank), so the per-flow
/// hot path — `defend_all` picks and reads a reference per defended
/// trace — is a memcpy of a ready column instead of a filter walk over
/// the full packet list — and so is the label histogram, which the
/// reference pick asks for once per flow.
pub struct TraceBank<'a> {
    traces: &'a [Trace],
    in_cols: Vec<Vec<Nanos>>,
    label_counts: HashMap<usize, usize>,
}

impl<'a> TraceBank<'a> {
    pub fn new(traces: &'a [Trace]) -> Self {
        let in_cols = traces
            .iter()
            .map(|t| {
                t.packets
                    .iter()
                    .filter(|p| p.dir == Direction::In)
                    .map(|p| p.ts)
                    .collect()
            })
            .collect();
        let mut label_counts = HashMap::new();
        for t in traces {
            *label_counts.entry(t.label).or_default() += 1;
        }
        TraceBank {
            traces,
            in_cols,
            label_counts,
        }
    }
}

impl ReferenceBank for TraceBank<'_> {
    fn len(&self) -> usize {
        self.traces.len()
    }
    fn label(&self, i: usize) -> usize {
        self.traces[i].label
    }
    fn count_label(&self, label: usize) -> usize {
        self.label_counts.get(&label).copied().unwrap_or(0)
    }
    fn in_times(&self, i: usize) -> Vec<Nanos> {
        self.in_cols[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::sites::paper_sites;
    use traces::statgen::generate;

    #[test]
    fn passthrough_round_trip_is_lossless_and_exact_sized() {
        let t = generate(&paper_sites()[1], 1, 0, 5);
        let none = stob::ObfuscationPolicy::passthrough("none");
        let ctx = DefenseCtx::default();
        let params = StackParams::with_seed(5);
        for placement in Placement::ALL {
            let d = defend_trace(&none, placement, &t, &ctx, &mut SimRng::new(5), &params);
            assert_eq!(d.trace, t, "{}", placement.name());
            assert_eq!(d.dummy_pkts, 0);
        }
        // The moved vector must not keep its push-growth slack: a split
        // (grows the stream) and a padder (merges a schedule into it).
        let split = crate::emulate::Section3Defense::new(
            crate::emulate::CounterMeasure::Split,
            crate::emulate::EmulateConfig::default(),
        );
        let front = crate::front::FrontDefense::new(crate::front::FrontConfig::default());
        for defense in [&split as &dyn Defense, &front] {
            for placement in Placement::ALL {
                let d = defend_trace(defense, placement, &t, &ctx, &mut SimRng::new(5), &params);
                assert!(d.trace.len() > t.len(), "{} grew", defense.name());
                assert_eq!(d.trace.packets.capacity(), d.trace.len());
            }
        }
    }

    #[test]
    fn defend_all_matches_sequential_forks() {
        let corpus: Vec<Trace> = (0..9)
            .map(|v| generate(&paper_sites()[v % 3], v % 3, v, 3))
            .collect();
        let d = crate::emulate::Section3Defense::new(
            crate::emulate::CounterMeasure::Combined,
            crate::emulate::EmulateConfig::default(),
        );
        let root = SimRng::new(0xAB);
        let par = defend_all(&d, Placement::App, &corpus, None, &root, 7);
        for (i, t) in corpus.iter().enumerate() {
            let mut rng = root.fork(i as u64 + 1);
            let ctx = DefenseCtx {
                label: t.label,
                bank: None,
            };
            let seq = emulate_trace(&d, t, &ctx, &mut rng);
            assert_eq!(par[i].trace, seq.trace);
        }
    }

    #[test]
    fn trace_bank_exposes_inbound_schedules() {
        let corpus: Vec<Trace> = (0..4)
            .map(|v| generate(&paper_sites()[v], v, 0, 2))
            .collect();
        let bank = TraceBank::new(&corpus);
        assert_eq!(bank.len(), 4);
        for (i, t) in corpus.iter().enumerate() {
            assert_eq!(bank.label(i), t.label);
            let times = bank.in_times(i);
            assert!(!times.is_empty());
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
