//! Surakav-lite (Gong et al., IEEE S&P 2022): reference-trace
//! regularization. The full system generates realistic reference traces
//! with a GAN and forces the real flow to follow the generated schedule,
//! sending dummies when the queue is empty and deferring data when it is
//! ahead. The lite variant keeps that enforcement loop but draws the
//! reference from a *bank of real traces of other sites* instead of a
//! generator — every defended download is re-emitted on the schedule of
//! somebody else's page load.
//!
//! Table 1 row: Tor, regularization, padding + timing modification.

use netsim::{Direction, Nanos, SimRng};
use stob::defense::{
    CloseOut, Defense, DefenseCtx, Emit, FlowDefense, FlowPkt, PadderCore, ReferenceBank,
};

#[derive(Debug, Clone, Copy)]
pub struct SurakavConfig {
    /// Wire size of every re-emitted incoming packet.
    pub packet_size: u32,
    /// When the real flow outlives the reference schedule, its tail IAT
    /// pattern is replayed; this caps the replay loop as a safety net
    /// against degenerate references.
    pub max_tail_replays: usize,
}

impl Default for SurakavConfig {
    fn default() -> Self {
        SurakavConfig {
            packet_size: 1514,
            max_tail_replays: 100_000,
        }
    }
}

/// Surakav's enforcement loop: buffer the inbound stream, then re-emit
/// its bytes on the reference schedule, stalling (shifting) when data
/// is not yet available and padding when the data ran out. Owns the
/// inbound direction.
struct SurakavCore {
    cfg: SurakavConfig,
    ref_times: Vec<Nanos>,
    /// Inbound arrivals as (ts, cumulative bytes up to and including
    /// this packet).
    orig_in: Vec<(Nanos, u64)>,
    real_bytes: u64,
}

impl PadderCore for SurakavCore {
    fn owned_dirs(&self) -> &'static [Direction] {
        &[Direction::In]
    }

    fn on_data(&mut self, pkt: FlowPkt, _rng: &mut SimRng) {
        if pkt.dir == Direction::In {
            self.real_bytes += u64::from(pkt.size);
            self.orig_in.push((pkt.ts, self.real_bytes));
        }
    }

    fn on_close(&mut self, _rng: &mut SimRng) -> CloseOut {
        let cfg = &self.cfg;
        let ref_times = &self.ref_times;
        let real_bytes = self.real_bytes;
        let orig_in = &self.orig_in;
        // Causality: the k-th real byte cannot leave before it existed in
        // the original flow. Earliest time `bytes` of real data exist —
        // asked for non-decreasing `bytes` against a non-decreasing
        // cumulative column, so the first index with `cum >= bytes` only
        // ever moves forward and one cursor serves every lookup.
        let mut cursor = 0usize;
        let mut available_at = |bytes: u64| -> Nanos {
            while cursor < orig_in.len() && orig_in[cursor].1 < bytes {
                cursor += 1;
            }
            let at = orig_in.get(cursor).or(orig_in.last());
            at.map_or(Nanos::ZERO, |&(t, _)| t)
        };

        let mut remaining = real_bytes;
        let mut real_done = Nanos::ZERO;
        let mut schedule: Vec<Nanos> = ref_times.clone();
        // If the reference is shorter than the data needs, replay its
        // tail IAT pattern.
        if !ref_times.is_empty() {
            let need = real_bytes.div_ceil(cfg.packet_size as u64) as usize;
            let mut replays = 0;
            while schedule.len() < need && replays < cfg.max_tail_replays {
                let base = *schedule.last().expect("nonempty");
                let tail_start = ref_times.len().saturating_sub(32);
                let tail = &ref_times[tail_start..];
                if tail.len() < 2 {
                    // Degenerate reference: fall back to a fixed cadence.
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
            if schedule.len() < need {
                // The replay cap ran out with data left: keep the last
                // gap's cadence until every real byte has a slot, rather
                // than dropping what the schedule cannot carry.
                netsim::tm_counter!("defenses.surakav.tail_extended").inc();
                let gap = match schedule[..] {
                    [.., a, b] => b.saturating_sub(a).max(Nanos(1)),
                    _ => Nanos::from_millis(5),
                };
                let mut t = *schedule.last().expect("nonempty");
                schedule.resize_with(need, || {
                    t += gap;
                    t
                });
            }
        }
        // When the schedule runs ahead of the data, the whole remaining
        // schedule shifts (the send queue stalls), as in the real system.
        let mut shift = Nanos::ZERO;
        let mut sent_real = 0u64;
        let mut emits = Vec::with_capacity(schedule.len());
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

/// [`SurakavDefense`]'s reference choice: a uniformly random bank entry
/// with a different label than the victim when one exists, any entry
/// otherwise. One draw either way; the k-th other-label entry is found
/// by walking, not by collecting the bank's indices per flow.
pub fn pick_reference(bank: &dyn ReferenceBank, label: usize, rng: &mut SimRng) -> usize {
    assert!(!bank.is_empty(), "empty reference bank");
    let n_others = bank.len() - bank.count_label(label);
    if n_others == 0 {
        return rng.range_usize(0, bank.len() - 1);
    }
    let k = rng.range_usize(0, n_others - 1);
    (0..bank.len())
        .filter(|&i| bank.label(i) != label)
        .nth(k)
        .expect("k < number of other-label entries")
}

/// Surakav-lite as a placement-agnostic [`Defense`]: per flow, draw a
/// reference from the context's [`ReferenceBank`] (avoiding the victim's
/// own label) and enforce its inbound schedule. Without a bank, or on a
/// reference with no inbound packets, the defense degrades to a
/// pass-through (and is counted as degraded).
#[derive(Debug, Clone, Copy)]
pub struct SurakavDefense {
    pub cfg: SurakavConfig,
}

impl SurakavDefense {
    pub fn new(cfg: SurakavConfig) -> Self {
        SurakavDefense { cfg }
    }
}

impl Defense for SurakavDefense {
    fn name(&self) -> &str {
        "Surakav (lite)"
    }

    fn build(&self, ctx: &DefenseCtx, rng: &mut SimRng) -> FlowDefense {
        let ref_times = match ctx.bank.filter(|b| !b.is_empty()) {
            Some(bank) => bank.in_times(pick_reference(bank, ctx.label, rng)),
            None => Vec::new(),
        };
        // No bank, or a reference with no inbound packets, is no schedule
        // to enforce — the core would own the inbound direction and
        // re-emit none of it.
        if ref_times.is_empty() {
            netsim::tm_counter!("stob.registry.degraded").inc();
            return FlowDefense::passthrough("Surakav (lite)");
        }
        FlowDefense {
            padding: Some(Box::new(SurakavCore {
                cfg: self.cfg,
                ref_times,
                orig_in: Vec::new(),
                real_bytes: 0,
            })),
            ..FlowDefense::passthrough("Surakav (lite)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{emulate_trace, TraceBank};
    use crate::overhead::{bandwidth_overhead, Defended};
    use traces::sites::paper_sites;
    use traces::statgen::{generate, generate_corpus};
    use traces::Trace;

    /// Re-emit `v`'s incoming bytes on `reference`'s incoming schedule:
    /// a one-trace bank leaves the pick no choice.
    fn on_schedule_of(reference: &Trace, v: &Trace, cfg: &SurakavConfig) -> Defended {
        let bank = TraceBank::new(std::slice::from_ref(reference));
        let ctx = DefenseCtx {
            label: v.label,
            bank: Some(&bank),
        };
        emulate_trace(&SurakavDefense::new(*cfg), v, &ctx, &mut SimRng::new(0))
    }

    fn victim() -> Trace {
        generate(&paper_sites()[8], 8, 0, 1) // heavy site
    }
    fn reference() -> Trace {
        generate(&paper_sites()[6], 6, 0, 1) // light site
    }

    #[test]
    fn defended_gaps_never_undercut_the_reference() {
        // Causality can stall the schedule (gaps grow) but never
        // compress it below the reference's spacing.
        let v = victim();
        let r = reference();
        let d = on_schedule_of(&r, &v, &SurakavConfig::default());
        let gaps = |t: &Trace| {
            let times: Vec<Nanos> = t
                .packets
                .iter()
                .filter(|p| p.dir == Direction::In)
                .map(|p| p.ts)
                .collect();
            times.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        };
        let rg = gaps(&r);
        let dg = gaps(&d.trace);
        for (i, (gr, gd)) in rg.iter().zip(&dg).enumerate().take(50) {
            assert!(gd >= gr, "gap {i}: defended {gd} < reference {gr}");
        }
    }

    #[test]
    fn all_real_bytes_are_carried() {
        let v = victim();
        let r = reference();
        let d = on_schedule_of(&r, &v, &SurakavConfig::default());
        let capacity = d
            .trace
            .packets
            .iter()
            .filter(|p| p.dir == Direction::In)
            .count() as u64
            * 1514;
        assert!(
            capacity >= v.bytes(Direction::In),
            "schedule too short for the data"
        );
    }

    #[test]
    fn causality_no_byte_leaves_before_it_existed() {
        // A fast reference cannot make the data arrive earlier than the
        // original flow delivered it.
        let v = victim();
        let mut fast_ref = reference();
        for p in &mut fast_ref.packets {
            p.ts = Nanos(p.ts.0 / 50); // absurdly fast schedule
        }
        let d = on_schedule_of(&fast_ref, &v, &SurakavConfig::default());
        assert!(
            d.real_done >= v.duration(),
            "real data finished at {} before the original {}",
            d.real_done,
            v.duration()
        );
    }

    #[test]
    fn light_victim_on_heavy_reference_pads() {
        let v = reference(); // light
        let r = victim(); // heavy schedule
        let d = on_schedule_of(&r, &v, &SurakavConfig::default());
        assert!(d.dummy_pkts > 0, "must pad to fill the reference");
        let bw = bandwidth_overhead(&v, &d);
        assert!(bw > 0.5, "imitating a heavy site is expensive: {bw}");
    }

    #[test]
    fn regularization_pulls_sites_toward_the_same_shape() {
        // Two different sites defended with the same reference share the
        // reference's exact inter-packet gaps wherever neither flow
        // stalled for data; undefended, two sites essentially never
        // produce identical gaps. (Stall positions still differ — the
        // leakage the real system trades against its rate parameter.)
        let a = generate(&paper_sites()[1], 1, 0, 3);
        let b = generate(&paper_sites()[4], 4, 0, 3);
        let r = victim();
        let cfg = SurakavConfig::default();
        let da = on_schedule_of(&r, &a, &cfg);
        let db = on_schedule_of(&r, &b, &cfg);
        let gaps = |t: &Trace| {
            let times: Vec<Nanos> = t
                .packets
                .iter()
                .filter(|p| p.dir == Direction::In)
                .map(|p| p.ts)
                .collect();
            times.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        };
        let equal_frac = |x: &[Nanos], y: &[Nanos]| {
            let n = x.len().min(y.len()).min(150);
            x.iter().zip(y).take(n).filter(|(a, b)| a == b).count() as f64 / n.max(1) as f64
        };
        // Note: statgen traces serialize full packets at a fixed rate, so
        // even undefended gap agreement is high on this corpus; the
        // meaningful assertion is that defended flows agree almost
        // everywhere (only stall positions differ) and never less than
        // undefended ones.
        let before = equal_frac(&gaps(&a), &gaps(&b));
        let after = equal_frac(&gaps(&da.trace), &gaps(&db.trace));
        assert!(after >= 0.9, "defended gap agreement {after:.2} too low");
        assert!(
            after >= before,
            "defense must not reduce agreement: {after:.2} vs {before:.2}"
        );
    }

    fn without_inbound_beyond(t: &Trace, keep: usize) -> Trace {
        let mut seen = 0;
        let mut out = t.clone();
        out.packets.retain(|p| {
            p.dir == Direction::Out || {
                seen += 1;
                seen <= keep
            }
        });
        out
    }

    /// A reference too short to carry the data must never cost real
    /// bytes: with no inbound packets there is no schedule, so the flow
    /// passes through (counted); with one or two and the replay cap at
    /// its tightest, the schedule keeps its last gap until the data fits.
    #[test]
    fn starved_references_never_drop_real_bytes() {
        let v = victim();
        let cfg = SurakavConfig {
            max_tail_replays: 1,
            ..SurakavConfig::default()
        };
        let degraded = netsim::tm_counter!("stob.registry.degraded");
        let extended = netsim::tm_counter!("defenses.surakav.tail_extended");
        for keep in [0usize, 1, 2] {
            let r = without_inbound_beyond(&reference(), keep);
            assert_eq!(
                r.packets.iter().filter(|p| p.dir == Direction::In).count(),
                keep
            );
            let (deg0, ext0) = (degraded.get(), extended.get());
            let d = on_schedule_of(&r, &v, &cfg);
            if keep == 0 {
                assert_eq!(d.trace, v, "no schedule: pass-through");
                assert_eq!(d.dummy_pkts, 0);
                assert!(degraded.get() > deg0, "pass-through must be counted");
                continue;
            }
            assert!(extended.get() > ext0, "keep={keep}: extension counted");
            let inbound = d.trace.packets.iter().filter(|p| p.dir == Direction::In);
            let capacity = inbound.count() as u64 * u64::from(cfg.packet_size);
            assert!(
                capacity >= v.bytes(Direction::In),
                "keep={keep}: {capacity} B of slots for {} B of data",
                v.bytes(Direction::In)
            );
            assert!(d.real_done >= v.duration(), "keep={keep}: causality");
            assert_eq!(d.dummy_pkts, 0, "keep={keep}: exactly enough slots");
        }
        // The bank path degrades the same way when the drawn reference
        // has no inbound packets.
        let bank_traces = [without_inbound_beyond(&reference(), 0)];
        let bank = TraceBank::new(&bank_traces);
        let ctx = DefenseCtx {
            label: v.label,
            bank: Some(&bank),
        };
        let deg0 = degraded.get();
        let d = emulate_trace(&SurakavDefense::new(cfg), &v, &ctx, &mut SimRng::new(3));
        assert_eq!(d.trace, v);
        assert!(degraded.get() > deg0);
    }

    /// Complexity gate, not a timing test: `find` from index 0 per
    /// scheduled packet made this 5 x 10^9 compare steps (over a minute
    /// in a debug build); with the cursor it is one pass.
    #[test]
    fn hundred_thousand_packet_burst_is_linear() {
        let pkt = traces::TracePacket::new(Nanos::ZERO, Direction::In, 1514);
        let burst = Trace::new(0, 0, vec![pkt; 100_000]);
        let started = std::time::Instant::now();
        let d = on_schedule_of(&reference(), &burst, &SurakavConfig::default());
        let took = started.elapsed();
        assert!(took.as_secs() < 2, "100k-packet burst took {took:?}");
        assert_eq!(d.dummy_pkts, 0, "the tail replay stops at the data");
        assert_eq!(d.trace.len(), 100_000);
    }

    /// The pre-rewrite pick: collect every other-label index, draw one.
    fn pick_reference_by_collecting(
        bank: &dyn ReferenceBank,
        label: usize,
        rng: &mut SimRng,
    ) -> usize {
        let others: Vec<usize> = (0..bank.len())
            .filter(|&i| bank.label(i) != label)
            .collect();
        if others.is_empty() {
            rng.range_usize(0, bank.len() - 1)
        } else {
            others[rng.range_usize(0, others.len() - 1)]
        }
    }

    #[test]
    fn pick_reference_matches_the_collecting_pick() {
        let labelled = |labels: &[usize]| -> Vec<Trace> {
            labels.iter().map(|&l| Trace::new(l, 0, vec![])).collect()
        };
        let skewed: Vec<usize> = (0..60)
            .map(|i| [0, 0, 0, 0, 3, 0, 7, 0, 0, 3][i % 10])
            .collect();
        for labels in [&skewed[..], &[4; 9], &[2]] {
            let traces = labelled(labels);
            let bank = TraceBank::new(&traces);
            let mut fast = SimRng::new(0x51C);
            let mut slow = fast.clone();
            for i in 0..1_000 {
                // Labels in the bank, and some that are not.
                let label = i % 9;
                assert_eq!(
                    pick_reference(&bank, label, &mut fast),
                    pick_reference_by_collecting(&bank, label, &mut slow),
                    "pick {i} for label {label} on {} entries",
                    labels.len()
                );
            }
            // Same number of draws on both sides, too.
            assert_eq!(fast.next_u64(), slow.next_u64());
        }
    }

    #[test]
    fn bank_selection_avoids_own_label() {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let bank = generate_corpus(&sites, 2, 5);
        let v = generate(&sites[0], 0, 9, 6);
        let mut rng = SimRng::new(4);
        for _ in 0..10 {
            let r = &bank[pick_reference(&TraceBank::new(&bank), v.label, &mut rng)];
            assert_ne!(r.label, v.label);
        }
    }
}
