//! Fast statistical trace generator.
//!
//! Samples a packet sequence directly from a [`SiteProfile`] without
//! running the stack simulator: per object, one outgoing request packet,
//! then the response as MTU-sized incoming packets at the bottleneck
//! rate with an ACK every other packet. Used where tests or benches need
//! *lots* of site-distinguishable traces cheaply; the experiment pipeline
//! uses [`crate::loader`] for stack fidelity.

use crate::model::{Trace, TracePacket};
use crate::sites::SiteProfile;
use netsim::{Direction, Nanos, SimRng, MTU_WIRE};

const ACK_WIRE: u32 = 66;
const REQ_WIRE: u32 = 576;

/// Generate one synthetic visit trace.
pub fn generate(site: &SiteProfile, label: usize, visit: usize, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed).fork(label as u64).fork(visit as u64 + 1);
    let plan = site.plan_visit(&mut rng);
    let mut sizes = vec![plan.main_doc];
    sizes.extend(&plan.objects);
    // Sized from the plan, so a long-lived corpus carries no push-growth
    // slack: the handshake's seven packets, then per object a request,
    // the full segments with an ACK every other one, and the remainder
    // with its ACK. Growing and then `shrink_to_fit` costs `defend_suite`
    // set-up and throughput (PERF.md, "One copy of the corpus"). A count
    // that drifts from the loop below fails the `debug_assert` and
    // `tests/corpus_footprint.rs`, which checks `capacity() == len()`.
    let capacity = 7 + sizes
        .iter()
        .map(|&obj| {
            let n_full = (obj / 1448) as usize;
            1 + n_full + n_full / 2 + if obj % 1448 > 0 { 2 } else { 0 }
        })
        .sum::<usize>();
    let mut pkts: Vec<TracePacket> = Vec::with_capacity(capacity);
    let mut now = Nanos::ZERO;
    let rtt = plan.rtt;
    let rate = plan.bottleneck_mbps * 1_000_000;

    // TCP + TLS handshake silhouette.
    pkts.push(TracePacket::new(now, Direction::Out, 74)); // SYN
    now += rtt;
    pkts.push(TracePacket::new(now, Direction::In, 74)); // SYN-ACK
    pkts.push(TracePacket::new(now, Direction::Out, 583)); // ACK+CH
    now += rtt;
    for _ in 0..3 {
        pkts.push(TracePacket::new(now, Direction::In, MTU_WIRE)); // SH flight
        now += Nanos::for_bytes_at_rate(MTU_WIRE as u64, rate);
    }
    pkts.push(TracePacket::new(now, Direction::Out, 146)); // FIN'd hs

    for (i, &obj) in sizes.iter().enumerate() {
        // Request after a think-ish gap.
        now += plan.thinks[i.min(plan.thinks.len() - 1)] + rtt / 2;
        pkts.push(TracePacket::new(now, Direction::Out, REQ_WIRE));
        now += rtt / 2;
        let n_full = (obj / 1448) as usize;
        let rem = (obj % 1448) as u32;
        let mut in_count = 0;
        for _ in 0..n_full {
            now += Nanos::for_bytes_at_rate(MTU_WIRE as u64, rate);
            pkts.push(TracePacket::new(now, Direction::In, MTU_WIRE));
            in_count += 1;
            if in_count % 2 == 0 {
                pkts.push(TracePacket::new(now, Direction::Out, ACK_WIRE));
            }
        }
        if rem > 0 {
            now += Nanos::for_bytes_at_rate((rem + 66) as u64, rate);
            pkts.push(TracePacket::new(now, Direction::In, rem + 66));
            pkts.push(TracePacket::new(now, Direction::Out, ACK_WIRE));
        }
    }
    debug_assert_eq!(pkts.len(), capacity);
    let mut t = Trace::new(label, visit, pkts);
    t.normalize();
    t
}

/// Generate a whole labelled corpus: `visits` per site.
pub fn generate_corpus(sites: &[SiteProfile], visits: usize, seed: u64) -> Vec<Trace> {
    let mut out = Vec::with_capacity(sites.len() * visits);
    for (label, site) in sites.iter().enumerate() {
        for v in 0..visits {
            out.push(generate(site, label, v, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::paper_sites;

    #[test]
    fn generated_trace_is_well_formed() {
        let sites = paper_sites();
        for (i, s) in sites.iter().enumerate() {
            let t = generate(s, i, 0, 42);
            assert!(t.is_well_formed(), "{} malformed", s.name);
            assert!(t.len() > 20, "{} too short", s.name);
            assert!(t.download_bytes() > 10_000);
        }
    }

    #[test]
    fn corpus_has_expected_shape() {
        let sites: Vec<_> = paper_sites().into_iter().take(3).collect();
        let corpus = generate_corpus(&sites, 5, 1);
        assert_eq!(corpus.len(), 15);
        for label in 0..3 {
            assert_eq!(corpus.iter().filter(|t| t.label == label).count(), 5);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sites = paper_sites();
        let a = generate(&sites[4], 4, 2, 99);
        let b = generate(&sites[4], 4, 2, 99);
        assert_eq!(a, b);
        let c = generate(&sites[4], 4, 3, 99);
        assert_ne!(a.packets, c.packets);
    }

    #[test]
    fn statgen_is_much_faster_than_realistic_scale() {
        // 9 sites x 20 visits in well under a second.
        let sites = paper_sites();
        let start = std::time::Instant::now();
        let corpus = generate_corpus(&sites, 20, 3);
        assert_eq!(corpus.len(), 180);
        assert!(start.elapsed().as_secs_f64() < 5.0);
    }
}
