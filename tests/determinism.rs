//! The parallel driver's regression test: results must be bit-identical
//! at any thread count. `netsim::par`'s contract is that worker count
//! changes only *where* a work item runs, never *what* it computes —
//! every item derives its randomness by forking the root rng on its
//! stable index. This test sweeps thread counts over the wired hot
//! paths (forest training, defense emulation, figure-3 fan-out, the
//! fleet, §3 collection) and compares against the single-threaded result.
//!
//! Everything runs inside ONE test function: `par::set_threads` is a
//! process-wide override, so concurrent test functions would race on it.

use defenses::emulate::{apply_all, CounterMeasure, EmulateConfig};
use netsim::{par, Nanos, SimRng};
use stob::policy::DelaySpec;
use stob::{run_fleet, FleetConfig, FleetReport, ObfuscationPolicy, PolicyKey, PolicyRegistry};
use traces::sites::paper_sites;
use traces::statgen::generate_corpus;
use wf::features::{extract_all, FeatureConfig};
use wf::forest::{Forest, ForestConfig};

/// Fleet workload for the sweep: small enough to run at every thread
/// count, defended (delay jitter) so the egress pipeline is live.
fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        seed: 0xF2EE7,
        flows: 2_000,
        shards: 16,
        sites: 16,
        pkts_per_flow: (6, 12),
        gap_ns: (10_000, 150_000),
        window: Nanos::from_millis(1),
    }
}

fn fleet_registry() -> PolicyRegistry {
    let reg = PolicyRegistry::new();
    let mut p = ObfuscationPolicy::passthrough("determinism-fleet");
    p.delay = DelaySpec::UniformFraction {
        lo_frac: 0.05,
        hi_frac: 0.20,
    };
    reg.publish(PolicyKey::Default, p);
    reg
}

/// Every deterministic field of a fleet report (thread-count sweep
/// compares all of them; the shard sweep below drops the two that
/// legitimately depend on shard layout).
#[allow(clippy::type_complexity)]
fn fleet_snapshot(r: &FleetReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.flows,
        r.egress_pkts,
        r.egress_bytes,
        r.dummy_pkts,
        r.dummy_bytes,
        r.peak_resident,
        r.sim_end.as_nanos(),
        r.checksum,
        r.events,
        r.arena_high_water,
        r.audit.checks,
    )
}

#[test]
fn thread_count_never_changes_results() {
    let sites: Vec<_> = paper_sites().into_iter().take(4).collect();
    let corpus = generate_corpus(&sites, 8, 7);
    let x = extract_all(&corpus, &FeatureConfig::paper());
    let y: Vec<usize> = corpus.iter().map(|t| t.label).collect();
    let fcfg = ForestConfig { n_trees: 24 };
    let em = EmulateConfig::default();
    let root = SimRng::new(0xDE7);

    // Reference: everything single-threaded. Telemetry metrics are part
    // of the contract too: counters/gauges/histograms aggregate
    // sim-domain integers order-independently, so the rendered snapshot
    // must be byte-identical at every thread count. The registry is
    // built once, before the reference reset, so its publish counter
    // stays out of every compared snapshot.
    let fleet_reg = fleet_registry();
    par::set_threads(1);
    netsim::telemetry::reset();
    let forest_1 = Forest::fit(&x, &y, 4, &fcfg, &mut SimRng::new(11));
    let preds_1 = forest_1.predict_batch(&x);
    let leaves_1: Vec<Vec<u32>> = x.iter().map(|s| forest_1.leaf_vector(s)).collect();
    let defended_1 = apply_all(CounterMeasure::Combined, &corpus, &em, &root);
    let (fig3_1, _) = stob_bench::run_figure3(&[0, 20, 40], Nanos::from_millis(2), 1, None);
    let (_, events_1) = stob_bench::run_figure3(&[0, 20], Nanos::from_millis(2), 1, Some(4096));
    let fleet_1 = run_fleet(&fleet_cfg(), &fleet_reg);
    assert!(fleet_1.clean(), "{:?}", fleet_1.audit.violations);
    let collected_1 = stob_bench::collect_dataset(1, 7).dataset.traces;
    let metrics_1 = netsim::telemetry::metrics_json().to_string_pretty();

    for threads in [2usize, 4, 8] {
        par::set_threads(threads);
        netsim::telemetry::reset();
        let forest_n = Forest::fit(&x, &y, 4, &fcfg, &mut SimRng::new(11));
        let preds_n = forest_n.predict_batch(&x);
        assert_eq!(preds_1, preds_n, "forest predictions at {threads} threads");
        for (i, s) in x.iter().enumerate() {
            assert_eq!(
                leaves_1[i],
                forest_n.leaf_vector(s),
                "leaf vector {i} at {threads} threads"
            );
        }
        let defended_n = apply_all(CounterMeasure::Combined, &corpus, &em, &root);
        assert_eq!(
            defended_1.len(),
            defended_n.len(),
            "corpus size at {threads} threads"
        );
        for (a, b) in defended_1.iter().zip(&defended_n) {
            assert_eq!(a.trace, b.trace, "emulated trace at {threads} threads");
        }
        let (fig3_n, _) = stob_bench::run_figure3(&[0, 20, 40], Nanos::from_millis(2), 1, None);
        for (a, b) in fig3_1.iter().zip(&fig3_n) {
            assert_eq!(a.alpha, b.alpha);
            assert_eq!(
                a.goodput_gbps.to_bits(),
                b.goodput_gbps.to_bits(),
                "figure3 goodput at {threads} threads"
            );
        }
        let (_, events_n) = stob_bench::run_figure3(&[0, 20], Nanos::from_millis(2), 1, Some(4096));
        assert_eq!(events_1, events_n, "flow-trace events at {threads} threads");
        let fleet_n = run_fleet(&fleet_cfg(), &fleet_reg);
        assert_eq!(
            fleet_snapshot(&fleet_1),
            fleet_snapshot(&fleet_n),
            "fleet report at {threads} threads"
        );
        // The §3 collection stage loads its pages in one serial loop:
        // this checks that the pool's thread count changes nothing it
        // collects. Nothing else in this file reaches `traces::loader`.
        let collected_n = stob_bench::collect_dataset(1, 7).dataset.traces;
        assert_eq!(
            collected_1.len(),
            collected_n.len(),
            "collected dataset size at {threads} threads"
        );
        for (a, b) in collected_1.iter().zip(&collected_n) {
            assert_eq!(a, b, "collected trace at {threads} threads");
        }
        let metrics_n = netsim::telemetry::metrics_json().to_string_pretty();
        assert_eq!(
            metrics_1, metrics_n,
            "metrics snapshot at {threads} threads"
        );
    }

    // Shard count is a perf-only knob: everything but the per-shard
    // residency peak (`arena_high_water`) must match the 16-shard
    // reference exactly.
    par::set_threads(1);
    for shards in [1u64, 5, 64, 2_000] {
        let cfg = FleetConfig {
            shards,
            ..fleet_cfg()
        };
        let r = run_fleet(&cfg, &fleet_reg);
        let (a, b) = (fleet_snapshot(&fleet_1), fleet_snapshot(&r));
        assert_eq!(
            (a.0, a.1, a.2, a.3, a.4, a.5, a.6, a.7, a.8, a.10),
            (b.0, b.1, b.2, b.3, b.4, b.5, b.6, b.7, b.8, b.10),
            "fleet report at {shards} shards"
        );
    }
    par::set_threads(0); // restore automatic resolution for other tests
    netsim::telemetry::reset(); // leave a clean slate for other binaries
}

/// The arena's safety contract at the integration level: recycling a
/// slot must never let a stale handle observe (alias) a later
/// allocation's contents.
#[test]
fn pool_recycling_never_aliases_live_packets() {
    use netsim::Arena;

    // Arena: take a slot, keep the dead handle, reallocate into the
    // same physical slot — the dead handle must see nothing.
    let mut arena: Arena<(u64, u32)> = Arena::new();
    let a = arena.alloc((7, 700));
    let b = arena.alloc((8, 800));
    let dead = a;
    assert_eq!(arena.take(a), Some((7, 700)));
    let c = arena.alloc((9, 900)); // LIFO free list: reuses a's slot
    assert_eq!(c.index(), dead.index(), "slot was recycled");
    assert_ne!(c.generation(), dead.generation(), "generation advanced");
    assert_eq!(arena.get(dead), None, "stale handle must not alias");
    assert_eq!(arena.take(dead), None, "stale take must not steal");
    assert_eq!(arena.get(c), Some(&(9, 900)), "live value intact");
    assert_eq!(arena.get(b), Some(&(8, 800)));
}
