//! Vantage-point evaluation for multipath defenses.
//!
//! Splitting a flow across several network paths changes *where* the
//! adversary can stand. An on-path observer of a single leg sees only
//! the packets routed onto that leg; a converged observer (the server's
//! access link, or a colluding set of leg observers) sees the merged
//! stream. This module evaluates the same attack from both vantage
//! points so the multipath benchmark can report the gap — the paper's
//! framing of defenses as a property of the stack extends naturally to
//! "which slice of the stack's output the attacker taps".
//!
//! The datasets must be *aligned*: trace `i` of every per-path dataset
//! and of the merged dataset describe the same visit, so the comparison
//! isolates the vantage point and nothing else.

use crate::eval::{evaluate, evaluate_joint, EvalConfig, EvalResult};
use crate::openworld::{evaluate_open_world, OpenWorldConfig, OpenWorldResult};
use traces::{Dataset, Trace};

/// Closed-world accuracy from each vantage point.
#[derive(Debug, Clone)]
pub struct VantageReport {
    /// The converged observer's view (all legs merged, arrival order).
    pub merged: EvalResult,
    /// One result per leg, index-aligned with the pipe order.
    pub per_path: Vec<EvalResult>,
}

/// Run the closed-world attack from the merged vantage point and from
/// each per-path vantage point with the same configuration.
///
/// The merged observer is a *collusion* of the per-path observers: it
/// holds every leg capture, so beyond the timestamp-union stream it
/// also knows which leg carried each packet. Its classifier therefore
/// gets the concatenation of the union view's features with every
/// leg's features (`evaluate_joint`). With a single leg there is
/// nothing to collude over and the merged view is evaluated plainly —
/// a pipes=1 cell stays an exact tie with its one leg.
pub fn evaluate_vantage(merged: &Dataset, per_path: &[Dataset], cfg: &EvalConfig) -> VantageReport {
    for (i, d) in per_path.iter().enumerate() {
        assert_eq!(
            d.traces.len(),
            merged.traces.len(),
            "per-path dataset {i} is not aligned with the merged dataset"
        );
    }
    let merged_result = if per_path.len() > 1 {
        let views: Vec<&Dataset> = std::iter::once(merged).chain(per_path.iter()).collect();
        // The collusion taps `views.len()` capture points; give it one
        // forest's worth of trees per tap so the concatenated feature
        // space is sampled as densely per view as a single-leg forest
        // samples its own (mtry grows only with sqrt of the feature
        // count, so a fixed-size forest would dilute every view).
        let mut merged_cfg = *cfg;
        merged_cfg.forest.n_trees = cfg.forest.n_trees * views.len();
        evaluate_joint(&views, &merged_cfg)
    } else {
        evaluate(merged, cfg)
    };
    VantageReport {
        merged: merged_result,
        per_path: per_path.iter().map(|d| evaluate(d, cfg)).collect(),
    }
}

/// Open-world TPR/FPR from each vantage point.
#[derive(Debug, Clone)]
pub struct VantageOpenWorld {
    pub merged: OpenWorldResult,
    pub per_path: Vec<OpenWorldResult>,
}

/// Open-world counterpart of [`evaluate_vantage`]: monitored and
/// background pools per vantage point, same decision rule everywhere.
pub fn evaluate_vantage_open_world(
    merged_monitored: &[Trace],
    merged_background: &[Trace],
    per_path: &[(Vec<Trace>, Vec<Trace>)],
    n_monitored: usize,
    cfg: &OpenWorldConfig,
) -> VantageOpenWorld {
    VantageOpenWorld {
        merged: evaluate_open_world(merged_monitored, n_monitored, merged_background, cfg),
        per_path: per_path
            .iter()
            .map(|(mon, bg)| evaluate_open_world(mon, n_monitored, bg, cfg))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use traces::sites::paper_sites;
    use traces::statgen::generate_corpus;

    /// Split every trace of a dataset across `n` legs round-robin, keeping
    /// timestamps — what each on-path observer captures when the splitter
    /// rotates per packet.
    fn split_dataset_round_robin(d: &Dataset, n: usize) -> Vec<Dataset> {
        assert!(n >= 1);
        (0..n)
            .map(|leg| {
                let traces = d
                    .traces
                    .iter()
                    .map(|t| {
                        let packets = t
                            .packets
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % n == leg)
                            .map(|(_, p)| *p)
                            .collect();
                        Trace::new(t.label, t.visit, packets)
                    })
                    .collect();
                Dataset::new(traces, d.class_names.clone())
            })
            .collect()
    }

    fn dataset(n_sites: usize, visits: usize) -> Dataset {
        let sites: Vec<_> = paper_sites().into_iter().take(n_sites).collect();
        let names = sites.iter().map(|s| s.name.to_string()).collect();
        Dataset::new(generate_corpus(&sites, visits, 1), names)
    }

    fn quick_cfg() -> EvalConfig {
        EvalConfig {
            forest: ForestConfig { n_trees: 30 },
            repeats: 3,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn split_preserves_packets_and_alignment() {
        let d = dataset(3, 8);
        let legs = split_dataset_round_robin(&d, 3);
        assert_eq!(legs.len(), 3);
        for (ti, t) in d.traces.iter().enumerate() {
            let total: usize = legs.iter().map(|l| l.traces[ti].packets.len()).sum();
            assert_eq!(total, t.packets.len());
            for l in &legs {
                assert_eq!(l.traces[ti].label, t.label);
                assert_eq!(l.traces[ti].visit, t.visit);
            }
        }
    }

    #[test]
    fn single_leg_split_is_identity() {
        let d = dataset(2, 6);
        let legs = split_dataset_round_robin(&d, 1);
        assert_eq!(legs.len(), 1);
        for (a, b) in legs[0].traces.iter().zip(&d.traces) {
            assert_eq!(a.packets, b.packets);
        }
    }

    #[test]
    fn merged_vantage_beats_each_leg_on_separable_sites() {
        let d = dataset(4, 16);
        let legs = split_dataset_round_robin(&d, 2);
        let report = evaluate_vantage(&d, &legs, &quick_cfg());
        assert_eq!(report.per_path.len(), 2);
        // The merged observer sees strictly more signal; on the
        // synthetic separable corpus this shows up as higher accuracy.
        for (i, leg) in report.per_path.iter().enumerate() {
            assert!(
                leg.mean <= report.merged.mean + 1e-9,
                "leg {i} accuracy {} exceeds merged {}",
                leg.mean,
                report.merged.mean
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let d = dataset(3, 10);
        let legs = split_dataset_round_robin(&d, 2);
        let a = evaluate_vantage(&d, &legs, &quick_cfg());
        let b = evaluate_vantage(&d, &legs, &quick_cfg());
        assert_eq!(a.merged.per_repeat, b.merged.per_repeat);
        for (x, y) in a.per_path.iter().zip(&b.per_path) {
            assert_eq!(x.per_repeat, y.per_repeat);
        }
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_per_path_dataset_is_rejected() {
        let d = dataset(2, 6);
        let mut short = d.clone();
        short.traces.pop();
        evaluate_vantage(&d, &[short], &quick_cfg());
    }
}
