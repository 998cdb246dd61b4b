//! Bulk-flow trace generation for traffic-analysis tasks beyond WF.
//!
//! §5.2: "CCA identification of the flow is a popular network
//! measurement task ... the state-of-the-art method, CCAnalyzer,
//! passively identifies the CCA ... Some users may wish to prevent
//! their CCA from being identified, because it potentially reveals
//! other information, such as the OS kernel and application identity."
//!
//! This module produces the raw material for that study: captures of a
//! single bulk upload under a chosen congestion controller, over a
//! randomly drawn path, optionally shaped by a Stob policy.

use crate::model::Trace;
use netsim::{Nanos, SimRng};
use stack::apps::{BulkSender, ShapedSender, Sink};
use stack::config::CcKind;
use stack::net::{Network, CLIENT};
use stack::{HostConfig, PathConfig, StackConfig};
use stob::defense::StackParams;
use stob::policy::ObfuscationPolicy;

/// Parameters of one bulk-flow sample.
#[derive(Debug, Clone)]
pub(crate) struct FlowScenario {
    pub(crate) cc: CcKind,
    /// Bytes the sender pushes.
    pub(crate) bytes: u64,
    pub(crate) bottleneck_mbps: u64,
    pub(crate) rtt_ms: u64,
    pub(crate) loss: f64,
    /// Optional sender-side Stob policy (the §5.2 counter-measure).
    pub(crate) policy: Option<ObfuscationPolicy>,
}

impl FlowScenario {
    /// Draw a random path for `cc` — diverse enough that the classifier
    /// must key on CCA dynamics, not on one fixed path.
    pub(crate) fn sample(cc: CcKind, rng: &mut SimRng) -> FlowScenario {
        FlowScenario {
            cc,
            bytes: rng.range_u64(2_000_000, 6_000_000),
            bottleneck_mbps: *[20u64, 50, 100]
                .get(rng.range_usize(0, 2))
                .expect("index in range"),
            rtt_ms: rng.range_u64(10, 60),
            loss: rng.range_f64(0.001, 0.01),
            policy: None,
        }
    }
}

/// Run one scenario and capture the sender-side wire view.
pub(crate) fn run_flow(sc: &FlowScenario, label: usize, visit: usize, seed: u64) -> Trace {
    let mut stack_cfg = StackConfig {
        cc: sc.cc,
        ..StackConfig::default()
    };
    // BBR needs pacing; window CCAs run it too (Linux default with fq).
    stack_cfg.pacing = true;
    // Flow 1's salt, as an attached connection would carry.
    let shaper = sc
        .policy
        .clone()
        .map(|p| StackParams::for_flow(seed, 1).shaper(p));
    let host = HostConfig {
        nic_rate_bps: 10_000_000_000,
        ..HostConfig::default()
    };
    let path = PathConfig {
        bottleneck_bps: sc.bottleneck_mbps * 1_000_000,
        one_way_delay: Nanos::from_micros(sc.rtt_ms * 500),
        queue_bytes: (sc.bottleneck_mbps * 1_000_000 / 8) / 2, // 500 ms buffer
        loss: sc.loss,
    };
    let mut net = Network::new(
        host.clone(),
        host,
        path,
        Box::new(ShapedSender::new(
            BulkSender::new(sc.bytes),
            stack_cfg,
            shaper,
        )),
        Box::new(Sink::default()),
        seed,
    );
    net.record_capture(CLIENT);
    // Bound runtime: a flow that cannot finish in 120 s is truncated
    // (its prefix is still classifiable).
    net.run_until(Nanos::from_secs(120));
    Trace::from_capture(&net.client_capture, label, visit)
}

/// Generate a labelled corpus of `per_class` flows for each CCA.
pub fn cc_corpus(per_class: usize, seed: u64, policy: Option<ObfuscationPolicy>) -> Vec<Trace> {
    let kinds = [CcKind::Reno, CcKind::Cubic, CcKind::Bbr];
    let mut out = Vec::with_capacity(kinds.len() * per_class);
    for (label, &cc) in kinds.iter().enumerate() {
        for v in 0..per_class {
            let mut rng = SimRng::new(seed).fork(label as u64).fork(v as u64 + 1);
            let mut sc = FlowScenario::sample(cc, &mut rng);
            sc.policy = policy.clone();
            out.push(run_flow(
                &sc,
                label,
                v,
                seed ^ (label as u64) << 32 ^ v as u64,
            ));
        }
    }
    out
}

/// Class names matching [`cc_corpus`]'s labels.
pub fn cc_class_names() -> Vec<String> {
    vec!["reno".into(), "cubic".into(), "bbr".into()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Direction;

    #[test]
    fn flow_completes_and_captures_sender_view() {
        let sc = FlowScenario {
            cc: CcKind::Cubic,
            bytes: 2_000_000,
            bottleneck_mbps: 50,
            rtt_ms: 20,
            loss: 0.002,
            policy: None,
        };
        let t = run_flow(&sc, 1, 0, 42);
        assert!(t.is_well_formed());
        // Upload: outgoing data dominates.
        assert!(t.bytes(Direction::Out) > 2_000_000);
        assert!(t.len() > 1000);
    }

    #[test]
    fn scenarios_vary_with_rng() {
        let mut rng = SimRng::new(1);
        let a = FlowScenario::sample(CcKind::Reno, &mut rng);
        let b = FlowScenario::sample(CcKind::Reno, &mut rng);
        assert!(a.bytes != b.bytes || a.rtt_ms != b.rtt_ms || a.loss != b.loss);
    }

    #[test]
    fn corpus_is_balanced_and_labelled() {
        let corpus = cc_corpus(2, 7, None);
        assert_eq!(corpus.len(), 6);
        for label in 0..3 {
            assert_eq!(corpus.iter().filter(|t| t.label == label).count(), 2);
        }
    }

    #[test]
    fn policy_shapes_the_flow() {
        let sc_plain = FlowScenario {
            cc: CcKind::Cubic,
            bytes: 1_500_000,
            bottleneck_mbps: 50,
            rtt_ms: 20,
            loss: 0.0,
            policy: None,
        };
        let mut sc_shaped = sc_plain.clone();
        sc_shaped.policy = Some(ObfuscationPolicy::split_and_delay("cc-hide"));
        let plain = run_flow(&sc_plain, 0, 0, 9);
        let shaped = run_flow(&sc_shaped, 0, 0, 9);
        let big = |t: &Trace| {
            t.packets
                .iter()
                .filter(|p| p.dir == Direction::Out && p.size > 1300)
                .count()
        };
        assert!(big(&shaped) < big(&plain) / 2, "policy must split packets");
    }
}
