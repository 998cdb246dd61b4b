//! In-repo machine-spec generators: the classic defenses of this crate
//! expressed as data ([`stob::machine::MachineSpec`]) instead of code.
//!
//! These are the reference payloads for the defenses-as-data control
//! plane: each generator returns a spec that can be serialized, pushed
//! through `stob::sockopt::publish_json`, and hot-swapped at runtime.
//! FRONT and RegulaTor exist only here: [`crate::front::FrontDefense`]
//! and [`crate::regulator::RegulatorDefense`] run the machines
//! [`front_machine`] and [`regulator_machine`] generate.

use netsim::{Direction, Nanos};
use stob::machine::{
    Action, DistSpec, Machine, MachineEvent, MachineSpec, State, Target, Transition,
};

use crate::front::FrontConfig;
use crate::regulator::RegulatorConfig;

/// Configuration for [`constant_machine`]: fixed-rate dummy streams in
/// each direction, the BuFLO-family shape reduced to its padding half
/// (constant-size, constant-gap cover traffic; real packets untouched).
#[derive(Debug, Clone, Copy)]
pub struct ConstantConfig {
    /// Dummy packets injected toward the server.
    pub(crate) n_out: u64,
    /// Dummy packets injected toward the client.
    pub(crate) n_in: u64,
    /// Inter-dummy gap, seconds.
    pub(crate) gap_s: f64,
    /// Dummy wire size.
    pub(crate) size: u32,
}

impl Default for ConstantConfig {
    fn default() -> Self {
        ConstantConfig {
            n_out: 50,
            n_in: 150,
            gap_s: 0.01,
            size: 1514,
        }
    }
}

/// Configuration for [`scrambler_machine`]: reactive burst padding. Each
/// inbound real packet tosses a coin; on success the machine bursts a
/// random number of variably sized dummies with log-normal gaps, then
/// returns to idle — a decoy-burst scheme in the WTF-PAD spirit, but
/// expressed entirely as a transition matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScramblerConfig {
    /// Probability an inbound packet triggers a burst.
    pub react_p: f64,
    /// Burst length window (inclusive).
    pub burst_min: u64,
    /// Upper end of the burst length window.
    pub burst_max: u64,
    /// Log-normal gap parameters (seconds): `exp(N(mu, sigma))`.
    pub gap_mu: f64,
    /// Sigma of the gap's underlying normal.
    pub gap_sigma: f64,
    /// Dummy size window (bytes, uniform).
    pub size_min: f64,
    /// Upper end of the dummy size window.
    pub size_max: f64,
    /// Global cap on dummies per flow.
    pub max_padding_pkts: u64,
}

impl Default for ScramblerConfig {
    fn default() -> Self {
        ScramblerConfig {
            react_p: 0.30,
            burst_min: 2,
            burst_max: 8,
            gap_mu: -7.0, // ~0.9 ms median gap
            gap_sigma: 0.6,
            size_min: 600.0,
            size_max: 1514.0,
            max_padding_pkts: 2_000,
        }
    }
}

fn certain(on: MachineEvent, to: Target) -> Transition {
    Transition {
        on,
        to: vec![(to, 1.0)],
    }
}

/// FRONT as one machine: a chain of per-direction padding states (Out
/// first, then In; a zero-budget direction has no state), each drawing
/// its budget `U{1, n}`, its Rayleigh sigma `U(w_min, w_max)`, and then
/// `budget` absolute pad offsets. The spec has no packet row, so the
/// runtime starts it at close and the whole schedule is drawn there.
pub fn front_machine(cfg: &FrontConfig) -> MachineSpec {
    let dirs: Vec<(Direction, usize)> = [
        (Direction::Out, cfg.n_client),
        (Direction::In, cfg.n_server),
    ]
    .into_iter()
    .filter(|(_, n)| *n > 0)
    .collect();
    let last = dirs.len();
    let states: Vec<State> = dirs
        .iter()
        .enumerate()
        .map(|(i, (dir, n))| {
            let next = if i + 1 == last {
                Target::End
            } else {
                Target::State(i as u32 + 1)
            };
            State {
                action: Action::Pad {
                    dir: *dir,
                    size: DistSpec::Fixed {
                        v: f64::from(cfg.dummy_size),
                    },
                    timing: DistSpec::Rayleigh {
                        w_min: cfg.w_min,
                        w_max: cfg.w_max,
                    },
                    absolute: true,
                },
                limit: Some(DistSpec::Uniform {
                    lo: 1.0,
                    hi: *n as f64,
                }),
                transitions: vec![
                    certain(MachineEvent::PaddingSent, Target::State(i as u32)),
                    certain(MachineEvent::LimitReached, next),
                ],
            }
        })
        .collect();
    let machines = if states.is_empty() {
        vec![]
    } else {
        vec![Machine { states }]
    };
    let cap = cfg.n_client.saturating_add(cfg.n_server) as u64;
    MachineSpec::padding_only("mFRONT", machines, cap)
}

/// Constant-rate padding as two single-state machines (one per
/// direction): Fixed gap, Fixed size, Fixed budget; `PaddingSent` loops
/// the state, `LimitReached` ends the machine.
pub fn constant_machine(cfg: &ConstantConfig) -> MachineSpec {
    let lane = |dir: Direction, n: u64| Machine {
        states: vec![State {
            action: Action::Pad {
                dir,
                size: DistSpec::Fixed {
                    v: f64::from(cfg.size),
                },
                timing: DistSpec::Fixed { v: cfg.gap_s },
                absolute: false,
            },
            limit: Some(DistSpec::Fixed { v: n as f64 }),
            transitions: vec![
                certain(MachineEvent::PaddingSent, Target::State(0)),
                certain(MachineEvent::LimitReached, Target::End),
            ],
        }],
    };
    let machines = [(Direction::Out, cfg.n_out), (Direction::In, cfg.n_in)]
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(d, n)| lane(d, n))
        .collect();
    MachineSpec::padding_only("mConstant", machines, cfg.n_out + cfg.n_in)
}

/// Reactive burst padding as a two-state machine: an idle state whose
/// `PacketReceived` row fires a burst with probability `react_p`
/// (remaining mass = stay idle), and a burst state injecting
/// uniform-sized dummies at log-normal gaps until its uniform burst
/// budget runs out.
pub fn scrambler_machine(cfg: &ScramblerConfig) -> MachineSpec {
    let idle = State {
        action: Action::Nop,
        limit: None,
        transitions: vec![Transition {
            on: MachineEvent::PacketReceived,
            to: vec![(Target::State(1), cfg.react_p)],
        }],
    };
    let burst = State {
        action: Action::Pad {
            dir: Direction::In,
            size: DistSpec::Uniform {
                lo: cfg.size_min,
                hi: cfg.size_max,
            },
            timing: DistSpec::LogNormal {
                mu: cfg.gap_mu,
                sigma: cfg.gap_sigma,
            },
            absolute: false,
        },
        limit: Some(DistSpec::Uniform {
            lo: cfg.burst_min as f64,
            hi: cfg.burst_max as f64,
        }),
        transitions: vec![
            certain(MachineEvent::PaddingSent, Target::State(1)),
            certain(MachineEvent::LimitReached, Target::State(0)),
        ],
    };
    let mut spec = MachineSpec::padding_only(
        "mScrambler",
        vec![Machine {
            states: vec![idle, burst],
        }],
        cfg.max_padding_pkts,
    );
    spec.max_blocking = Nanos::ZERO;
    spec
}

/// RegulaTor-lite as one machine: a single `Regulate` state owning the
/// inbound direction, which runs the runtime's surge schedule over the
/// buffered arrivals at close (zero rng draws).
pub fn regulator_machine(cfg: &RegulatorConfig) -> MachineSpec {
    let mut spec = MachineSpec::padding_only(
        "mRegulaTor",
        vec![Machine {
            states: vec![State {
                action: Action::Regulate {
                    dir: Direction::In,
                    size: cfg.packet_size,
                    rate: cfg.rate,
                    decay: cfg.decay,
                    surge_threshold: cfg.surge_threshold as u64,
                    budget_frac: cfg.padding_budget,
                },
                limit: None,
                transitions: Vec::new(),
            }],
        }],
        // The machine cap must stay above any plausible dummy budget so
        // it never clips the schedule's own `budget_frac` budget.
        stob::machine::MAX_PADDING_CAP,
    );
    spec.max_blocking = Nanos::ZERO;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::json::{Json, Wire};
    use netsim::SimRng;
    use stob::defense::{
        emulate_flow, enforce_flow, Defense, DefenseCtx, FlowPkt, Placement, StackParams,
    };
    use stob::machine::MachineDefense;
    use traces::sites::paper_sites;
    use traces::statgen::generate;

    fn flow() -> Vec<FlowPkt> {
        (0..40)
            .map(|i| FlowPkt {
                ts: Nanos::from_micros(i * 700),
                dir: if i % 3 == 0 {
                    Direction::Out
                } else {
                    Direction::In
                },
                size: 300 + (i as u32 % 5) * 200,
            })
            .collect()
    }

    #[test]
    fn generated_specs_validate_and_round_trip() {
        for spec in [
            front_machine(&FrontConfig::default()),
            constant_machine(&ConstantConfig::default()),
            scrambler_machine(&ScramblerConfig::default()),
            regulator_machine(&RegulatorConfig::default()),
        ] {
            spec.validate().expect("generator output must validate");
            let text = spec.to_json().to_string_compact();
            let back = MachineSpec::from_json(&Json::parse(&text).expect("parse")).expect("decode");
            assert_eq!(back, spec);
        }
    }

    /// Bursty inbound arrivals: 80-packet surges 300 ms apart, which
    /// restart RegulaTor's surge schedule.
    fn bursty() -> Vec<FlowPkt> {
        (0..200)
            .map(|i| FlowPkt {
                ts: Nanos::from_micros((i / 80) * 300_000 + (i % 80) * 40),
                dir: Direction::In,
                size: 1000,
            })
            .collect()
    }

    /// The pinning corpus: two `statgen` visits of every paper site, the
    /// bursty flow, an outbound-only flow and an empty flow (the last two
    /// reach each constant-rate grid's no-real-data branch).
    fn corpus() -> Vec<Vec<FlowPkt>> {
        let sites = paper_sites();
        let mut flows: Vec<Vec<FlowPkt>> = (0..2 * sites.len())
            .map(|i| {
                let (site, visit) = (i % sites.len(), i / sites.len());
                generate(&sites[site], site, visit, 41).packets
            })
            .collect();
        flows.push(bursty());
        flows.push(
            flow()
                .into_iter()
                .filter(|p| p.dir == Direction::Out)
                .collect(),
        );
        flows.push(Vec::new());
        flows
    }

    /// `defense` over [`corpus`] at both placements, flow `i` on
    /// `SimRng::new(i)`, folded into one FNV-1a digest of every defended
    /// flow's packets, dummy count, dummy bytes and `real_done`.
    fn schedule_digest(defense: &dyn Defense) -> u64 {
        let ctx = DefenseCtx::default();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for (i, flow) in corpus().iter().enumerate() {
            for placement in Placement::ALL {
                let mut rng = SimRng::new(i as u64);
                let out = match placement {
                    Placement::App => emulate_flow(defense, flow, &ctx, &mut rng),
                    Placement::Stack => {
                        let params = StackParams::with_seed(i as u64);
                        enforce_flow(defense, flow, &ctx, &mut rng, &params)
                    }
                };
                for p in &out.pkts {
                    fold(p.ts.0);
                    fold(u64::from(p.size));
                    fold(p.dir as u64);
                }
                fold(out.dummy_pkts as u64);
                fold(out.dummy_bytes);
                fold(out.real_done.0);
            }
        }
        h
    }

    /// Hold each `(name, defense, digest)` case to its [`schedule_digest`].
    /// Every digest was read before FRONT and RegulaTor ran as machines
    /// and BuFLO and Tamaraw shared one grid, so it stands for the native
    /// core that is gone; re-read one only at the parent of a change.
    fn assert_pinned(cases: &[(&str, &dyn Defense, u64)]) {
        let got: Vec<String> = cases
            .iter()
            .map(|(name, d, _)| format!("{name}: {:#018x}", schedule_digest(*d)))
            .collect();
        let want: Vec<String> = cases
            .iter()
            .map(|(name, _, h)| format!("{name}: {h:#018x}"))
            .collect();
        assert_eq!(got, want);
    }

    /// The machine FRONT replays the native FRONT's rng draws, so the same
    /// per-flow rng gives the identical defended flow: the shipped
    /// `FrontDefense` and the bare `front_machine` both hit the native
    /// digests, at the default budgets and the fleet's 4/10.
    #[test]
    fn machine_front_matches_native_front_per_flow() {
        use crate::front::FrontDefense;

        let fleet = FrontConfig {
            n_client: 4,
            n_server: 10,
            w_min: 0.5,
            w_max: 2.0,
            dummy_size: 1514,
        };
        let default = FrontConfig::default();
        assert_pinned(&[
            ("FRONT", &FrontDefense::new(default), 0x907b_ff7c_7372_3559),
            (
                "front_machine",
                &MachineDefense::new(front_machine(&default)),
                0x907b_ff7c_7372_3559,
            ),
            (
                "FRONT 4/10",
                &FrontDefense::new(fleet),
                0x0be9_45be_84d2_9471,
            ),
            (
                "front_machine 4/10",
                &MachineDefense::new(front_machine(&fleet)),
                0x0be9_45be_84d2_9471,
            ),
        ]);
    }

    #[test]
    fn machine_front_skips_zero_budget_directions_like_native() {
        let no_client = FrontConfig {
            n_client: 0,
            ..FrontConfig::default()
        };
        let machine = MachineDefense::new(front_machine(&no_client));
        assert_pinned(&[("FRONT n_client 0", &machine, 0x2017_eb36_6dd6_c78b)]);
        let mut rng = SimRng::new(11);
        let out = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut rng);
        assert!(out.dummy_pkts > 0);
        assert!(out
            .pkts
            .iter()
            .filter(|p| p.size == 1514)
            .all(|p| p.dir == Direction::In));

        let none = FrontConfig {
            n_client: 0,
            n_server: 0,
            ..FrontConfig::default()
        };
        let machine = MachineDefense::new(front_machine(&none));
        let mut rng = SimRng::new(12);
        let out = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut rng);
        assert_eq!(out.dummy_pkts, 0);
    }

    /// The regulate action replays the native surge loop: the shipped
    /// `RegulatorDefense` and the bare `regulator_machine` both hit the
    /// native digest, whose corpus includes the bursty flow that restarts
    /// the schedule (neither draws rng, so this also shows the machine
    /// wrapper adds no stray draws).
    #[test]
    fn machine_regulator_matches_native_regulator_per_flow() {
        use crate::regulator::RegulatorDefense;

        let cfg = RegulatorConfig::default();
        assert_pinned(&[
            (
                "RegulaTor",
                &RegulatorDefense::new(cfg),
                0xe4cc_4e41_35c9_4b3d,
            ),
            (
                "regulator_machine",
                &MachineDefense::new(regulator_machine(&cfg)),
                0xe4cc_4e41_35c9_4b3d,
            ),
        ]);
    }

    /// BuFLO and Tamaraw, two configs of one grid core, each hit the
    /// digest of its former separate implementation.
    #[test]
    fn padding_schedules_are_pinned() {
        use crate::buflo::{BufloConfig, BufloDefense, TamarawConfig, TamarawDefense};

        assert_pinned(&[
            (
                "BuFLO",
                &BufloDefense::new(BufloConfig::default()),
                0x4537_59de_d0f6_b645,
            ),
            (
                "Tamaraw",
                &TamarawDefense::new(TamarawConfig::default()),
                0xb923_8f46_106f_8901,
            ),
        ]);
    }

    #[test]
    fn regulator_machine_validates_and_round_trips() {
        let spec = regulator_machine(&RegulatorConfig::default());
        spec.validate().expect("valid");
        let json = spec.to_json().to_string_pretty();
        let back = MachineSpec::from_json(&Json::parse(&json).expect("parse")).expect("decode");
        assert_eq!(back, spec);
    }

    #[test]
    fn constant_machine_emits_both_lanes_at_fixed_gaps() {
        // Dummy size distinct from every real size in [`flow`].
        let cfg = ConstantConfig {
            n_out: 3,
            n_in: 5,
            gap_s: 0.002,
            size: 444,
        };
        let d = MachineDefense::new(constant_machine(&cfg));
        let mut rng = SimRng::new(5);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        assert_eq!(out.dummy_pkts, 8);
        let outbound = out
            .pkts
            .iter()
            .filter(|p| p.size == 444 && p.dir == Direction::Out)
            .count();
        assert_eq!(outbound, 3);
    }

    #[test]
    fn scrambler_bursts_stay_within_their_budget_window() {
        let cfg = ScramblerConfig::default();
        let d = MachineDefense::new(scrambler_machine(&cfg));
        let mut rng = SimRng::new(9);
        let out = emulate_flow(&d, &flow(), &DefenseCtx::default(), &mut rng);
        assert!(out.dummy_pkts > 0, "40-packet flow should trigger bursts");
        assert!((out.dummy_pkts as u64) <= cfg.max_padding_pkts);
        for p in out.pkts.iter().filter(|p| p.size >= 600) {
            assert!(p.size <= 1514);
        }
    }
}
