//! In-repo machine-spec generators: the classic defenses of this crate
//! expressed as data ([`stob::machine::MachineSpec`]) instead of code.
//!
//! These are the reference payloads for the defenses-as-data control
//! plane: each generator returns a spec that can be serialized, pushed
//! through `publish_machine_json`, and hot-swapped at runtime — and the
//! FRONT generator is constructed to *replay the native `FrontDefense`'s
//! RNG draw sequence bit for bit* (same per-flow rng → identical defended
//! flow), which is what lets the defense matrix prove the machine
//! runtime faithful against `front.rs`.

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
    pub n_out: u64,
    /// Dummy packets injected toward the client.
    pub n_in: u64,
    /// Inter-dummy gap, seconds.
    pub gap_s: f64,
    /// Dummy wire size.
    pub size: u32,
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

/// FRONT as one machine: a chain of per-direction padding states, each
/// drawing its budget `U{1, n}`, its Rayleigh sigma `U(w_min, w_max)`,
/// and then `budget` absolute pad offsets — exactly the native
/// `FrontCore::on_close` draw order (Out first, then In, zero-budget
/// directions skipped), so the same per-flow rng yields the identical
/// defended flow.
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
    MachineSpec::padding_only("mFRONT", machines, (cfg.n_client + cfg.n_server) as u64)
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
/// inbound direction. The interpreter and the native `regulator.rs`
/// core run the same [`stob::machine::surge_schedule`] (zero rng
/// draws), so the same per-flow rng — which neither touches — yields
/// the identical defended flow;
/// `tests::machine_regulator_matches_native_regulator_per_flow` holds
/// the runtime to that bit-for-bit.
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
        // it never clips the native schedule (parity would break).
        stob::machine::MAX_PADDING_CAP,
    );
    spec.max_blocking = Nanos::ZERO;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimRng;
    use stob::defense::{emulate_flow, DefenseCtx, FlowPkt};
    use stob::machine::MachineDefense;

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
            let back = stob::machine::MachineSpec::from_json(
                &netsim::json::Json::parse(&text).expect("parse"),
            )
            .expect("decode");
            assert_eq!(back, spec);
        }
    }

    /// The headline parity claim: the machine FRONT replays the native
    /// `FrontDefense`'s rng draws, so the same per-flow rng produces the
    /// *identical* defended flow — timestamps, directions, sizes.
    #[test]
    fn machine_front_matches_native_front_per_flow() {
        let cfg = FrontConfig::default();
        let native = crate::front::FrontDefense::new(cfg);
        let machine = MachineDefense::new(front_machine(&cfg));
        for seed in 0..20u64 {
            let mut r1 = SimRng::new(seed);
            let mut r2 = SimRng::new(seed);
            let a = emulate_flow(&native, &flow(), &DefenseCtx::default(), &mut r1);
            let b = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut r2);
            assert_eq!(a.pkts, b.pkts, "seed {seed}");
            assert_eq!(a.dummy_pkts, b.dummy_pkts);
            assert_eq!(a.dummy_bytes, b.dummy_bytes);
        }
    }

    #[test]
    fn machine_front_skips_zero_budget_directions_like_native() {
        let cfg = FrontConfig {
            n_client: 0,
            ..FrontConfig::default()
        };
        let native = crate::front::FrontDefense::new(cfg);
        let machine = MachineDefense::new(front_machine(&cfg));
        let mut r1 = SimRng::new(11);
        let mut r2 = SimRng::new(11);
        let a = emulate_flow(&native, &flow(), &DefenseCtx::default(), &mut r1);
        let b = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut r2);
        assert_eq!(a.pkts, b.pkts);
        assert!(b
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
        let mut r = SimRng::new(12);
        let out = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut r);
        assert_eq!(out.dummy_pkts, 0);
    }

    /// RegulaTor parity: the regulate action replicates the native
    /// surge loop exactly — same emission times, sizes, dummy flags and
    /// `real_done` — across seeds and flows (neither draws rng, so this
    /// also proves the machine wrapper adds no stray draws).
    #[test]
    fn machine_regulator_matches_native_regulator_per_flow() {
        let cfg = RegulatorConfig::default();
        let native = crate::regulator::RegulatorDefense::new(cfg);
        let machine = MachineDefense::new(regulator_machine(&cfg));
        for seed in 0..20u64 {
            let mut r1 = SimRng::new(seed);
            let mut r2 = SimRng::new(seed);
            let a = emulate_flow(&native, &flow(), &DefenseCtx::default(), &mut r1);
            let b = emulate_flow(&machine, &flow(), &DefenseCtx::default(), &mut r2);
            assert_eq!(a.pkts, b.pkts, "seed {seed}");
            assert_eq!(a.dummy_pkts, b.dummy_pkts, "seed {seed}");
            assert_eq!(a.dummy_bytes, b.dummy_bytes, "seed {seed}");
            assert_eq!(a.real_done, b.real_done, "seed {seed}");
        }
        // And on a surge-heavy flow shape (bursty arrivals) that
        // exercises the schedule-restart branch.
        let bursty: Vec<FlowPkt> = (0..200)
            .map(|i| FlowPkt {
                ts: Nanos::from_micros((i / 80) * 300_000 + (i % 80) * 40),
                dir: Direction::In,
                size: 1000,
            })
            .collect();
        let mut r1 = SimRng::new(99);
        let mut r2 = SimRng::new(99);
        let a = emulate_flow(&native, &bursty, &DefenseCtx::default(), &mut r1);
        let b = emulate_flow(&machine, &bursty, &DefenseCtx::default(), &mut r2);
        assert_eq!(a.pkts, b.pkts);
        assert_eq!(a.real_done, b.real_done);
    }

    #[test]
    fn regulator_machine_validates_and_round_trips() {
        let spec = regulator_machine(&RegulatorConfig::default());
        spec.validate().expect("valid");
        let json = spec.to_json().to_string_pretty();
        let back = stob::machine::MachineSpec::from_json(
            &netsim::json::Json::parse(&json).expect("parse"),
        )
        .expect("decode");
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
