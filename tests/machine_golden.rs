//! The machine runtime against `tests/golden/machine_runs.json`.
//!
//! Every seeded sweep spec (`common::arb_spec`: multi-machine specs,
//! `Timer` and `Block` actions, probabilistic rows, saturating limits,
//! both global caps), a few directed specs for the self-looping pad
//! states the runtime runs in place, and the four in-repo generators over
//! a `statgen` corpus slice run at both placements; each run's output packets (as an
//! FNV-1a digest), `dummy_pkts`, `real_done` and the totals of every
//! `defense.machine.*` counter it moved must equal the committed line.
//! The golden was written by the runtime that interpreted each spec by
//! walking its `Vec<Transition>` rows, before the runtime compiled specs,
//! so it is what licenses a rewrite of the interpreter: regenerate it
//! only from a build that predates the change under test. On a mismatch
//! the test writes the document it computed to `machine_runs.json` under
//! Cargo's per-target scratch directory for diffing.
//!
//! This file holds one test, so no other test in its binary moves the
//! process-wide counters while it reads them.

use defenses::front::FrontConfig;
use defenses::machines::{
    constant_machine, front_machine, regulator_machine, scrambler_machine, ConstantConfig,
    ScramblerConfig,
};
use defenses::regulator::RegulatorConfig;
use netsim::json::Json;
use netsim::telemetry::counter;
use netsim::{Direction, Nanos, SimRng};
use stob::defense::{
    emulate_flow, enforce_flow, DefendedFlow, DefenseCtx, FlowPkt, Placement, StackParams,
};
use stob::machine::{
    Action, DistSpec, Machine, MachineDefense, MachineEvent, MachineSpec, State, Target, Transition,
};
use traces::sites::paper_sites;
use traces::statgen::generate;

mod common;
use common::{arb_flow, arb_spec, SWEEP_CASES};

/// Every counter the runtime writes.
const COUNTERS: [&str; 10] = [
    "defense.machine.flows",
    "defense.machine.transitions",
    "defense.machine.pad_pkts",
    "defense.machine.pad_bytes",
    "defense.machine.pads",
    "defense.machine.limit_hits",
    "defense.machine.blocking_windows",
    "defense.machine.blocking_ns",
    "defense.machine.capped",
    "defense.machine.degraded",
];

fn digest(pkts: &[FlowPkt]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in pkts {
        for x in [p.ts.as_nanos(), p.dir.sign() as u64, u64::from(p.size)] {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden line: `spec` run over `input` at `placement` from a
/// fresh `SimRng::new(seed)`.
fn run(spec: &MachineSpec, input: &[FlowPkt], placement: Placement, seed: u64) -> String {
    let d = MachineDefense::new(spec.clone());
    let before: Vec<u64> = COUNTERS.iter().map(|c| counter(c).get()).collect();
    let ctx = DefenseCtx::default();
    let mut rng = SimRng::new(seed);
    let out: DefendedFlow = match placement {
        Placement::App => emulate_flow(&d, input, &ctx, &mut rng),
        Placement::Stack => enforce_flow(&d, input, &ctx, &mut rng, &StackParams::with_seed(seed)),
    };
    let counters = COUNTERS
        .iter()
        .zip(before)
        .fold(Json::obj(), |o, (c, b)| o.set(c, counter(c).get() - b));
    Json::obj()
        .set("spec", spec.name.as_str())
        .set("placement", placement.name())
        .set("seed", seed)
        .set("digest", format!("{:#018x}", digest(&out.pkts)))
        .set("pkts", out.pkts.len())
        .set("dummy_pkts", out.dummy_pkts)
        .set("real_done_ns", out.real_done.as_nanos())
        .set("counters", counters)
        .to_string_compact()
}

/// A pad state looping on itself with certainty, like every generator's.
fn looping_pad(index: u32, dir: Direction, size: DistSpec, limit: Option<DistSpec>) -> State {
    State {
        action: Action::Pad {
            dir,
            size,
            timing: DistSpec::Rayleigh {
                w_min: 0.01,
                w_max: 0.5,
            },
            absolute: true,
        },
        limit,
        transitions: vec![
            Transition {
                on: MachineEvent::PaddingSent,
                to: vec![(Target::State(index), 1.0)],
            },
            Transition {
                on: MachineEvent::LimitReached,
                to: vec![(Target::State(index + 1), 1.0)],
            },
        ],
    }
}

/// Specs whose absolute pad loops end every way one can: the padding
/// cap mid-loop, an exhausted limit handing over to the next state, two
/// looping machines taking turns, a blocking machine beside them, and
/// fixed sizes that round and clamp.
fn directed() -> Vec<MachineSpec> {
    let uniform = |lo: f64, hi: f64| Some(DistSpec::Uniform { lo, hi });
    let chain = |sizes: [f64; 2]| Machine {
        states: vec![
            looping_pad(
                0,
                Direction::Out,
                DistSpec::Fixed { v: sizes[0] },
                uniform(1.0, 40.0),
            ),
            looping_pad(
                1,
                Direction::In,
                DistSpec::Fixed { v: sizes[1] },
                uniform(1.0, 90.0),
            ),
            State {
                action: Action::Nop,
                limit: None,
                transitions: vec![],
            },
        ],
    };
    let mut runaway = chain([700.0, 1514.0]);
    runaway.states[1].limit = None;
    let blocker = Machine {
        states: vec![State {
            action: Action::Block {
                timing: DistSpec::Fixed { v: 0.0 },
                duration: DistSpec::Fixed { v: 0.2 },
            },
            limit: Some(DistSpec::Fixed { v: 2.0 }),
            transitions: vec![Transition {
                on: MachineEvent::BlockingEnd,
                to: vec![(Target::State(0), 1.0)],
            }],
        }],
    };
    let drawn = Machine {
        states: vec![
            looping_pad(
                0,
                Direction::In,
                DistSpec::Uniform {
                    lo: 200.0,
                    hi: 1514.0,
                },
                uniform(0.0, 30.0),
            ),
            State {
                action: Action::Nop,
                limit: None,
                transitions: vec![],
            },
        ],
    };
    let mut specs = vec![
        MachineSpec::padding_only("capped-mid-loop", vec![runaway], 25),
        MachineSpec::padding_only("rounded-sizes", vec![chain([700.6, 1e4])], 500),
        MachineSpec::padding_only("two-loops", vec![chain([300.0, 900.0]), drawn.clone()], 500),
        MachineSpec::padding_only(
            "loops-and-blocking",
            vec![blocker, chain([64.0, 65.0]), drawn],
            90,
        ),
    ];
    specs[3].max_blocking = Nanos::from_millis(300);
    specs
}

fn document() -> String {
    let mut lines = Vec::new();
    for case in 0..SWEEP_CASES {
        let mut rng = SimRng::new(0x5AFE).fork(case + 1);
        let spec = arb_spec(case, &mut rng);
        let input = arb_flow(&mut rng);
        for placement in Placement::ALL {
            lines.push(run(&spec, &input, placement, case ^ 7));
        }
    }
    let mut rng = SimRng::new(0xD1EC7);
    for spec in directed() {
        let input = arb_flow(&mut rng);
        for placement in Placement::ALL {
            for seed in 1..4 {
                lines.push(run(&spec, &input, placement, seed));
            }
        }
    }
    let generators = [
        front_machine(&FrontConfig::default()),
        constant_machine(&ConstantConfig::default()),
        scrambler_machine(&ScramblerConfig::default()),
        regulator_machine(&RegulatorConfig::default()),
    ];
    let sites = paper_sites();
    for spec in &generators {
        for visit in 0..4 {
            let site = visit * 2 % sites.len();
            let trace = generate(&sites[site], site, visit, 30);
            for placement in Placement::ALL {
                lines.push(run(spec, &trace.packets, placement, visit as u64 + 1));
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn machine_runs_match_the_committed_golden() {
    let want = include_str!("golden/machine_runs.json");
    let got = document();
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("machine_runs.json");
        std::fs::write(&path, &got).expect("write the computed document");
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "machine runs differ from the golden at line {} (computed document in {}):\n  got  {}\n  want {}",
            first + 1,
            path.display(),
            got.lines().nth(first).unwrap_or("<end>"),
            want.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
