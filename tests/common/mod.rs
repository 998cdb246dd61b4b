//! Seeded generators of random valid machine specs and flows, shared by
//! the runtime sweeps (`machine_runtime.rs`) and the runtime golden
//! (`machine_golden.rs`).

use netsim::{Direction, Nanos, SimRng};
use stob::defense::FlowPkt;
use stob::machine::{
    Action, DistSpec, Machine, MachineEvent, MachineSpec, State, Target, Transition,
};

pub(crate) const SWEEP_CASES: u64 = 120;

pub(crate) fn arb_flow(rng: &mut SimRng) -> Vec<FlowPkt> {
    let n = rng.range_usize(1, 60);
    let mut pkts: Vec<FlowPkt> = (0..n)
        .map(|_| FlowPkt {
            ts: Nanos(rng.next_below(2_000_000_000)),
            dir: if rng.chance(0.5) {
                Direction::Out
            } else {
                Direction::In
            },
            size: rng.range_u64(66, 1514) as u32,
        })
        .collect();
    pkts.sort_by_key(|p| (p.ts, p.size));
    let t0 = pkts[0].ts;
    for p in &mut pkts {
        p.ts -= t0;
    }
    pkts
}

/// Distributions `MachineSpec::validate` accepts whose parameters sit at
/// the edge of what an `f64` holds: counts and times that saturate every
/// integer cast, tails that overflow to infinity, a geometric `p` whose
/// `ln(1 - p)` is zero. The runtime must clamp each draw, never panic.
fn extreme_dist(rng: &mut SimRng) -> DistSpec {
    match rng.range_usize(0, 7) {
        0 => DistSpec::Fixed { v: 1e300 },
        1 => DistSpec::Uniform { lo: 0.0, hi: 1e30 },
        2 => DistSpec::Uniform {
            lo: 1e30,
            hi: f64::MAX,
        },
        3 => DistSpec::Normal {
            mean: 1e300,
            std: 1e300,
        },
        4 => DistSpec::LogNormal {
            mu: 700.0,
            sigma: 50.0,
        },
        5 => DistSpec::Pareto {
            scale: 1e300,
            shape: 1e-3,
        },
        6 => DistSpec::Geometric { p: 1e-300 },
        _ => DistSpec::Rayleigh {
            w_min: 0.0,
            w_max: 1e300,
        },
    }
}

/// A random valid distribution: mostly bounded ones whose draws stay
/// small (timings under ~1 s) so sweeps terminate quickly, and one in
/// eight from [`extreme_dist`].
fn arb_dist(rng: &mut SimRng) -> DistSpec {
    match rng.range_usize(0, 7) {
        0 => DistSpec::Fixed {
            v: rng.range_f64(0.0, 0.05),
        },
        1 => {
            let lo = rng.range_f64(0.0, 0.02);
            DistSpec::Uniform {
                lo,
                hi: lo + rng.range_f64(0.0, 0.05),
            }
        }
        2 => DistSpec::Normal {
            mean: rng.range_f64(0.0, 0.02),
            std: rng.range_f64(0.0, 0.01),
        },
        3 => DistSpec::LogNormal {
            mu: rng.range_f64(-9.0, -3.0),
            sigma: rng.range_f64(0.0, 1.0),
        },
        4 => DistSpec::Pareto {
            scale: rng.range_f64(0.0001, 0.01),
            shape: rng.range_f64(1.0, 4.0),
        },
        5 => DistSpec::Geometric {
            p: rng.range_f64(0.05, 1.0),
        },
        6 => {
            let w_min = rng.range_f64(0.0, 0.5);
            DistSpec::Rayleigh {
                w_min,
                w_max: w_min + rng.range_f64(0.0, 1.0),
            }
        }
        _ => extreme_dist(rng),
    }
}

/// A random valid padding-only machine spec. Every state's action is
/// limited — mostly by a small uniform count, one time in five by an
/// [`arb_dist`] draw — so schedules are bounded by the global caps even
/// when the limit saturates.
pub(crate) fn arb_spec(i: u64, rng: &mut SimRng) -> MachineSpec {
    let n_machines = rng.range_usize(1, 3);
    let machines = (0..n_machines)
        .map(|_| {
            let n_states = rng.range_usize(1, 4);
            let states = (0..n_states)
                .map(|_| {
                    let action = match rng.range_usize(0, 3) {
                        0 => Action::Nop,
                        1 => Action::Pad {
                            dir: if rng.chance(0.5) {
                                Direction::Out
                            } else {
                                Direction::In
                            },
                            size: arb_dist(rng),
                            timing: arb_dist(rng),
                            absolute: rng.chance(0.3),
                        },
                        2 => Action::Timer {
                            timing: arb_dist(rng),
                        },
                        _ => Action::Block {
                            timing: arb_dist(rng),
                            duration: arb_dist(rng),
                        },
                    };
                    let chosen: Vec<MachineEvent> = MachineEvent::ALL
                        .into_iter()
                        .filter(|_| rng.chance(0.5))
                        .collect();
                    let transitions = chosen
                        .into_iter()
                        .map(|ev| {
                            let t = if rng.chance(0.25) {
                                Target::End
                            } else {
                                Target::State(rng.range_usize(0, n_states - 1) as u32)
                            };
                            // A certain row two times in five: the
                            // self-looping states the runtime runs in place.
                            let p = if rng.chance(0.4) {
                                1.0
                            } else {
                                rng.range_f64(0.0, 1.0)
                            };
                            Transition {
                                on: ev,
                                to: vec![(t, p)],
                            }
                        })
                        .collect();
                    let limit = if rng.chance(0.2) {
                        arb_dist(rng)
                    } else {
                        DistSpec::Uniform {
                            lo: 0.0,
                            hi: rng.range_u64(1, 20) as f64,
                        }
                    };
                    State {
                        action,
                        limit: Some(limit),
                        transitions,
                    }
                })
                .collect();
            Machine { states }
        })
        .collect();
    let mut spec =
        MachineSpec::padding_only(&format!("sweep-{i}"), machines, rng.range_u64(0, 300));
    spec.max_blocking = Nanos(rng.range_u64(0, 200_000_000));
    spec
}
