//! Deterministic fault injection for the simulated path.
//!
//! The paper's safety rule (§4.2) — obfuscation must never be more
//! aggressive than the congestion controller decided — is only meaningful
//! if it holds under adverse network conditions, not just on the clean
//! 100 Gb/s lab path. This module supplies the adverse conditions as
//! *data*: a [`FaultSchedule`] lists fault items (burst loss, reordering,
//! duplication, link flaps, RTT spikes, mid-flow MTU reduction), and a
//! [`FaultInjector`] executes them against a running simulation.
//!
//! Determinism contract: every item owns its own [`SimRng`] forked from
//! the schedule seed and the item's stable index — the same index scheme
//! [`crate::par`] uses for work items — so two runs of the same schedule
//! consume independent, reproducible streams no matter how many other
//! items exist or in what order a sweep visits scenarios. Simulations are
//! single-threaded shards, so the injector itself needs no locking; the
//! fork scheme is what keeps a *sweep* of faulted simulations
//! bit-identical at any thread count.
//!
//! ```
//! use netsim::{FaultSchedule, Nanos};
//! // Every named scenario resolves to a concrete, seeded schedule.
//! assert!(FaultSchedule::scenario("ge-burst", 1, Nanos::from_secs(3)).is_some());
//! assert!(FaultSchedule::scenario("no-such-fault", 1, Nanos::from_secs(3)).is_none());
//! ```

use crate::rng::SimRng;
use crate::time::Nanos;
use crate::Json;

/// Direction filter for a fault item: `0`/`1` are the two path directions
/// (by source host convention), `None` applies to both.
pub(crate) type DirFilter = Option<usize>;

/// One fault model. Times are absolute simulation times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Gilbert–Elliott two-state burst loss: the channel moves between a
    /// Good and a Bad state per packet with the given transition
    /// probabilities, and drops with the state's loss rate.
    GilbertElliott {
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    },
    /// Bounded reordering: with probability `prob` a packet's propagation
    /// is stretched by a uniform extra delay in `[0, max_extra]`, letting
    /// later packets overtake it by at most that window.
    Reorder { prob: f64, max_extra: Nanos },
    /// Packet duplication: with probability `prob` a departing packet is
    /// delivered twice.
    Duplicate { prob: f64 },
    /// Link outage window `[down_at, up_at)`. While down, packets are
    /// either dropped (`drop = true`, a hard outage) or held and released
    /// in order when the link comes back (`drop = false`, a flap that
    /// buffers).
    LinkFlap {
        down_at: Nanos,
        up_at: Nanos,
        drop: bool,
    },
    /// Added propagation delay for every packet in `[at, at + duration)`.
    RttSpike {
        at: Nanos,
        duration: Nanos,
        extra: Nanos,
    },
    /// Mid-flow path-MTU reduction taking effect at `at`: all live
    /// connections are told to shrink their packetization to `new_mtu_ip`.
    MtuDrop { at: Nanos, new_mtu_ip: u32 },
}

/// A fault item: a model plus the path direction(s) it applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultItem {
    pub(crate) kind: FaultKind,
    pub(crate) dir: DirFilter,
}

/// A declarative list of faults driven by one root seed.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    pub(crate) items: Vec<FaultItem>,
    pub(crate) seed: u64,
}

impl FaultSchedule {
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            items: Vec::new(),
            seed,
        }
    }

    /// Add a fault applying to both directions.
    pub fn push(mut self, kind: FaultKind) -> Self {
        self.items.push(FaultItem { kind, dir: None });
        self
    }

    /// Add a fault restricted to one path direction.
    pub fn push_dir(mut self, kind: FaultKind, dir: usize) -> Self {
        self.items.push(FaultItem {
            kind,
            dir: Some(dir),
        });
        self
    }

    /// Named scenarios used by the fault sweep (`fault_matrix`) and the
    /// `chaos` soak. Event times are placed as
    /// fractions of `horizon` (the planned simulation length) so one
    /// scenario name works for any experiment duration. Returns `None`
    /// for an unknown name; `"none"` is the explicit empty schedule.
    pub fn scenario(name: &str, seed: u64, horizon: Nanos) -> Option<FaultSchedule> {
        let s = FaultSchedule::new(seed);
        Some(match name {
            "none" => s,
            "ge-burst" => s.push(FaultKind::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.25,
                loss_good: 0.0,
                loss_bad: 0.4,
            }),
            "reorder" => s.push(FaultKind::Reorder {
                prob: 0.08,
                max_extra: horizon.mul_f64(0.002).max(Nanos::from_micros(200)),
            }),
            "dup" => s.push(FaultKind::Duplicate { prob: 0.05 }),
            "flap" => s.push(FaultKind::LinkFlap {
                down_at: horizon.mul_f64(0.30),
                up_at: horizon.mul_f64(0.38),
                drop: false,
            }),
            "outage" => s.push(FaultKind::LinkFlap {
                down_at: horizon.mul_f64(0.30),
                up_at: horizon.mul_f64(0.36),
                drop: true,
            }),
            "rtt-spike" => s.push(FaultKind::RttSpike {
                at: horizon.mul_f64(0.40),
                duration: horizon.mul_f64(0.15),
                extra: horizon.mul_f64(0.01).max(Nanos::from_millis(1)),
            }),
            "mtu-drop" => s.push(FaultKind::MtuDrop {
                at: horizon.mul_f64(0.25),
                new_mtu_ip: 1200,
            }),
            // ---- outage-heavy scenarios for the chaos soak ----
            // A hard outage covering the connection-establishment phase and
            // most of the deadline. Without recovery, TCP's exponentially
            // backed-off SYN retransmits (1 s, 3 s, 7 s, 15 s, 31 s
            // cumulative) all land inside the window once it extends past
            // half the horizon, and the next attempt overshoots the
            // deadline entirely — the canonical "stack idles to the
            // deadline" failure this subsystem exists to fix.
            "blackout-early" => s.push(FaultKind::LinkFlap {
                down_at: Nanos::ZERO,
                up_at: horizon.mul_f64(0.54),
                drop: true,
            }),
            // Repeated hard outages separated by short good windows: each
            // window re-stalls in-flight transfers whose RTOs have already
            // backed off, compounding the recovery debt.
            "outage-storm" => s
                .push(FaultKind::LinkFlap {
                    down_at: Nanos::ZERO,
                    up_at: horizon.mul_f64(0.22),
                    drop: true,
                })
                .push(FaultKind::LinkFlap {
                    down_at: horizon.mul_f64(0.26),
                    up_at: horizon.mul_f64(0.48),
                    drop: true,
                })
                .push(FaultKind::LinkFlap {
                    down_at: horizon.mul_f64(0.52),
                    up_at: horizon.mul_f64(0.70),
                    drop: true,
                }),
            // Repeated buffering flaps (no loss): transfers survive without
            // recovery, so this scenario checks the recovery runtime does
            // no harm when the network heals on its own.
            "flap-storm" => s
                .push(FaultKind::LinkFlap {
                    down_at: horizon.mul_f64(0.05),
                    up_at: horizon.mul_f64(0.12),
                    drop: false,
                })
                .push(FaultKind::LinkFlap {
                    down_at: horizon.mul_f64(0.20),
                    up_at: horizon.mul_f64(0.28),
                    drop: false,
                })
                .push(FaultKind::LinkFlap {
                    down_at: horizon.mul_f64(0.40),
                    up_at: horizon.mul_f64(0.46),
                    drop: false,
                }),
            "chaos-mix" => return Some(FaultSchedule::chaos(seed, horizon)),
            _ => return None,
        })
    }

    /// A randomized outage-heavy schedule for soak testing: 2–4 link-down
    /// windows (hard drops or buffering flaps) at random offsets, plus
    /// burst loss and an RTT spike. Fully determined by `(seed, horizon)` —
    /// the window layout is drawn from a dedicated fork of the seed, so the
    /// same seed always soaks the same schedule regardless of what the
    /// per-item runtime streams consume later.
    pub(crate) fn chaos(seed: u64, horizon: Nanos) -> FaultSchedule {
        let mut layout = SimRng::new(seed).fork(0x000C_4A05);
        let mut s = FaultSchedule::new(seed);
        let windows = layout.range_u64(2, 4);
        for _ in 0..windows {
            let start = layout.range_f64(0.0, 0.55);
            let len = layout.range_f64(0.06, 0.22);
            s = s.push(FaultKind::LinkFlap {
                down_at: horizon.mul_f64(start),
                up_at: horizon.mul_f64((start + len).min(0.75)),
                drop: layout.chance(0.7),
            });
        }
        s = s.push(FaultKind::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.3,
        });
        if layout.chance(0.5) {
            s = s.push(FaultKind::RttSpike {
                at: horizon.mul_f64(layout.range_f64(0.1, 0.6)),
                duration: horizon.mul_f64(0.1),
                extra: Nanos::from_millis(layout.range_u64(5, 40)),
            });
        }
        s
    }

    /// Every scenario name [`FaultSchedule::scenario`] understands that
    /// is not a chaos scenario, in sweep order.
    pub const SCENARIOS: [&'static str; 8] = [
        "none",
        "ge-burst",
        "reorder",
        "dup",
        "flap",
        "outage",
        "rtt-spike",
        "mtu-drop",
    ];

    /// The outage-heavy scenarios the `chaos` soak sweeps, in sweep order.
    /// These are deliberately harsher than [`FaultSchedule::SCENARIOS`]:
    /// without recovery, page loads are expected to miss their deadline
    /// under the first two.
    pub const CHAOS_SCENARIOS: [&'static str; 4] =
        ["blackout-early", "outage-storm", "flap-storm", "chaos-mix"];
}

/// Counters reported alongside experiment results so faulted runs are
/// auditable: how often each model actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub ge_drops: u64,
    pub duplicates: u64,
    pub reorder_delayed: u64,
    pub flap_drops: u64,
    pub flap_held: u64,
    pub rtt_spiked: u64,
    pub mtu_changes: u64,
}

impl FaultStats {
    pub fn total_drops(&self) -> u64 {
        self.ge_drops + self.flap_drops
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("ge_drops", self.ge_drops)
            .set("duplicates", self.duplicates)
            .set("reorder_delayed", self.reorder_delayed)
            .set("flap_drops", self.flap_drops)
            .set("flap_held", self.flap_held)
            .set("rtt_spiked", self.rtt_spiked)
            .set("mtu_changes", self.mtu_changes)
    }
}

/// What the injector decided for a departing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    Deliver,
    Drop,
    /// Deliver the packet twice.
    Duplicate,
}

/// A link-down verdict: the packet may not enter the path until `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDown {
    pub until: Nanos,
    pub drop: bool,
}

#[derive(Debug)]
struct ItemState {
    item: FaultItem,
    rng: SimRng,
    /// Gilbert–Elliott channel state, per direction.
    ge_bad: [bool; 2],
}

/// Runtime executor for a [`FaultSchedule`]. Owned by one simulation; all
/// query methods take the path direction and current time and update the
/// per-item RNG streams deterministically.
#[derive(Debug)]
pub struct FaultInjector {
    items: Vec<ItemState>,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(schedule: &FaultSchedule) -> Self {
        let root = SimRng::new(schedule.seed);
        FaultInjector {
            items: schedule
                .items
                .iter()
                .enumerate()
                .map(|(i, &item)| ItemState {
                    item,
                    // Per-item stream forked on the stable item index —
                    // the same scheme `netsim::par` prescribes.
                    rng: root.fork(i as u64 + 1),
                    ge_bad: [false; 2],
                })
                .collect(),
            stats: FaultStats::default(),
        }
    }

    fn applies(item: &FaultItem, dir: usize) -> bool {
        item.dir.is_none_or(|d| d == dir)
    }

    /// Decide the fate of a packet departing the NIC in direction `dir`.
    /// Loss models are consulted before duplication; at most one verdict
    /// wins (drop beats duplicate).
    pub fn on_departure(&mut self, dir: usize, _now: Nanos) -> Departure {
        let mut verdict = Departure::Deliver;
        for st in &mut self.items {
            if !Self::applies(&st.item, dir) {
                continue;
            }
            match st.item.kind {
                FaultKind::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                } => {
                    // Advance the channel, then sample loss in the new
                    // state: bursts start on the transition packet.
                    let bad = &mut st.ge_bad[dir];
                    let flip = if *bad { p_bad_to_good } else { p_good_to_bad };
                    if st.rng.chance(flip) {
                        *bad = !*bad;
                    }
                    let p = if *bad { loss_bad } else { loss_good };
                    if st.rng.chance(p) {
                        self.stats.ge_drops += 1;
                        verdict = Departure::Drop;
                    }
                }
                FaultKind::Duplicate { prob } => {
                    // Always draw, so the stream does not depend on
                    // whether an earlier item already dropped the packet.
                    let dup = st.rng.chance(prob);
                    if dup && verdict == Departure::Deliver {
                        self.stats.duplicates += 1;
                        verdict = Departure::Duplicate;
                    }
                }
                _ => {}
            }
        }
        verdict
    }

    /// Extra propagation delay for a packet entering direction `dir`'s
    /// wire at `now` (reorder jitter plus any active RTT spike).
    pub fn extra_arrival_delay(&mut self, dir: usize, now: Nanos) -> Nanos {
        let mut extra = Nanos::ZERO;
        for st in &mut self.items {
            if !Self::applies(&st.item, dir) {
                continue;
            }
            match st.item.kind {
                FaultKind::Reorder { prob, max_extra } => {
                    let delay = st.rng.chance(prob);
                    if delay {
                        let jitter = Nanos(st.rng.range_u64(0, max_extra.0.max(1)));
                        if !jitter.is_zero() {
                            self.stats.reorder_delayed += 1;
                            extra += jitter;
                        }
                    }
                }
                FaultKind::RttSpike {
                    at,
                    duration,
                    extra: spike,
                } if now >= at && now < at + duration => {
                    self.stats.rtt_spiked += 1;
                    extra += spike;
                }
                _ => {}
            }
        }
        extra
    }

    /// Whether direction `dir`'s link is down at `now`. When several flap
    /// windows overlap, the latest recovery wins and `drop` is sticky.
    pub fn link_down(&self, dir: usize, now: Nanos) -> Option<LinkDown> {
        let mut down: Option<LinkDown> = None;
        for st in &self.items {
            if !Self::applies(&st.item, dir) {
                continue;
            }
            if let FaultKind::LinkFlap {
                down_at,
                up_at,
                drop,
            } = st.item.kind
            {
                if now >= down_at && now < up_at {
                    let until = down.map_or(up_at, |d| d.until.max(up_at));
                    let drop = drop || down.is_some_and(|d| d.drop);
                    down = Some(LinkDown { until, drop });
                }
            }
        }
        down
    }

    /// MTU reductions the simulation must schedule as events at setup:
    /// `(time, new_mtu_ip)` in schedule order.
    pub fn mtu_events(&self) -> Vec<(Nanos, u32)> {
        self.items
            .iter()
            .filter_map(|st| match st.item.kind {
                FaultKind::MtuDrop { at, new_mtu_ip } => Some((at, new_mtu_ip)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge_schedule(seed: u64) -> FaultSchedule {
        FaultSchedule::new(seed).push(FaultKind::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.5,
        })
    }

    #[test]
    fn ge_losses_are_bursty_and_deterministic() {
        let run = |seed| {
            let mut inj = FaultInjector::new(&ge_schedule(seed));
            (0..5000)
                .map(|_| inj.on_departure(0, Nanos::ZERO) == Departure::Drop)
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must reproduce the loss pattern");
        assert_ne!(a, run(8), "different seeds must differ");
        let drops = a.iter().filter(|&&d| d).count();
        assert!(drops > 50, "bad state never dropped ({drops})");
        // Burstiness: drops cluster — the count of adjacent drop pairs
        // must far exceed the i.i.d. expectation p^2 * n.
        let p = drops as f64 / a.len() as f64;
        let pairs = a.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let iid_pairs = p * p * a.len() as f64;
        assert!(
            pairs > 2.0 * iid_pairs,
            "losses not bursty: {pairs} adjacent pairs vs iid {iid_pairs:.1}"
        );
    }

    #[test]
    fn direction_filter_restricts_faults() {
        let sched = FaultSchedule::new(1).push_dir(
            FaultKind::GilbertElliott {
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                loss_good: 1.0,
                loss_bad: 1.0,
            },
            1,
        );
        let mut inj = FaultInjector::new(&sched);
        for _ in 0..100 {
            assert_eq!(inj.on_departure(0, Nanos::ZERO), Departure::Deliver);
            assert_eq!(inj.on_departure(1, Nanos::ZERO), Departure::Drop);
        }
    }

    #[test]
    fn duplicate_fires_at_roughly_its_probability() {
        let sched = FaultSchedule::new(3).push(FaultKind::Duplicate { prob: 0.2 });
        let mut inj = FaultInjector::new(&sched);
        let dups = (0..10_000)
            .filter(|_| inj.on_departure(0, Nanos::ZERO) == Departure::Duplicate)
            .count();
        assert!((1600..2400).contains(&dups), "dup count {dups}");
        assert_eq!(inj.stats.duplicates, dups as u64);
    }

    #[test]
    fn flap_window_blocks_then_recovers() {
        let sched = FaultSchedule::new(5).push(FaultKind::LinkFlap {
            down_at: Nanos::from_millis(10),
            up_at: Nanos::from_millis(20),
            drop: false,
        });
        let inj = FaultInjector::new(&sched);
        assert!(inj.link_down(0, Nanos::from_millis(9)).is_none());
        let d = inj.link_down(0, Nanos::from_millis(15)).expect("down");
        assert_eq!(d.until, Nanos::from_millis(20));
        assert!(!d.drop);
        assert!(inj.link_down(0, Nanos::from_millis(20)).is_none());
    }

    #[test]
    fn rtt_spike_adds_delay_only_inside_window() {
        let sched = FaultSchedule::new(6).push(FaultKind::RttSpike {
            at: Nanos::from_millis(100),
            duration: Nanos::from_millis(50),
            extra: Nanos::from_millis(30),
        });
        let mut inj = FaultInjector::new(&sched);
        assert!(inj.extra_arrival_delay(0, Nanos::from_millis(99)).is_zero());
        assert_eq!(
            inj.extra_arrival_delay(0, Nanos::from_millis(120)),
            Nanos::from_millis(30)
        );
        assert!(inj
            .extra_arrival_delay(0, Nanos::from_millis(151))
            .is_zero());
    }

    #[test]
    fn reorder_delay_is_bounded() {
        let max = Nanos::from_millis(2);
        let sched = FaultSchedule::new(9).push(FaultKind::Reorder {
            prob: 1.0,
            max_extra: max,
        });
        let mut inj = FaultInjector::new(&sched);
        for _ in 0..1000 {
            assert!(inj.extra_arrival_delay(0, Nanos::ZERO) <= max);
        }
        assert!(inj.stats.reorder_delayed > 0);
    }

    #[test]
    fn mtu_events_are_exposed_for_scheduling() {
        let sched = FaultSchedule::new(2).push(FaultKind::MtuDrop {
            at: Nanos::from_millis(40),
            new_mtu_ip: 1200,
        });
        let inj = FaultInjector::new(&sched);
        assert_eq!(inj.mtu_events(), vec![(Nanos::from_millis(40), 1200)]);
    }

    #[test]
    fn every_named_scenario_builds() {
        for name in FaultSchedule::SCENARIOS {
            let s = FaultSchedule::scenario(name, 1, Nanos::from_secs(1))
                .unwrap_or_else(|| panic!("scenario {name}"));
            assert_eq!(s.items.is_empty(), name == "none", "{name}");
            assert!(!FaultSchedule::CHAOS_SCENARIOS.contains(&name), "{name}");
        }
        assert!(FaultSchedule::scenario("bogus", 1, Nanos::from_secs(1)).is_none());
    }

    #[test]
    fn chaos_scenarios_build_and_are_outage_heavy() {
        for name in FaultSchedule::CHAOS_SCENARIOS {
            let s = FaultSchedule::scenario(name, 3, Nanos::from_secs(30))
                .unwrap_or_else(|| panic!("scenario {name}"));
            assert!(!s.items.is_empty(), "{name}");
            let flaps = s
                .items
                .iter()
                .filter(|i| matches!(i.kind, FaultKind::LinkFlap { .. }))
                .count();
            assert!(flaps >= 1, "{name} has no link-down window");
        }
    }

    #[test]
    fn blackout_early_covers_the_connect_phase() {
        let s = FaultSchedule::scenario("blackout-early", 1, Nanos::from_secs(30)).expect("known");
        let FaultKind::LinkFlap {
            down_at,
            up_at,
            drop,
        } = s.items[0].kind
        else {
            panic!("blackout-early must be a link flap");
        };
        assert_eq!(down_at, Nanos::ZERO);
        assert!(drop, "blackout must drop, not buffer");
        // The window must swallow TCP's first four SYN retransmits
        // (cumulative backoff reaches 15 s) so an unrecovered connect
        // cannot succeed before 31 s.
        assert!(up_at > Nanos::from_secs(15), "window too short: {up_at}");
    }

    #[test]
    fn chaos_schedule_is_deterministic_per_seed() {
        let h = Nanos::from_secs(20);
        let a = FaultSchedule::chaos(11, h);
        let b = FaultSchedule::chaos(11, h);
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.kind, y.kind);
        }
        let c = FaultSchedule::chaos(12, h);
        let same = a.items.len() == c.items.len()
            && a.items.iter().zip(&c.items).all(|(x, y)| x.kind == y.kind);
        assert!(!same, "different seeds must lay out different chaos");
        // Windows stay inside the horizon so they can actually bite.
        for it in &a.items {
            if let FaultKind::LinkFlap { down_at, up_at, .. } = it.kind {
                assert!(down_at < up_at);
                assert!(up_at <= h, "window past horizon: {up_at}");
            }
        }
    }

    #[test]
    fn injector_streams_do_not_interfere_across_items() {
        // Adding an unrelated item must not perturb the GE stream: each
        // item forks its RNG from its own index.
        let base = ge_schedule(11);
        let extended = ge_schedule(11).push(FaultKind::Duplicate { prob: 0.5 });
        let mut a = FaultInjector::new(&base);
        let mut b = FaultInjector::new(&extended);
        let drops_a: Vec<bool> = (0..2000)
            .map(|_| a.on_departure(0, Nanos::ZERO) == Departure::Drop)
            .collect();
        let drops_b: Vec<bool> = (0..2000)
            .map(|_| b.on_departure(0, Nanos::ZERO) == Departure::Drop)
            .collect();
        assert_eq!(drops_a, drops_b);
    }
}
