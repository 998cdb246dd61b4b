//! The canonical defense suite: every implemented defense, each
//! expressed as a placement-agnostic [`Defense`] spec.
//!
//! Shared by `defense_matrix` (the accuracy/overhead grid) and the
//! layered benchmark's `defend_suite` workload (the emulate-vs-enforce
//! ns/packet cells), so both always cover the same rows under the same
//! names — the display names are part of the committed golden
//! (`tests/golden/defense_matrix.json`) and the keys are
//! `BENCHMARK.json` metric names, so they must not drift.
//! `WITH_MACHINES` is the ten native rows followed by the three
//! machine-backed rows (`MACHINES`); both users cover all thirteen.

use defenses::buflo::{BufloConfig, TamarawConfig};
use defenses::emulate::{CounterMeasure, EmulateConfig, Section3Defense};
use defenses::front::{FrontConfig, FrontDefense};
use defenses::machines::{
    constant_machine, front_machine, scrambler_machine, ConstantConfig, ScramblerConfig,
};
use defenses::regulator::{RegulatorConfig, RegulatorDefense};
use defenses::surakav::{SurakavConfig, SurakavDefense};
use defenses::wtfpad::{WtfPadConfig, WtfPadDefense};
use defenses::{BufloDefense, TamarawDefense};
use netsim::json::{Json, Wire};
use stob::defense::Defense;
use stob::machine::{MachineDefense, MachineSpec};
use stob::policy::ObfuscationPolicy;

/// One row of the defense suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseKind {
    None,
    Split,
    Delayed,
    Combined,
    WtfPad,
    Front,
    Regulator,
    Surakav,
    Tamaraw,
    Buflo,
    /// The FRONT machine as a data row: the spec `FrontDefense` runs,
    /// JSON-round-tripped under its generator name.
    MachineFront,
    /// Constant-rate cover traffic as a data machine.
    MachineConstant,
    /// Reactive burst padding as a data machine.
    MachineScrambler,
}

impl DefenseKind {
    /// The machine-backed rows (defenses-as-data, JSON-round-tripped
    /// through the wire codec before every run).
    pub const MACHINES: [DefenseKind; 3] = [
        DefenseKind::MachineFront,
        DefenseKind::MachineConstant,
        DefenseKind::MachineScrambler,
    ];

    /// The ten native rows plus the machine rows, machines appended last
    /// so the native rows keep their grid positions (and per-cell rng
    /// forks) in the defense matrix.
    pub const WITH_MACHINES: [DefenseKind; 13] = [
        DefenseKind::None,
        DefenseKind::Split,
        DefenseKind::Delayed,
        DefenseKind::Combined,
        DefenseKind::WtfPad,
        DefenseKind::Front,
        DefenseKind::Regulator,
        DefenseKind::Surakav,
        DefenseKind::Tamaraw,
        DefenseKind::Buflo,
        DefenseKind::MachineFront,
        DefenseKind::MachineConstant,
        DefenseKind::MachineScrambler,
    ];

    /// Display name (stable: committed goldens and bench schemas use it).
    pub fn name(self) -> &'static str {
        match self {
            DefenseKind::None => "none",
            DefenseKind::Split => "split (§3)",
            DefenseKind::Delayed => "delayed (§3)",
            DefenseKind::Combined => "combined (§3)",
            DefenseKind::WtfPad => "WTF-PAD (lite)",
            DefenseKind::Front => "FRONT",
            DefenseKind::Regulator => "RegulaTor (lite)",
            DefenseKind::Surakav => "Surakav (lite)",
            DefenseKind::Tamaraw => "Tamaraw",
            DefenseKind::Buflo => "BuFLO",
            DefenseKind::MachineFront => "FRONT (machine)",
            DefenseKind::MachineConstant => "Constant (machine)",
            DefenseKind::MachineScrambler => "Scrambler (machine)",
        }
    }

    /// ASCII identifier for machine-readable keys: the `<key>` in the
    /// layered benchmark's `defenses.<key>.{emulate,enforce}_ns_per_pkt`
    /// metric names (`BENCHMARK.json`).
    pub fn key(self) -> &'static str {
        match self {
            DefenseKind::None => "none",
            DefenseKind::Split => "split",
            DefenseKind::Delayed => "delayed",
            DefenseKind::Combined => "combined",
            DefenseKind::WtfPad => "wtfpad",
            DefenseKind::Front => "front",
            DefenseKind::Regulator => "regulator",
            DefenseKind::Surakav => "surakav",
            DefenseKind::Tamaraw => "tamaraw",
            DefenseKind::Buflo => "buflo",
            DefenseKind::MachineFront => "mfront",
            DefenseKind::MachineConstant => "mconstant",
            DefenseKind::MachineScrambler => "mscrambler",
        }
    }

    /// The defense spec this row runs — one object, both placements.
    pub fn spec(self) -> Box<dyn Defense> {
        match self {
            DefenseKind::None => Box::new(ObfuscationPolicy::passthrough("none")),
            DefenseKind::Split => Box::new(Section3Defense::new(
                CounterMeasure::Split,
                EmulateConfig::default(),
            )),
            DefenseKind::Delayed => Box::new(Section3Defense::new(
                CounterMeasure::Delayed,
                EmulateConfig::default(),
            )),
            DefenseKind::Combined => Box::new(Section3Defense::new(
                CounterMeasure::Combined,
                EmulateConfig::default(),
            )),
            DefenseKind::WtfPad => Box::new(WtfPadDefense::new(WtfPadConfig::default())),
            DefenseKind::Front => Box::new(FrontDefense::new(FrontConfig::default())),
            DefenseKind::Regulator => Box::new(RegulatorDefense::new(RegulatorConfig::default())),
            DefenseKind::Surakav => Box::new(SurakavDefense::new(SurakavConfig::default())),
            DefenseKind::Tamaraw => Box::new(TamarawDefense::new(TamarawConfig::default())),
            DefenseKind::Buflo => Box::new(BufloDefense::new(BufloConfig::default())),
            DefenseKind::MachineFront => machine_row(front_machine(&FrontConfig::default())),
            DefenseKind::MachineConstant => {
                machine_row(constant_machine(&ConstantConfig::default()))
            }
            DefenseKind::MachineScrambler => {
                machine_row(scrambler_machine(&ScramblerConfig::default()))
            }
        }
    }
}

/// Build a machine row the way an operator would ship it: serialize the
/// generated spec to its JSON wire form and decode it back, so the
/// matrix exercises the full defenses-as-data path, not an in-memory
/// shortcut.
fn machine_row(spec: MachineSpec) -> Box<dyn Defense> {
    let text = spec.to_json().to_string_compact();
    let decoded = Json::parse(&text)
        .ok()
        .and_then(|j| MachineSpec::from_json(&j).ok())
        .expect("generated machine specs round-trip");
    Box::new(MachineDefense::new(decoded))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_and_keys_are_unique() {
        let mut names: Vec<&str> = DefenseKind::WITH_MACHINES
            .iter()
            .map(|k| k.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DefenseKind::WITH_MACHINES.len());
        let mut keys: Vec<&str> = DefenseKind::WITH_MACHINES.iter().map(|k| k.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), DefenseKind::WITH_MACHINES.len());
        assert!(keys
            .iter()
            .all(|k| k.chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn every_spec_builds() {
        for k in DefenseKind::WITH_MACHINES {
            assert!(!k.spec().name().is_empty(), "{k:?}");
        }
    }

    #[test]
    fn with_machines_preserves_the_original_grid_prefix() {
        let (native, machines) = DefenseKind::WITH_MACHINES.split_at(10);
        assert_eq!(native.first(), Some(&DefenseKind::None));
        assert!(native.iter().all(|k| !DefenseKind::MACHINES.contains(k)));
        assert_eq!(machines, &DefenseKind::MACHINES[..]);
    }
}
