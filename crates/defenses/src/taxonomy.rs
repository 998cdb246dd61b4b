//! Table 1, machine-readable: the WF-defense design space the paper
//! surveys, with pointers to the implementations this workspace ships.

/// Deployment target of the defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Tor,
    Tls,
    Quic,
    TlsAndQuic,
}

impl Target {
    pub fn label(self) -> &'static str {
        match self {
            Target::Tor => "Tor",
            Target::Tls => "TLS",
            Target::Quic => "QUIC",
            Target::TlsAndQuic => "TLS & QUIC",
        }
    }
}

/// Defense strategy (§2.2): make sequences similar, or add noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    Regularization,
    Obfuscation,
}

impl Strategy {
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Regularization => "Regul.",
            Strategy::Obfuscation => "Obfus.",
        }
    }
}

/// Traffic manipulation primitives (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manipulation {
    Padding,
    Timing,
    PacketSize,
}

impl Manipulation {
    pub fn label(self) -> &'static str {
        match self {
            Manipulation::Padding => "Padding",
            Manipulation::Timing => "Timing",
            Manipulation::PacketSize => "Packet size",
        }
    }
}

/// Whether/how this repo implements the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Implemented in `defenses` (trace level).
    Full(&'static str),
    /// Simplified variant implemented (documented as -lite).
    Lite(&'static str),
    /// Catalogued only.
    None,
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct TaxonomyEntry {
    pub system: &'static str,
    pub target: Target,
    pub strategy: Strategy,
    pub manipulations: Vec<Manipulation>,
    pub implementation: Implementation,
}

/// The Table 1 catalogue.
pub fn table1() -> Vec<TaxonomyEntry> {
    use Implementation as I;
    use Manipulation::*;
    use Strategy::*;
    use Target::*;
    let e =
        |system, target, strategy, manipulations: &[Manipulation], implementation| TaxonomyEntry {
            system,
            target,
            strategy,
            manipulations: manipulations.to_vec(),
            implementation,
        };
    vec![
        e("ALPaCA", Tor, Regularization, &[Padding], I::None),
        e(
            "BuFLO",
            Tor,
            Regularization,
            &[Padding, Timing],
            I::Full("defenses::BufloDefense"),
        ),
        e(
            "Tamaraw",
            Tor,
            Regularization,
            &[Padding, Timing],
            I::Full("defenses::TamarawDefense"),
        ),
        e(
            "RegulaTor",
            Tor,
            Regularization,
            &[Padding, Timing],
            I::Lite("defenses::RegulatorDefense"),
        ),
        e(
            "Surakav",
            Tor,
            Regularization,
            &[Padding, Timing],
            I::Lite("defenses::SurakavDefense"),
        ),
        e("Palette", Tor, Regularization, &[Padding, Timing], I::None),
        e(
            "WTF-PAD",
            Tor,
            Obfuscation,
            &[Padding, Timing],
            I::Lite("defenses::WtfPadDefense"),
        ),
        e(
            "FRONT",
            Tor,
            Obfuscation,
            &[Padding, Timing],
            I::Full("defenses::FrontDefense"),
        ),
        e("BLANKET", Tor, Obfuscation, &[Padding, Timing], I::None),
        e("Morphing", Tls, Obfuscation, &[Timing, PacketSize], I::None),
        e(
            "HTTPOS",
            Tls,
            Obfuscation,
            &[Timing, PacketSize],
            I::Lite("stob (small rwnd/MSS via StackConfig) + defenses::Section3Defense"),
        ),
        e(
            "Burst Defense",
            Tls,
            Obfuscation,
            &[Timing, PacketSize],
            I::None,
        ),
        e("Cactus", Tls, Obfuscation, &[Timing, PacketSize], I::None),
        e(
            "Adaptive FRONT",
            Tls,
            Obfuscation,
            &[Padding, Timing],
            I::None,
        ),
        e(
            "QCSD",
            Quic,
            Obfuscation,
            &[Padding, Timing, PacketSize],
            I::None,
        ),
        e(
            "pad-resource",
            Quic,
            Obfuscation,
            &[Padding, Timing, PacketSize],
            I::None,
        ),
        e(
            "NetShaper",
            TlsAndQuic,
            Obfuscation,
            &[Padding, Timing],
            I::None,
        ),
        e(
            "Stob split+delay (this paper, §3)",
            Tls,
            Obfuscation,
            &[Timing, PacketSize],
            I::Full("stob::strategies + defenses::emulate"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_the_papers_rows() {
        let t = table1();
        for name in [
            "ALPaCA",
            "BuFLO",
            "RegulaTor",
            "Surakav",
            "Palette",
            "WTF-PAD",
            "FRONT",
            "BLANKET",
            "Morphing",
            "HTTPOS",
            "Burst Defense",
            "Cactus",
            "Adaptive FRONT",
            "QCSD",
            "NetShaper",
        ] {
            assert!(
                t.iter().any(|e| e.system == name),
                "missing Table 1 row {name}"
            );
        }
    }

    #[test]
    fn tor_defenses_in_table_are_padding_based() {
        // Matches the paper's observation: Tor-targeted rows all involve
        // padding.
        let t = table1();
        for e in t.iter().filter(|e| e.target == Target::Tor) {
            assert!(
                e.manipulations.contains(&Manipulation::Padding),
                "{} should pad",
                e.system
            );
        }
    }

    #[test]
    fn tls_quic_rows_manipulate_timing_or_size() {
        let t = table1();
        for e in t
            .iter()
            .filter(|e| matches!(e.target, Target::Tls | Target::Quic))
        {
            assert!(
                e.manipulations
                    .iter()
                    .any(|m| matches!(m, Manipulation::Timing | Manipulation::PacketSize)),
                "{}",
                e.system
            );
        }
    }

    #[test]
    fn implemented_rows_point_at_real_paths() {
        let t = table1();
        let implemented = t
            .iter()
            .filter(|e| !matches!(e.implementation, Implementation::None))
            .count();
        assert!(implemented >= 6, "only {implemented} rows implemented");
    }

    #[test]
    fn labels_render() {
        assert_eq!(Target::TlsAndQuic.label(), "TLS & QUIC");
        assert_eq!(Strategy::Obfuscation.label(), "Obfus.");
        assert_eq!(Manipulation::PacketSize.label(), "Packet size");
    }
}
