//! The packet-sequence shaping hook — the mechanism half of Stob.
//!
//! §4.2 of the paper identifies three stack decisions an obfuscation
//! framework must be able to influence:
//!
//! 1. **TSO sizing** — how many packets ride in one segment handed to the
//!    NIC (packets within a segment cannot be interleaved or paced apart);
//! 2. **packet sizing** — the wire size of each packet the NIC emits
//!    (normally fixed at MSS by TSO, except the last packet; the paper's
//!    §5.5 "flexible TSO" relaxes this);
//! 3. **departure timing** — extra pacing delay applied to a segment on
//!    top of what the congestion controller requested.
//!
//! The `stack` crate calls a [`Shaper`] at exactly those three points and
//! nowhere else: a shaper sees flow progress through the [`ShapeCtx`] of
//! each decision. The default [`NoopShaper`] changes nothing; the `stob`
//! crate lowers each policy to one shaper inside its safety envelope
//! ("never more aggressive than the CCA decided").

use netsim::{FlowId, Nanos};

/// Read-only stack state offered to a shaper at each decision point.
///
/// These are the fields Stob policies key on: connection phase (slow start
/// vs. steady state — §5.1 suggests suspending obfuscation where pacing is
/// load-bearing for the CCA), progress counters (for position-dependent
/// policies such as "protect the first N packets", which §3 shows is where
/// censors must act), and the CC-granted budget (for the safety cap).
#[derive(Debug, Clone, Copy)]
pub struct ShapeCtx {
    pub flow: FlowId,
    pub now: Nanos,
    /// Current congestion window, bytes.
    pub cwnd: u64,
    /// CC pacing rate if pacing is active (bits/s).
    pub pacing_rate_bps: Option<u64>,
    /// True while the CCA is in its startup phase.
    pub in_slow_start: bool,
    /// Payload bytes sent so far on this flow.
    pub bytes_sent: u64,
    /// Wire data packets sent so far on this flow.
    pub pkts_sent: u64,
    /// TSO segments sent so far on this flow.
    pub segs_sent: u64,
    /// Path MTU as IP packet size (e.g. 1500).
    pub mtu_ip: u32,
    /// MSS in payload bytes.
    pub mss: u32,
}

/// Packet-sequence shaping hooks. All methods have identity defaults so a
/// shaper can override only the decisions it cares about.
pub trait Shaper {
    /// Choose the TSO segment size in *packets*. `proposed` is what the
    /// stack (CC autosizing) wanted. Returning more than `proposed` is
    /// permitted by the trait but clipped by the stack to `proposed` —
    /// growing bursts would be more aggressive than the CCA decided.
    fn tso_segment_pkts(&mut self, _ctx: &ShapeCtx, proposed: u32) -> u32 {
        proposed
    }

    /// Choose the IP size of the `pkt_index`-th packet within the current
    /// segment. `proposed` is the stack's choice (MTU, or the remainder
    /// for the final packet). Values are clamped by the stack to
    /// `[MIN_IP_PACKET, mtu_ip]` and to the remaining payload.
    fn packet_ip_size(&mut self, _ctx: &ShapeCtx, _pkt_index: u32, proposed: u32) -> u32 {
        proposed
    }

    /// Extra delay added to the segment's pacing-decided departure time.
    /// Only non-negative shifts exist by construction: a shaper cannot
    /// schedule a departure earlier than the CCA allowed. The delay also
    /// advances the flow's pacing clock, so per-segment delays *stretch*
    /// consecutive inter-departure gaps (the paper's §3 semantics)
    /// rather than shifting the whole schedule once.
    fn extra_delay(&mut self, _ctx: &ShapeCtx) -> Nanos {
        Nanos::ZERO
    }
}

/// The identity shaper: stock Linux behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopShaper;

impl Shaper for NoopShaper {}

/// Boxed shaper alias used throughout the stack.
pub type BoxShaper = Box<dyn Shaper>;

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 10 * 1448,
            pacing_rate_bps: Some(1_000_000_000),
            in_slow_start: true,
            bytes_sent: 0,
            pkts_sent: 0,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    #[test]
    fn noop_is_identity() {
        let mut s = NoopShaper;
        let c = ctx();
        assert_eq!(s.tso_segment_pkts(&c, 44), 44);
        assert_eq!(s.packet_ip_size(&c, 3, 1500), 1500);
        assert_eq!(s.extra_delay(&c), Nanos::ZERO);
    }

    #[test]
    fn custom_shaper_overrides_one_hook() {
        struct Halver;
        impl Shaper for Halver {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                (p / 2).max(1)
            }
        }
        let mut s = Halver;
        let c = ctx();
        assert_eq!(s.tso_segment_pkts(&c, 44), 22);
        assert_eq!(s.tso_segment_pkts(&c, 1), 1);
        // Untouched hooks keep identity defaults.
        assert_eq!(s.packet_ip_size(&c, 0, 1500), 1500);
    }

    #[test]
    fn boxed_shaper_forwards_to_inner() {
        struct Fixed;
        impl Shaper for Fixed {
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
                600
            }
            fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
                Nanos::from_micros(7)
            }
        }
        let mut boxed: Box<dyn Shaper> = Box::new(Fixed);
        let c = ctx();
        assert_eq!(boxed.packet_ip_size(&c, 0, 1500), 600);
        assert_eq!(boxed.extra_delay(&c), Nanos::from_micros(7));
        assert_eq!(boxed.tso_segment_pkts(&c, 44), 44, "identity default");
    }
}
