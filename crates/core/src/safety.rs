//! The safety envelope: "Stob must ensure that it does not generate more
//! aggressive traffic to the network (e.g., higher pacing rate than what
//! CCA desired)" — §4.2.
//!
//! [`SafetyCap`] wraps any inner strategy and clamps every decision into
//! the CCA-conformant region: segment sizes and packet sizes can only
//! shrink relative to the stack's proposal, and departure delays can only
//! be non-negative (the type system already forbids negative delays; the
//! cap additionally bounds pathological delays that would stall the
//! connection). A caller that wants to observe a misbehaving policy asks
//! the cap for an audit handle ([`SafetyCap::audit_handle`]); from then
//! on every decision, and every clamped one, is counted in that
//! [`SafetyAudit`]. A cap nobody asked allocates and counts nothing.

use netsim::Nanos;
use stack::{ShapeCtx, Shaper};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on a single extra delay: a policy must obfuscate, not
/// stall.
const MAX_DELAY: Nanos = Nanos::from_secs(1);

/// Counters of clamped (would-have-been-unsafe) decisions.
#[derive(Debug, Default)]
pub struct SafetyAudit {
    /// Inner strategy tried to grow the TSO segment past the proposal.
    pub(crate) tso_grow_clamped: AtomicU64,
    /// Inner strategy tried to grow a packet past the proposal.
    pub(crate) pkt_grow_clamped: AtomicU64,
    /// Inner strategy produced a delay above the 1 s ceiling.
    pub(crate) delay_clamped: AtomicU64,
    /// Total decisions audited.
    pub decisions: AtomicU64,
}

/// Add one to an audit counter. Its [`SafetyCap`] is the only writer
/// (through `&mut self`, and each cap makes its own `Arc`), so a relaxed
/// load and store count exactly, without a lock-prefixed
/// read-modify-write; readers holding an `audit_handle` still load it
/// atomically.
fn bump(counter: &AtomicU64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(1),
        Ordering::Relaxed,
    );
}

impl SafetyAudit {
    pub fn total_clamped(&self) -> u64 {
        self.tso_grow_clamped.load(Ordering::Relaxed)
            + self.pkt_grow_clamped.load(Ordering::Relaxed)
            + self.delay_clamped.load(Ordering::Relaxed)
    }
}

/// Wraps an inner shaper and enforces the §4.2 invariant.
pub struct SafetyCap<S> {
    inner: S,
    /// Made by the first [`audit_handle`](Self::audit_handle) call.
    audit: Option<Arc<SafetyAudit>>,
}

impl<S: Shaper> SafetyCap<S> {
    /// Cap `inner`. Allocates nothing: there is no audit until a caller
    /// asks for one.
    pub fn new(inner: S) -> Self {
        SafetyCap { inner, audit: None }
    }

    /// A handle on this cap's audit, made on the first call. It counts
    /// the decisions taken from then on, so ask before installing the
    /// cap.
    pub fn audit_handle(&mut self) -> Arc<SafetyAudit> {
        Arc::clone(self.audit.get_or_insert_default())
    }

    /// Count one decision, and whether it was clamped, if audited.
    fn note(&self, clamped: impl FnOnce(&SafetyAudit) -> &AtomicU64, was_clamped: bool) {
        if let Some(audit) = &self.audit {
            bump(&audit.decisions);
            if was_clamped {
                bump(clamped(audit));
            }
        }
    }
}

impl<S: Shaper> Shaper for SafetyCap<S> {
    fn tso_segment_pkts(&mut self, ctx: &ShapeCtx, proposed: u32) -> u32 {
        let want = self.inner.tso_segment_pkts(ctx, proposed);
        self.note(|a| &a.tso_grow_clamped, want > proposed);
        if want > proposed {
            proposed
        } else {
            want.max(1)
        }
    }

    fn packet_ip_size(&mut self, ctx: &ShapeCtx, pkt_index: u32, proposed: u32) -> u32 {
        let want = self.inner.packet_ip_size(ctx, pkt_index, proposed);
        self.note(|a| &a.pkt_grow_clamped, want > proposed);
        if want > proposed {
            proposed
        } else {
            want.max(1)
        }
    }

    fn extra_delay(&mut self, ctx: &ShapeCtx) -> Nanos {
        let want = self.inner.extra_delay(ctx);
        self.note(|a| &a.delay_clamped, want > MAX_DELAY);
        want.min(MAX_DELAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FlowId, SimRng};

    fn ctx() -> ShapeCtx {
        ShapeCtx {
            flow: FlowId(1),
            now: Nanos(0),
            cwnd: 14480,
            pacing_rate_bps: None,
            in_slow_start: false,
            bytes_sent: 0,
            pkts_sent: 0,
            segs_sent: 0,
            mtu_ip: 1500,
            mss: 1448,
        }
    }

    /// A hostile strategy that tries to be more aggressive everywhere.
    struct Hostile;
    impl Shaper for Hostile {
        fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
            p.saturating_mul(4)
        }
        fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
            p.saturating_add(9000)
        }
        fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
            Nanos::from_secs(3600)
        }
    }

    #[test]
    fn hostile_strategy_is_fully_clamped() {
        let mut cap = SafetyCap::new(Hostile);
        let audit = cap.audit_handle();
        let c = ctx();
        assert_eq!(cap.tso_segment_pkts(&c, 44), 44);
        assert_eq!(cap.packet_ip_size(&c, 0, 1500), 1500);
        assert_eq!(cap.extra_delay(&c), Nanos::from_secs(1));
        assert_eq!(audit.total_clamped(), 3);
        assert_eq!(audit.decisions.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn benign_strategy_passes_unclamped() {
        struct Benign;
        impl Shaper for Benign {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, p: u32) -> u32 {
                p / 2
            }
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, p: u32) -> u32 {
                p - 100
            }
            fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
                Nanos::from_micros(50)
            }
        }
        let mut cap = SafetyCap::new(Benign);
        let audit = cap.audit_handle();
        let c = ctx();
        assert_eq!(cap.tso_segment_pkts(&c, 44), 22);
        assert_eq!(cap.packet_ip_size(&c, 0, 1500), 1400);
        assert_eq!(cap.extra_delay(&c), Nanos::from_micros(50));
        assert_eq!(audit.total_clamped(), 0);
        assert_eq!(audit.decisions.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn zero_floor_on_sizes() {
        struct Zeroer;
        impl Shaper for Zeroer {
            fn tso_segment_pkts(&mut self, _c: &ShapeCtx, _p: u32) -> u32 {
                0
            }
            fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
                0
            }
        }
        let mut cap = SafetyCap::new(Zeroer);
        let c = ctx();
        assert_eq!(cap.tso_segment_pkts(&c, 44), 1, "segments need >=1 pkt");
        assert_eq!(cap.packet_ip_size(&c, 0, 1500), 1);
    }

    #[test]
    fn delay_just_past_the_ceiling_is_clamped() {
        let c = ctx();
        for (want, got) in [
            (MAX_DELAY, MAX_DELAY),
            (MAX_DELAY + Nanos(1), MAX_DELAY),
            (MAX_DELAY + Nanos::from_millis(5), MAX_DELAY),
        ] {
            let mut cap = SafetyCap::new(Arb {
                tso: 1,
                size: 1,
                delay: want.0,
            });
            let audit = cap.audit_handle();
            assert_eq!(cap.extra_delay(&c), got, "inner {want}");
            let clamped = u64::from(want > MAX_DELAY);
            assert_eq!(audit.total_clamped(), clamped, "inner {want}");
        }
    }

    /// A strategy parameterized by arbitrary (possibly absurd) outputs.
    struct Arb {
        tso: u32,
        size: u32,
        delay: u64,
    }
    impl Shaper for Arb {
        fn tso_segment_pkts(&mut self, _c: &ShapeCtx, _p: u32) -> u32 {
            self.tso
        }
        fn packet_ip_size(&mut self, _c: &ShapeCtx, _i: u32, _p: u32) -> u32 {
            self.size
        }
        fn extra_delay(&mut self, _c: &ShapeCtx) -> Nanos {
            Nanos(self.delay)
        }
    }

    /// The §4.2 invariant, randomized: for ANY inner strategy output and
    /// ANY proposal, the capped decision never exceeds the CCA's proposal
    /// and never stalls beyond the ceiling. Seeded `SimRng` sweep instead
    /// of proptest so the workspace stays dependency-free; edge values
    /// are pinned explicitly below the loop.
    #[test]
    fn cap_never_exceeds_proposal() {
        let mut rng = SimRng::new(0x5AFE);
        let mut cases: Vec<(u32, u32, u64, u32, u32)> = vec![
            (0, 0, 0, 1, 64),
            (9_999, 65_534, u64::MAX / 2 - 1, 1, 64),
            (0, 0, 0, 63, 8_999),
            (9_999, 65_534, u64::MAX / 2 - 1, 63, 8_999),
        ];
        for _ in 0..2_000 {
            cases.push((
                rng.next_below(10_000) as u32,
                rng.next_below(65_535) as u32,
                rng.next_below(u64::MAX / 2),
                rng.range_u64(1, 63) as u32,
                rng.range_u64(64, 8_999) as u32,
            ));
        }
        for (tso, size, delay, proposed_tso, proposed_size) in cases {
            let mut cap = SafetyCap::new(Arb { tso, size, delay });
            let c = ctx();
            let got_tso = cap.tso_segment_pkts(&c, proposed_tso);
            assert!(
                got_tso >= 1 && got_tso <= proposed_tso,
                "tso {got_tso} outside [1, {proposed_tso}] for inner {tso}"
            );
            let got_size = cap.packet_ip_size(&c, 0, proposed_size);
            assert!(
                got_size >= 1 && got_size <= proposed_size,
                "size {got_size} outside [1, {proposed_size}] for inner {size}"
            );
            let got_delay = cap.extra_delay(&c);
            assert!(
                got_delay <= MAX_DELAY,
                "delay {got_delay} above ceiling for inner {delay}"
            );
        }
    }
}
