//! Congestion control.
//!
//! The paper's Stob framework must coexist with the congestion controller:
//! obfuscation may reshape the packet sequence but must never make it
//! *more aggressive* than the CCA decided (§4.2), and §5.1 notes that some
//! CCAs (BBR, Copa) use pacing as a measurement instrument, so policies may
//! need to stand down in specific phases. To exercise those interactions we
//! implement three controllers behind one trait: Reno (the textbook
//! AIMD), CUBIC (the Linux default) and a BBR-lite (model-based, supplies
//! its own pacing rate).

pub mod bbr;
pub mod cubic;
pub mod reno;

use crate::config::CcKind;
use netsim::Nanos;

pub use bbr::Bbr;
pub use cubic::Cubic;
pub use reno::Reno;

/// Information handed to the CCA for each cumulative ACK processed.
#[derive(Debug, Clone, Copy)]
pub struct AckInfo {
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked: u64,
    /// RTT sample, when the ACK timestamps an un-retransmitted segment.
    pub rtt: Option<Nanos>,
    pub now: Nanos,
    /// Bytes in flight after this ACK.
    pub inflight: u64,
}

/// A congestion-control algorithm. Window units are bytes.
pub trait CongestionControl {
    /// Current congestion window (bytes).
    fn cwnd(&self) -> u64;

    /// Process a cumulative ACK.
    fn on_ack(&mut self, ack: &AckInfo);

    /// Loss detected by duplicate ACKs (fast retransmit). `inflight` is
    /// bytes outstanding at detection time.
    fn on_loss(&mut self, now: Nanos, inflight: u64);

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: Nanos);

    /// Whether the algorithm is in its startup/slow-start phase.
    fn in_slow_start(&self) -> bool;

    /// Pacing rate in bits/s, if this CCA wants pacing. Window-based CCAs
    /// derive it from cwnd/SRTT scaled by a phase gain (as Linux's
    /// `sk_pacing_rate` does); rate-based CCAs (BBR) supply their model
    /// rate directly.
    fn pacing_rate_bps(&self, srtt: Option<Nanos>) -> Option<u64>;

    fn name(&self) -> &'static str;
}

/// Construct the configured CCA with the given MSS and initial window.
pub fn make_cc(kind: CcKind, mss: u32, init_cwnd_segs: u32) -> Box<dyn CongestionControl> {
    match kind {
        CcKind::Reno => Box::new(Reno::new(mss, init_cwnd_segs)),
        CcKind::Cubic => Box::new(Cubic::new(mss, init_cwnd_segs)),
        CcKind::Bbr => Box::new(Bbr::new(mss, init_cwnd_segs)),
    }
}

/// Pacing gain in slow start (Linux `tcp_pacing_ss_ratio`, 200%).
const PACING_GAIN_SS: f64 = 2.0;
/// Pacing gain in congestion avoidance (Linux `tcp_pacing_ca_ratio`, 120%).
const PACING_GAIN_CA: f64 = 1.2;

/// Window-based pacing rate: cwnd per SRTT, scaled by the phase's gain.
/// Returns bits/s.
pub(crate) fn window_pacing_rate(cwnd: u64, srtt: Nanos, slow_start: bool) -> u64 {
    if srtt.is_zero() {
        return u64::MAX;
    }
    let gain = if slow_start {
        PACING_GAIN_SS
    } else {
        PACING_GAIN_CA
    };
    let bytes_per_sec = cwnd as f64 / srtt.as_secs_f64();
    (bytes_per_sec * 8.0 * gain) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for (kind, name) in [
            (CcKind::Reno, "reno"),
            (CcKind::Cubic, "cubic"),
            (CcKind::Bbr, "bbr"),
        ] {
            let cc = make_cc(kind, 1448, 10);
            assert_eq!(cc.name(), name);
            assert_eq!(cc.cwnd(), 10 * 1448);
            assert!(cc.in_slow_start());
        }
    }

    #[test]
    fn window_pacing_rate_math() {
        // 125000 bytes per 100 ms = 1.25 MB/s = 10 Mb/s, times the phase
        // gain: 2.0 in slow start, 1.2 in congestion avoidance.
        let r = window_pacing_rate(125_000, Nanos::from_millis(100), true);
        assert_eq!(r, 20_000_000);
        let r2 = window_pacing_rate(125_000, Nanos::from_millis(100), false);
        assert_eq!(r2, (10_000_000.0 * PACING_GAIN_CA) as u64);
        // Zero SRTT: unlimited.
        assert_eq!(window_pacing_rate(1, Nanos::ZERO, false), u64::MAX);
    }
}
