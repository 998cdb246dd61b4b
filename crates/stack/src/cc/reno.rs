//! TCP Reno/NewReno congestion control (RFC 5681 style, byte-counting).

use super::{window_pacing_rate, AckInfo, CongestionControl};
use netsim::Nanos;

#[derive(Debug, Clone)]
pub struct Reno {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Accumulated acked bytes toward the next +1 MSS in CA.
    ca_acc: u64,
    in_recovery_until: Option<Nanos>,
}

impl Reno {
    pub fn new(mss: u32, init_cwnd_segs: u32) -> Self {
        Reno {
            mss: mss as u64,
            cwnd: mss as u64 * init_cwnd_segs as u64,
            ssthresh: u64::MAX,
            ca_acc: 0,
            in_recovery_until: None,
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        if let Some(t) = self.in_recovery_until {
            if ack.now < t {
                return; // one window-reduction per RTT of loss
            }
            self.in_recovery_until = None;
        }
        if self.in_slow_start() {
            // Slow start: cwnd grows by bytes acked (ABC, L=1).
            self.cwnd += ack.newly_acked.min(self.mss);
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: +1 MSS per cwnd of acked bytes.
            self.ca_acc += ack.newly_acked;
            while self.ca_acc >= self.cwnd {
                self.ca_acc -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
    }

    fn on_loss(&mut self, now: Nanos, inflight: u64) {
        if self.in_recovery_until.is_some_and(|t| now < t) {
            return;
        }
        netsim::tm_counter!("stack.cc.loss_events").inc();
        let base = inflight.max(self.cwnd / 2).max(2 * self.mss);
        self.ssthresh = (base / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.ca_acc = 0;
        // Suppress further reductions for roughly one RTT; we use a fixed
        // guard interval since Reno itself does not track SRTT.
        self.in_recovery_until = Some(now + Nanos::from_millis(10));
    }

    fn on_rto(&mut self, _now: Nanos) {
        netsim::tm_counter!("stack.cc.rto_events").inc();
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.ca_acc = 0;
        self.in_recovery_until = None;
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn pacing_rate_bps(&self, srtt: Option<Nanos>) -> Option<u64> {
        Some(window_pacing_rate(self.cwnd, srtt?, self.in_slow_start()))
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;

    fn ack(bytes: u64, now_ms: u64) -> AckInfo {
        AckInfo {
            newly_acked: bytes,
            rtt: Some(Nanos::from_millis(20)),
            now: Nanos::from_millis(now_ms),
            inflight: 0,
        }
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = Reno::new(MSS as u32, 10);
        let start = cc.cwnd();
        // Ack a full window in MSS chunks: cwnd should double.
        for i in 0..10 {
            cc.on_ack(&ack(MSS, i));
        }
        assert_eq!(cc.cwnd(), 2 * start);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn loss_halves_and_exits_slow_start() {
        let mut cc = Reno::new(MSS as u32, 10);
        let inflight = cc.cwnd();
        cc.on_loss(Nanos::from_millis(100), inflight);
        assert_eq!(cc.cwnd(), inflight / 2);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_linear_growth() {
        let mut cc = Reno::new(MSS as u32, 10);
        cc.on_loss(Nanos::from_millis(0), 20 * MSS);
        let w = cc.cwnd();
        // Ack exactly one window after the recovery guard passed.
        let mut acked = 0;
        let mut t = 100;
        while acked < w {
            cc.on_ack(&ack(MSS, t));
            acked += MSS;
            t += 1;
        }
        assert_eq!(cc.cwnd(), w + MSS);
    }

    #[test]
    fn at_most_one_reduction_per_guard_interval() {
        let mut cc = Reno::new(MSS as u32, 100);
        cc.on_loss(Nanos::from_millis(50), 100 * MSS);
        let after_first = cc.cwnd();
        cc.on_loss(Nanos::from_millis(51), 100 * MSS);
        assert_eq!(cc.cwnd(), after_first);
        cc.on_loss(Nanos::from_millis(80), after_first);
        assert!(cc.cwnd() < after_first);
    }

    #[test]
    fn rto_collapses_to_one_mss() {
        let mut cc = Reno::new(MSS as u32, 10);
        cc.on_rto(Nanos::from_millis(500));
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.in_slow_start()); // cwnd < ssthresh
    }

    #[test]
    fn pacing_rate_needs_srtt() {
        let cc = Reno::new(MSS as u32, 10);
        assert!(cc.pacing_rate_bps(None).is_none());
        let r = cc.pacing_rate_bps(Some(Nanos::from_millis(10))).unwrap();
        // 14480 bytes / 10 ms * 8 * 2.0 (slow-start gain) ~ 23.2 Mb/s.
        assert!((23_000_000..24_000_000).contains(&r), "{r}");
    }

    #[test]
    fn floor_of_two_mss_after_loss() {
        let mut cc = Reno::new(MSS as u32, 2);
        cc.on_loss(Nanos::from_millis(1), MSS);
        assert_eq!(cc.cwnd(), 2 * MSS);
    }
}
