//! CUBIC congestion control (RFC 8312 style) — the Linux default, and the
//! controller used for the Figure 3 reproduction runs.

use super::{window_pacing_rate, AckInfo, CongestionControl};
use netsim::Nanos;

/// CUBIC constant C in (MSS, seconds) units.
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;

#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Window size (bytes) just before the last reduction.
    w_max: f64,
    /// Epoch start of the current cubic growth phase.
    epoch_start: Option<Nanos>,
    /// K: time offset at which the cubic curve crosses w_max (seconds).
    k: f64,
    /// Reno-friendly window estimate (bytes).
    w_est: f64,
    /// Guard: at most one reduction per RTT-ish interval.
    in_recovery_until: Option<Nanos>,
    /// Last SRTT-ish sample for the friendliness term.
    last_rtt: Nanos,
    /// Smallest RTT seen (HyStart baseline).
    min_rtt: Option<Nanos>,
    /// Consecutive above-threshold samples (HyStart debounce: a single
    /// delayed-ACK-inflated sample must not end slow start).
    hystart_above: u32,
}

impl Cubic {
    pub fn new(mss: u32, init_cwnd_segs: u32) -> Self {
        Cubic {
            mss: mss as u64,
            cwnd: mss as u64 * init_cwnd_segs as u64,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            in_recovery_until: None,
            last_rtt: Nanos::from_millis(100),
            min_rtt: None,
            hystart_above: 0,
        }
    }

    fn segs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mss as f64
    }

    fn reduce(&mut self, now: Nanos) {
        self.w_max = self.cwnd as f64;
        self.cwnd = ((self.cwnd as f64 * BETA) as u64).max(2 * self.mss);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.in_recovery_until = Some(now + self.last_rtt);
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        if let Some(rtt) = ack.rtt {
            self.last_rtt = rtt;
            if self.min_rtt.is_none_or(|m| rtt < m) {
                self.min_rtt = Some(rtt);
            }
            // HyStart-lite (delay increase detection): leave slow start
            // before the queue overflows, as Linux CUBIC does. Require
            // several consecutive elevated samples so a stray
            // delayed-ACK-inflated measurement cannot end slow start.
            if self.in_slow_start() {
                if let Some(m) = self.min_rtt {
                    let thresh = m + (m / 8).max(Nanos::from_millis(4));
                    if rtt > thresh && self.cwnd > 16 * self.mss {
                        self.hystart_above += 1;
                        if self.hystart_above >= 4 {
                            self.ssthresh = self.cwnd;
                        }
                    } else {
                        self.hystart_above = 0;
                    }
                }
            }
        }
        if let Some(t) = self.in_recovery_until {
            if ack.now < t {
                return;
            }
            self.in_recovery_until = None;
        }
        if self.in_slow_start() {
            self.cwnd += ack.newly_acked.min(self.mss);
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
            return;
        }
        // Congestion avoidance: cubic window as a function of time since
        // the epoch started (RFC 8312 §4.1).
        let now = ack.now;
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            let w_max_segs = self.segs(self.w_max as u64);
            let cwnd_segs = self.segs(self.cwnd);
            self.k = if w_max_segs > cwnd_segs {
                ((w_max_segs - cwnd_segs) / C).cbrt()
            } else {
                0.0
            };
            self.w_est = self.cwnd as f64;
        }
        // A reordered ACK can carry a timestamp from before the epoch
        // started; clamp to t = 0 rather than underflowing.
        let t = now
            .saturating_sub(self.epoch_start.expect("epoch set above"))
            .as_secs_f64();
        let w_max_segs = self.segs(self.w_max as u64).max(self.segs(self.cwnd));
        let target_segs = C * (t - self.k).powi(3) + w_max_segs;
        let target = target_segs * self.mss as f64;

        // TCP-friendly region (RFC 8312 §4.2): the window Reno would have,
        // grown per-ack at alpha_cubic per cwnd of acked data.
        let alpha = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += alpha * self.mss as f64 * ack.newly_acked as f64 / self.cwnd.max(1) as f64;
        let goal = target.max(self.w_est);

        if goal > self.cwnd as f64 {
            // Approach the target gradually: cwnd/(target-cwnd) acks per
            // MSS of growth, i.e. grow by (goal-cwnd)/cwnd per acked cwnd
            // (Linux's tcp_cubic update rule).
            let incr = (goal - self.cwnd as f64) * ack.newly_acked as f64 / self.cwnd.max(1) as f64;
            // Never grow faster than slow start would (safety clamp).
            self.cwnd += (incr.max(0.0) as u64).min(ack.newly_acked);
        }
    }

    fn on_loss(&mut self, now: Nanos, _inflight: u64) {
        if self.in_recovery_until.is_some_and(|t| now < t) {
            return;
        }
        netsim::tm_counter!("stack.cc.loss_events").inc();
        self.reduce(now);
    }

    fn on_rto(&mut self, now: Nanos) {
        netsim::tm_counter!("stack.cc.rto_events").inc();
        self.w_max = self.cwnd as f64;
        self.ssthresh = ((self.cwnd as f64 * BETA) as u64).max(2 * self.mss);
        self.cwnd = self.mss;
        self.epoch_start = None;
        self.in_recovery_until = None;
        let _ = now;
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn pacing_rate_bps(&self, srtt: Option<Nanos>) -> Option<u64> {
        Some(window_pacing_rate(self.cwnd, srtt?, self.in_slow_start()))
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;

    fn ack_at(bytes: u64, now: Nanos) -> AckInfo {
        AckInfo {
            newly_acked: bytes,
            rtt: Some(Nanos::from_millis(20)),
            now,
            inflight: 0,
        }
    }

    #[test]
    fn starts_in_slow_start_and_grows() {
        let mut cc = Cubic::new(MSS as u32, 10);
        let w0 = cc.cwnd();
        for i in 0..10 {
            cc.on_ack(&ack_at(MSS, Nanos::from_millis(i)));
        }
        assert_eq!(cc.cwnd(), 2 * w0);
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut cc = Cubic::new(MSS as u32, 100);
        let w = cc.cwnd();
        cc.on_loss(Nanos::from_millis(10), w);
        assert_eq!(cc.cwnd(), (w as f64 * BETA) as u64);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn cubic_regrows_toward_w_max() {
        let mut cc = Cubic::new(MSS as u32, 100);
        let w = cc.cwnd();
        cc.on_loss(Nanos::from_millis(10), w);
        let reduced = cc.cwnd();
        // Feed ACKs over simulated seconds; window should recover toward
        // (and eventually past) the pre-loss size.
        let mut now = Nanos::from_millis(50);
        for _ in 0..4000 {
            cc.on_ack(&ack_at(MSS, now));
            now += Nanos::from_millis(2);
        }
        assert!(
            cc.cwnd() > reduced + 10 * MSS,
            "cwnd did not regrow: {} vs {}",
            cc.cwnd(),
            reduced
        );
    }

    #[test]
    fn concave_then_convex_growth() {
        // W_max = 100 segs, beta = 0.7 => K = cbrt(30/0.4) ~ 4.2 s. The
        // curve is concave (decelerating) while approaching W_max around
        // t = K and convex (accelerating) afterwards.
        let mut cc = Cubic::new(MSS as u32, 100);
        cc.on_loss(Nanos::from_millis(10), cc.cwnd());
        let mut now = Nanos::from_millis(50);
        let mut deltas = Vec::new();
        let mut last = cc.cwnd();
        for _ in 0..60 {
            // One window of acked data per 0.2 s of simulated time.
            for _ in 0..100 {
                cc.on_ack(&ack_at(MSS, now));
                now += Nanos::from_millis(2);
            }
            deltas.push(cc.cwnd() as i64 - last as i64);
            last = cc.cwnd();
        }
        // Windows 19..22 straddle t ~ 4 s (the plateau at W_max);
        // windows 55..58 are deep in the convex region (~11 s).
        let plateau: i64 = deltas[19..22].iter().sum();
        let convex: i64 = deltas[55..58].iter().sum();
        assert!(
            convex > plateau * 2,
            "convex {convex} should dwarf plateau {plateau}"
        );
        // And the window did regrow past W_max by the end.
        assert!(
            cc.cwnd() > 100 * MSS,
            "cwnd {} never passed w_max",
            cc.cwnd()
        );
    }

    #[test]
    fn one_reduction_per_rtt() {
        let mut cc = Cubic::new(MSS as u32, 100);
        cc.on_loss(Nanos::from_millis(10), cc.cwnd());
        let w = cc.cwnd();
        cc.on_loss(Nanos::from_millis(11), w);
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn reordered_and_duplicated_acks_never_zero_or_wrap_cwnd() {
        // An ACK delivered late (carrying a timestamp before the current
        // congestion-avoidance epoch started) or processed twice must not
        // panic, zero the window, or wrap it. Regression: the cubic `t`
        // computation used a plain subtraction that underflowed when
        // `ack.now` predated `epoch_start`.
        let mut cc = Cubic::new(MSS as u32, 100);
        let initial = cc.cwnd();
        cc.on_loss(Nanos::from_millis(10), initial);
        // First post-recovery ACK starts the cubic epoch at t = 200 ms.
        cc.on_ack(&ack_at(MSS, Nanos::from_millis(200)));
        // A reordered ACK from before the epoch, then an exact duplicate,
        // then a duplicate loss signal from the same burst.
        cc.on_ack(&ack_at(MSS, Nanos::from_millis(150)));
        cc.on_ack(&ack_at(MSS, Nanos::from_millis(150)));
        cc.on_loss(Nanos::from_millis(150), cc.cwnd());
        for _ in 0..50 {
            cc.on_ack(&ack_at(MSS, Nanos::from_millis(150)));
        }
        assert!(cc.cwnd() >= 2 * MSS, "cwnd collapsed: {}", cc.cwnd());
        assert!(cc.cwnd() <= 4 * initial, "cwnd wrapped: {}", cc.cwnd());
    }

    #[test]
    fn rto_resets_to_one_mss() {
        let mut cc = Cubic::new(MSS as u32, 50);
        cc.on_rto(Nanos::from_millis(100));
        assert_eq!(cc.cwnd(), MSS);
    }
}
