//! BBR-lite: a model-based controller with explicit pacing.
//!
//! BBR matters to this reproduction because §5.1 of the paper singles it
//! out: BBR *uses pacing as a sensing instrument* (ACK spacing reveals
//! bottleneck queueing), so a Stob policy that perturbs departure times
//! can corrupt its model. A `stob` policy's slow-start hold
//! (`respect_slow_start`) exists for exactly this controller. We
//! implement the structural skeleton of BBRv1: startup/drain/
//! probe-bandwidth/probe-RTT states, a windowed-max
//! bandwidth filter, a windowed-min RTT filter, and gain cycling.

use super::{AckInfo, CongestionControl};
use netsim::Nanos;

const STARTUP_GAIN: f64 = 2.885; // 2/ln(2)
const DRAIN_GAIN: f64 = 1.0 / 2.885;
const CWND_GAIN: f64 = 2.0;
/// ProbeBW gain cycle (8 phases of one min-RTT each).
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth filter window, in gain-cycle phases.
const BW_WINDOW: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

#[derive(Debug, Clone)]
pub(crate) struct Bbr {
    mss: u64,
    state: State,
    /// Windowed max of delivery-rate samples (bytes/sec) with insertion
    /// round tags.
    bw_samples: Vec<(u64, f64)>,
    round: u64,
    min_rtt: Option<Nanos>,
    min_rtt_stamp: Nanos,
    cycle_index: usize,
    cycle_stamp: Nanos,
    /// Bytes delivered in total (for rate samples).
    delivered: u64,
    last_sample_delivered: u64,
    last_sample_time: Nanos,
    full_bw: f64,
    full_bw_count: u32,
    probe_rtt_done: Option<Nanos>,
    init_cwnd: u64,
}

impl Bbr {
    pub(crate) fn new(mss: u32, init_cwnd_segs: u32) -> Self {
        Bbr {
            mss: mss as u64,
            state: State::Startup,
            bw_samples: Vec::new(),
            round: 0,
            min_rtt: None,
            min_rtt_stamp: Nanos::ZERO,
            cycle_index: 0,
            cycle_stamp: Nanos::ZERO,
            delivered: 0,
            last_sample_delivered: 0,
            last_sample_time: Nanos::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_rtt_done: None,
            init_cwnd: mss as u64 * init_cwnd_segs as u64,
        }
    }

    /// Max filtered bandwidth estimate, bytes/sec.
    pub(crate) fn btl_bw(&self) -> f64 {
        self.bw_samples.iter().map(|&(_, b)| b).fold(0.0, f64::max)
    }

    fn pacing_gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => DRAIN_GAIN,
            State::ProbeBw => CYCLE[self.cycle_index],
            State::ProbeRtt => 1.0,
        }
    }

    fn push_bw_sample(&mut self, bw: f64) {
        self.bw_samples.push((self.round, bw));
        let min_round = self.round.saturating_sub(BW_WINDOW as u64);
        self.bw_samples.retain(|&(r, _)| r >= min_round);
    }

    fn bdp(&self) -> u64 {
        match self.min_rtt {
            Some(rtt) => (self.btl_bw() * rtt.as_secs_f64()) as u64,
            None => self.init_cwnd,
        }
    }

    fn check_full_pipe(&mut self) {
        let bw = self.btl_bw();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }
}

impl CongestionControl for Bbr {
    fn cwnd(&self) -> u64 {
        match self.state {
            State::ProbeRtt => (4 * self.mss).max(self.init_cwnd / 2),
            _ => {
                if self.min_rtt.is_none() || self.btl_bw() <= 0.0 {
                    return self.init_cwnd; // no model yet: RFC 6928 initial window
                }
                ((self.bdp() as f64 * CWND_GAIN) as u64).max(4 * self.mss)
            }
        }
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        self.delivered += ack.newly_acked;
        // Delivery-rate sample over the interval since the previous ACK.
        if ack.now > self.last_sample_time {
            let dt = (ack.now - self.last_sample_time).as_secs_f64();
            let bytes = self.delivered - self.last_sample_delivered;
            if dt > 0.0 && bytes > 0 {
                self.push_bw_sample(bytes as f64 / dt);
            }
            self.last_sample_time = ack.now;
            self.last_sample_delivered = self.delivered;
            self.round += 1;
        }
        // Min-RTT filter with a 10 s window.
        if let Some(rtt) = ack.rtt {
            let expired = ack.now.saturating_sub(self.min_rtt_stamp) > Nanos::from_secs(10);
            if expired || self.min_rtt.is_none_or(|m| rtt <= m) {
                self.min_rtt = Some(rtt);
                self.min_rtt_stamp = ack.now;
            } else if expired && self.state != State::ProbeRtt {
                self.state = State::ProbeRtt;
                self.probe_rtt_done = Some(ack.now + Nanos::from_millis(200));
            }
        }
        match self.state {
            State::Startup => {
                self.check_full_pipe();
                if self.full_bw_count >= 3 {
                    self.state = State::Drain;
                }
            }
            State::Drain => {
                if ack.inflight <= self.bdp() {
                    self.state = State::ProbeBw;
                    self.cycle_stamp = ack.now;
                }
            }
            State::ProbeBw => {
                let phase_len = self.min_rtt.unwrap_or(Nanos::from_millis(10));
                if ack.now.saturating_sub(self.cycle_stamp) > phase_len {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE.len();
                    self.cycle_stamp = ack.now;
                }
            }
            State::ProbeRtt => {
                if self.probe_rtt_done.is_some_and(|t| ack.now >= t) {
                    self.probe_rtt_done = None;
                    self.state = State::ProbeBw;
                    self.cycle_stamp = ack.now;
                }
            }
        }
    }

    fn on_loss(&mut self, _now: Nanos, _inflight: u64) {
        // BBRv1 famously ignores isolated loss; the model absorbs it.
        netsim::tm_counter!("stack.cc.loss_events").inc();
    }

    fn on_rto(&mut self, _now: Nanos) {
        // Severe signal: restart the model conservatively.
        netsim::tm_counter!("stack.cc.rto_events").inc();
        self.bw_samples.clear();
        self.full_bw = 0.0;
        self.full_bw_count = 0;
        self.state = State::Startup;
    }

    fn in_slow_start(&self) -> bool {
        self.state == State::Startup
    }

    fn pacing_rate_bps(&self, _srtt: Option<Nanos>) -> Option<u64> {
        let bw = self.btl_bw();
        if bw <= 0.0 {
            // No samples yet: pace the initial window over a guessed RTT.
            return Some(u64::MAX);
        }
        Some((bw * 8.0 * self.pacing_gain()) as u64)
    }

    #[cfg(test)]
    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;

    fn feed(cc: &mut Bbr, n: usize, bytes: u64, dt: Nanos, rtt: Nanos, start: Nanos) -> Nanos {
        let mut now = start;
        for _ in 0..n {
            now += dt;
            cc.on_ack(&AckInfo {
                newly_acked: bytes,
                rtt: Some(rtt),
                now,
                inflight: 10 * MSS,
            });
        }
        now
    }

    #[test]
    fn startup_uses_high_gain() {
        let cc = Bbr::new(MSS as u32, 10);
        assert!(cc.in_slow_start());
        // No samples yet: unlimited pacing.
        assert_eq!(cc.pacing_rate_bps(None), Some(u64::MAX));
    }

    #[test]
    fn bandwidth_filter_tracks_delivery_rate() {
        let mut cc = Bbr::new(MSS as u32, 10);
        // 1448 bytes per 1 ms = 1.448 MB/s.
        feed(
            &mut cc,
            50,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            Nanos::ZERO,
        );
        let bw = cc.btl_bw();
        assert!((1.3e6..1.6e6).contains(&bw), "filtered bw {bw} bytes/s");
    }

    #[test]
    fn exits_startup_when_bandwidth_plateaus() {
        let mut cc = Bbr::new(MSS as u32, 10);
        let now = feed(
            &mut cc,
            200,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            Nanos::ZERO,
        );
        assert!(!cc.in_slow_start(), "still in startup after plateau");
        // And eventually cycles gains in ProbeBW.
        feed(
            &mut cc,
            100,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            now,
        );
        let r = cc.pacing_rate_bps(None).unwrap();
        assert!(r < u64::MAX);
    }

    #[test]
    fn cwnd_is_gain_times_bdp() {
        let mut cc = Bbr::new(MSS as u32, 10);
        feed(
            &mut cc,
            100,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            Nanos::ZERO,
        );
        let bdp = (cc.btl_bw() * 0.010) as u64;
        let cwnd = cc.cwnd();
        assert!(
            cwnd >= (bdp as f64 * 1.8) as u64 && cwnd <= (bdp as f64 * 2.3) as u64 + 4 * MSS,
            "cwnd {cwnd} vs bdp {bdp}"
        );
    }

    #[test]
    fn reordered_and_duplicated_acks_never_zero_or_wrap_cwnd() {
        // Duplicated ACKs (same timestamp replayed) and reordered ACKs
        // (timestamps moving backwards) must not corrupt the delivery-rate
        // model: cwnd stays at least the 4-MSS floor and never wraps.
        let mut cc = Bbr::new(MSS as u32, 10);
        let now = feed(
            &mut cc,
            100,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            Nanos::ZERO,
        );
        let modeled = cc.cwnd();
        let replay = |t: Nanos| AckInfo {
            newly_acked: MSS,
            rtt: Some(Nanos::from_millis(10)),
            now: t,
            inflight: 10 * MSS,
        };
        for _ in 0..20 {
            cc.on_ack(&replay(now)); // exact duplicates
            cc.on_ack(&replay(now.saturating_sub(Nanos::from_millis(5)))); // reordered
            cc.on_loss(now, 10 * MSS); // duplicate loss signals from one burst
        }
        let cwnd = cc.cwnd();
        assert!(cwnd >= 4 * MSS, "cwnd collapsed: {cwnd}");
        assert!(
            cwnd <= 4 * modeled.max(cc.init_cwnd),
            "cwnd wrapped: {cwnd}"
        );
    }

    #[test]
    fn loss_is_ignored_but_rto_resets() {
        let mut cc = Bbr::new(MSS as u32, 10);
        feed(
            &mut cc,
            100,
            MSS,
            Nanos::from_millis(1),
            Nanos::from_millis(10),
            Nanos::ZERO,
        );
        let before = cc.btl_bw();
        cc.on_loss(Nanos::from_millis(200), 5 * MSS);
        assert_eq!(cc.btl_bw(), before);
        cc.on_rto(Nanos::from_millis(300));
        assert_eq!(cc.btl_bw(), 0.0);
        assert!(cc.in_slow_start());
    }
}
