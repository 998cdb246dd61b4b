//! Point-to-point link model.
//!
//! A link has a transmission rate and a propagation delay. It serializes
//! packets one at a time: a packet handed to a busy link waits until the
//! previous transmission finishes (this is what turns a TSO segment handed
//! to the NIC into a *micro burst* of back-to-back, line-rate packets —
//! the behaviour §2.3 of the paper centres on).

use crate::time::Nanos;

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmission rate in bits per second.
    pub(crate) rate_bps: u64,
    /// One-way propagation delay.
    pub(crate) delay: Nanos,
    /// Time until which the transmitter is busy.
    busy_until: Nanos,
    /// Cumulative bytes serialized.
    pub(crate) bytes_sent: u64,
    /// Cumulative packets serialized.
    pub(crate) pkts_sent: u64,
}

impl Link {
    pub fn new(rate_bps: u64, delay: Nanos) -> Self {
        assert!(rate_bps > 0);
        Link {
            rate_bps,
            delay,
            busy_until: Nanos::ZERO,
            bytes_sent: 0,
            pkts_sent: 0,
        }
    }

    /// Serialization time for a packet of `bytes`.
    pub(crate) fn tx_time(&self, bytes: u64) -> Nanos {
        Nanos::for_bytes_at_rate(bytes, self.rate_bps)
    }

    /// Hand a packet of `bytes` to the link at time `now`.
    ///
    /// Returns `(tx_done, arrival)`: the time serialization completes at
    /// the sender, and the time the packet arrives at the far end.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let start = now.max(self.busy_until);
        let tx_done = start + self.tx_time(bytes);
        debug_assert!(
            tx_done >= now,
            "tx_done {tx_done} earlier than handoff time {now}"
        );
        self.busy_until = tx_done;
        self.bytes_sent += bytes;
        self.pkts_sent += 1;
        (tx_done, tx_done + self.delay)
    }

    /// When will the transmitter next be free?
    pub fn free_at(&self) -> Nanos {
        self.busy_until
    }

    /// Is the transmitter idle at `now`?
    pub fn idle_at(&self, now: Nanos) -> bool {
        self.busy_until <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_timing() {
        let mut l = Link::new(1_000_000_000, Nanos::from_micros(50)); // 1 Gb/s
        let (done, arrive) = l.transmit(Nanos::ZERO, 1250); // 10 us serialization
        assert_eq!(done, Nanos::from_micros(10));
        assert_eq!(arrive, Nanos::from_micros(60));
    }

    #[test]
    fn back_to_back_packets_queue_on_transmitter() {
        let mut l = Link::new(1_000_000_000, Nanos::ZERO);
        let (d1, _) = l.transmit(Nanos::ZERO, 1250);
        let (d2, _) = l.transmit(Nanos::ZERO, 1250); // handed while busy
        assert_eq!(d1, Nanos::from_micros(10));
        assert_eq!(d2, Nanos::from_micros(20));
        assert_eq!(l.free_at(), d2);
        assert_eq!(l.bytes_sent, 2500);
        assert_eq!(l.pkts_sent, 2);
    }

    #[test]
    fn idle_gap_is_not_accumulated() {
        let mut l = Link::new(1_000_000_000, Nanos::ZERO);
        l.transmit(Nanos::ZERO, 1250);
        // Next packet arrives long after the link went idle.
        let (done, _) = l.transmit(Nanos::from_millis(1), 1250);
        assert_eq!(done, Nanos::from_millis(1) + Nanos::from_micros(10));
    }

    #[test]
    fn micro_burst_at_line_rate() {
        // A 44-packet TSO burst at 100 Gb/s: packets leave 120 ns apart.
        let mut l = Link::new(100_000_000_000, Nanos::ZERO);
        let mut last = Nanos::ZERO;
        for i in 0..44 {
            let (done, _) = l.transmit(Nanos::ZERO, 1500);
            if i > 0 {
                assert_eq!(done - last, Nanos(120));
            }
            last = done;
        }
    }

    #[test]
    fn tx_done_never_precedes_handoff() {
        // Even a zero-byte packet on a very fast link completes no
        // earlier than the instant it was handed over, busy or idle.
        let mut l = Link::new(100_000_000_000, Nanos::from_micros(50));
        for (now, bytes) in [
            (Nanos::ZERO, 0u64),
            (Nanos::ZERO, 1),
            (Nanos::from_micros(3), 1500),
            (Nanos::from_millis(1), 0),
        ] {
            let (done, arrive) = l.transmit(now, bytes);
            assert!(done >= now, "tx_done {done} < now {now}");
            assert!(arrive >= done);
        }
    }

    #[test]
    fn idle_probe() {
        let mut l = Link::new(1_000_000_000, Nanos::ZERO);
        assert!(l.idle_at(Nanos::ZERO));
        l.transmit(Nanos::ZERO, 1250);
        assert!(!l.idle_at(Nanos(5_000)));
        assert!(l.idle_at(Nanos(10_000)));
    }
}
