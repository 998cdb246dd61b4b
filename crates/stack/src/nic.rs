//! NIC model with TSO.
//!
//! The NIC takes one transport segment and emits its packets back-to-back
//! at line rate — the *micro burst* of §4.2: "packets in the same TSO
//! segment cannot be interleaved". Packet boundaries were already decided
//! when the segment was built (by MSS, or by a Stob shaper exercising the
//! paper's §5.5 *flexible TSO*), so the NIC here only assigns wall-clock
//! departure times.

use crate::qdisc::SegDesc;
use netsim::{Link, Nanos, Packet};

/// A host NIC: a transmitter serializing at line rate.
#[derive(Debug)]
pub struct Nic {
    link: Link,
    pub(crate) segments_tx: u64,
    pub(crate) packets_tx: u64,
}

impl Nic {
    pub fn new(rate_bps: u64) -> Self {
        Nic {
            link: Link::new(rate_bps, Nanos::ZERO),
            segments_tx: 0,
            packets_tx: 0,
        }
    }

    /// Is the transmitter idle at `now`?
    pub(crate) fn idle_at(&self, now: Nanos) -> bool {
        self.link.idle_at(now)
    }

    /// Time the transmitter frees up.
    pub(crate) fn free_at(&self) -> Nanos {
        self.link.free_at()
    }

    /// Serialize a whole segment starting no earlier than `now`, handing
    /// each packet to `emit` stamped with the time its last bit leaves
    /// the NIC (the event loop schedules its departure from there).
    /// Returns when the transmitter frees, and the segment's emptied
    /// packet buffer for the caller to reuse.
    pub(crate) fn transmit(
        &mut self,
        now: Nanos,
        seg: SegDesc,
        mut emit: impl FnMut(Nanos, Packet),
    ) -> (Nanos, Vec<Packet>) {
        let mut pkts = seg.pkts;
        let n = pkts.len() as u64;
        let mut done = now;
        for mut pkt in pkts.drain(..) {
            let (tx_done, _) = self.link.transmit(now, pkt.wire_len as u64);
            pkt.sent_at = tx_done;
            done = tx_done;
            emit(tx_done, pkt);
        }
        self.packets_tx += n;
        self.segments_tx += 1;
        netsim::tm_counter!("stack.nic.segments_tx").inc();
        netsim::tm_counter!("stack.nic.packets_tx").add(n);
        (done, pkts)
    }

    /// Serialize a whole segment starting no earlier than `now`. Returns
    /// when the transmitter frees, and each packet with the time its last
    /// bit leaves the NIC, in a new list.
    pub fn transmit_segment(&mut self, now: Nanos, seg: SegDesc) -> (Nanos, Vec<(Nanos, Packet)>) {
        let mut out = Vec::with_capacity(seg.pkts.len());
        let (done, _) = self.transmit(now, seg, |t, pkt| out.push((t, pkt)));
        (done, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FlowId;

    fn burst(n: usize, payload: u32) -> SegDesc {
        let pkts = (0..n)
            .map(|i| {
                let mut p = Packet::tcp_data(FlowId(1), i as u64 * payload as u64, 0, payload);
                p.meta.tso_burst = 7;
                p
            })
            .collect();
        SegDesc::new(FlowId(1), pkts, Nanos::ZERO)
    }

    #[test]
    fn burst_leaves_back_to_back_at_line_rate() {
        let mut nic = Nic::new(100_000_000_000);
        let (done, pkts) = nic.transmit_segment(Nanos::ZERO, burst(4, 1448));
        // 1514-byte wire packets at 100 Gb/s: 121.12 ns each -> 121 ns
        // (integer truncation).
        let gaps: Vec<u64> = pkts
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_nanos())
            .collect();
        assert!(gaps.iter().all(|&g| g == 121), "gaps {gaps:?}");
        assert_eq!(done, pkts.last().unwrap().0);
        assert_eq!(nic.packets_tx, 4);
        assert_eq!(nic.segments_tx, 1);
    }

    #[test]
    fn sent_at_is_stamped() {
        let mut nic = Nic::new(1_000_000_000);
        let (_, pkts) = nic.transmit_segment(Nanos::from_micros(5), burst(2, 1000));
        for (t, p) in &pkts {
            assert_eq!(p.sent_at, *t);
            assert!(*t > Nanos::from_micros(5));
        }
    }

    #[test]
    fn transmit_hands_back_the_emptied_buffer() {
        let mut nic = Nic::new(100_000_000_000);
        let mut left = Vec::new();
        let (done, emptied) = nic.transmit(Nanos::ZERO, burst(4, 1448), |t, p| left.push((t, p)));
        assert!(emptied.is_empty() && emptied.capacity() >= 4);
        assert_eq!(left.len(), 4);
        assert_eq!(done, left[3].0);
        assert!(left.iter().all(|(t, p)| p.sent_at == *t));
    }

    #[test]
    fn successive_segments_queue_on_transmitter() {
        let mut nic = Nic::new(1_000_000_000);
        let (d1, _) = nic.transmit_segment(Nanos::ZERO, burst(1, 1184)); // 1250 wire = 10us
        assert_eq!(d1, Nanos::from_micros(10));
        assert!(!nic.idle_at(Nanos::from_micros(5)));
        let (d2, _) = nic.transmit_segment(Nanos::from_micros(5), burst(1, 1184));
        assert_eq!(d2, Nanos::from_micros(20));
        assert_eq!(nic.free_at(), d2);
    }
}
