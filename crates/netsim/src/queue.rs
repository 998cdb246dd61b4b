//! Router/bottleneck queues.
//!
//! The simulator's network has a single bottleneck with a tail-drop FIFO —
//! the standard dumbbell used in congestion-control evaluation. Loss
//! produced here is what exercises the retransmission and dup-ACK paths in
//! the `stack` crate's TCP.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Statistics a queue keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueStats {
    pub(crate) enqueued: u64,
    pub(crate) dropped: u64,
    pub(crate) dequeued: u64,
    pub(crate) max_bytes: u64,
    pub(crate) max_pkts: usize,
}

/// Tail-drop FIFO bounded in bytes.
#[derive(Debug)]
pub struct DropTailQueue {
    items: VecDeque<Packet>,
    bytes: u64,
    /// Capacity in bytes; a packet that would exceed it is dropped.
    pub(crate) capacity_bytes: u64,
    pub(crate) stats: QueueStats,
}

impl DropTailQueue {
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0);
        DropTailQueue {
            items: VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            stats: QueueStats::default(),
        }
    }

    /// Try to enqueue; returns false (and drops) when full.
    pub fn enqueue(&mut self, pkt: Packet) -> bool {
        let len = pkt.wire_len as u64;
        if self.bytes + len > self.capacity_bytes {
            self.stats.dropped += 1;
            return false;
        }
        self.bytes += len;
        self.items.push_back(pkt);
        self.stats.enqueued += 1;
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
        self.stats.max_pkts = self.stats.max_pkts.max(self.items.len());
        true
    }

    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.items.pop_front()?;
        self.bytes -= pkt.wire_len as u64;
        self.stats.dequeued += 1;
        Some(pkt)
    }

    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(payload: u32) -> Packet {
        Packet::tcp_data(FlowId(1), 0, 0, payload)
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(1 << 20);
        for i in 0..10 {
            let mut p = pkt(100);
            p.seq = i;
            assert!(q.enqueue(p));
        }
        for i in 0..10 {
            assert_eq!(q.dequeue().unwrap().seq, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn byte_accounting() {
        let mut q = DropTailQueue::new(1 << 20);
        q.enqueue(pkt(1000));
        q.enqueue(pkt(500));
        let expected = (1000 + 66) + (500 + 66);
        assert_eq!(q.bytes, expected);
        q.dequeue();
        assert_eq!(q.bytes, 566);
        q.dequeue();
        assert_eq!(q.bytes, 0);
    }

    #[test]
    fn tail_drop_when_full() {
        // Capacity fits exactly two 1066-byte packets.
        let mut q = DropTailQueue::new(2132);
        assert!(q.enqueue(pkt(1000)));
        assert!(q.enqueue(pkt(1000)));
        assert!(!q.enqueue(pkt(1000)));
        assert_eq!(q.stats.dropped, 1);
        assert_eq!(q.stats.enqueued, 2);
        assert_eq!(q.len(), 2);
        // Draining frees space again.
        q.dequeue();
        assert!(q.enqueue(pkt(1000)));
    }

    #[test]
    fn stats_track_high_water_mark() {
        let mut q = DropTailQueue::new(1 << 20);
        q.enqueue(pkt(1000));
        q.enqueue(pkt(1000));
        q.dequeue();
        q.enqueue(pkt(100));
        assert_eq!(q.stats.max_pkts, 2);
        assert_eq!(q.stats.max_bytes, 2 * 1066);
        assert_eq!(q.stats.dequeued, 1);
    }
}
