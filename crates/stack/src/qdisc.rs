//! Queuing discipline: FQ with pacing, plus a priority band for ACKs.
//!
//! This is the paper's second asynchrony (§2.3): once the transport pushes
//! a segment down, *another execution context* decides when it actually
//! reaches the NIC — here, the earliest-eligible-first scheduler over
//! per-flow FIFOs, honouring each segment's pacing timestamp, exactly like
//! Linux's `fq` qdisc that BBR relies on. Departure times are nanosecond
//! granularity (§4.2).

use netsim::{FlowId, Nanos, Packet};
use std::collections::{BTreeMap, VecDeque};

/// A transport segment queued for the NIC: the unit TSO operates on.
#[derive(Debug, Clone)]
pub struct SegDesc {
    pub(crate) flow: FlowId,
    /// Fully built wire packets the NIC will emit back-to-back.
    pub pkts: Vec<Packet>,
    /// Earliest departure time (pacing + CPU + shaper delay).
    pub eligible_at: Nanos,
    /// Total wire bytes (cached).
    pub(crate) wire_bytes: u64,
}

impl SegDesc {
    pub fn new(flow: FlowId, pkts: Vec<Packet>, eligible_at: Nanos) -> Self {
        let wire_bytes = pkts.iter().map(|p| p.wire_len as u64).sum();
        SegDesc {
            flow,
            pkts,
            eligible_at,
            wire_bytes,
        }
    }

    pub(crate) fn payload_bytes(&self) -> u64 {
        self.pkts.iter().map(|p| p.payload as u64).sum()
    }
}

/// One flow's queue: its FIFO of paced segments plus the wire bytes they
/// hold, kept together so every operation is one map lookup.
#[derive(Debug)]
struct FlowQueue {
    fifo: VecDeque<SegDesc>,
    backlog: u64,
}

/// Outcome of one scheduler pass over the qdisc at a given instant.
#[derive(Debug)]
pub(crate) enum Poll {
    /// A segment the NIC may transmit now (already removed).
    Ready(SegDesc),
    /// Nothing is eligible yet; the earliest head becomes eligible then.
    Wait(Nanos),
    /// Nothing is queued.
    Empty,
}

/// FQ-style pacing qdisc.
#[derive(Debug, Default)]
pub struct FqQdisc {
    /// Per-flow queues of paced segments; only backlogged flows have an
    /// entry. BTreeMap for deterministic iteration order.
    flows: BTreeMap<FlowId, FlowQueue>,
    /// Emptied FIFOs of flows that drained, kept for the next flow to
    /// become backlogged so a backlog episode allocates nothing.
    spare: Vec<VecDeque<SegDesc>>,
    /// Strict-priority band for pure ACKs / handshake packets (Linux
    /// does not pace these either).
    prio: VecDeque<SegDesc>,
    pub(crate) total_segments: u64,
}

impl FqQdisc {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a paced data segment.
    pub fn enqueue(&mut self, seg: SegDesc) {
        netsim::tm_counter!("stack.qdisc.enqueued").inc();
        let spare = &mut self.spare;
        let q = self.flows.entry(seg.flow).or_insert_with(|| FlowQueue {
            fifo: spare.pop().unwrap_or_default(),
            backlog: 0,
        });
        q.backlog += seg.wire_bytes;
        // A maximum is order-independent, so the high-water mark stays
        // deterministic even when independent sims share the registry.
        netsim::tm_gauge!("stack.qdisc.backlog_hwm_bytes").set_max(q.backlog);
        q.fifo.push_back(seg);
        self.total_segments += 1;
    }

    /// Enqueue into the unpaced priority band.
    pub(crate) fn enqueue_prio(&mut self, seg: SegDesc) {
        netsim::tm_counter!("stack.qdisc.enqueued_prio").inc();
        self.total_segments += 1;
        self.prio.push_back(seg);
    }

    /// One pass over the flow heads: the eligible head with the earliest
    /// pacing timestamp (ties broken by flow id for determinism), and the
    /// earliest timestamp among the heads still waiting at `now`.
    fn scan(&self, now: Nanos) -> (Option<(Nanos, FlowId)>, Option<Nanos>) {
        let mut ready: Option<(Nanos, FlowId)> = None;
        let mut wait: Option<Nanos> = None;
        for (&flow, q) in &self.flows {
            let Some(head) = q.fifo.front() else { continue };
            let t = head.eligible_at;
            if t <= now {
                if ready.is_none_or(|(best, _)| t < best) {
                    ready = Some((t, flow));
                }
            } else if wait.is_none_or(|w| t < w) {
                wait = Some(t);
            }
        }
        (ready, wait)
    }

    /// Take the next segment the NIC may transmit at `now` — priority
    /// band first, then the earliest eligible flow head — or report when
    /// to look again, from the same scan that found nothing eligible.
    pub(crate) fn poll(&mut self, now: Nanos) -> Poll {
        if let Some(seg) = self.prio.pop_front() {
            return Poll::Ready(seg);
        }
        match self.scan(now) {
            (Some((_, flow)), _) => {
                let q = self.flows.get_mut(&flow).expect("flow disappeared");
                let seg = q.fifo.pop_front().expect("empty eligible flow");
                q.backlog -= seg.wire_bytes;
                if q.fifo.is_empty() {
                    let drained = self.flows.remove(&flow).expect("flow just polled");
                    self.spare.push(drained.fifo);
                }
                Poll::Ready(seg)
            }
            (None, Some(t)) => Poll::Wait(t),
            (None, None) => Poll::Empty,
        }
    }

    /// Dequeue the next segment the NIC may transmit at `now`:
    /// priority band first, then the eligible flow head with the earliest
    /// pacing timestamp (ties broken by flow id for determinism).
    pub fn dequeue(&mut self, now: Nanos) -> Option<SegDesc> {
        match self.poll(now) {
            Poll::Ready(seg) => Some(seg),
            Poll::Wait(_) | Poll::Empty => None,
        }
    }

    /// Earliest time at which anything will become eligible, if the qdisc
    /// is non-empty but nothing is eligible right now.
    #[cfg(test)]
    pub(crate) fn next_eligible(&self) -> Option<Nanos> {
        if !self.prio.is_empty() {
            return Some(Nanos::ZERO);
        }
        self.scan(Nanos::MAX).0.map(|(t, _)| t)
    }

    /// Bytes of `flow` currently sitting in the qdisc (TSQ input).
    #[cfg(test)]
    pub(crate) fn flow_backlog(&self, flow: FlowId) -> u64 {
        self.flows.get(&flow).map_or(0, |q| q.backlog)
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.prio.is_empty() && self.flows.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len_segments(&self) -> usize {
        self.prio.len() + self.flows.values().map(|q| q.fifo.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::PacketKind;

    fn seg(flow: u32, eligible: u64, payload: u32) -> SegDesc {
        let p = Packet::tcp_data(FlowId(flow), 0, 0, payload);
        SegDesc::new(FlowId(flow), vec![p], Nanos(eligible))
    }

    fn ack_seg(flow: u32) -> SegDesc {
        let p = Packet::tcp_ack(FlowId(flow), 0, 0);
        SegDesc::new(FlowId(flow), vec![p], Nanos::ZERO)
    }

    #[test]
    fn pacing_holds_back_ineligible_segments() {
        let mut q = FqQdisc::new();
        q.enqueue(seg(1, 1_000, 100));
        assert!(q.dequeue(Nanos(500)).is_none());
        assert_eq!(q.next_eligible(), Some(Nanos(1_000)));
        assert!(q.dequeue(Nanos(1_000)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn earliest_eligible_first_across_flows() {
        let mut q = FqQdisc::new();
        q.enqueue(seg(2, 300, 100));
        q.enqueue(seg(1, 100, 100));
        q.enqueue(seg(3, 200, 100));
        let order: Vec<u32> = std::iter::from_fn(|| q.dequeue(Nanos(10_000)))
            .map(|s| s.flow.0)
            .collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn per_flow_fifo_is_preserved() {
        let mut q = FqQdisc::new();
        let mut a = seg(1, 100, 10);
        a.pkts[0].seq = 1;
        let mut b = seg(1, 50, 20); // later-queued but earlier timestamp
        b.pkts[0].seq = 2;
        q.enqueue(a);
        q.enqueue(b);
        // FIFO within the flow: seq 1 leaves first even though seq 2 has
        // an earlier pacing time (real fq behaves per-flow FIFO too).
        let first = q.dequeue(Nanos(10_000)).unwrap();
        assert_eq!(first.pkts[0].seq, 1);
    }

    #[test]
    fn prio_band_bypasses_pacing() {
        let mut q = FqQdisc::new();
        q.enqueue(seg(1, 1_000_000, 100));
        q.enqueue_prio(ack_seg(1));
        let first = q.dequeue(Nanos(0)).unwrap();
        assert_eq!(first.pkts[0].kind, PacketKind::TcpAck);
        assert!(q.dequeue(Nanos(0)).is_none());
        assert_eq!(q.len_segments(), 1);
    }

    #[test]
    fn backlog_accounting() {
        let mut q = FqQdisc::new();
        q.enqueue(seg(1, 0, 1000)); // wire 1066
        q.enqueue(seg(1, 0, 1000));
        q.enqueue(seg(2, 0, 500));
        assert_eq!(q.flow_backlog(FlowId(1)), 2 * 1066);
        assert_eq!(q.flow_backlog(FlowId(2)), 566);
        q.dequeue(Nanos(0));
        assert_eq!(q.flow_backlog(FlowId(1)), 1066);
        q.dequeue(Nanos(0));
        q.dequeue(Nanos(0));
        assert_eq!(q.flow_backlog(FlowId(1)), 0);
        assert_eq!(q.flow_backlog(FlowId(2)), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn a_drained_flow_leaves_its_fifo_for_the_next_backlog() {
        let mut q = FqQdisc::new();
        for _ in 0..8 {
            q.enqueue(seg(1, 0, 100));
        }
        while q.dequeue(Nanos(0)).is_some() {}
        assert!(q.flows.is_empty(), "only backlogged flows have an entry");
        assert_eq!(q.spare.len(), 1);
        q.enqueue(seg(2, 0, 100));
        assert!(q.spare.is_empty());
        assert!(
            q.flows[&FlowId(2)].fifo.capacity() >= 8,
            "the FIFO was reused"
        );
    }

    #[test]
    fn next_eligible_empty_and_prio() {
        let mut q = FqQdisc::new();
        assert_eq!(q.next_eligible(), None);
        q.enqueue_prio(ack_seg(1));
        assert_eq!(q.next_eligible(), Some(Nanos::ZERO));
    }

    #[test]
    fn tie_break_is_deterministic_by_flow_id() {
        let mut q = FqQdisc::new();
        q.enqueue(seg(9, 100, 10));
        q.enqueue(seg(4, 100, 10));
        assert_eq!(q.dequeue(Nanos(200)).unwrap().flow, FlowId(4));
    }

    #[test]
    fn seg_desc_byte_math() {
        let pkts = vec![
            Packet::tcp_data(FlowId(1), 0, 0, 1448),
            Packet::tcp_data(FlowId(1), 1448, 0, 500),
        ];
        let s = SegDesc::new(FlowId(1), pkts, Nanos(0));
        assert_eq!(s.payload_bytes(), 1948);
        assert_eq!(s.wire_bytes, 1948 + 2 * 66);
    }
}
