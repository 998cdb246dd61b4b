//! The discrete-event queue — the whole event core.
//!
//! Determinism matters more than raw speed here: events scheduled for
//! the same instant are delivered in scheduling order (FIFO tie-break
//! via a monotone sequence number), so a simulation never depends on
//! container-internal ordering. Delivery order is `(time, seq)`; `seq`
//! is unique, so the order is total and the committed goldens depend on
//! nothing else.
//!
//! The queue is a binary min-heap of 24-byte `(time, seq, slot)` keys
//! over a slab that parks the payloads. Keys only, because the events
//! are large (`stack::net`'s carry a `Packet` by value, ~136 bytes) and
//! every sift would move them. The queues are small when their owner
//! keeps no dead events in them: measured means are ≈ 76 pending in a
//! page load and ≈ 100–170 in a 100 Gb/s bulk flow (packets in flight
//! plus one timer per connection and kind; PERF.md, "Dead timers"), a
//! few thousand per fleet shard — a heap 7–14 levels deep that stays in
//! cache. [`EventQueue::high_water`] reports the most a queue ever held.
//!
//! ```
//! use netsim::{EventQueue, Nanos};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(Nanos(64), "first");
//! q.schedule_at(Nanos(64), "second");
//! q.schedule_at(Nanos(10), "earliest");
//! assert_eq!(q.pop(), Some((Nanos(10), "earliest")));
//! // FIFO tie-break: same-instant events pop in scheduling order.
//! assert_eq!(q.pop(), Some((Nanos(64), "first")));
//! assert_eq!(q.pop(), Some((Nanos(64), "second")));
//! assert_eq!((q.pop(), q.now()), (None, Nanos(64)));
//! ```

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Tracks `now` (the timestamp of the last popped event), clamps
/// past-scheduling, and asserts pop monotonicity.
pub struct EventQueue<E> {
    /// `(time, seq, slot)` of every pending event, earliest first.
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    /// Payloads, indexed by a key's `slot`; `None` while on `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: Nanos,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Current simulated time — the timestamp of the last popped event.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past (before
    /// `now`) is a logic error and panics in debug builds; in release it is
    /// clamped to `now` to keep time monotone.
    pub fn schedule_at(&mut self, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        self.schedule_at_seq(at, seq, ev);
    }

    /// Take the next tie-break sequence number without scheduling
    /// anything. An owner that defers an event (one live timer standing
    /// in for a later request) reserves the number when the request is
    /// made and passes it to [`schedule_at_seq`](Self::schedule_at_seq)
    /// when the event finally enters the heap, so the event pops exactly
    /// where it would have had it been scheduled at once.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// [`schedule_at`](Self::schedule_at) under a sequence number taken
    /// earlier with [`reserve_seq`](Self::reserve_seq).
    pub fn schedule_at_seq(&mut self, at: Nanos, seq: u64, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Some(ev));
                slot
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Schedule `ev` after a delay relative to `now`.
    pub fn schedule_in(&mut self, delay: Nanos, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        debug_assert!(
            at >= self.now,
            "pop time went backwards: {} after {}",
            at,
            self.now
        );
        self.now = at;
        let ev = self.slab[slot as usize]
            .take()
            .expect("a heap key owns an occupied slot");
        self.free.push(slot);
        Some((at, ev))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The most events ever pending at once. Free to keep: a slab slot
    /// is added only when every existing one is occupied, so the slab's
    /// length is that maximum.
    pub fn high_water(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(30), "c");
        q.schedule_at(Nanos(10), "a");
        q.schedule_at(Nanos(20), "b");
        assert_eq!(q.pop(), Some((Nanos(10), "a")));
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
        assert_eq!(q.pop(), Some((Nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(100), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(100), 1);
        q.pop();
        q.schedule_in(Nanos(50), 2);
        assert_eq!(q.pop(), Some((Nanos(150), 2)));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(7), ());
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.now(), Nanos::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn reserved_seq_pops_where_it_was_reserved() {
        // A deferred event keeps its place among same-instant events: it
        // sorts by the number reserved for it, not by when it was pushed.
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(9), "a");
        let ticket = q.reserve_seq();
        q.schedule_at(Nanos(9), "c");
        q.schedule_at(Nanos(5), "relay");
        assert_eq!(q.pop(), Some((Nanos(5), "relay")));
        q.schedule_at_seq(Nanos(9), ticket, "b");
        q.schedule_at(Nanos(9), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn high_water_is_the_most_ever_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..5u64 {
            q.schedule_at(Nanos(i), i);
        }
        for _ in 0..3 {
            q.pop();
        }
        // Freed slots are reused before the slab grows.
        for i in 0..3u64 {
            q.schedule_at(Nanos(10 + i), i);
        }
        assert_eq!((q.len(), q.high_water()), (5, 5));
        q.schedule_at(Nanos(20), 0);
        assert_eq!(q.high_water(), 6);
        while q.pop().is_some() {}
        assert_eq!((q.len(), q.high_water()), (0, 6));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(100), 1);
        q.pop();
        q.schedule_at(Nanos(50), 2);
    }

    #[test]
    fn pop_times_are_monotone_non_decreasing() {
        // Interleave scheduling with popping — including events scheduled
        // for the current instant mid-drain — and verify the popped
        // timestamp sequence never decreases.
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0xE7E27);
        for _ in 0..200 {
            q.schedule_at(Nanos(rng.range_u64(0, 1_000)), 0u32);
        }
        let mut last = Nanos::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "pop at {at} after {last}");
            last = at;
            popped += 1;
            // Occasionally schedule more work at or after `now`.
            if popped % 7 == 0 {
                q.schedule_at(at + Nanos(rng.range_u64(0, 50)), 1);
            }
            if popped % 11 == 0 {
                q.schedule_in(Nanos::ZERO, 2); // same-instant event
            }
        }
        assert!(popped > 200);
    }

    #[test]
    fn fifo_order_is_stable_under_the_parallel_driver() {
        // The simulator's sharding model: every parallel work item owns
        // its own EventQueue; queues are never shared across workers.
        // Within a shard, two interleaved producers schedule bursts of
        // same-instant events — the drain order must equal scheduling
        // order on every shard, and be identical at every worker count.
        let shards: Vec<u64> = (0..64).collect();
        let drain = |workers: usize| -> Vec<Vec<u64>> {
            crate::par::par_map_n(workers, &shards, |_, &s| {
                let mut q = EventQueue::new();
                for k in 0..50u64 {
                    q.schedule_at(Nanos(100), s * 1000 + 2 * k); // producer A
                    q.schedule_at(Nanos(100), s * 1000 + 2 * k + 1); // producer B
                }
                // An earlier event scheduled last: time order still wins.
                q.schedule_at(Nanos(50), s);
                let mut order = Vec::new();
                while let Some((_, e)) = q.pop() {
                    order.push(e);
                }
                order
            })
        };
        let sequential = drain(1);
        for workers in [2usize, 3, 8, 64] {
            assert_eq!(sequential, drain(workers), "at {workers} workers");
        }
        for (&s, order) in shards.iter().zip(&sequential) {
            assert_eq!(order[0], s, "shard {s}: earliest event first");
            let expected: Vec<u64> = (0..100).map(|k| s * 1000 + k).collect();
            assert_eq!(order[1..], expected, "shard {s}: FIFO interleaving");
        }
    }

    // ----- boundary-tick contract tests -----
    //
    // Powers of 64 and the 2^36 ns horizon were the level boundaries of
    // the timer wheel that once backed this queue; the contract at those
    // ticks is kept as a check on any future backing container.

    #[test]
    fn fifo_tie_break_at_wheel_granularity_boundaries() {
        // Same-instant bursts scheduled exactly on power-of-64 ticks,
        // straddled by events one tick before and after with interleaved
        // scheduling order, must still pop in scheduling order.
        let boundaries = [64u64, 4096, 1 << 18, 1 << 24, 1 << 30];
        for &b in &boundaries {
            let mut q = EventQueue::new();
            for i in 0..20u64 {
                q.schedule_at(Nanos(b), 3 * i); // on the boundary
                q.schedule_at(Nanos(b - 1), 3 * i + 1);
                q.schedule_at(Nanos(b + 1), 3 * i + 2);
            }
            let mut before = Vec::new();
            let mut on = Vec::new();
            let mut after = Vec::new();
            while let Some((at, e)) = q.pop() {
                match at.as_nanos() {
                    t if t == b - 1 => before.push(e),
                    t if t == b => on.push(e),
                    _ => after.push(e),
                }
            }
            let expect = |r: u64| -> Vec<u64> { (0..20).map(|i| 3 * i + r).collect() };
            assert_eq!(before, expect(1), "boundary {b}: t-1 FIFO");
            assert_eq!(on, expect(0), "boundary {b}: on-tick FIFO");
            assert_eq!(after, expect(2), "boundary {b}: t+1 FIFO");
        }
    }

    #[test]
    fn timer_on_exact_rollover_tick_is_not_lost_or_early() {
        // Timers scheduled exactly on a power-of-64 tick relative to a
        // non-zero clock sitting one tick before it.
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(4095), "pre");
        assert_eq!(q.pop(), Some((Nanos(4095), "pre")));
        q.schedule_at(Nanos(4096), "rollover");
        q.schedule_at(Nanos(4096), "rollover-2");
        q.schedule_at(Nanos(8192), "next-rotation");
        assert_eq!(q.pop(), Some((Nanos(4096), "rollover")));
        assert_eq!(q.pop(), Some((Nanos(4096), "rollover-2")));
        assert_eq!(q.pop(), Some((Nanos(8192), "next-rotation")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Nanos(8192));
    }

    #[test]
    fn far_future_timers_take_the_overflow_level_and_return() {
        // Timers more than 2^36 ns (~68.7 simulated seconds) ahead must
        // deliver at the exact tick with FIFO ordering intact,
        // interleaved with near timers.
        let span = 1u64 << 36;
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(2 * span + 7), "far-a");
        q.schedule_at(Nanos(2 * span + 7), "far-b");
        q.schedule_at(Nanos(10), "near");
        assert_eq!(q.pop(), Some((Nanos(10), "near")));
        assert_eq!(q.pop(), Some((Nanos(2 * span + 7), "far-a")));
        assert_eq!(q.pop(), Some((Nanos(2 * span + 7), "far-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_earlier_than_a_peeked_event() {
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(1_000_000), 1u32);
        assert_eq!(q.peek_time(), Some(Nanos(1_000_000)));
        // Peeking does not move the clock: scheduling earlier than the
        // peeked event is legal and must still deliver in time order.
        q.schedule_at(Nanos(500), 2);
        q.schedule_at(Nanos(400), 3);
        assert_eq!(q.peek_time(), Some(Nanos(400)));
        assert_eq!(q.pop(), Some((Nanos(400), 3)));
        assert_eq!(q.pop(), Some((Nanos(500), 2)));
        assert_eq!(q.pop(), Some((Nanos(1_000_000), 1)));
    }

    #[test]
    fn randomized_against_reference_sort() {
        // Differential against a model that knows nothing about sequence
        // numbers: pending `(time, id)` pairs in scheduling order, and a
        // *stable* sort by time alone picks what must pop next.
        let span = 1u64 << 36;
        let mut rng = crate::SimRng::new(0x77EE1);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let pop_and_check = |q: &mut EventQueue<u64>, reference: &mut Vec<(u64, u64)>| {
            reference.sort_by_key(|&(at, _)| at);
            let want = (!reference.is_empty()).then(|| reference.remove(0));
            assert_eq!(q.peek_time(), want.map(|(at, _)| Nanos(at)));
            assert_eq!(q.pop(), want.map(|(at, id)| (Nanos(at), id)));
            assert_eq!(q.len(), reference.len());
            want.is_some()
        };
        for id in 0..2_000u64 {
            // Mixed horizon: same tick, near, far, beyond 2^36 ns.
            let spread = match id % 4 {
                0 => rng.range_u64(0, 64),
                1 => rng.range_u64(0, 5_000),
                2 => rng.range_u64(0, span / 2),
                _ => rng.range_u64(0, 2 * span),
            };
            let at = q.now().as_nanos() + spread;
            q.schedule_at(Nanos(at), id);
            reference.push((at, id));
            if id % 3 == 0 {
                pop_and_check(&mut q, &mut reference);
            }
        }
        while pop_and_check(&mut q, &mut reference) {}
        assert!(q.is_empty());
    }
}
