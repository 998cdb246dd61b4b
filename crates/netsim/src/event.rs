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
//! plus one timer per connection and kind; PERF.md, "Dead timers") — a
//! heap 7–8 levels deep that stays in cache. (The fleet engine keeps no
//! queue: its flows share no simulated resource, so each runs to
//! completion on its own.) [`EventQueue::high_water`] reports the most a
//! queue ever held.
//!
//! **Lanes.** Most of a packet simulation's events come from streams
//! whose times never decrease: one NIC's departures, one transmitter's
//! completions, one path's arrivals. An owner that knows it has such a
//! stream creates the queue [`with_lanes`](EventQueue::with_lanes) and
//! schedules the stream with [`schedule_lane`](EventQueue::schedule_lane):
//! the event takes the next `seq` exactly as `schedule_at` would, and is
//! appended to the lane's FIFO if it is due no earlier than the lane's
//! tail — otherwise it goes to the heap under that same `seq`. A lane
//! is therefore sorted by `(time, seq)` (times never decrease along it,
//! `seq` always grows), and [`pop`](EventQueue::pop) takes the least
//! `(time, seq)` among the heap top and the lane heads. Every event keeps
//! the key the heap alone would have given it, so the pop order is the
//! heap-only order for any input — the "else heap" rule makes a lane a
//! hint about cost, never about order. A lane push and pop are O(1)
//! where the heap's are O(log n); a pop scans the lane heads, so lanes
//! are for a handful of hot streams, and a queue without lanes is the
//! plain heap.
//!
//! ```
//! use netsim::{EventQueue, Nanos};
//!
//! let mut q = EventQueue::with_lanes(1);
//! q.schedule_at(Nanos(64), "first");
//! q.schedule_lane(0, Nanos(64), "second");
//! q.schedule_lane(0, Nanos(10), "earliest"); // before the lane's tail: heap
//! q.schedule_at(Nanos(64), "third");
//! assert_eq!(q.pop(), Some((Nanos(10), "earliest")));
//! // FIFO tie-break: same-instant events pop in scheduling order,
//! // whether they wait in the heap or in a lane.
//! assert_eq!(q.pop(), Some((Nanos(64), "first")));
//! assert_eq!(q.pop_until(Nanos(63)), None);
//! assert_eq!(q.pop_until(Nanos(64)), Some((Nanos(64), "second")));
//! assert_eq!(q.pop(), Some((Nanos(64), "third")));
//! assert_eq!((q.pop(), q.now()), (None, Nanos(64)));
//! ```

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Tracks `now` (the timestamp of the last popped event), clamps
/// past-scheduling, and asserts pop monotonicity.
pub struct EventQueue<E> {
    /// `(time, seq, slot)` of every pending event not in a lane,
    /// earliest first.
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    /// Payloads, indexed by a key's `slot`; `None` while on `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// FIFO lanes, each sorted by `(time, seq)` (see the module docs).
    lanes: Vec<VecDeque<(Nanos, u64, E)>>,
    /// Events pending, heap and lanes together.
    pending: usize,
    high_water: usize,
    /// Events ever appended to a lane (see [`EventQueue::lane_events`]).
    lane_events: u64,
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
        Self::with_lanes(0)
    }

    /// A queue with `n` FIFO lanes for [`schedule_lane`](Self::schedule_lane).
    pub fn with_lanes(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            lanes: (0..n).map(|_| VecDeque::new()).collect(),
            pending: 0,
            high_water: 0,
            lane_events: 0,
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

    /// [`schedule_at`](Self::schedule_at) through lane `lane`: the event
    /// pops exactly where `schedule_at` would put it, and waits in the
    /// lane's FIFO instead of the heap if it is due no earlier than the
    /// lane's last event.
    pub fn schedule_lane(&mut self, lane: usize, at: Nanos, ev: E) {
        let seq = self.reserve_seq();
        let at = self.clamp(at);
        let fifo = &mut self.lanes[lane];
        if fifo.back().is_some_and(|&(tail, _, _)| at < tail) {
            self.schedule_at_seq(at, seq, ev);
            return;
        }
        fifo.push_back((at, seq, ev));
        self.lane_events += 1;
        self.count_pending();
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
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        let at = self.clamp(at);
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
        self.count_pending();
    }

    fn clamp(&self, at: Nanos) -> Nanos {
        debug_assert!(at >= self.now, "event scheduled in the past");
        at.max(self.now)
    }

    fn count_pending(&mut self) {
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
    }

    /// Schedule `ev` after a delay relative to `now`.
    pub fn schedule_in(&mut self, delay: Nanos, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.pop_until(Nanos::MAX)
    }

    /// Pop the earliest event if it is due no later than `deadline`;
    /// otherwise leave the queue and the clock as they are.
    pub fn pop_until(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        if self.pending == 0 {
            return None;
        }
        // The least key among the heap top and the lane heads; `lane` is
        // `None` while the heap holds it.
        let mut best = match self.heap.peek() {
            Some(&Reverse((at, seq, _))) => (at, seq),
            None => (Nanos::MAX, u64::MAX),
        };
        let mut lane = None;
        for (i, fifo) in self.lanes.iter().enumerate() {
            if let Some(&(at, seq, _)) = fifo.front() {
                if (at, seq) < best {
                    best = (at, seq);
                    lane = Some(i);
                }
            }
        }
        let at = best.0;
        if at > deadline {
            return None;
        }
        debug_assert!(
            at >= self.now,
            "pop time went backwards: {} after {}",
            at,
            self.now
        );
        self.now = at;
        self.pending -= 1;
        let ev = match lane {
            Some(i) => self.lanes[i].pop_front().expect("a lane head").2,
            None => {
                let Reverse((_, _, slot)) = self.heap.pop().expect("the heap top");
                self.free.push(slot);
                self.slab[slot as usize]
                    .take()
                    .expect("a heap key owns an occupied slot")
            }
        };
        Some((at, ev))
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// The most events ever pending at once, heap and lanes together.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events ever appended to a lane rather than pushed on the heap —
    /// counted as they are scheduled, so a pop costs nothing extra.
    pub fn lane_events(&self) -> u64 {
        self.lane_events
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
        // A `pop_until` that finds nothing due looks without taking:
        // the clock and the pending set stay as they were.
        let mut q = EventQueue::new();
        q.schedule_at(Nanos(7), ());
        assert_eq!(q.pop_until(Nanos(6)), None);
        assert_eq!(q.now(), Nanos::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop_until(Nanos(7)), Some((Nanos(7), ())));
        assert_eq!(q.now(), Nanos(7));
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
        let mut q = EventQueue::with_lanes(2);
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
        // Events waiting in lanes are pending too.
        q.schedule_lane(0, Nanos(30), 0);
        q.schedule_lane(1, Nanos(30), 0);
        q.schedule_lane(1, Nanos(31), 0);
        assert_eq!((q.len(), q.high_water()), (9, 9));
        for _ in 0..4 {
            q.pop();
        }
        q.schedule_lane(0, Nanos(40), 0);
        assert_eq!((q.len(), q.high_water()), (6, 9));
        while q.pop().is_some() {}
        assert_eq!((q.len(), q.high_water()), (0, 9));
    }

    #[test]
    fn same_instant_lane_and_heap_pop_in_scheduling_order() {
        let mut q = EventQueue::with_lanes(1);
        for i in 0..10u32 {
            if i % 2 == 0 {
                q.schedule_lane(0, Nanos(5), i);
            } else {
                q.schedule_at(Nanos(5), i);
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
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
        assert_eq!(q.pop_until(Nanos(999_999)), None);
        // A `pop_until` that declined the event did not move the clock:
        // scheduling earlier than it is legal and must still deliver in
        // time order.
        q.schedule_at(Nanos(500), 2);
        q.schedule_at(Nanos(400), 3);
        assert_eq!(q.pop_until(Nanos(450)), Some((Nanos(400), 3)));
        assert_eq!(q.pop_until(Nanos(450)), None);
        assert_eq!(q.pop(), Some((Nanos(500), 2)));
        assert_eq!(q.pop(), Some((Nanos(1_000_000), 1)));
    }

    /// Pending `(time, id)` pairs in scheduling order — a reserved
    /// sequence number holds its place as `None` until its event is
    /// scheduled — and a *stable* sort by time alone picks what must pop
    /// next: a model that knows nothing about heaps or lanes.
    #[derive(Default)]
    struct Reference(Vec<Option<(u64, u64)>>);

    impl Reference {
        fn next(&self) -> Option<(u64, u64)> {
            let mut due: Vec<(u64, u64)> = self.0.iter().flatten().copied().collect();
            due.sort_by_key(|&(at, _)| at);
            due.first().copied()
        }

        fn fill_reservation(&mut self, ev: (u64, u64)) {
            let oldest = self.0.iter().position(Option::is_none).unwrap();
            self.0[oldest] = Some(ev);
        }

        /// Check one `pop_until(deadline)` against the model, after a
        /// look just short of the due event that must take nothing.
        fn check_pop_until(&mut self, q: &mut EventQueue<u64>, deadline: u64) -> bool {
            let now = q.now();
            let want = self.next().filter(|&(at, _)| at <= deadline);
            if let Some((at, _)) = want.filter(|&(at, _)| at > 0) {
                assert_eq!(q.pop_until(Nanos(at - 1)), None);
            }
            assert_eq!(
                q.pop_until(Nanos(deadline)),
                want.map(|(at, id)| (Nanos(at), id))
            );
            match want {
                Some(ev) => {
                    let i = self.0.iter().position(|&e| e == Some(ev)).unwrap();
                    self.0.remove(i);
                }
                None => assert_eq!(q.now(), now, "a declined pop moved the clock"),
            }
            assert_eq!(q.len(), self.0.iter().flatten().count());
            want.is_some()
        }
    }

    #[test]
    fn randomized_against_reference_sort() {
        let span = 1u64 << 36;
        let mut rng = crate::SimRng::new(0x77EE1);
        let mut q = EventQueue::new();
        let mut reference = Reference::default();
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
            reference.0.push(Some((at, id)));
            if id % 3 == 0 {
                reference.check_pop_until(&mut q, u64::MAX);
            }
        }
        while reference.check_pop_until(&mut q, u64::MAX) {}
        assert!(q.is_empty());
    }

    #[test]
    fn lanes_against_reference_sort() {
        // Seeded random interleavings of every way in — `schedule_at`;
        // `schedule_lane` both at or after the lane's tail and before it
        // (the heap fallback); `reserve_seq` with `schedule_at_seq` some
        // steps later; same-instant bursts split across the heap and
        // several lanes — and both ways out, `pop` and `pop_until`,
        // every pop checked against the stable-sort model.
        const LANES: usize = 3;
        let mut rng = crate::SimRng::new(0x1A9E5);
        let (mut appended, mut fell_back) = (0u32, 0u32);
        let mut lane_events = 0;
        for _ in 0..20 {
            let mut q = EventQueue::with_lanes(LANES);
            let mut model = Reference::default();
            // Open reservations, oldest first; each holds the first
            // `None` place left in the model.
            let mut reserved: VecDeque<u64> = VecDeque::new();
            let mut id = 0u64;
            for _ in 0..400 {
                let now = q.now().as_nanos();
                let mut at = now + rng.range_u64(0, 200);
                let burst = match rng.range_u64(0, 9) {
                    0..=4 => 1,
                    5 => rng.range_u64(2, 8), // same instant, many queues
                    6 => {
                        reserved.push_back(q.reserve_seq());
                        model.0.push(None);
                        continue;
                    }
                    7 => {
                        if let Some(seq) = reserved.pop_front() {
                            q.schedule_at_seq(Nanos(at), seq, id);
                            model.fill_reservation((at, id));
                            id += 1;
                        }
                        continue;
                    }
                    8 => {
                        model.check_pop_until(&mut q, now + rng.range_u64(0, 400));
                        continue;
                    }
                    _ => {
                        model.check_pop_until(&mut q, u64::MAX);
                        continue;
                    }
                };
                for _ in 0..burst {
                    match rng.range_u64(0, LANES as u64) as usize {
                        LANES => q.schedule_at(Nanos(at), id),
                        lane => {
                            if burst == 1 && rng.chance(0.5) {
                                // In order behind whatever the lane holds.
                                let tail = q.lanes[lane]
                                    .back()
                                    .map_or(0, |&(tail, _, _)| tail.as_nanos());
                                at = at.max(tail);
                            }
                            let before = q.lanes[lane].len();
                            q.schedule_lane(lane, Nanos(at), id);
                            if q.lanes[lane].len() > before {
                                appended += 1;
                            } else {
                                fell_back += 1;
                            }
                        }
                    }
                    model.0.push(Some((at, id)));
                    id += 1;
                }
            }
            for seq in reserved.drain(..) {
                let at = q.now().as_nanos();
                q.schedule_at_seq(Nanos(at), seq, id);
                model.fill_reservation((at, id));
                id += 1;
            }
            while model.check_pop_until(&mut q, u64::MAX) {}
            assert!(q.is_empty());
            lane_events += q.lane_events();
        }
        assert_eq!(
            lane_events,
            u64::from(appended),
            "lane_events counts every append"
        );
        assert!(
            appended > 1_000 && fell_back > 300,
            "{appended} appended, {fell_back} fell back to the heap"
        );
    }
}
