//! Sequence-space primitives every transport shares.
//!
//! TCP, QUIC-lite and [`Multiplex`](crate::mux::Multiplex) each keep a
//! receive frontier and at least one lazily re-armed timer; the two types
//! here are the one copy of each:
//!
//! * [`Reassembly`] — the receive frontier over a `u64` sequence space
//!   (TCP bytes, QUIC packet numbers as `(num, 1)` fragments, QUIC stream
//!   offsets, mux stream bytes). A fragment at or below the frontier
//!   advances it at once, then every buffered fragment the frontier now
//!   reaches is popped; a fragment above a hole is buffered. In-order data
//!   never touches the map, which is what keeps the bulk path cheap.
//! * [`Deadline`] — the armed/gen/deadline triple behind TCP's RTO and
//!   DelAck, QUIC's PTO and the mux probe tick. The driver holds at most
//!   one event per timer kind; moving the deadline while an event is
//!   pending costs nothing, and the event re-checks when it fires
//!   ([`Deadline::due`]) or fires unconditionally ([`Deadline::take`]).

use crate::tcp::{TcpAction, TimerKind};
use netsim::Nanos;
use std::collections::BTreeMap;

/// A receive frontier: everything below [`next`](Reassembly::next) has
/// arrived; [`ooo`](Reassembly::ooo) holds the fragments above the first
/// hole as `start -> len`, every one non-empty and starting above `next`.
#[derive(Debug, Default)]
pub(crate) struct Reassembly {
    next: u64,
    ooo: BTreeMap<u64, u64>,
}

impl Reassembly {
    /// First sequence number not yet received in order.
    pub(crate) fn next(&self) -> u64 {
        self.next
    }

    /// Fragments buffered above the first hole, `start -> len`.
    pub(crate) fn ooo(&self) -> &BTreeMap<u64, u64> {
        &self.ooo
    }

    /// Take in `[start, start + len)`. `None`: the fragment lies wholly
    /// below the frontier (a duplicate); `Some(0)`: it was buffered above
    /// a hole; `Some(n)`: `n` units became in-order.
    pub(crate) fn accept(&mut self, start: u64, len: u64) -> Option<u64> {
        let end = start + len;
        if end <= self.next {
            return None;
        }
        if start > self.next {
            self.insert(start, len);
            return Some(0);
        }
        let before = self.next;
        self.next = end;
        Some(self.advance() + end - before)
    }

    /// Buffer a fragment without moving the frontier (mux FEC recovery
    /// inserts the range it rebuilt, then calls [`advance`](Self::advance)).
    /// A repeated `start` keeps the longer length, so a received unit is
    /// never un-received.
    pub(crate) fn insert(&mut self, start: u64, len: u64) {
        if len > 0 {
            let l = self.ooo.entry(start).or_insert(0);
            *l = (*l).max(len);
        }
    }

    /// Pop every buffered fragment the frontier reaches; returns how many
    /// units became in-order.
    pub(crate) fn advance(&mut self) -> u64 {
        let before = self.next;
        while let Some(frag) = self.ooo.first_entry() {
            if *frag.key() > self.next {
                break;
            }
            let (start, len) = frag.remove_entry();
            self.next = self.next.max(start + len);
        }
        self.next - before
    }
}

/// One lazily re-armed transport timer of one [`TimerKind`]: `at` is the
/// deadline, `armed` whether the driver holds an event for it, and `gen`
/// the generation that event carries.
#[derive(Debug)]
pub(crate) struct Deadline {
    kind: TimerKind,
    gen: u64,
    armed: bool,
    at: Nanos,
}

/// What a timer event means to a [`Deadline`] checked with
/// [`Deadline::due`].
pub(crate) enum Due {
    /// Outdated generation, or disarmed since: do nothing.
    Stale,
    /// The deadline moved later while the event slept: sleep again.
    Rearm(TcpAction),
    /// The deadline passed. The timer is now disarmed.
    Fire,
}

impl Deadline {
    pub(crate) fn new(kind: TimerKind) -> Self {
        Deadline {
            kind,
            gen: 0,
            armed: false,
            at: Nanos::ZERO,
        }
    }

    fn request(&self) -> TcpAction {
        TcpAction::ArmTimer {
            kind: self.kind,
            at: self.at,
            gen: self.gen,
        }
    }

    /// Move the deadline to `at`. Asks the driver for an event only when
    /// none is pending; a pending one re-checks the deadline when it fires.
    pub(crate) fn arm(&mut self, at: Nanos) -> Option<TcpAction> {
        self.at = at;
        if self.armed {
            return None;
        }
        self.armed = true;
        self.gen += 1;
        Some(self.request())
    }

    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }

    fn current(&self, gen: u64) -> bool {
        self.armed && gen == self.gen
    }

    /// The lazy RTO/PTO firing: an event of generation `gen` at `now`.
    pub(crate) fn due(&mut self, gen: u64, now: Nanos) -> Due {
        if !self.current(gen) {
            return Due::Stale;
        }
        if now < self.at {
            self.gen += 1;
            return Due::Rearm(self.request());
        }
        self.armed = false;
        Due::Fire
    }

    /// A one-shot firing (DelAck, the mux probe): true when `gen` is the
    /// pending event, whatever the deadline says. The timer is disarmed.
    pub(crate) fn take(&mut self, gen: u64) -> bool {
        if !self.current(gen) {
            return false;
        }
        self.armed = false;
        true
    }

    /// The pending event's `(at, gen)`, for tests that play the driver.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> Option<(Nanos, u64)> {
        self.armed.then_some((self.at, self.gen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimRng;

    /// Reference model: a received-bitmap plus a contiguous-prefix cursor.
    struct Model {
        got: Vec<bool>,
        cursor: usize,
    }

    impl Model {
        fn take(&mut self, start: usize, len: usize) {
            for b in &mut self.got[start..start + len] {
                *b = true;
            }
            while self.cursor < self.got.len() && self.got[self.cursor] {
                self.cursor += 1;
            }
        }
    }

    /// A seeded fragment schedule over a `total`-unit stream: the stream is
    /// cut into chunks, some re-chunked into overlapping pieces, some
    /// duplicated, some replayed at their start with a shorter length,
    /// zero-length fragments sprinkled in, and the whole list shuffled.
    fn schedule(rng: &mut SimRng, total: u64) -> Vec<(u64, u64)> {
        let mut frags = Vec::new();
        let mut at = 0;
        while at < total {
            let len = rng.range_u64(1, 40).min(total - at);
            frags.push((at, len));
            if rng.chance(0.3) {
                // Overlapping re-chunk: a piece straddling this chunk's end.
                let s = at + rng.next_below(len);
                let l = rng.range_u64(1, 60).min(total - s);
                frags.push((s, l));
            }
            if rng.chance(0.2) {
                frags.push((at, len)); // exact duplicate
            }
            if len > 1 && rng.chance(0.2) {
                frags.push((at, rng.range_u64(1, len - 1))); // same start, shorter
            }
            if rng.chance(0.1) {
                frags.push((rng.next_below(total + 1), 0)); // zero-length
            }
            at += len;
        }
        rng.shuffle(&mut frags);
        frags
    }

    #[test]
    fn reassembly_matches_reference_model() {
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let total = rng.range_u64(1, 2_000);
            let mut r = Reassembly::default();
            let mut m = Model {
                got: vec![false; total as usize],
                cursor: 0,
            };
            let mut delivered = 0;
            for (start, len) in schedule(&mut rng, total) {
                let below = start + len <= m.cursor as u64;
                let got = r.accept(start, len);
                m.take(start as usize, len as usize);
                assert_eq!(got.is_none(), below, "seed {seed}: ({start}, {len})");
                delivered += got.unwrap_or(0);
                assert_eq!(r.next(), m.cursor as u64, "seed {seed}: ({start}, {len})");
                assert_eq!(
                    delivered,
                    r.next(),
                    "seed {seed}: counts sum to the frontier"
                );
                assert!(r.ooo().iter().all(|(&s, &l)| s > r.next() && l > 0));
            }
            assert_eq!(r.next(), total, "seed {seed}: every unit arrived");
            assert!(r.ooo().is_empty());
        }
    }

    #[test]
    fn insert_then_advance_fills_a_hole() {
        let mut r = Reassembly::default();
        assert_eq!(r.accept(10, 5), Some(0));
        r.insert(0, 4);
        r.insert(4, 6);
        r.insert(4, 3); // a shorter repeat never shrinks what arrived
        assert_eq!(r.ooo().get(&4), Some(&6));
        assert_eq!(r.advance(), 15);
        assert_eq!(r.next(), 15);
        assert_eq!(r.advance(), 0);
    }

    #[test]
    fn deadline_ignores_a_stale_generation() {
        let mut d = Deadline::new(TimerKind::Rto);
        let Some(TcpAction::ArmTimer { gen, .. }) = d.arm(Nanos(100)) else {
            panic!("first arm asks for an event");
        };
        assert!(d.arm(Nanos(200)).is_none(), "pending event re-checks");
        assert!(matches!(d.due(gen + 1, Nanos(500)), Due::Stale));
        d.disarm();
        assert!(matches!(d.due(gen, Nanos(500)), Due::Stale));
        assert!(!d.take(gen));
    }

    #[test]
    fn deadline_rearms_when_fired_early() {
        let mut d = Deadline::new(TimerKind::Rto);
        d.arm(Nanos(100));
        let (_, gen) = d.pending().expect("armed");
        d.arm(Nanos(300)); // an ACK pushed the deadline out
        let Due::Rearm(TcpAction::ArmTimer {
            kind,
            at,
            gen: next,
        }) = d.due(gen, Nanos(100))
        else {
            panic!("early event must re-sleep");
        };
        assert_eq!((kind, at, next), (TimerKind::Rto, Nanos(300), gen + 1));
        assert!(
            matches!(d.due(gen, Nanos(300)), Due::Stale),
            "old gen is dead"
        );
        assert!(matches!(d.due(next, Nanos(300)), Due::Fire));
        assert_eq!(d.pending(), None);
        assert!(d.arm(Nanos(900)).is_some(), "fired timer re-arms afresh");
    }

    #[test]
    fn one_shot_fires_early_once() {
        let mut d = Deadline::new(TimerKind::DelAck);
        d.arm(Nanos(1_000));
        let (_, gen) = d.pending().expect("armed");
        assert!(d.take(gen), "a one-shot ignores the deadline");
        assert!(!d.take(gen), "and fires once");
    }
}
