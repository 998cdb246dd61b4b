//! Slot storage for records that live behind timers.
//!
//! A simulation that keeps thousands of live records behind timers
//! makes the allocator the bottleneck and scatters the working set if
//! it allocates each as its own heap object; this module provides one
//! deterministic, single-owner recycler instead, [`Arena<T>`]. No
//! library path keeps one; the fleet's queued reference engine (a test)
//! and the layered benchmark's `netsim.pool.arena_ns_per_op` probe do.
//! An arena is slot-addressed storage with *generation-checked*
//! handles. Freed slots are recycled in LIFO order, and every free
//! bumps the slot's generation so a stale [`ArenaHandle`] held by a
//! forgotten timer can never alias the slot's next occupant: lookups
//! through an outdated handle return `None` rather than someone else's
//! live packet. `tests/determinism.rs` pins this property.
//!
//! An arena is a plain single-threaded value: each parallel work item
//! owns its own (shared-nothing, like its [`crate::EventQueue`]), so
//! recycling order is a pure function of that item's event sequence and
//! results stay bit-identical at any `STOB_THREADS`. Telemetry: `netsim.pool.arena_*` and
//! `netsim.pool.stale_lookups` counters — order-independent sums, see
//! OBSERVABILITY.md.
//!
//! ```
//! use netsim::Arena;
//!
//! let mut arena: Arena<&str> = Arena::new();
//! let h = arena.alloc("payload-a");
//! assert_eq!(arena.get(h), Some(&"payload-a"));
//! assert_eq!(arena.take(h), Some("payload-a"));
//! // The slot is recycled for the next packet...
//! let h2 = arena.alloc("payload-b");
//! assert_eq!(h2.index(), h.index());
//! // ...but the stale handle cannot alias the new occupant.
//! assert_eq!(arena.get(h), None);
//! assert_eq!(arena.get(h2), Some(&"payload-b"));
//! ```
#![deny(missing_docs)]

/// Generation-checked reference to an [`Arena`] slot.
///
/// Copyable and cheap (eight bytes); safe to stash inside timer events.
/// A handle is only valid for the allocation it was returned for — once
/// that allocation is [`Arena::take`]n, the handle goes stale and every
/// lookup through it yields `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaHandle {
    idx: u32,
    gen: u32,
}

impl ArenaHandle {
    /// Slot index (stable across the allocation's lifetime; reused —
    /// with a new generation — after the slot is freed).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Generation the handle was issued under.
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Slot-addressed object arena with generation-checked handles and a
/// LIFO free list. A stale handle never aliases a recycled slot.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// An empty arena with room for `cap` objects before regrowing.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    /// Store `val`, recycling a freed slot when one is available.
    pub fn alloc(&mut self, val: T) -> ArenaHandle {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(idx) = self.free.pop() {
            crate::tm_counter!("netsim.pool.arena_reuses").inc();
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none(), "free list pointed at a live slot");
            slot.val = Some(val);
            return ArenaHandle { idx, gen: slot.gen };
        }
        crate::tm_counter!("netsim.pool.arena_allocs").inc();
        let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
        self.slots.push(Slot {
            gen: 0,
            val: Some(val),
        });
        ArenaHandle { idx, gen: 0 }
    }

    /// The object behind `h`, or `None` if `h` is stale (its allocation
    /// was already taken) or out of range.
    pub fn get(&self, h: ArenaHandle) -> Option<&T> {
        match self.slots.get(h.idx as usize) {
            Some(slot) if slot.gen == h.gen => slot.val.as_ref(),
            _ => {
                crate::tm_counter!("netsim.pool.stale_lookups").inc();
                None
            }
        }
    }

    /// Mutable access to the object behind `h`; `None` when stale.
    pub fn get_mut(&mut self, h: ArenaHandle) -> Option<&mut T> {
        match self.slots.get_mut(h.idx as usize) {
            Some(slot) if slot.gen == h.gen => slot.val.as_mut(),
            _ => {
                crate::tm_counter!("netsim.pool.stale_lookups").inc();
                None
            }
        }
    }

    /// Remove and return the object behind `h`, freeing its slot for
    /// reuse (under a new generation). `None` when `h` is stale —
    /// double-free through an old handle is a no-op, not a corruption.
    pub fn take(&mut self, h: ArenaHandle) -> Option<T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen || slot.val.is_none() {
            crate::tm_counter!("netsim.pool.stale_lookups").inc();
            return None;
        }
        let val = slot.val.take();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.live -= 1;
        crate::tm_counter!("netsim.pool.arena_frees").inc();
        val
    }

    /// True when no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak simultaneous live objects over the arena's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.alloc(10u32);
        let h2 = a.alloc(20u32);
        assert_eq!(a.live, 2);
        assert_eq!(a.get(h1), Some(&10));
        *a.get_mut(h2).unwrap() += 1;
        assert_eq!(a.take(h2), Some(21));
        assert_eq!(a.live, 1);
        assert!(a.get(h2).is_none());
    }

    #[test]
    fn stale_handle_never_aliases_recycled_slot() {
        let mut a = Arena::new();
        let old = a.alloc("first");
        assert_eq!(a.take(old), Some("first"));
        let new = a.alloc("second");
        // Same physical slot, different generation.
        assert_eq!(new.index(), old.index());
        assert_ne!(new.generation(), old.generation());
        assert_eq!(a.get(old), None);
        assert_eq!(a.get_mut(old), None);
        assert_eq!(a.take(old), None); // double-free is a no-op
        assert_eq!(a.get(new), Some(&"second"));
    }

    #[test]
    fn free_list_is_lifo_and_deterministic() {
        let mut a = Arena::new();
        let hs: Vec<_> = (0..4u32).map(|i| a.alloc(i)).collect();
        a.take(hs[1]);
        a.take(hs[3]);
        // LIFO: slot 3 recycles first, then slot 1, then fresh slots.
        assert_eq!(a.alloc(100).index(), 3);
        assert_eq!(a.alloc(101).index(), 1);
        assert_eq!(a.alloc(102).index(), 4);
        assert_eq!(a.slots.len(), 5);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut a = Arena::new();
        let hs: Vec<_> = (0..10u32).map(|i| a.alloc(i)).collect();
        for h in &hs {
            a.take(*h);
        }
        assert!(a.is_empty());
        assert_eq!(a.high_water(), 10);
        a.alloc(0);
        assert_eq!(a.high_water(), 10);
    }
}
