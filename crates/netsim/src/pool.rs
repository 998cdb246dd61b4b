//! Arena and buffer pooling for the many-flow hot path.
//!
//! At fleet scale the simulator keeps thousands of resident flow
//! records and padding buffers alive per shard. Allocating
//! each as its own heap object makes the allocator the bottleneck and
//! scatters the working set; this module provides two deterministic,
//! single-shard-owned recyclers instead:
//!
//! * [`Arena<T>`] — slot-addressed storage with *generation-checked*
//!   handles. Freed slots are recycled in LIFO order, and every free
//!   bumps the slot's generation so a stale [`ArenaHandle`] held by a
//!   forgotten timer can never alias the slot's next occupant: lookups
//!   through an outdated handle return `None` rather than someone
//!   else's live packet. `tests/determinism.rs` pins this property.
//! * [`VecPool<T>`] — recycles `Vec` capacity across checkouts, so a
//!   flow that buffers and flushes padding bursts reuses one heap
//!   allocation for its whole lifetime instead of one per burst.
//!
//! Both are plain single-threaded values: at fleet scale each shard
//! owns its own arena/pool (shared-nothing, like the shard's
//! [`crate::EventQueue`]), so recycling order is a pure function of the
//! shard's event sequence and results stay bit-identical at any
//! `STOB_THREADS`. Telemetry: `netsim.pool.*` counters (allocations,
//! reuses, stale lookups) — order-independent sums, see
//! OBSERVABILITY.md.
//!
//! ```
//! use netsim::pool::Arena;
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
/// LIFO free list. See the [module docs](self) for the aliasing story.
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

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak simultaneous live objects over the arena's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slots ever created (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// A recycler for `Vec<T>` buffers: checkouts reuse the capacity of
/// previously returned buffers instead of allocating fresh ones.
///
/// Buffers come back cleared ([`take`](Self::take) always returns an
/// empty `Vec`), so no data leaks between users — only capacity is
/// shared. Like [`Arena`], a `VecPool` is owned by one shard; recycling
/// order is deterministic.
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VecPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        VecPool { free: Vec::new() }
    }

    /// Check out an empty buffer, reusing pooled capacity when present.
    pub fn take(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(v) => {
                debug_assert!(v.is_empty());
                crate::tm_counter!("netsim.pool.vec_reuses").inc();
                v
            }
            None => {
                crate::tm_counter!("netsim.pool.vec_allocs").inc();
                Vec::new()
            }
        }
    }

    /// Return a buffer to the pool. Its contents are dropped here; its
    /// capacity survives for the next [`take`](Self::take).
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
    }

    /// Number of idle buffers held.
    pub fn idle(&self) -> usize {
        self.free.len()
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
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&10));
        *a.get_mut(h2).unwrap() += 1;
        assert_eq!(a.take(h2), Some(21));
        assert_eq!(a.len(), 1);
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
        assert_eq!(a.capacity(), 5);
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

    #[test]
    fn vec_pool_recycles_capacity_and_clears_contents() {
        let mut p: VecPool<u64> = VecPool::new();
        let mut v = p.take();
        v.extend(0..100);
        let cap = v.capacity();
        p.put(v);
        assert_eq!(p.idle(), 1);
        let v2 = p.take();
        assert!(v2.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(v2.capacity(), cap, "capacity survives the round trip");
        assert_eq!(p.idle(), 0);
    }
}
