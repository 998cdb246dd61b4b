//! Dense per-host flow tables.
//!
//! Flow ids are allocated densely (a monotone counter starting at 1),
//! so keying per-flow state on a `BTreeMap<FlowId, T>` pays tree walks
//! and node allocations for what is really vector indexing. Every
//! packet a `stack::net` host handles does at least one lookup, so that
//! cost sits directly on the stack's packet path. [`FlowTable`] is the
//! replacement:
//! a flat `Vec<Option<T>>` indexed by `FlowId`, O(1) lookup, one cache
//! line per probe, with deterministic ascending-id iteration (matching
//! the `BTreeMap` order it replaced, so goldens are unchanged).
//!
//! The API mirrors the `BTreeMap` subset the network driver uses, which
//! is why lookups take `&FlowId`. The per-host connection and watchdog
//! tables (`super::host::Host`) build on this type.

use netsim::FlowId;

/// Dense map from [`FlowId`] to per-flow state.
///
/// Slots are never shrunk: a removed flow leaves a `None` hole that is
/// reused if the same id is ever re-inserted. Because flow ids are
/// allocated monotonically per [`super::Network`], table capacity is
/// bounded by the number of flows ever opened, and iteration order is
/// ascending id — stable and thread-count independent.
pub(crate) struct FlowTable<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowTable<T> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        FlowTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Insert state for `flow`, returning the previous occupant if any.
    pub(crate) fn insert(&mut self, flow: FlowId, val: T) -> Option<T> {
        let idx = flow.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(val);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// State for `flow`, if present.
    pub(crate) fn get(&self, flow: &FlowId) -> Option<&T> {
        self.slots.get(flow.0 as usize)?.as_ref()
    }

    /// Mutable state for `flow`, if present.
    pub(crate) fn get_mut(&mut self, flow: &FlowId) -> Option<&mut T> {
        self.slots.get_mut(flow.0 as usize)?.as_mut()
    }

    /// Remove and return the state for `flow`.
    pub(crate) fn remove(&mut self, flow: &FlowId) -> Option<T> {
        let old = self.slots.get_mut(flow.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Is state present for `flow`?
    pub(crate) fn contains_key(&self, flow: &FlowId) -> bool {
        self.get(flow).is_some()
    }

    /// True when no flows are present.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate states mutably in ascending flow-id order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FlowTable<&str> = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(FlowId(3), "a"), None);
        assert_eq!(t.insert(FlowId(1), "b"), None);
        assert_eq!(t.len, 2);
        assert_eq!(t.get(&FlowId(3)), Some(&"a"));
        assert!(t.contains_key(&FlowId(1)));
        assert!(!t.contains_key(&FlowId(2)));
        assert_eq!(t.insert(FlowId(3), "a2"), Some("a"));
        assert_eq!(t.len, 2, "replacement does not grow the table");
        assert_eq!(t.remove(&FlowId(3)), Some("a2"));
        assert_eq!(t.remove(&FlowId(3)), None);
        assert_eq!(t.remove(&FlowId(99)), None);
        assert_eq!(t.len, 1);
    }

    #[test]
    fn iteration_is_ascending_id_order() {
        // Matches the BTreeMap ordering this type replaced.
        let mut t = FlowTable::new();
        for id in [7u32, 2, 9, 4] {
            t.insert(FlowId(id), id * 10);
        }
        let got: Vec<u32> = t.values_mut().map(|v| *v).collect();
        assert_eq!(got, vec![20, 40, 70, 90]);
    }

    #[test]
    fn removed_slot_is_reusable() {
        let mut t = FlowTable::new();
        t.insert(FlowId(5), 1);
        t.remove(&FlowId(5));
        assert_eq!(t.insert(FlowId(5), 2), None);
        assert_eq!(t.get(&FlowId(5)), Some(&2));
        assert_eq!(t.len, 1);
    }
}
