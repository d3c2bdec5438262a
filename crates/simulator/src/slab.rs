//! A generational slab for in-flight tuple trees.
//!
//! Every spout emission creates a root whose descendants are tracked
//! until the tree completes or times out. The reference engine keeps
//! these in a `HashMap<u64, RootState>`, paying a hash plus a probe per
//! touch and an allocation per insert at scale. The slab stores roots in
//! a flat `Vec` and hands out handles that embed the slot index (low 32
//! bits) and a per-slot generation (high 32 bits): lookups are a bounds
//! check plus a generation compare, and completed slots recycle through a
//! free list, so steady-state root turnover allocates nothing.
//!
//! The generation makes stale handles (e.g. a `RootTimeout` event for a
//! root that completed and whose slot was reused) miss safely — exactly
//! the semantics the reference engine gets from `HashMap::get` on a
//! removed key.

/// State of one in-flight tuple tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootState {
    /// Outstanding descendant batches (including in-flight transfers).
    pub pending: u32,
    /// Emission time of the root batch.
    pub born: f64,
    /// Tuple-timeout deadline.
    pub deadline: f64,
    /// Global index of the emitting spout task.
    pub spout: u32,
    /// True once the tuple timeout fired.
    pub failed: bool,
    /// Of `pending`, the slots held by batches destroyed by a node
    /// crash. They can never be released by processing; the timeout
    /// drains them (see the engine's `root_timeout`).
    pub lost: u32,
    /// Replay attempt number: 0 for a fresh emission, n for the n-th
    /// spout re-emission of this logical root (replay mode only).
    pub attempt: u32,
    /// Tuples destroyed by crashes across this attempt and all prior
    /// attempts of the same logical root. Charged to `tuples_lost` only
    /// if the root quarantines — a replayed-then-acked root retransmitted
    /// the data, so nothing was lost (replay mode only).
    pub lost_tuples: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    occupied: bool,
    state: RootState,
}

/// Slab of in-flight roots with generational handles and a free-list
/// pool. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct RootSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: u64,
    /// Inserts served from the free list (recycled allocations).
    pub pool_hits: u64,
    /// Inserts that had to grow the slab.
    pub pool_misses: u64,
    /// High-water mark of simultaneously live roots.
    pub max_live: u64,
}

impl RootSlab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a root, returning its handle.
    pub fn insert(&mut self, state: RootState) -> u64 {
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        if let Some(idx) = self.free.pop() {
            self.pool_hits += 1;
            let slot = &mut self.slots[idx as usize];
            debug_assert!(!slot.occupied);
            slot.occupied = true;
            slot.state = state;
            (u64::from(slot.gen) << 32) | u64::from(idx)
        } else {
            self.pool_misses += 1;
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                occupied: true,
                state,
            });
            u64::from(idx)
        }
    }

    /// Looks up a live root; `None` for completed/stale handles.
    pub fn get(&self, handle: u64) -> Option<&RootState> {
        let slot = self.slots.get((handle & 0xFFFF_FFFF) as usize)?;
        (slot.occupied && slot.gen == (handle >> 32) as u32).then_some(&slot.state)
    }

    /// Mutable lookup of a live root.
    pub fn get_mut(&mut self, handle: u64) -> Option<&mut RootState> {
        let slot = self.slots.get_mut((handle & 0xFFFF_FFFF) as usize)?;
        (slot.occupied && slot.gen == (handle >> 32) as u32).then_some(&mut slot.state)
    }

    /// Removes a root, returning its slot to the pool. Stale handles are
    /// ignored (like `HashMap::remove` on an absent key).
    pub fn remove(&mut self, handle: u64) {
        let idx = (handle & 0xFFFF_FFFF) as usize;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if !slot.occupied || slot.gen != (handle >> 32) as u32 {
            return;
        }
        slot.occupied = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.live -= 1;
    }

    /// Number of live roots whose tuple timeout has not fired — the
    /// attempts that can still ack. Used by the replay plane's live-root
    /// ledger, which every replay-enabled run checks once, at its end.
    /// O(slots).
    pub fn unfailed_live(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.occupied && !s.state.failed)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(spout: u32) -> RootState {
        RootState {
            pending: 1,
            born: 0.0,
            deadline: 100.0,
            spout,
            failed: false,
            lost: 0,
            attempt: 0,
            lost_tuples: 0,
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn unfailed_live_skips_timed_out_roots() {
        let mut slab = RootSlab::new();
        let a = slab.insert(root(0));
        let _b = slab.insert(root(1));
        assert_eq!(slab.unfailed_live(), 2);
        slab.get_mut(a).unwrap().failed = true;
        assert_eq!(slab.unfailed_live(), 1);
        slab.remove(a);
        assert_eq!(slab.unfailed_live(), 1);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = RootSlab::new();
        let a = slab.insert(root(1));
        let b = slab.insert(root(2));
        assert_eq!(slab.get(a).unwrap().spout, 1);
        assert_eq!(slab.get(b).unwrap().spout, 2);
        slab.get_mut(a).unwrap().pending += 3;
        assert_eq!(slab.get(a).unwrap().pending, 4);
        slab.remove(a);
        assert!(slab.get(a).is_none());
        assert!(slab.get(b).is_some());
    }

    #[test]
    fn recycled_slot_invalidates_old_handle() {
        let mut slab = RootSlab::new();
        let a = slab.insert(root(1));
        slab.remove(a);
        let b = slab.insert(root(2));
        // Same slot, new generation: the recycled slot must not be
        // reachable through the stale handle.
        assert_eq!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
        assert_ne!(a, b);
        assert!(slab.get(a).is_none());
        assert!(slab.get_mut(a).is_none());
        assert_eq!(slab.get(b).unwrap().spout, 2);
        // Removing through the stale handle is a no-op.
        slab.remove(a);
        assert!(slab.get(b).is_some());
    }

    #[test]
    fn pool_counters_track_reuse() {
        let mut slab = RootSlab::new();
        let mut handles: Vec<u64> = (0..10).map(|i| slab.insert(root(i))).collect();
        assert_eq!(slab.pool_misses, 10);
        assert_eq!(slab.pool_hits, 0);
        for h in handles.drain(..) {
            slab.remove(h);
        }
        for i in 0..25 {
            handles.push(slab.insert(root(i)));
        }
        // 10 inserts recycled freed slots, 15 grew the slab.
        assert_eq!(slab.pool_hits, 10);
        assert_eq!(slab.pool_misses, 25);
        assert_eq!(slab.max_live, 25);
    }

    #[test]
    fn double_remove_is_safe() {
        let mut slab = RootSlab::new();
        let a = slab.insert(root(0));
        slab.remove(a);
        slab.remove(a);
        assert_eq!(slab.pool_hits + slab.pool_misses, 1);
        // The free list holds the slot exactly once.
        let b = slab.insert(root(1));
        let c = slab.insert(root(2));
        assert_ne!(b & 0xFFFF_FFFF, c & 0xFFFF_FFFF);
    }
}
