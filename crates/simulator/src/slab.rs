//! A generational slab for in-flight tuple trees, with their tuple
//! timeouts on an intrusive list.
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
//! The generation makes stale handles (e.g. a batch of a root that
//! completed and whose slot was reused) miss safely — exactly the
//! semantics the reference engine gets from `HashMap::get` on a removed
//! key.
//!
//! Each root's tuple timeout is the `(key, seq)` event slot the engine
//! drew for it at emission. The tuple timeout is a fixed delta over a
//! monotone clock, so emission order is deadline order: the slab links
//! its live, unfailed roots through their slots in that order, and the
//! list head is the next timeout to fire. Completing a root unlinks it,
//! and so does firing its timeout, so the engine never stores or pops the
//! timeout of a root that already completed, and the list holds only as
//! many entries as there are roots in flight.

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

/// End of the timeout list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    occupied: bool,
    state: RootState,
    /// The `(key, seq)` event slot of the root's tuple timeout.
    timeout: (u64, u64),
    /// Neighbours on the timeout list, `NIL` at its ends. Meaningful only
    /// while the root is occupied and unfailed.
    prev: u32,
    next: u32,
}

/// Slab of in-flight roots with generational handles, a free-list pool
/// and the timeout list. See the module docs.
#[derive(Debug)]
pub(crate) struct RootSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: u64,
    /// Timeout list: the occupied, unfailed roots in `(key, seq)` order.
    head: u32,
    tail: u32,
    linked: u64,
    /// Inserts served from the free list (recycled allocations).
    pub pool_hits: u64,
    /// Inserts that had to grow the slab.
    pub pool_misses: u64,
    /// High-water mark of simultaneously live roots.
    pub max_live: u64,
}

impl RootSlab {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            head: NIL,
            tail: NIL,
            linked: 0,
            pool_hits: 0,
            pool_misses: 0,
            max_live: 0,
        }
    }

    /// Inserts an unfailed root whose tuple timeout fires at event slot
    /// `timeout`, returning its handle. Timeouts must arrive in
    /// `(key, seq)` order: the root joins the tail of the timeout list.
    pub fn insert(&mut self, state: RootState, timeout: (u64, u64)) -> u64 {
        debug_assert!(!state.failed, "a new root has not timed out");
        debug_assert!(
            self.tail == NIL || self.slots[self.tail as usize].timeout < timeout,
            "timeouts must arrive in (key, seq) order"
        );
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        let slot = Slot {
            gen: 0,
            occupied: true,
            state,
            timeout,
            prev: self.tail,
            next: NIL,
        };
        let (idx, gen) = if let Some(idx) = self.free.pop() {
            self.pool_hits += 1;
            let old = &mut self.slots[idx as usize];
            debug_assert!(!old.occupied);
            *old = Slot {
                gen: old.gen,
                ..slot
            };
            (idx, old.gen)
        } else {
            self.pool_misses += 1;
            self.slots.push(slot);
            (self.slots.len() as u32 - 1, 0)
        };
        match self.tail {
            NIL => self.head = idx,
            tail => self.slots[tail as usize].next = idx,
        }
        self.tail = idx;
        self.linked += 1;
        (u64::from(gen) << 32) | u64::from(idx)
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

    /// Removes a root, returning its slot to the pool and taking an
    /// unfailed root off the timeout list. Stale handles are ignored
    /// (like `HashMap::remove` on an absent key).
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
        if !slot.state.failed {
            self.unlink(idx as u32);
        }
        self.free.push(idx as u32);
        self.live -= 1;
    }

    /// The `(key, seq)` event slot of the earliest pending tuple timeout.
    pub fn next_timeout(&self) -> Option<(u64, u64)> {
        (self.head != NIL).then(|| self.slots[self.head as usize].timeout)
    }

    /// Fires the earliest pending tuple timeout (see
    /// [`Self::next_timeout`]): marks its root failed, takes it off the
    /// list and returns the root's handle and state.
    ///
    /// # Panics
    ///
    /// Panics if no timeout is pending.
    pub fn fire_timeout(&mut self) -> (u64, &mut RootState) {
        let idx = self.head;
        assert!(idx != NIL, "no tuple timeout is pending");
        self.unlink(idx);
        let slot = &mut self.slots[idx as usize];
        slot.state.failed = true;
        (
            (u64::from(slot.gen) << 32) | u64::from(idx),
            &mut slot.state,
        )
    }

    fn unlink(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.linked -= 1;
    }

    /// Number of live roots whose tuple timeout has not fired — the
    /// attempts that can still ack: the length of the timeout list. Used
    /// by the replay plane's live-root ledger, which every replay-enabled
    /// run checks once, at its end.
    pub fn unfailed_live(&self) -> u64 {
        debug_assert_eq!(
            self.linked,
            self.slots
                .iter()
                .filter(|s| s.occupied && !s.state.failed)
                .count() as u64,
            "the timeout list holds exactly the unfailed live roots"
        );
        self.linked
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

    /// Inserts roots with increasing timeout slots `(0, 0), (0, 1), ...`.
    struct Emitter {
        slab: RootSlab,
        seq: u64,
    }

    impl Emitter {
        fn new() -> Self {
            Self {
                slab: RootSlab::new(),
                seq: 0,
            }
        }

        fn insert(&mut self, spout: u32) -> u64 {
            self.seq += 1;
            self.slab.insert(root(spout), (0, self.seq))
        }
    }

    /// The timeout list from head to tail, checking the back links.
    fn timeout_list(slab: &RootSlab) -> Vec<((u64, u64), u64)> {
        let mut out = Vec::new();
        let (mut idx, mut prev) = (slab.head, NIL);
        while idx != NIL {
            let slot = &slab.slots[idx as usize];
            assert_eq!(slot.prev, prev, "back link of slot {idx}");
            out.push((slot.timeout, (u64::from(slot.gen) << 32) | u64::from(idx)));
            (prev, idx) = (idx, slot.next);
        }
        assert_eq!(slab.tail, prev, "tail is the last linked slot");
        out
    }

    #[test]
    fn unfailed_live_skips_timed_out_roots() {
        let mut e = Emitter::new();
        let a = e.insert(0);
        let b = e.insert(1);
        assert_eq!(e.slab.unfailed_live(), 2);
        assert_eq!(e.slab.next_timeout(), Some((0, 1)));
        let (fired, state) = e.slab.fire_timeout();
        assert!(fired == a && state.failed);
        assert!(e.slab.get(a).is_some(), "a failed root stays until drained");
        assert_eq!(e.slab.unfailed_live(), 1);
        assert_eq!(e.slab.next_timeout(), Some((0, 2)));
        e.slab.remove(a);
        assert_eq!(e.slab.unfailed_live(), 1);
        assert_eq!(timeout_list(&e.slab), vec![((0, 2), b)]);
    }

    #[test]
    fn completed_roots_leave_the_timeout_list() {
        let mut e = Emitter::new();
        let [a, b, c] = [e.insert(0), e.insert(1), e.insert(2)];
        e.slab.remove(b);
        assert_eq!(timeout_list(&e.slab), vec![((0, 1), a), ((0, 3), c)]);
        e.slab.remove(a);
        e.slab.remove(c);
        assert_eq!(e.slab.next_timeout(), None);
        assert_eq!(e.slab.unfailed_live(), 0);
        // The recycled slots rejoin at the tail in emission order.
        let d = e.insert(3);
        let f = e.insert(4);
        assert_eq!(timeout_list(&e.slab), vec![((0, 4), d), ((0, 5), f)]);
    }

    #[test]
    #[should_panic(expected = "no tuple timeout is pending")]
    fn firing_with_nothing_pending_panics() {
        let mut e = Emitter::new();
        let a = e.insert(0);
        e.slab.remove(a);
        e.slab.fire_timeout();
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut e = Emitter::new();
        let a = e.insert(1);
        let b = e.insert(2);
        let slab = &mut e.slab;
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
        let mut e = Emitter::new();
        let a = e.insert(1);
        e.slab.remove(a);
        let b = e.insert(2);
        let slab = &mut e.slab;
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
        assert_eq!(slab.next_timeout(), Some((0, 2)));
    }

    #[test]
    fn pool_counters_track_reuse() {
        let mut e = Emitter::new();
        let mut handles: Vec<u64> = (0..10).map(|i| e.insert(i)).collect();
        assert_eq!(e.slab.pool_misses, 10);
        assert_eq!(e.slab.pool_hits, 0);
        for h in handles.drain(..) {
            e.slab.remove(h);
        }
        for i in 0..25 {
            handles.push(e.insert(i));
        }
        // 10 inserts recycled freed slots, 15 grew the slab.
        assert_eq!(e.slab.pool_hits, 10);
        assert_eq!(e.slab.pool_misses, 25);
        assert_eq!(e.slab.max_live, 25);
    }

    #[test]
    fn double_remove_is_safe() {
        let mut e = Emitter::new();
        let a = e.insert(0);
        e.slab.remove(a);
        e.slab.remove(a);
        assert_eq!(e.slab.pool_hits + e.slab.pool_misses, 1);
        // The free list holds the slot exactly once.
        let b = e.insert(1);
        let c = e.insert(2);
        assert_ne!(b & 0xFFFF_FFFF, c & 0xFFFF_FFFF);
        assert_eq!(e.slab.unfailed_live(), 2);
    }

    proptest::proptest! {
        /// The timeout list against a naive FIFO of every emission,
        /// filtered by liveness, over random emissions (keys
        /// non-decreasing, ties broken by sequence), completions, timeout
        /// firings, removals through stale handles and slot reuse. After
        /// every step the list yields `(key, seq)` ascending and holds
        /// exactly the occupied, unfailed roots; a stale handle never
        /// reaches it.
        #[test]
        fn timeout_list_matches_filtered_fifo(
            ops in proptest::collection::vec((0u8..4, 0usize..64, 0u64..3), 1..120),
        ) {
            let mut slab = RootSlab::new();
            let mut fifo: Vec<((u64, u64), u64)> = Vec::new();
            let mut live: Vec<u64> = Vec::new();
            let mut failed: Vec<u64> = Vec::new();
            let mut dead: Vec<u64> = Vec::new();
            let (mut key, mut seq) = (0u64, 0u64);
            for &(op, pick, step) in &ops {
                match op {
                    0 => {
                        key += step;
                        seq += 1;
                        let h = slab.insert(root(0), (key, seq));
                        proptest::prop_assert!(!live.contains(&h) && !dead.contains(&h));
                        fifo.push(((key, seq), h));
                        live.push(h);
                    }
                    1 if !live.is_empty() => {
                        let h = live.swap_remove(pick % live.len());
                        failed.retain(|&f| f != h);
                        slab.remove(h);
                        dead.push(h);
                    }
                    2 => {
                        let expected = fifo
                            .iter()
                            .copied()
                            .find(|(_, h)| live.contains(h) && !failed.contains(h));
                        proptest::prop_assert_eq!(slab.next_timeout(), expected.map(|(t, _)| t));
                        if let Some((_, h)) = expected {
                            let (fired, state) = slab.fire_timeout();
                            proptest::prop_assert!(fired == h && state.failed);
                            failed.push(h);
                        }
                    }
                    _ if !dead.is_empty() => {
                        let h = dead[pick % dead.len()];
                        slab.remove(h);
                        proptest::prop_assert!(slab.get(h).is_none());
                    }
                    _ => {}
                }
                let expected: Vec<_> = fifo
                    .iter()
                    .copied()
                    .filter(|(_, h)| live.contains(h) && !failed.contains(h))
                    .collect();
                let list = timeout_list(&slab);
                proptest::prop_assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
                proptest::prop_assert!(list.iter().all(|(_, h)| !dead.contains(h)));
                proptest::prop_assert_eq!(&list, &expected);
                proptest::prop_assert_eq!(slab.unfailed_live(), expected.len() as u64);
            }
        }
    }
}
