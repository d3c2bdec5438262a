//! The event queue: a time-ordered heap with deterministic tie-breaking.
//!
//! Hot-path note: heap maintenance is one comparison per sift step, so
//! the comparison must be cheap. Times are stored as pre-converted
//! ordered `u64` bit patterns (a monotone map of the `f64` time), which
//! makes every heap comparison integer-only; ties still break by the
//! insertion sequence number so runs are bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Monotone map from a non-negative finite `f64` time to a `u64` whose
/// integer order equals the float order.
///
/// For non-negative IEEE-754 doubles the raw bit pattern is already
/// monotone (sign bit clear, exponent in the high bits); `-0.0` — whose
/// set sign bit would otherwise sort it *above* every positive time — is
/// normalized to `+0.0`. Simulation times are always `>= 0`, so the
/// negative branch of the usual total-order transform is unnecessary.
#[inline]
fn time_key(at: f64) -> u64 {
    debug_assert!(at.is_finite() && at >= 0.0, "invalid event time {at}");
    if at == 0.0 {
        0
    } else {
        at.to_bits()
    }
}

/// An event scheduled at a simulation time, carrying a payload `E`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    /// Ordered bit pattern of the event time (see [`time_key`]).
    key: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap and we want the
        // earliest event first; ties break by insertion sequence so runs
        // are bit-for-bit reproducible.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: f64,
    now_key: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            now_key: 0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Scheduling before the current time is a model bug: in debug builds
    /// it panics so the bug is caught; in release builds `at` is clamped
    /// to `now` so the event still fires (never silently in the past,
    /// which would corrupt the clock's monotonicity).
    ///
    /// # Panics
    ///
    /// Panics if `at` is not finite, or (debug builds only) if `at` is
    /// before the current time.
    pub fn schedule(&mut self, at: f64, payload: E) {
        assert!(at.is_finite(), "cannot schedule at {at}");
        let at = if at < self.now {
            #[cfg(debug_assertions)]
            panic!("cannot schedule at {at}; now is {}", self.now);
            #[cfg(not(debug_assertions))]
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            key: time_key(at),
            seq,
            payload,
        });
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.key >= self.now_key, "time went backwards");
        self.now_key = ev.key;
        self.now = f64::from_bits(ev.key);
        Some((self.now, ev.payload))
    }

    /// Allocates a `(key, seq)` slot for an event the caller stores in a
    /// sidecar lane of its own (e.g. the root slab's list of tuple
    /// timeouts)
    /// instead of this heap. The sequence number comes from the same
    /// counter as [`EventQueue::schedule`], so merging the lanes by
    /// `(key, seq)` reproduces exactly the order a single heap would
    /// have produced. Validation matches `schedule` (finite required;
    /// past times panic in debug, clamp to `now` in release).
    ///
    /// # Panics
    ///
    /// Panics if `at` is not finite, or (debug builds only) if `at` is
    /// before the current time.
    pub fn alloc_slot(&mut self, at: f64) -> (u64, u64) {
        assert!(at.is_finite(), "cannot schedule at {at}");
        let at = if at < self.now {
            #[cfg(debug_assertions)]
            panic!("cannot schedule at {at}; now is {}", self.now);
            #[cfg(not(debug_assertions))]
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        (time_key(at), seq)
    }

    /// The `(key, seq)` of the earliest heap event, without popping it.
    /// Compare against a sidecar lane's head to decide which lane fires
    /// next.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|ev| (ev.key, ev.seq))
    }

    /// Advances the clock to the time of a sidecar-lane event the caller
    /// is about to handle (see [`EventQueue::alloc_slot`]), returning the
    /// new current time.
    pub fn advance_to(&mut self, key: u64) -> f64 {
        debug_assert!(key >= self.now_key, "time went backwards");
        self.now_key = key;
        self.now = f64::from_bits(key);
        self.now
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn key_order_matches_float_order() {
        // The bit-pattern key must sort exactly like the float for every
        // non-negative time, including zero and subnormal-adjacent values.
        let times = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.1,
            1.0,
            1.0 + f64::EPSILON,
            3.5e10,
            f64::MAX,
        ];
        for w in times.windows(2) {
            assert!(time_key(w[0]) < time_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        // -0.0 normalizes to the same key as +0.0.
        assert_eq!(time_key(-0.0), time_key(0.0));
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, ());
        q.pop();
        assert_eq!(q.now(), 5.0);
        // Scheduling at the current time is allowed.
        q.schedule(5.0, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(9.0, ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn scheduling_in_the_past_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "a");
        q.pop();
        q.schedule(9.0, "past");
        q.schedule(10.5, "later");
        // The past event fires at `now`, before the later one, and the
        // clock never moves backwards.
        let (t1, e1) = q.pop().unwrap();
        assert_eq!((t1, e1), (10.0, "past"));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!((t2, e2), (10.5, "later"));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn non_finite_time_rejected() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    #[test]
    fn sidecar_lane_merges_in_schedule_order() {
        // Interleave heap events with slot allocations for a sidecar
        // FIFO; merging by (key, seq) must reproduce the order a single
        // heap would have produced, including ties.
        let mut q = EventQueue::new();
        let mut lane: std::collections::VecDeque<(u64, u64, &str)> = Default::default();
        q.schedule(1.0, "heap@1");
        let (k, s) = q.alloc_slot(2.0);
        lane.push_back((k, s, "lane@2"));
        q.schedule(2.0, "heap@2"); // later seq than lane@2: fires after it
        let (k, s) = q.alloc_slot(3.0);
        lane.push_back((k, s, "lane@3"));

        let mut order = Vec::new();
        loop {
            let take_lane = match (q.peek_key(), lane.front()) {
                (Some(h), Some(&(lk, ls, _))) => (lk, ls) < h,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            if take_lane {
                let (lk, _, name) = lane.pop_front().unwrap();
                let t = q.advance_to(lk);
                order.push((t, name));
            } else {
                let (t, name) = q.pop().unwrap();
                order.push((t, name));
            }
        }
        assert_eq!(
            order,
            vec![
                (1.0, "heap@1"),
                (2.0, "lane@2"),
                (2.0, "heap@2"),
                (3.0, "lane@3"),
            ]
        );
        assert_eq!(q.now(), 3.0);
    }
}
