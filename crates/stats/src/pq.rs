//! Cancellable future-event list (tombstone timer heap) of the Petri
//! token game's event-driven path (`wsnem_petri`, nets above 16
//! transitions).
//!
//! A binary heap keyed by `(time, key)` gives O(log n) scheduling and
//! deterministic ordering among simultaneous events. Payloads live in a slab
//! so cancellation is O(1): the heap entry becomes a tombstone that `pop`
//! skips. [`EventId`]s carry a generation counter, so a stale id (slot
//! already reused) can never cancel someone else's event.
//!
//! The caller supplies the tie-break key to [`EventQueue::schedule_keyed`],
//! so equal-time events pop in *key* order regardless of scheduling order.
//! The token game uses the transition index here, reproducing the "lowest
//! transition index wins ties" rule of a linear minimum scan — which is
//! what keeps heap-driven trajectories bit-identical to scan-driven ones.
//!
//! The hot loop allocates only when the heap/slab grow; entries are `Copy`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event; used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    key: u64,
    slot: u32,
    generation: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// The future-event list.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    last_popped: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            last_popped: f64::NEG_INFINITY,
        }
    }

    /// Empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            last_popped: f64::NEG_INFINITY,
        }
    }

    /// Schedule `payload` at absolute `time` with an explicit tie-break
    /// `key`: among events at the same time, the smallest key pops first
    /// (irrespective of scheduling order).
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn schedule_keyed(&mut self, time: f64, key: u64, payload: E) -> EventId {
        assert!(!time.is_nan(), "event time must not be NaN");
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.payload = Some(payload);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(HeapEntry {
            time,
            key,
            slot,
            generation,
        });
        self.live += 1;
        EventId { slot, generation }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending; `false` if it already fired or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = &mut self.slots[id.slot as usize];
        if slot.generation == id.generation && slot.payload.is_some() {
            slot.payload = None;
            slot.generation = slot.generation.wrapping_add(1);
            self.free.push(id.slot);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Remove and return the earliest pending event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        while let Some(entry) = self.heap.pop() {
            let slot = &mut self.slots[entry.slot as usize];
            // Tombstone: the slot moved on (cancelled or reused).
            if slot.generation != entry.generation {
                continue;
            }
            if let Some(payload) = slot.payload.take() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(entry.slot);
                self.live -= 1;
                debug_assert!(
                    entry.time >= self.last_popped,
                    "event queue went backwards in time"
                );
                self.last_popped = entry.time;
                return Some((entry.time, payload));
            }
        }
        None
    }

    /// Time of the earliest pending event, if any.
    ///
    /// O(1) when the heap top is live; falls back to an O(n) scan when
    /// cancelled tombstones sit on top (peeking cannot mutate the heap).
    pub fn peek_time(&self) -> Option<f64> {
        if let Some(top) = self.heap.peek() {
            let slot = &self.slots[top.slot as usize];
            if slot.generation == top.generation && slot.payload.is_some() {
                return Some(top.time);
            }
        } else {
            return None;
        }
        let mut earliest: Option<f64> = None;
        for entry in self.heap.iter() {
            let slot = &self.slots[entry.slot as usize];
            let alive = slot.generation == entry.generation && slot.payload.is_some();
            if alive && earliest.is_none_or(|t| entry.time < t) {
                earliest = Some(entry.time);
            }
        }
        earliest
    }

    /// Number of live (non-cancelled, non-fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        // `last_popped` intentionally keeps monotone history.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed(3.0, 0, "c");
        q.schedule_keyed(1.0, 0, "a");
        q.schedule_keyed(2.0, 0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn keyed_ties_pop_in_key_order() {
        let mut q = EventQueue::new();
        // Scheduled in reverse key order — FIFO would pop 9, 5, 2.
        q.schedule_keyed(5.0, 9, "nine");
        q.schedule_keyed(5.0, 5, "five");
        q.schedule_keyed(5.0, 2, "two");
        q.schedule_keyed(1.0, 7, "early");
        assert_eq!(q.pop(), Some((1.0, "early")));
        assert_eq!(q.pop(), Some((5.0, "two")));
        assert_eq!(q.pop(), Some((5.0, "five")));
        assert_eq!(q.pop(), Some((5.0, "nine")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn keyed_cancel_and_reschedule_same_key() {
        // The EDSPN pattern: one event per transition, keyed by its index,
        // cancelled and rescheduled as the transition disables/re-enables.
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(2.0, 3, "old");
        assert!(q.cancel(a));
        let _b = q.schedule_keyed(2.0, 3, "new");
        assert_eq!(q.pop(), Some((2.0, "new")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(1.0, 0, "a");
        q.schedule_keyed(2.0, 0, "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn stale_id_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(1.0, 0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        // Slot reused by a new event.
        let b = q.schedule_keyed(2.0, 0, "b");
        assert!(!q.cancel(a), "stale id must not cancel the new event");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(1.0, 0, "a");
        q.schedule_keyed(2.0, 0, "b");
        assert_eq!(q.peek_time(), Some(1.0));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_keyed(i as f64, 0, i);
        }
        assert_eq!(q.len(), 100);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Still usable after clear.
        q.schedule_keyed(1.0, 0, 7);
        assert_eq!(q.pop(), Some((1.0, 7)));
    }

    #[test]
    fn interleaved_schedule_pop_cancel_stress() {
        let mut q = EventQueue::with_capacity(64);
        let mut ids = Vec::new();
        for round in 0..50u32 {
            for i in 0..20u32 {
                ids.push(q.schedule_keyed((round * 20 + i) as f64, 0, (round, i)));
            }
            // Cancel every third id from this round.
            for (k, id) in ids.iter().rev().take(20).enumerate() {
                if k % 3 == 0 {
                    q.cancel(*id);
                }
            }
            // Pop a few.
            for _ in 0..10 {
                q.pop();
            }
        }
        // Drain; times must be non-decreasing.
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule_keyed(f64::NAN, 0, ());
    }

    #[test]
    fn negative_and_zero_times_allowed() {
        let mut q = EventQueue::new();
        q.schedule_keyed(0.0, 0, "zero");
        q.schedule_keyed(-1.0, 0, "neg");
        assert_eq!(q.pop(), Some((-1.0, "neg")));
        assert_eq!(q.pop(), Some((0.0, "zero")));
    }
}
