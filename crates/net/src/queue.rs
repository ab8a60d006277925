//! The event queue both simulation engines run on: a binary heap of
//! small `(key, slot)` entries over a slab that holds the payloads.
//!
//! Sifting a heap moves its elements, and an event that carries a
//! protocol message is a few hundred bytes. Here the heap holds only the
//! ordering key and a `u32` slot index; a payload is written into the
//! slab once on push and moved out once on pop. Freed slots are reused,
//! so the slab never grows past the largest number of events in flight.
//!
//! Entries compare by key alone. The heap therefore makes exactly the
//! comparisons, and pops in exactly the order, that a `BinaryHeap` of
//! full events ordered by the same key would — ties included.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: the ordering key and where the payload sits.
struct Entry<K> {
    key: K,
    slot: u32,
}

impl<K: Ord> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord> Eq for Entry<K> {}
impl<K: Ord> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for smallest-key-first.
        other.key.cmp(&self.key)
    }
}

/// A min-priority queue of events `E` ordered by key `K`.
///
/// # Examples
///
/// ```
/// use past_net::EventQueue;
///
/// let mut q = EventQueue::with_capacity(4);
/// q.push(3u64, "late");
/// q.push(1, "early");
/// assert_eq!(q.peek_key(), Some(1));
/// assert_eq!(q.pop(), Some((1, "early")));
/// assert_eq!(q.pop(), Some((3, "late")));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<K, E> {
    heap: BinaryHeap<Entry<K>>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl<K: Ord + Copy, E> EventQueue<K, E> {
    /// An empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Queues `event` under `key`.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events would be in flight.
    pub fn push(&mut self, key: K, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("more than u32::MAX events in flight");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Entry { key, slot });
    }

    /// The smallest queued key.
    pub fn peek_key(&self) -> Option<K> {
        self.heap.peek().map(|e| e.key)
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let Entry { key, slot } = self.heap.pop()?;
        let event = self.slab[slot as usize]
            .take()
            .expect("a queued slot holds its payload");
        self.free.push(slot);
        Some((key, event))
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no event is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Reserves room for at least `additional` more queued events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        let slots = self.heap.len() + additional;
        self.slab.reserve(slots.saturating_sub(self.slab.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::EventKey;
    use proptest::prelude::*;

    /// A full event ordered by its key alone, as the engines ordered
    /// their events before the key/payload split.
    struct FullEvent {
        key: u64,
        payload: u64,
    }

    impl PartialEq for FullEvent {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for FullEvent {}
    impl PartialOrd for FullEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for FullEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            other.key.cmp(&self.key)
        }
    }

    #[test]
    fn single_engine_heap_entry_fits_24_bytes() {
        assert!(
            std::mem::size_of::<Entry<EventKey>>() <= 24,
            "the single engine's heap entry grew past 24 B: {} B",
            std::mem::size_of::<Entry<EventKey>>()
        );
    }

    #[test]
    fn reserve_covers_in_flight_plus_additional() {
        let mut q: EventQueue<u64, ()> = EventQueue::with_capacity(0);
        for k in 0..10 {
            q.push(k, ());
        }
        q.reserve(100);
        assert!(q.slab.capacity() >= 110);
        assert!(q.heap.capacity() >= 110);
    }

    proptest! {
        /// Interleaved pushes and pops over a handful of distinct keys
        /// (so most keys tie) pop the same `(key, payload)` sequence as
        /// a `BinaryHeap` of full events, and the slab never holds more
        /// slots than the in-flight high-water mark.
        #[test]
        fn prop_pops_match_full_event_heap(
            ops in prop::collection::vec((0u8..3, 0u64..4), 0..400),
        ) {
            let mut q: EventQueue<u64, u64> = EventQueue::with_capacity(0);
            let mut reference = BinaryHeap::new();
            let mut high_water = 0;
            for (i, (op, key)) in ops.into_iter().enumerate() {
                if op < 2 {
                    q.push(key, i as u64);
                    reference.push(FullEvent { key, payload: i as u64 });
                } else {
                    let want = reference.pop().map(|e| (e.key, e.payload));
                    prop_assert_eq!(q.pop(), want);
                }
                high_water = high_water.max(q.len());
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_key(), reference.peek().map(|e| e.key));
                prop_assert!(q.slab.len() <= high_water);
            }
            while let Some(e) = reference.pop() {
                prop_assert_eq!(q.pop(), Some((e.key, e.payload)));
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.free.len(), q.slab.len());
        }
    }
}
