//! Event schedulers: the [`EventQueue`] abstraction, the production
//! [`SlabQueue`], and the reference [`HeapQueue`].
//!
//! # Why a heap of compact entries
//!
//! DIABLO's FPGA schedulers make choosing the next event nearly free (§3,
//! §5), so the software engine's per-event scheduling cost is what stands
//! between it and the models. That cost is dominated by moving events, not
//! by comparing keys: an `Event<Frame>` is 144 bytes, and every structure
//! that holds whole events copies them on each push, sift or bucket sort.
//! Only about a third of events carry a frame; the rest are timers.
//!
//! [`SlabQueue`] therefore keeps the ordering structure and the payloads
//! apart:
//!
//! * a `std::collections::BinaryHeap` of 40-byte entries, each holding the
//!   [`EventKey`], a `u64` that is either the timer key or a slab index, and
//!   the port tag (`None` for a timer). Entry size does not depend on `M`;
//! * a `Vec<Option<M>>` slab with a free list for message payloads. A
//!   payload is written once on push and taken once on pop; freed slots are
//!   reused LIFO, so the slab stays as large as the peak number of
//!   in-flight messages and its hot slots stay in cache.
//!
//! A two-tier calendar wheel (8,192 half-nanosecond buckets plus an
//! overflow heap) preceded this design. It won on payload-free
//! microbenchmarks, but on the simulator's real traffic most of its time
//! went into copying whole events through bucket `Vec`s and sorts; DESIGN.md
//! §4 records the measurements.
//!
//! # Determinism
//!
//! Both queues pop in the total `(time, target, source, source_seq)` order
//! of [`EventKey`] for any interleaving of pushes and pops. Keys are unique
//! (per-source sequence numbers), so a heap ordered by key alone has exactly
//! one valid pop order. `tests/prop_sched.rs` checks [`SlabQueue`] against
//! [`HeapQueue`] on keys *and* payloads, and the executor cross-tests
//! (`tests/determinism.rs`) keep serial and parallel runs bit-identical.

use crate::event::{Event, EventKey, EventKind, HeapEntry, PortNo};
use std::collections::BinaryHeap;

/// Minimal interface the executors need from an event scheduler.
pub trait EventQueue<M> {
    /// Inserts an event.
    fn push(&mut self, ev: Event<M>);
    /// The key of the earliest event, if any.
    fn peek_key(&self) -> Option<EventKey>;
    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Event<M>>;
    /// Removes and returns the earliest event *iff* its delivery time is
    /// strictly before `bound_ps` (picoseconds). The executors' hot loops
    /// use this fused form so serving an event is one queue operation, not
    /// a peek followed by a pop.
    fn pop_before(&mut self, bound_ps: u64) -> Option<Event<M>> {
        match self.peek_key() {
            Some(k) if k.time.as_picos() < bound_ps => self.pop(),
            _ => None,
        }
    }
    /// Number of queued events.
    fn len(&self) -> usize;
    /// `true` if no events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A binary heap of whole events: the reference implementation the
/// property tests compare [`SlabQueue`] against.
#[derive(Debug)]
pub struct HeapQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
}

impl<M> Default for HeapQueue<M> {
    fn default() -> Self {
        HeapQueue { heap: BinaryHeap::new() }
    }
}

impl<M> HeapQueue<M> {
    /// Creates an empty heap scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M> EventQueue<M> for HeapQueue<M> {
    fn push(&mut self, ev: Event<M>) {
        self.heap.push(HeapEntry(ev));
    }
    fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.0.key)
    }
    fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|e| e.0)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One heap entry of a [`SlabQueue`]: the key plus a handle on the payload.
#[derive(Debug)]
struct SlabEntry {
    key: EventKey,
    /// The timer key if `port` is `None`, otherwise the payload's slab index.
    data: u64,
    /// The arrival port of a message; `None` marks a timer.
    port: Option<PortNo>,
}

impl PartialEq for SlabEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for SlabEntry {}
impl PartialOrd for SlabEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SlabEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key.cmp(&self.key)
    }
}

/// The production scheduler: a binary heap of compact entries with message
/// payloads in a slab; see the module docs.
#[derive(Debug)]
pub struct SlabQueue<M> {
    heap: BinaryHeap<SlabEntry>,
    /// Message payloads, indexed by [`SlabEntry::data`]; `None` when free.
    slab: Vec<Option<M>>,
    /// Indices of free `slab` slots, reused last-freed first.
    free: Vec<usize>,
}

impl<M> Default for SlabQueue<M> {
    fn default() -> Self {
        SlabQueue { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new() }
    }
}

impl<M> SlabQueue<M> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the event an entry stands for, freeing its payload slot.
    #[inline]
    fn take(&mut self, e: SlabEntry) -> Event<M> {
        let kind = match e.port {
            None => EventKind::Timer(e.data),
            Some(port) => {
                let slot = e.data as usize;
                let msg = self.slab[slot].take().expect("slab slot of a queued message is full");
                self.free.push(slot);
                EventKind::Message(port, msg)
            }
        };
        Event { key: e.key, kind }
    }
}

// `#[inline]` on the per-event methods: the executors' dispatch loops are
// instantiated in the crates that run them, and inlining these methods
// there cut the timer-only microbenchmark rows by roughly a quarter.
impl<M> EventQueue<M> for SlabQueue<M> {
    #[inline]
    fn push(&mut self, ev: Event<M>) {
        let (data, port) = match ev.kind {
            EventKind::Timer(k) => (k, None),
            EventKind::Message(port, msg) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slab[slot] = Some(msg);
                        slot
                    }
                    None => {
                        self.slab.push(Some(msg));
                        self.slab.len() - 1
                    }
                };
                (slot as u64, Some(port))
            }
        };
        self.heap.push(SlabEntry { key: ev.key, data, port });
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        let e = self.heap.pop()?;
        Some(self.take(e))
    }

    #[inline]
    fn pop_before(&mut self, bound_ps: u64) -> Option<Event<M>> {
        if self.heap.peek()?.key.time.as_picos() >= bound_ps {
            return None;
        }
        self.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ComponentId;
    use crate::time::SimTime;

    fn key(time_ps: u64, target: u32, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_picos(time_ps),
            target: ComponentId(target),
            source: ComponentId(0),
            source_seq: seq,
        }
    }

    fn ev(time_ps: u64, target: u32, seq: u64) -> Event<()> {
        Event { key: key(time_ps, target, seq), kind: EventKind::Timer(0) }
    }

    fn drain_keys<M, Q: EventQueue<M>>(q: &mut Q) -> Vec<EventKey> {
        core::iter::from_fn(|| q.pop().map(|e| e.key)).collect()
    }

    /// The speed of the queue rests on payloads staying out of the heap:
    /// measured on a queue of 128-byte payloads, an entry that held `M`
    /// inline would fail here.
    #[test]
    fn heap_entry_is_at_most_40_bytes() {
        fn entry_size<T>(_: &BinaryHeap<T>) -> usize {
            core::mem::size_of::<T>()
        }
        assert!(entry_size(&SlabQueue::<[u8; 128]>::new().heap) <= 40);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = SlabQueue::<()>::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
        assert!(q.pop_before(u64::MAX).is_none());
    }

    #[test]
    fn events_pop_in_key_order() {
        let mut q = SlabQueue::<()>::new();
        q.push(ev(500, 2, 0));
        q.push(ev(500, 1, 1));
        q.push(ev(100, 9, 2));
        q.push(ev(500, 1, 0));
        q.push(ev(200_000_000_000, 0, 3));
        let got = drain_keys(&mut q);
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got[0].time, SimTime::from_picos(100));
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = SlabQueue::<()>::new();
        q.push(ev(100, 0, 0));
        assert!(q.pop_before(100).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(101).map(|e| e.key), Some(key(100, 0, 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn timers_and_messages_keep_their_payloads() {
        let mut q = SlabQueue::<String>::new();
        q.push(Event { key: key(30, 0, 0), kind: EventKind::Message(PortNo(3), "c".into()) });
        q.push(Event { key: key(10, 0, 1), kind: EventKind::Message(PortNo(1), "a".into()) });
        q.push(Event { key: key(20, 0, 2), kind: EventKind::Timer(77) });
        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Message(PortNo(1), ref m) if m == "a"));
        // The freed slot is reused by the next message, not appended.
        q.push(Event { key: key(40, 0, 3), kind: EventKind::Message(PortNo(4), "d".into()) });
        assert_eq!(q.slab.len(), 2);
        let rest: Vec<_> = core::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert!(matches!(rest[0], EventKind::Timer(77)));
        assert!(matches!(rest[1], EventKind::Message(PortNo(3), ref m) if m == "c"));
        assert!(matches!(rest[2], EventKind::Message(PortNo(4), ref m) if m == "d"));
        assert_eq!(q.free.len(), 2);
    }
}
