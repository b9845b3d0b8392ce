//! Property-based equivalence test: the slab-backed queue must pop the same
//! events as the reference binary-heap scheduler, keys *and* payloads, for
//! any interleaving of pushes and pops. Timers and messages are mixed, and
//! pops free payload slots that later pushes reuse, so a slab mix-up that
//! handed one event's payload to another would fail here.

use diablo_engine::event::{ComponentId, Event, EventKey, EventKind, PortNo};
use diablo_engine::sched::{EventQueue, HeapQueue, SlabQueue};
use diablo_engine::time::SimTime;
use proptest::prelude::*;

/// 200 ms, a TCP retransmission timeout: far-future events mixed in with
/// the near ones.
const FAR_PS: u64 = 200_000_000_000;

/// Bit of the action byte that makes the pushed event a timer.
const TIMER: u8 = 0x04;
/// Bit of the action byte that moves the event into the far future.
const FAR: u8 = 0x80;

/// An event whose payload is unique to its push: a timer key or a message
/// string both derived from `seq`, and a port derived from `target`.
fn ev(time_ps: u64, target: u32, seq: u64, timer: bool) -> Event<String> {
    let kind = if timer {
        EventKind::Timer(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    } else {
        EventKind::Message(PortNo(target as u16 + 1), format!("msg-{seq}"))
    };
    Event {
        key: EventKey {
            time: SimTime::from_picos(time_ps),
            target: ComponentId(target),
            source: ComponentId(target ^ 1),
            source_seq: seq,
        },
        kind,
    }
}

/// A comparable rendering of a popped event: key, port (`None` for a
/// timer), timer key, and message payload.
type Seen = (EventKey, Option<PortNo>, u64, String);

fn seen(e: Event<String>) -> Seen {
    match e.kind {
        EventKind::Timer(k) => (e.key, None, k, String::new()),
        EventKind::Message(p, m) => (e.key, Some(p), 0, m),
    }
}

/// Replays one op sequence against both queues and asserts every pop (and
/// every peeked key) matches exactly.
fn check_equivalence(ops: &[(u64, u32, u8)]) -> Result<(), TestCaseError> {
    let mut slab = SlabQueue::<String>::new();
    let mut heap = HeapQueue::<String>::new();
    for (seq, &(raw_time, target, action)) in ops.iter().enumerate() {
        let time_ps = if action & FAR != 0 { raw_time + FAR_PS } else { raw_time };
        let e = ev(time_ps, target, seq as u64, action & TIMER != 0);
        slab.push(e.clone());
        heap.push(e);
        // Interleave 0..=3 pops after each push; pops of messages free
        // slab slots that the following pushes reuse.
        for _ in 0..(action & 0x03) {
            prop_assert_eq!(slab.peek_key(), heap.peek_key());
            prop_assert_eq!(slab.pop().map(seen), heap.pop().map(seen));
        }
        prop_assert_eq!(slab.len(), heap.len());
    }
    // Drain: the full remaining order must agree.
    while let Some(k) = heap.peek_key() {
        prop_assert_eq!(slab.peek_key(), Some(k));
        prop_assert_eq!(slab.pop().map(seen), heap.pop().map(seen));
    }
    prop_assert!(slab.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of pushes and pops yields the same sequence of
    /// events from both schedulers.
    #[test]
    fn slab_queue_matches_heap_reference(
        ops in proptest::collection::vec(
            (0u64..100_000_000, 0u32..16, 0u8..=255),
            1..300,
        )
    ) {
        check_equivalence(&ops)?;
    }

    /// Dense ties: times confined to a few hundred picoseconds and few
    /// targets, so equal times fall back to the later key fields, and
    /// frequent pops keep freeing and reusing slab slots.
    #[test]
    fn slab_queue_matches_heap_dense_ties(
        ops in proptest::collection::vec(
            (0u64..200, 0u32..4, 0u8..=7),
            1..300,
        )
    ) {
        check_equivalence(&ops)?;
    }
}
