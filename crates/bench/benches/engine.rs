//! Microbenchmarks of the simulation engine: event dispatch throughput,
//! histogram recording, deterministic RNG. These bound the per-event cost
//! every model pays.

use criterion::{criterion_group, criterion_main, Criterion};
use diablo_engine::prelude::*;
use diablo_net::addr::NodeAddr;
use diablo_net::frame::{Frame, Route};
use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};
use std::any::Any;
use std::hint::black_box;

/// A component that keeps one event bouncing forever. Periods are
/// staggered per component (like real NICs/links with distinct rates) so
/// pending events spread over time instead of all landing at one instant.
/// A bouncer built with a payload alternates: each timer sends the payload
/// to itself as a message and each message arrival sets the next timer, so
/// half the queued events carry the payload (about the simulator's real
/// mix, where roughly a third of events carry a frame). Without one it
/// bounces timers only.
struct Bouncer<M> {
    period: SimDuration,
    fired: u64,
    payload: Option<M>,
}

impl<M> Bouncer<M> {
    fn new(index: u64, payload: Option<M>) -> Self {
        Bouncer { period: SimDuration::from_picos(10_000 + 97 * (index % 64)), fired: 0, payload }
    }
}

impl<M: Send + 'static> Component<M> for Bouncer<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, _k: TimerKey, ctx: &mut Ctx<'_, M>) {
        self.fired += 1;
        match self.payload.take() {
            Some(m) => ctx.send_after(ctx.self_id(), PortNo(0), self.period, m),
            None => ctx.set_timer(self.period, 0),
        }
    }
    fn on_message(&mut self, _p: PortNo, m: M, ctx: &mut Ctx<'_, M>) {
        self.fired += 1;
        self.payload = Some(m);
        ctx.set_timer(self.period, 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A real simulator payload: a UDP datagram frame with a two-hop route.
fn frame() -> Frame {
    let d =
        UdpDatagram { src_port: 1, dst_port: 2, msg: AppMessage::new(0, 1, 100, SimTime::ZERO) };
    Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), d), Route::new(vec![1, 2]))
}

/// Drives `components` bouncers until ~100k events have been dispatched,
/// through whichever scheduler `Q` selects. `payload` makes each bouncer's
/// payload, or `None` for timer-only bouncers.
fn dispatch_100k<M: Send + 'static, Q: EventQueue<M> + Default>(
    components: usize,
    payload: impl Fn() -> Option<M>,
) -> u64 {
    let mut sim = Simulation::<M, Q>::new();
    for i in 0..components {
        sim.add_component(Box::new(Bouncer::new(i as u64, payload())));
    }
    // `components` events at ~10ns period: ~100k events by this horizon.
    let horizon = SimTime::from_nanos(10 * 100_000 / components as u64);
    sim.run_until(horizon).unwrap();
    sim.events_processed()
}

fn bench_event_dispatch(c: &mut Criterion) {
    // Paired slab-vs-heap runs of the identical workload: the ratio is the
    // gain from keeping payloads out of the heap. 16 components is the
    // shallow-queue case; 4096 components (warehouse-scale models keep
    // thousands of events pending) is where each sift walks an L2-sized
    // array. The `()` rows carry no payload, which flatters any structure
    // that moves whole events; the `frame` rows carry a real `Frame`.
    let mut g = c.benchmark_group("engine");
    for (name, n) in [("dispatch_100k_events", 16), ("dispatch_100k_wide", 4096)] {
        g.bench_function(&format!("{name}/slab"), |b| {
            b.iter(|| black_box(dispatch_100k::<(), SlabQueue<()>>(n, || None)))
        });
        g.bench_function(&format!("{name}/heap"), |b| {
            b.iter(|| black_box(dispatch_100k::<(), HeapQueue<()>>(n, || None)))
        });
        g.bench_function(&format!("{name}_frame/slab"), |b| {
            b.iter(|| black_box(dispatch_100k::<Frame, SlabQueue<Frame>>(n, || Some(frame()))))
        });
        g.bench_function(&format!("{name}_frame/heap"), |b| {
            b.iter(|| black_box(dispatch_100k::<Frame, HeapQueue<Frame>>(n, || Some(frame()))))
        });
    }
    g.finish();
}

/// Raw scheduler ops with no component dispatch in the way: push/pop 100k
/// events with a spread of delivery offsets. With a `payload`, every third
/// event is a message carrying a clone of it.
fn queue_churn<M: Clone, Q: EventQueue<M> + Default>(payload: Option<&M>) -> usize {
    use diablo_engine::event::{ComponentId, Event, EventKey};
    let mut q = Q::default();
    let mut popped = 0usize;
    let mut now = 0u64;
    let mut x: u64 = 0x1234_5678;
    for seq in 0..100_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        // Mostly near-future offsets (up to ~1us), a 1-in-64 tail of 200us
        // far timers.
        let off = if x >> 58 == 0 { 200_000_000 } else { (x >> 40) & 0xF_FFFF };
        let kind = match payload {
            Some(m) if seq % 3 == 0 => EventKind::Message(PortNo(0), m.clone()),
            _ => EventKind::Timer(0),
        };
        q.push(Event {
            key: EventKey {
                time: SimTime::from_picos(now + off),
                target: ComponentId(0),
                source: ComponentId(0),
                source_seq: seq,
            },
            kind,
        });
        if seq % 2 == 1 {
            let e = q.pop().expect("queue non-empty");
            now = e.key.time.as_picos();
            popped += 1;
        }
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

fn bench_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let f = frame();
    g.bench_function("queue_churn_100k/slab", |b| {
        b.iter(|| black_box(queue_churn::<(), SlabQueue<()>>(None)))
    });
    g.bench_function("queue_churn_100k/heap", |b| {
        b.iter(|| black_box(queue_churn::<(), HeapQueue<()>>(None)))
    });
    g.bench_function("queue_churn_100k_frame/slab", |b| {
        b.iter(|| black_box(queue_churn::<Frame, SlabQueue<Frame>>(Some(&f))))
    });
    g.bench_function("queue_churn_100k_frame/heap", |b| {
        b.iter(|| black_box(queue_churn::<Frame, HeapQueue<Frame>>(Some(&f))))
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("engine/histogram_record_10k", |b| {
        let mut h = Histogram::new();
        let mut x: u64 = 12345;
        b.iter(|| {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.record(x >> 32);
            }
            black_box(h.count())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("engine/detrng_next_10k", |b| {
        let mut rng = DetRng::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_dispatch, bench_queue_ops, bench_histogram, bench_rng
}
criterion_main!(benches);
