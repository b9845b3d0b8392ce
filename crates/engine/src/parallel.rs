//! Partition-parallel simulation executor.
//!
//! DIABLO distributes its target over many FPGAs (Rack FPGAs and Switch
//! FPGAs) whose simulation schedulers synchronize over serial links "at a
//! fine granularity" (§3.2) — and, crucially, *multiplexes* many simulated
//! racks onto each physical FPGA. The software analogue implemented here
//! assigns components to *partitions* (the unit of placement, the analogue
//! of one simulated rack) and multiplexes partitions onto a small pool of
//! *worker threads* (the analogue of physical FPGAs). Cross-partition
//! messages must arrive at least one *lookahead* after they are sent —
//! exactly the conservative-lookahead condition the FPGA prototype
//! satisfies physically, because inter-FPGA links have ≥1.6 µs round-trip
//! latency while each model synchronizes far more often.
//!
//! # Synchronization: lookahead horizons, not fixed windows
//!
//! The classic conservative protocol advances all partitions through fixed
//! quantum-sized windows separated by barriers; when the quantum is small
//! (hundreds of nanoseconds for GbE links) and events are sparse, barrier
//! cost dwarfs useful work. This executor instead derives each round's
//! *horizon* from published queue minima:
//!
//! ```text
//! horizon(w) = min over other workers v of published_min(v)  +  lookahead
//! ```
//!
//! Worker `w` may safely process every pending event strictly before
//! `horizon(w)`, because anything another worker might still send will
//! arrive no earlier than that worker's published minimum plus the
//! lookahead. When other workers are idle or far in the future, the
//! horizon leaps forward and one barrier round covers *many* quanta of
//! simulated time — the adaptive batching that makes the protocol scale
//! (SimBricks makes the same observation about per-quantum sync cost).
//! With a single worker the minimum over "other workers" is empty, the
//! horizon is unbounded, and the entire run completes in one round with
//! zero barrier waits — near-serial speed, which is what a 1-core host
//! should get from an 8-partition model.
//!
//! # Execution machinery
//!
//! * **Worker multiplexing.** An executor runs `min(partitions,
//!   available_parallelism)` workers by default
//!   ([`ParallelSimulation::with_workers`] pins the count per instance).
//!   Each worker owns a contiguous block of partitions and merges their
//!   events through one [`SlabQueue`], dispatching in the global
//!   [`crate::event::EventKey`] order. Worker count affects scheduling
//!   only — results are bit-identical for every worker count (see the
//!   conformance tests).
//! * **Scoped threads for each run.** [`ParallelSimulation::run_until`]
//!   runs worker 0 on the calling thread and workers `1..n` on threads
//!   started with [`std::thread::scope`], each borrowing its own
//!   [`WorkerState`] mutably and the run's shared `Exchange` immutably.
//!   The scope joins every thread before `run_until` returns, so no
//!   thread, lock or handoff outlives a run; a one-worker executor starts
//!   no thread at all. A run calls `run_until` only a handful of times
//!   (horizon polls and settle steps), so the spawn costs microseconds.
//! * **Lock-free cross-worker lanes.** Each ordered worker pair owns a
//!   cache-line-aligned, *parity double-buffered* SPSC lane. During a
//!   round, worker `s` appends outbound events to a local outbox and then
//!   *swaps* it into lane `(s, d)` of the current parity — no mutex, no
//!   per-event synchronization. The receiver drains the lane one barrier
//!   later; alternating parity guarantees a writer's round-`r` swap and
//!   the reader's round-`r+1` drain are always separated by an intervening
//!   barrier (see `Lane`). Events between partitions that share a worker
//!   skip the lanes entirely and go straight into the worker's queue.
//! * **One sense-reversing barrier per round.** The published minimum of a
//!   worker already includes the events it just wrote into its outgoing
//!   lanes (`sent_min`), so the exchange needs no second rendezvous. The
//!   barrier itself is sense-reversing with bounded backoff — a short spin,
//!   then `yield_now`, then a timed condvar wait — so oversubscribed or
//!   idle workers don't burn the bus (the old ticket barrier's worst
//!   path). Min/flag slots are parity double-buffered like the lanes.
//! * **One event per dispatch.** Inside a round a worker pops one event,
//!   dispatches it, and routes what it emitted (cross-partition checks,
//!   outbox-minimum fold, in-round horizon clamp). The published-minimum
//!   scan over the `mins`/`flags` arrays runs exactly once per round; the
//!   dispatch path touches no shared state. See `run_worker`.
//! * **Buffers that survive runs.** The emitted-event buffer, the
//!   per-destination outboxes and the queue live in [`WorkerState`], so
//!   their capacity carries over from round to round and run to run. Only
//!   the exchange (barrier, minima, flags, lanes) is rebuilt per run.
//!
//! The barrier is *poisonable*: if a component handler panics on a worker,
//! the barrier wakes every other worker with an error instead of
//! deadlocking, the run returns [`EngineError::WorkerPanicked`], and the
//! executor refuses further runs.
//!
//! # Determinism
//!
//! The executor is *deterministic*: events are dispatched in the
//! schedule-independent total order of [`crate::event::EventKey`], so a
//! parallel run produces bit-identical component state to a serial run of
//! the same configuration, for every partition count and every worker
//! count (see `crates/engine/tests/conformance.rs` and the cross-executor
//! tests in the workspace `tests/` directory). The cross-partition
//! lookahead check is itself machine-independent: a message between
//! partitions must satisfy `arrival ≥ send_time + lookahead` whether or
//! not the two partitions happen to share a worker thread on this host.

use crate::component::{Component, Ctx};
use crate::error::EngineError;
use crate::event::{ComponentId, Event, EventKey, EventKind, PortNo, TimerKey};
use crate::sched::{EventQueue, SlabQueue};
use crate::sim::{RunStats, Simulation};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::stats::{ExecReport, PartitionExec, WorkerExec};
use crate::time::{SimDuration, SimTime};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Abstracts over the serial and parallel executors so cluster builders can
/// target either.
///
/// Partition hints are ignored by the serial executor.
pub trait ComponentHost<M> {
    /// Registers `component`, placing it in `partition` when the host is
    /// partitioned.
    fn add_in_partition(
        &mut self,
        partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId;

    /// Injects an external event.
    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>);

    /// Number of partitions this host schedules over (1 for serial hosts).
    fn partition_count(&self) -> usize {
        1
    }

    /// Convenience: injects an external timer event.
    fn inject_timer(&mut self, at: SimTime, target: ComponentId, key: TimerKey) {
        self.inject(at, target, EventKind::Timer(key));
    }

    /// Convenience: injects an external message event.
    fn inject_message(&mut self, at: SimTime, target: ComponentId, port: PortNo, msg: M) {
        self.inject(at, target, EventKind::Message(port, msg));
    }
}

impl<M: 'static, Q: EventQueue<M> + Default> ComponentHost<M> for Simulation<M, Q> {
    fn add_in_partition(
        &mut self,
        _partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId {
        self.add_component(component)
    }

    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>) {
        self.schedule_external(at, target, kind);
    }
}

/// Resolves the *requested* worker count: the host's available
/// parallelism (at least 1).
///
/// The request is deliberately not clamped to the partition count here:
/// [`ParallelSimulation::with_workers`] performs that clamp and records
/// both the requested and the effective value, so a silently reduced
/// worker count stays diagnosable from the executor's
/// [`ExecReport`] (`workers_requested` vs. the per-worker entries).
fn requested_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-partition execution counters. Components themselves live in the
/// owning [`WorkerState`]'s flat arrays (partition membership is a tag,
/// not a storage boundary) so single-worker dispatch has exactly the
/// serial executor's memory layout.
#[derive(Clone, Copy, Default)]
struct PartCounters {
    events_processed: u64,
    /// Events this partition's components sent to another partition.
    sent_cross: u64,
    /// Events delivered to this partition from another worker's lanes.
    recv_cross: u64,
}

/// One worker thread's state: the components of the partitions it owns (a
/// contiguous block starting at `lo`), their merged event queue, and
/// per-worker sync counters.
struct WorkerState<M> {
    /// Index of the first owned partition.
    lo: usize,
    /// Component state, struct-of-arrays and indexed by the flat component
    /// index assigned at registration: `comps` is the hot array the
    /// dispatch loop walks, `seqs`/`part_of` are its parallel metadata
    /// columns, and `ids` is the cold column holding each slot's global
    /// [`ComponentId`] (only read by debug asserts and inspection paths).
    /// Splitting the old `(ComponentId, Box<dyn Component>)` AoS pairs
    /// keeps the dispatch loop's cache lines free of ids it never needs.
    ids: Vec<ComponentId>,
    /// Component trait objects, parallel to `ids` (the hot SoA column).
    comps: Vec<Box<dyn Component<M>>>,
    /// Per-owned-component sequence counters, parallel to `ids`.
    seqs: Vec<u64>,
    /// Owning partition of each component, parallel to `ids`.
    part_of: Vec<u32>,
    /// Execution counters for each owned partition (`counters[p - lo]`).
    counters: Vec<PartCounters>,
    /// Merged queue of every owned partition's pending events.
    queue: SlabQueue<M>,
    /// Per-destination-worker outboxes, swapped into lanes at round end.
    /// Kept in the state so buffer capacity survives across rounds/runs.
    outboxes: Vec<Vec<Event<M>>>,
    /// Reusable buffer for the events one dispatch emits; its capacity
    /// survives across rounds and runs.
    pending: Vec<Event<M>>,
    last_time: SimTime,
    /// Barrier rounds completed.
    rounds: u64,
    /// Wall-clock nanoseconds spent waiting at the barrier.
    barrier_wait_ns: u64,
    /// Total events received through lanes.
    lane_events: u64,
}

impl<M> WorkerState<M> {
    /// A worker owning `nparts` partitions from `lo`, exchanging with
    /// `nworkers` workers in all.
    fn new(lo: usize, nparts: usize, nworkers: usize) -> Self {
        WorkerState {
            lo,
            ids: Vec::new(),
            comps: Vec::new(),
            seqs: Vec::new(),
            part_of: Vec::new(),
            counters: vec![PartCounters::default(); nparts],
            queue: SlabQueue::new(),
            outboxes: (0..nworkers).map(|_| Vec::new()).collect(),
            pending: Vec::new(),
            last_time: SimTime::ZERO,
            rounds: 0,
            barrier_wait_ns: 0,
            lane_events: 0,
        }
    }
}

/// Routes one outgoing event emitted at `now_ps` by a component of
/// partition `src_part` on worker `me`: same partition -> worker queue;
/// other partition -> lookahead check, then worker queue (same worker) or
/// outbox (other worker).
///
/// The lookahead check is deliberately independent of worker placement so
/// that a model that is illegal on a many-core host is equally illegal on
/// a single core.
#[allow(clippy::too_many_arguments)]
fn route_one<M>(
    directory: &[(u32, u32)],
    part_worker: &[u32],
    me: usize,
    src_part: u32,
    queue: &mut SlabQueue<M>,
    outboxes: &mut [Vec<Event<M>>],
    earliest_ok_ps: u64,
    cross: &mut u64,
    outbox_min: &mut u64,
    ev: Event<M>,
) -> Result<(), EngineError> {
    let idx = ev.key.target.index();
    if idx >= directory.len() {
        return Err(EngineError::UnknownComponent(ev.key.target));
    }
    let (p, _) = directory[idx];
    if p == src_part {
        queue.push(ev);
        return Ok(());
    }
    if ev.key.time.as_picos() < earliest_ok_ps {
        return Err(EngineError::CrossPartitionTooSoon {
            source: ev.key.source,
            target: ev.key.target,
            at: ev.key.time,
            earliest_ok: SimTime::from_picos(earliest_ok_ps),
        });
    }
    *cross += 1;
    let dw = part_worker[p as usize] as usize;
    if dw == me {
        queue.push(ev);
    } else {
        *outbox_min = (*outbox_min).min(ev.key.time.as_picos());
        outboxes[dw].push(ev);
    }
    Ok(())
}

/// A sense-reversing barrier with bounded backoff that can be *poisoned*
/// by a panicking worker so its siblings return an error instead of
/// waiting forever.
///
/// Each waiter carries a thread-local sense flag, flipped every round; the
/// last arriver resets the count and publishes the round's sense. Waiters
/// back off in three stages — a short spin for the cores-available case, a
/// `yield_now` stage for oversubscribed hosts (more runnable workers than
/// cores), and finally a timed condvar wait so a long-idle worker costs
/// nothing.
struct SenseBarrier {
    n: u64,
    count: AtomicU64,
    sense: AtomicBool,
    poisoned: AtomicBool,
    mu: Mutex<()>,
    cv: Condvar,
}

/// Returned by [`SenseBarrier::wait`] when a sibling worker panicked.
struct BarrierPoisoned;

impl SenseBarrier {
    const SPIN_ROUNDS: u32 = 64;
    const YIELD_ROUNDS: u32 = 256;

    fn new(n: usize) -> Self {
        SenseBarrier {
            n: n as u64,
            count: AtomicU64::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `n` workers. `local_sense` must start `true` on every
    /// thread and is flipped by each successful or poisoned wait.
    fn wait(&self, local_sense: &mut bool) -> Result<(), BarrierPoisoned> {
        let my_sense = *local_sense;
        *local_sense = !my_sense;
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset for the next round, publish the sense.
            // The RMW chain on `count` makes every earlier arriver's
            // writes visible here; the release store republishes them.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            drop(self.mu.lock().expect("barrier mutex"));
            self.cv.notify_all();
        } else {
            let mut tries = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(BarrierPoisoned);
                }
                tries += 1;
                if tries < Self::SPIN_ROUNDS {
                    std::hint::spin_loop();
                } else if tries < Self::YIELD_ROUNDS {
                    std::thread::yield_now();
                } else {
                    // Block; the timeout re-arms the sense check so a
                    // wakeup lost to the publish/lock race cannot strand
                    // us.
                    let guard = self.mu.lock().expect("barrier mutex");
                    if self.sense.load(Ordering::Acquire) == my_sense
                        || self.poisoned.load(Ordering::Acquire)
                    {
                        continue;
                    }
                    let _guard = self
                        .cv
                        .wait_timeout(guard, std::time::Duration::from_micros(200))
                        .expect("barrier condvar");
                }
            }
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        Ok(())
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.mu.lock().expect("barrier mutex"));
        self.cv.notify_all();
    }
}

/// One direction of a cross-worker exchange: a buffer written only by its
/// source worker and drained only by its destination worker.
///
/// # Safety protocol
///
/// Lanes are allocated per `(parity, source, destination)` triple. During
/// round `r` a writer only swaps into parity `r % 2` lanes and a reader
/// only drains parity `(r - 1) % 2` lanes (written the previous round), so
/// accesses to one buffer from the two threads are always separated by at
/// least one intervening barrier, which provides the happens-before
/// edge. The alignment keeps neighboring lanes off each other's cache
/// lines.
#[repr(align(128))]
struct Lane<M>(UnsafeCell<Vec<Event<M>>>);

// SAFETY: the parity protocol above guarantees exclusive access between
// barriers; `Event<M>` moves between threads, requiring `M: Send`.
unsafe impl<M: Send> Sync for Lane<M> {}

impl<M> Lane<M> {
    fn new() -> Self {
        Lane(UnsafeCell::new(Vec::new()))
    }
}

#[inline]
fn lane_idx(n: usize, parity: usize, src: usize, dst: usize) -> usize {
    (parity * n + src) * n + dst
}

/// Everything the workers of one `run_until` call share: the run's
/// parameters, the component directory, and the round protocol's barrier,
/// published minima and flags, and lanes. Built per run and dropped with
/// it; lanes are empty at every run boundary (each round drains the
/// previous round's flush before the break decision), so nothing here
/// needs to outlive a run.
struct Exchange<'a, M> {
    /// Worker (thread) count, not partition count.
    nworkers: usize,
    /// Conservative lookahead: cross-partition events arrive at least this
    /// long after they are sent, in picoseconds.
    lookahead_ps: u64,
    /// Global component id -> (partition, flat index within the owning
    /// worker).
    directory: &'a [(u32, u32)],
    /// Partition -> owning worker.
    part_worker: &'a [u32],
    start_now: SimTime,
    /// First instant the run must not process (`limit + 1`).
    exclusive_end: u64,
    /// Whether components still need their `on_start` call.
    first_run: bool,
    barrier: SenseBarrier,
    /// Published per-worker queue minima, parity double-buffered:
    /// `mins[parity * nworkers + worker]`.
    mins: Vec<AtomicU64>,
    /// Published stop/error flags, same layout as `mins`.
    flags: Vec<AtomicU64>,
    /// SPSC exchange lanes, `2 * nworkers * nworkers` of them (see
    /// [`Lane`]).
    lanes: Vec<Lane<M>>,
}

/// What one worker's run returns: its last event time, whether a component
/// stopped the run, and the first error it raised.
type WorkerOutcome = (SimTime, bool, Option<EngineError>);

/// Runs worker `me` with its panics caught: a panicking handler poisons
/// the barrier so every sibling returns instead of waiting forever.
fn run_caught<M: Send + 'static>(
    ex: &Exchange<'_, M>,
    me: usize,
    ws: &mut WorkerState<M>,
) -> std::thread::Result<WorkerOutcome> {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_worker(ex, me, ws)));
    if outcome.is_err() {
        ex.barrier.poison();
    }
    outcome
}

const FLAG_STOP: u64 = 1;
const FLAG_ERR: u64 = 2;

/// Per-thread body of one parallel run. Each round is: publish `(min incl.
/// sent, flags)` at the current parity → **single barrier** → drain
/// incoming lanes of that parity → decide (stop / error / done) → flip
/// parity → process every owned event up to this round's lookahead horizon
/// → swap outboxes into outgoing lanes of the new parity.
fn run_worker<M: Send + 'static>(
    ex: &Exchange<'_, M>,
    me: usize,
    ws: &mut WorkerState<M>,
) -> WorkerOutcome {
    let nw = ex.nworkers;
    let lookahead = ex.lookahead_ps;
    let mut local_now = ex.start_now;
    let mut stopped = false;
    let mut pending_stop = false;
    let mut pending_err: Option<EngineError> = None;
    // Sense-barrier flag; the barrier is fresh for every run.
    let mut sense = true;
    // Parity the *next* publish/drain round uses; flipped each round.
    let mut parity = 0usize;
    // Minimum delivery time among events flushed to lanes since the last
    // publish; folded into the published minimum so the decision barrier
    // also covers in-flight messages.
    let mut sent_min = u64::MAX;

    if ex.first_run {
        // Phase 0: component starts. The resulting events are exchanged
        // through the lanes before anything is processed, so
        // cross-partition deliveries have no lookahead bound here
        // (`earliest_ok = start_now` admits everything).
        let start_ps = ex.start_now.as_picos();
        for i in 0..ws.comps.len() {
            let part_id = ws.part_of[i];
            let id = ws.ids[i];
            let mut stop = false;
            let mut ctx = Ctx::new(ex.start_now, id, &mut ws.seqs[i], &mut ws.pending, &mut stop);
            ws.comps[i].on_start(&mut ctx);
            pending_stop |= stop;
            let mut cross = 0u64;
            let mut outbox_min = u64::MAX;
            for ev in ws.pending.drain(..) {
                if let Err(e) = route_one(
                    ex.directory,
                    ex.part_worker,
                    me,
                    part_id,
                    &mut ws.queue,
                    &mut ws.outboxes,
                    start_ps,
                    &mut cross,
                    &mut outbox_min,
                    ev,
                ) {
                    pending_err.get_or_insert(e);
                    break;
                }
            }
            ws.counters[part_id as usize - ws.lo].sent_cross += cross;
        }
        flush_outboxes(ex, me, parity, &mut ws.outboxes, &mut sent_min);
    }

    loop {
        // Publish local minimum (queue head plus freshly sent events) and
        // flags into this round's parity slots.
        let queue_min = ws.queue.peek_key().map_or(u64::MAX, |k| k.time.as_picos());
        // Events flushed last round sit in the lanes and are drained by
        // their receivers *this* round; a receiver may process one at time
        // t >= inflight_min and reply with something arriving as early as
        // t + lookahead. The published minimum warns every *other* worker
        // about them, but this worker's own horizon needs the same floor.
        let inflight_min = sent_min;
        let my_min = queue_min.min(sent_min);
        sent_min = u64::MAX;
        ex.mins[parity * nw + me].store(my_min, Ordering::Release);
        let mut f = 0;
        if pending_stop {
            f |= FLAG_STOP;
        }
        if pending_err.is_some() {
            f |= FLAG_ERR;
        }
        ex.flags[parity * nw + me].store(f, Ordering::Release);

        let wait_start = std::time::Instant::now();
        if ex.barrier.wait(&mut sense).is_err() {
            // A sibling panicked; bail out with whatever state we have.
            break;
        }
        ws.barrier_wait_ns += wait_start.elapsed().as_nanos() as u64;
        ws.rounds += 1;

        // Drain lanes written toward us before the barrier (same parity).
        for src in 0..nw {
            if src == me {
                continue;
            }
            // SAFETY: per the Lane protocol, the writer's last access to
            // this parity's buffer happened before the barrier we just
            // crossed, and its next access is after the barrier we cross
            // next round.
            let buf = unsafe { &mut *ex.lanes[lane_idx(nw, parity, src, me)].0.get() };
            ws.lane_events += buf.len() as u64;
            for ev in buf.drain(..) {
                let (p, _) = ex.directory[ev.key.target.index()];
                ws.counters[p as usize - ws.lo].recv_cross += 1;
                ws.queue.push(ev);
            }
        }

        // Decide from this round's published snapshot.
        let mut others_min = u64::MAX;
        let mut global_min = u64::MAX;
        let mut any_flags = 0u64;
        for i in 0..nw {
            let m = ex.mins[parity * nw + i].load(Ordering::Acquire);
            global_min = global_min.min(m);
            if i != me {
                others_min = others_min.min(m);
            }
            any_flags |= ex.flags[parity * nw + i].load(Ordering::Acquire);
        }
        if any_flags & FLAG_ERR != 0 {
            break;
        }
        if any_flags & FLAG_STOP != 0 {
            stopped = true;
            break;
        }
        if global_min >= ex.exclusive_end {
            break;
        }
        parity = 1 - parity;

        // This round's horizon: nothing another worker might still send
        // can arrive before its published minimum plus the lookahead — and
        // nothing triggered by our own in-flight events can arrive before
        // their minimum plus the lookahead — so everything strictly before
        // that is safe to process now. With one worker the bound
        // degenerates to the run limit — the whole run in a single round.
        let mut horizon =
            others_min.min(inflight_min).saturating_add(lookahead).min(ex.exclusive_end);

        // Process every owned event inside the horizon in EventKey order.
        // The horizon is clamped *during* the round: once this worker hands
        // an event with delivery time `d` to another worker's outbox, that
        // worker may process it next round and reply with something
        // arriving as early as `d + lookahead` — so events at or beyond
        // that instant are no longer safe to process in this round. (Events
        // routed within this worker stay in its ordered queue and need no
        // clamp.) Previously processed events are unaffected: pops are in
        // time order and `d + lookahead` is strictly in the future.
        while !pending_stop && pending_err.is_none() {
            let Some(ev) = ws.queue.pop_before(horizon) else { break };
            let target = ev.key.target;
            let (p, fidx) = ex.directory[target.index()];
            let prel = p as usize - ws.lo;
            let fidx = fidx as usize;
            debug_assert_eq!(ws.ids[fidx], target);
            local_now = ev.key.time;
            let mut stop = false;
            let mut ctx =
                Ctx::new(local_now, target, &mut ws.seqs[fidx], &mut ws.pending, &mut stop);
            match ev.kind {
                EventKind::Timer(key) => ws.comps[fidx].on_timer(key, &mut ctx),
                EventKind::Message(port, msg) => ws.comps[fidx].on_message(port, msg, &mut ctx),
            }
            ws.counters[prel].events_processed += 1;
            pending_stop |= stop;
            let earliest_ok = local_now.as_picos().saturating_add(lookahead);
            let mut cross = 0u64;
            let mut outbox_min = u64::MAX;
            for out in ws.pending.drain(..) {
                if let Err(e) = route_one(
                    ex.directory,
                    ex.part_worker,
                    me,
                    p,
                    &mut ws.queue,
                    &mut ws.outboxes,
                    earliest_ok,
                    &mut cross,
                    &mut outbox_min,
                    out,
                ) {
                    pending_err.get_or_insert(e);
                    break;
                }
            }
            ws.counters[prel].sent_cross += cross;
            horizon = horizon.min(outbox_min.saturating_add(lookahead));
        }
        ws.last_time = ws.last_time.max(local_now);

        // Hand this round's cross-worker events to their destinations:
        // swap each non-empty outbox into the matching lane of the *new*
        // parity (drained by the receiver after the next barrier).
        flush_outboxes(ex, me, parity, &mut ws.outboxes, &mut sent_min);
    }
    (ws.last_time, stopped, pending_err)
}

/// Swaps non-empty outboxes into this worker's outgoing lanes of the given
/// parity, folding sent delivery times into `sent_min`.
fn flush_outboxes<M: Send>(
    ex: &Exchange<'_, M>,
    me: usize,
    parity: usize,
    outboxes: &mut [Vec<Event<M>>],
    sent_min: &mut u64,
) {
    let nw = ex.nworkers;
    for (dst, out) in outboxes.iter_mut().enumerate() {
        if out.is_empty() {
            continue;
        }
        for ev in out.iter() {
            *sent_min = (*sent_min).min(ev.key.time.as_picos());
        }
        // SAFETY: we are the only writer of (me, dst) lanes, and the
        // receiver drained this parity's buffer before the previous
        // barrier; see the Lane protocol.
        let lane = unsafe { &mut *ex.lanes[lane_idx(nw, parity, me, dst)].0.get() };
        debug_assert!(lane.is_empty(), "lane reused before the receiver drained it");
        std::mem::swap(lane, out);
    }
}

/// The multi-threaded executor: components grouped into partitions,
/// partitions multiplexed onto worker threads started for each run, one
/// sense-reversing barrier per synchronization round.
///
/// # Examples
///
/// ```
/// use diablo_engine::prelude::*;
/// use diablo_engine::parallel::ParallelSimulation;
///
/// struct Silent;
/// impl Component<()> for Silent {
///     fn on_timer(&mut self, _k: TimerKey, _c: &mut Ctx<'_, ()>) {}
///     fn on_message(&mut self, _p: PortNo, _m: (), _c: &mut Ctx<'_, ()>) {}
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut sim = ParallelSimulation::<()>::new(2, SimDuration::from_micros(1));
/// sim.add_in_partition(0, Box::new(Silent));
/// sim.add_in_partition(1, Box::new(Silent));
/// let stats = sim.run_until(SimTime::from_millis(1)).unwrap();
/// assert_eq!(stats.events, 0);
/// ```
pub struct ParallelSimulation<M> {
    /// Per-worker states, each borrowed by its worker during a run.
    workers: Vec<WorkerState<M>>,
    /// Partition -> owning worker.
    part_worker: Vec<u32>,
    nparts: usize,
    /// Global component id -> (partition, local index).
    directory: Vec<(u32, u32)>,
    /// Conservative cross-partition lookahead (also called the quantum).
    lookahead: SimDuration,
    now: SimTime,
    started: bool,
    external_seq: u64,
    /// Set when a component handler panicked; later runs fail fast.
    poisoned: bool,
    /// The worker count asked for (default or explicit), before the clamp
    /// to `partitions`; reported so a silently reduced effective count is
    /// diagnosable from the [`ExecReport`] artifact.
    workers_requested: usize,
}

impl<M> std::fmt::Debug for ParallelSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSimulation")
            .field("partitions", &self.nparts)
            .field("workers", &self.workers.len())
            .field("components", &self.directory.len())
            .field("lookahead", &self.lookahead)
            .field("now", &self.now)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl<M: Send + 'static> ParallelSimulation<M> {
    /// Creates an executor with `partitions` placement partitions and the
    /// given cross-partition `lookahead` (the synchronization quantum:
    /// cross-partition messages must arrive at least this long after they
    /// are sent). Partitions are multiplexed onto
    /// `min(partitions, available parallelism)` workers — pin the count
    /// with [`ParallelSimulation::with_workers`]. Each run starts its
    /// worker threads and joins them before it returns.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or `lookahead` is zero.
    pub fn new(partitions: usize, lookahead: SimDuration) -> Self {
        Self::with_workers(partitions, requested_workers(), lookahead)
    }

    /// Like [`ParallelSimulation::new`] but with an explicit worker-thread
    /// count (clamped to `partitions`). Worker count affects scheduling
    /// only; results are identical for every value.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` or `workers` is zero, or `lookahead` is zero.
    pub fn with_workers(partitions: usize, workers: usize, lookahead: SimDuration) -> Self {
        assert!(partitions > 0, "at least one partition required");
        assert!(workers > 0, "at least one worker required");
        assert!(!lookahead.is_zero(), "lookahead must be positive");
        let nworkers = workers.min(partitions);
        // Contiguous blocks: worker w owns partitions [w*n/W, (w+1)*n/W).
        let mut part_worker = vec![0u32; partitions];
        let mut worker_states = Vec::with_capacity(nworkers);
        for w in 0..nworkers {
            let lo = w * partitions / nworkers;
            let hi = (w + 1) * partitions / nworkers;
            for owner in &mut part_worker[lo..hi] {
                *owner = w as u32;
            }
            worker_states.push(WorkerState::new(lo, hi - lo, nworkers));
        }
        ParallelSimulation {
            workers: worker_states,
            part_worker,
            nparts: partitions,
            workers_requested: workers,
            directory: Vec::new(),
            lookahead,
            now: SimTime::ZERO,
            started: false,
            external_seq: 0,
            poisoned: false,
        }
    }

    /// The synchronization quantum (cross-partition lookahead).
    pub fn quantum(&self) -> SimDuration {
        self.lookahead
    }

    /// The conservative cross-partition lookahead (alias of
    /// [`ParallelSimulation::quantum`]).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Number of placement partitions.
    pub fn partition_count(&self) -> usize {
        self.nparts
    }

    /// Number of worker threads partitions are multiplexed onto (the
    /// *effective* count, after the clamp to the partition count).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The worker count that was *requested* (explicitly, or from the
    /// host's available parallelism) before the clamp to the partition
    /// count. When this exceeds [`ParallelSimulation::worker_count`], the
    /// executor silently reduced concurrency — the [`ExecReport`] carries
    /// both so the reduction shows up in metrics artifacts.
    pub fn workers_requested(&self) -> usize {
        self.workers_requested
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.directory.len()
    }

    /// Downcasts a component to its concrete type for inspection.
    pub fn component<T: 'static>(&self, id: ComponentId) -> Option<&T> {
        let &(p, f) = self.directory.get(id.index())?;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].comps[f as usize].as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`ParallelSimulation::component`].
    pub fn component_mut<T: 'static>(&mut self, id: ComponentId) -> Option<&mut T> {
        let &(p, f) = self.directory.get(id.index())?;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].comps[f as usize].as_any_mut().downcast_mut::<T>()
    }

    /// Visits every component that exposes a metrics surface (see
    /// [`Component::instrumented`]), in component-id order — the same
    /// order as the serial executor, regardless of how components are
    /// distributed over partitions and workers, so scrapes of identical
    /// model state are identical across executors.
    pub fn visit_instrumented(
        &self,
        mut f: impl FnMut(ComponentId, &dyn crate::metrics::Instrumented),
    ) {
        for (i, &(p, fl)) in self.directory.iter().enumerate() {
            let w = self.part_worker[p as usize] as usize;
            if let Some(ins) = self.workers[w].comps[fl as usize].instrumented() {
                f(ComponentId(i as u32), ins);
            }
        }
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.workers.iter().flat_map(|w| w.counters.iter()).map(|c| c.events_processed).sum()
    }

    /// Current simulated time (the last completed horizon or event time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative per-partition and per-worker execution statistics:
    /// events and cross-partition traffic per partition, barrier rounds,
    /// barrier wait time, and lane occupancy per worker.
    pub fn exec_report(&self) -> ExecReport {
        ExecReport {
            lookahead_ps: self.lookahead.as_picos(),
            workers_requested: self.workers_requested,
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(w, ws)| WorkerExec {
                    worker: w,
                    partitions: ws.counters.len(),
                    rounds: ws.rounds,
                    barrier_wait_ns: ws.barrier_wait_ns,
                    lane_events: ws.lane_events,
                })
                .collect(),
            partitions: self
                .workers
                .iter()
                .enumerate()
                .flat_map(|(w, ws)| {
                    ws.counters.iter().enumerate().map(move |(prel, c)| PartitionExec {
                        partition: ws.lo + prel,
                        worker: w,
                        events: c.events_processed,
                        sent_cross: c.sent_cross,
                        recv_cross: c.recv_cross,
                    })
                })
                .collect(),
        }
    }

    /// Runs until the queues drain or a component stops the run.
    ///
    /// # Errors
    ///
    /// See [`ParallelSimulation::run_until`].
    pub fn run(&mut self) -> Result<RunStats, EngineError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until simulated time exceeds `limit` (events at exactly `limit`
    /// are processed), the queues drain, or a component stops the run.
    /// Repeated calls reuse the same worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CrossPartitionTooSoon`] if a component sends a
    /// cross-partition message with less than one lookahead of latency,
    /// [`EngineError::UnknownComponent`] for events targeting unregistered
    /// components, and [`EngineError::WorkerPanicked`] if a component
    /// handler panicked on a worker thread (further runs refuse to start).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunStats, EngineError> {
        if self.poisoned {
            return Err(EngineError::WorkerPanicked);
        }
        let nw = self.workers.len();
        let start_now = self.now;
        let ex = Exchange {
            nworkers: nw,
            lookahead_ps: self.lookahead.as_picos(),
            directory: &self.directory,
            part_worker: &self.part_worker,
            start_now,
            exclusive_end: if limit == SimTime::MAX {
                u64::MAX
            } else {
                limit.as_picos().saturating_add(1)
            },
            first_run: !self.started,
            barrier: SenseBarrier::new(nw),
            mins: (0..2 * nw).map(|_| AtomicU64::new(u64::MAX)).collect(),
            flags: (0..2 * nw).map(|_| AtomicU64::new(0)).collect(),
            lanes: (0..2 * nw * nw).map(|_| Lane::new()).collect(),
        };
        self.started = true;

        // Worker 0 runs on this thread; the scope joins the others before
        // it returns, so every worker state is back in place afterwards.
        let (first, rest) = self.workers.split_first_mut().expect("at least one worker");
        let outcomes: Vec<std::thread::Result<WorkerOutcome>> = std::thread::scope(|s| {
            let ex = &ex;
            let handles: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, ws)| {
                    std::thread::Builder::new()
                        .name(format!("diablo-wkr-{}", i + 1))
                        .spawn_scoped(s, move || run_caught(ex, i + 1, ws))
                        .unwrap_or_else(|e| {
                            // Release the workers already started, or the
                            // scope would wait on them forever.
                            ex.barrier.poison();
                            panic!("cannot start worker thread: {e}")
                        })
                })
                .collect();
            let mut outcomes = vec![run_caught(ex, 0, first)];
            outcomes.extend(handles.into_iter().map(|h| h.join().and_then(|r| r)));
            outcomes
        });

        if outcomes.iter().any(Result::is_err) {
            self.poisoned = true;
            return Err(EngineError::WorkerPanicked);
        }
        let mut stopped = false;
        let mut event_max = start_now;
        for (t, s, err) in outcomes.into_iter().flatten() {
            if let Some(e) = err {
                return Err(e);
            }
            stopped |= s;
            event_max = event_max.max(t);
        }
        if !stopped && limit < SimTime::MAX {
            self.now = limit.max(event_max);
        } else {
            self.now = event_max;
        }
        Ok(RunStats { events: self.events_processed(), final_time: self.now, stopped })
    }
}

impl<M: Snap + Send + 'static> ParallelSimulation<M> {
    /// Serializes the executor's deterministic state in the *same format*
    /// as [`Simulation::save_state`]: clock, per-component sequence
    /// counters and state blobs in global component-id order, and all
    /// queued events merged into [`EventKey`] total order. A snapshot
    /// saved by either executor restores into the other.
    ///
    /// Must be called between runs: cross-worker lanes and outboxes are
    /// provably empty at every `run_until` boundary (each round drains the
    /// previous round's flush before the break decision), so worker queues
    /// hold the complete pending-event set. Scheduling diagnostics
    /// (barrier waits, lane traffic) are deliberately not
    /// saved — they describe the host, not the model.
    pub fn save_state(&mut self, w: &mut SnapWriter) {
        self.now.save(w);
        // `started` / `stop` slots of the common format: a restored run
        // never re-fires `on_start`, and parallel stop flags are
        // re-derived per run.
        true.save(w);
        false.save(w);
        self.external_seq.save(w);
        self.events_processed().save(w);
        let directory = &self.directory;
        let mut seqs = Vec::with_capacity(directory.len());
        for &(p, f) in directory {
            let wk = self.part_worker[p as usize] as usize;
            seqs.push(self.workers[wk].seqs[f as usize]);
        }
        seqs.save(w);
        w.put_len(directory.len());
        for &(p, f) in directory {
            let wk = self.part_worker[p as usize] as usize;
            match self.workers[wk].comps[f as usize].persist() {
                Some(pers) => {
                    true.save(w);
                    let mut cw = SnapWriter::new();
                    pers.save_state(&mut cw);
                    w.put_blob(&cw.into_bytes());
                }
                None => false.save(w),
            }
        }
        let mut events = Vec::new();
        for ws in &mut self.workers {
            while let Some(ev) = ws.queue.pop() {
                events.push(ev);
            }
        }
        events.sort_by_key(|e| e.key);
        w.put_len(events.len());
        for ev in &events {
            ev.save(w);
        }
        // Re-push in sorted order: each worker receives its own events in
        // ascending key order, which rebuilds its queue exactly.
        for ev in events {
            let (p, _) = directory[ev.key.target.index()];
            let wk = self.part_worker[p as usize] as usize;
            self.workers[wk].queue.push(ev);
        }
    }

    /// Overwrites this executor's state from a stream written by either
    /// executor's `save_state`. The model must be freshly built from the
    /// same structural configuration; partition/worker layout may differ
    /// freely from the saving run.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncation, corruption, or a component-count /
    /// persist-surface mismatch.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = Snap::load(r)?;
        self.started = bool::load(r)?;
        let _serial_stop = bool::load(r)?;
        self.external_seq = Snap::load(r)?;
        let events_total = u64::load(r)?;
        let directory = &self.directory;
        let seqs: Vec<u64> = Snap::load(r)?;
        if seqs.len() != directory.len() {
            return Err(SnapError::Malformed(format!(
                "snapshot has {} components, model has {}",
                seqs.len(),
                directory.len()
            )));
        }
        for (i, &s) in seqs.iter().enumerate() {
            let (p, f) = directory[i];
            let wk = self.part_worker[p as usize] as usize;
            self.workers[wk].seqs[f as usize] = s;
        }
        let ncomp = r.take_len()?;
        if ncomp != directory.len() {
            return Err(SnapError::Malformed(format!(
                "snapshot component table has {ncomp} entries, model has {}",
                directory.len()
            )));
        }
        for (i, &(p, f)) in directory.iter().enumerate() {
            let wk = self.part_worker[p as usize] as usize;
            let has = bool::load(r)?;
            match (has, self.workers[wk].comps[f as usize].persist_mut()) {
                (true, Some(pers)) => {
                    let blob = r.take_blob()?;
                    let mut cr = SnapReader::new(blob);
                    pers.load_state(&mut cr)?;
                    if cr.remaining() != 0 {
                        return Err(SnapError::Malformed(format!(
                            "component {i} left {} trailing bytes",
                            cr.remaining()
                        )));
                    }
                }
                (false, None) => {}
                (true, None) => {
                    return Err(SnapError::Malformed(format!(
                        "snapshot has state for component {i}, which is not persistable"
                    )));
                }
                (false, Some(_)) => {
                    return Err(SnapError::Malformed(format!(
                        "snapshot lacks state for persistable component {i}"
                    )));
                }
            }
        }
        // The global dispatched-event total is representation-independent;
        // park it on the first partition's counter so `events_processed()`
        // continues from the saved value regardless of layout.
        for ws in &mut self.workers {
            for c in &mut ws.counters {
                *c = PartCounters::default();
            }
            ws.last_time = self.now;
        }
        self.workers[0].counters[0].events_processed = events_total;
        for ws in &mut self.workers {
            while ws.queue.pop().is_some() {}
        }
        let n = r.take_len()?;
        for _ in 0..n {
            let ev = Event::<M>::load(r)?;
            let idx = ev.key.target.index();
            if idx >= directory.len() {
                return Err(SnapError::Malformed(format!(
                    "snapshot event targets unknown component {}",
                    ev.key.target
                )));
            }
            let (p, _) = directory[idx];
            let wk = self.part_worker[p as usize] as usize;
            self.workers[wk].queue.push(ev);
        }
        Ok(())
    }
}

impl<M: Send + 'static> ComponentHost<M> for ParallelSimulation<M> {
    fn add_in_partition(
        &mut self,
        partition: usize,
        component: Box<dyn Component<M>>,
    ) -> ComponentId {
        assert!(!self.started, "components must be added before the run starts");
        assert!(partition < self.nparts, "partition {partition} out of range");
        let id = ComponentId(u32::try_from(self.directory.len()).expect("too many components"));
        assert!(id != ComponentId::EXTERNAL, "component id space exhausted");
        let w = self.part_worker[partition] as usize;
        let ws = &mut self.workers[w];
        let flat = ws.comps.len() as u32;
        ws.ids.push(id);
        ws.comps.push(component);
        ws.seqs.push(0);
        ws.part_of.push(partition as u32);
        self.directory.push((partition as u32, flat));
        id
    }

    fn inject(&mut self, at: SimTime, target: ComponentId, kind: EventKind<M>) {
        assert!(at >= self.now, "external event scheduled in the past");
        assert!(target.index() < self.directory.len(), "unknown component {target}");
        let (p, _) = self.directory[target.index()];
        let key = EventKey {
            time: at,
            target,
            source: ComponentId::EXTERNAL,
            source_seq: self.external_seq,
        };
        self.external_seq += 1;
        let w = self.part_worker[p as usize] as usize;
        self.workers[w].queue.push(Event { key, kind });
    }

    fn partition_count(&self) -> usize {
        self.nparts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Sends `count` messages to a peer with `latency`, records receptions.
    struct Chatter {
        peer: Option<ComponentId>,
        latency: SimDuration,
        remaining: u64,
        received: Vec<(SimTime, u64)>,
    }

    impl Component<u64> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
            if let Some(peer) = self.peer {
                ctx.send_after(peer, PortNo(0), self.latency, self.remaining);
            }
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_nanos(100), 0);
            }
        }
        fn on_message(&mut self, _port: PortNo, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push((ctx.now(), msg));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn persist(&self) -> Option<&dyn crate::snap::Persist> {
            Some(self)
        }
        fn persist_mut(&mut self) -> Option<&mut dyn crate::snap::Persist> {
            Some(self)
        }
    }

    // `peer` and `latency` are configuration; `remaining`/`received` are
    // the checkpointable state.
    crate::impl_persist_fields!(Chatter { remaining, received });

    fn chatter(latency_ns: u64, count: u64) -> Chatter {
        Chatter {
            peer: None,
            latency: SimDuration::from_nanos(latency_ns),
            remaining: count,
            received: Vec::new(),
        }
    }

    #[test]
    fn two_partitions_exchange_messages() {
        let lookahead = SimDuration::from_micros(1);
        let mut sim = ParallelSimulation::<u64>::new(2, lookahead);
        let a = sim.add_in_partition(0, Box::new(chatter(2_000, 10)));
        let b = sim.add_in_partition(1, Box::new(chatter(2_000, 10)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.component_mut::<Chatter>(b).unwrap().peer = Some(a);
        let stats = sim.run().unwrap();
        assert!(!stats.stopped);
        let ca = sim.component::<Chatter>(a).unwrap();
        let cb = sim.component::<Chatter>(b).unwrap();
        assert_eq!(ca.received.len(), 10);
        assert_eq!(cb.received.len(), 10);
        assert!(ca.received.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn too_fast_cross_partition_link_is_an_error() {
        let lookahead = SimDuration::from_micros(1);
        // The violation must be detected no matter how partitions map to
        // worker threads on this host.
        for workers in [1usize, 2] {
            let mut sim = ParallelSimulation::<u64>::with_workers(2, workers, lookahead);
            // First send happens at t=1ns; 10 ns latency < 1 us lookahead:
            // illegal across partitions.
            let a = sim.add_in_partition(0, Box::new(chatter(10, 1)));
            let b = sim.add_in_partition(1, Box::new(chatter(10, 0)));
            sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
            let _ = b;
            let err = sim.run().unwrap_err();
            assert!(
                matches!(err, EngineError::CrossPartitionTooSoon { .. }),
                "workers={workers}: got {err:?}"
            );
        }
    }

    #[test]
    fn same_partition_fast_links_are_fine() {
        let lookahead = SimDuration::from_micros(1);
        let mut sim = ParallelSimulation::<u64>::new(2, lookahead);
        let a = sim.add_in_partition(0, Box::new(chatter(10, 5)));
        let b = sim.add_in_partition(0, Box::new(chatter(10, 0)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.run().unwrap();
        assert_eq!(sim.component::<Chatter>(b).unwrap().received.len(), 5);
    }

    #[test]
    fn matches_serial_execution_exactly() {
        // Build the same 8-component ring under both executors and compare
        // full reception logs, for several worker counts.
        fn build<H: ComponentHost<u64>>(host: &mut H, parts: usize) -> Vec<ComponentId> {
            (0..8).map(|i| host.add_in_partition(i % parts, Box::new(chatter(2_000, 20)))).collect()
        }
        let mut serial = Simulation::<u64>::new();
        let ids_s = build(&mut serial, 1);
        for (i, &id) in ids_s.iter().enumerate() {
            serial.component_mut::<Chatter>(id).unwrap().peer = Some(ids_s[(i + 1) % 8]);
        }
        let st_s = serial.run().unwrap();

        for workers in [1usize, 2, 4] {
            let mut par =
                ParallelSimulation::<u64>::with_workers(4, workers, SimDuration::from_micros(1));
            let ids_p = build(&mut par, 4);
            for (i, &id) in ids_p.iter().enumerate() {
                par.component_mut::<Chatter>(id).unwrap().peer = Some(ids_p[(i + 1) % 8]);
            }
            let st_p = par.run().unwrap();

            assert_eq!(st_s.events, st_p.events, "workers={workers}");
            for (&ids, &idp) in ids_s.iter().zip(&ids_p) {
                let cs = serial.component::<Chatter>(ids).unwrap();
                let cp = par.component::<Chatter>(idp).unwrap();
                assert_eq!(cs.received, cp.received, "workers={workers}: logs diverged for {ids}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_matches_uninterrupted_across_executors() {
        fn build(parts: usize, workers: usize) -> (ParallelSimulation<u64>, Vec<ComponentId>) {
            let mut sim = ParallelSimulation::<u64>::with_workers(
                parts,
                workers,
                SimDuration::from_micros(1),
            );
            let ids: Vec<ComponentId> = (0..4)
                .map(|i| sim.add_in_partition(i % parts, Box::new(chatter(2_000, 200))))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 1) % 4]);
            }
            (sim, ids)
        }
        // Uninterrupted reference run.
        let (mut reference, ref_ids) = build(2, 2);
        reference.run().unwrap();

        // Checkpoint a separate run part-way through.
        let (mut sim, _) = build(2, 2);
        sim.run_until(SimTime::from_micros(8)).unwrap();
        let mut w = SnapWriter::new();
        sim.save_state(&mut w);
        let bytes = w.into_bytes();

        // The snapshot restores under any worker layout.
        for workers in [1usize, 2] {
            let (mut restored, ids) = build(2, workers);
            restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
            restored.run().unwrap();
            assert_eq!(restored.events_processed(), reference.events_processed());
            for (&ir, &id) in ref_ids.iter().zip(&ids) {
                assert_eq!(
                    reference.component::<Chatter>(ir).unwrap().received,
                    restored.component::<Chatter>(id).unwrap().received,
                    "workers={workers}"
                );
            }
        }

        // ... and into the serial executor: the format is shared.
        let mut serial = Simulation::<u64>::new();
        let ids_s: Vec<ComponentId> =
            (0..4).map(|_| serial.add_component(Box::new(chatter(2_000, 200)))).collect();
        for (i, &id) in ids_s.iter().enumerate() {
            serial.component_mut::<Chatter>(id).unwrap().peer = Some(ids_s[(i + 1) % 4]);
        }
        serial.load_state(&mut SnapReader::new(&bytes)).unwrap();
        serial.run().unwrap();
        assert_eq!(serial.events_processed(), reference.events_processed());
        for (&ir, &id) in ref_ids.iter().zip(&ids_s) {
            assert_eq!(
                reference.component::<Chatter>(ir).unwrap().received,
                serial.component::<Chatter>(id).unwrap().received,
                "serial restore diverged"
            );
        }
    }

    #[test]
    fn run_until_caps_time() {
        let mut sim = ParallelSimulation::<u64>::new(2, SimDuration::from_micros(1));
        let a = sim.add_in_partition(0, Box::new(chatter(2_000, 1_000)));
        let b = sim.add_in_partition(1, Box::new(chatter(2_000, 0)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        let stats = sim.run_until(SimTime::from_micros(10)).unwrap();
        assert!(stats.final_time >= SimTime::from_micros(10));
        let got = sim.component::<Chatter>(b).unwrap().received.len();
        assert!(got < 1_000 && got > 0, "got {got}");
        // Resuming continues from the horizon.
        sim.run().unwrap();
        assert_eq!(sim.component::<Chatter>(b).unwrap().received.len(), 1_000);
    }

    #[test]
    fn external_injection_routes_to_owning_partition() {
        let mut sim = ParallelSimulation::<u64>::new(2, SimDuration::from_micros(1));
        let a = sim.add_in_partition(0, Box::new(chatter(0, 0)));
        let b = sim.add_in_partition(1, Box::new(chatter(0, 0)));
        sim.inject_message(SimTime::from_nanos(5), b, PortNo(0), 77);
        sim.inject_message(SimTime::from_nanos(5), a, PortNo(0), 88);
        sim.run().unwrap();
        assert_eq!(
            sim.component::<Chatter>(b).unwrap().received,
            vec![(SimTime::from_nanos(5), 77)]
        );
        assert_eq!(
            sim.component::<Chatter>(a).unwrap().received,
            vec![(SimTime::from_nanos(5), 88)]
        );
    }

    #[test]
    fn single_partition_equals_serial() {
        let mut sim = ParallelSimulation::<u64>::new(1, SimDuration::from_nanos(10));
        let a = sim.add_in_partition(0, Box::new(chatter(3, 50)));
        let b = sim.add_in_partition(0, Box::new(chatter(3, 50)));
        sim.component_mut::<Chatter>(a).unwrap().peer = Some(b);
        sim.component_mut::<Chatter>(b).unwrap().peer = Some(a);
        let stats = sim.run().unwrap();
        assert_eq!(stats.events, 100 + 100);
    }

    #[test]
    fn exec_report_accounts_for_all_events() {
        let mut sim = ParallelSimulation::<u64>::with_workers(4, 2, SimDuration::from_micros(1));
        let ids: Vec<ComponentId> =
            (0..4).map(|i| sim.add_in_partition(i, Box::new(chatter(2_000, 10)))).collect();
        for (i, &id) in ids.iter().enumerate() {
            sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 1) % 4]);
        }
        let stats = sim.run().unwrap();
        let report = sim.exec_report();
        assert_eq!(report.events(), stats.events);
        assert_eq!(report.partitions.len(), 4);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.lookahead_ps, SimDuration::from_micros(1).as_picos());
        // The ring crosses partitions everywhere, so every partition sent
        // cross-partition traffic; only the edges 1->2 and 3->0 cross
        // *workers*, so exactly partitions 2 and 0 took lane deliveries.
        for p in &report.partitions {
            assert!(p.sent_cross > 0, "partition {} sent nothing", p.partition);
            let expect_lane = p.partition == 0 || p.partition == 2;
            assert_eq!(p.recv_cross > 0, expect_lane, "partition {}", p.partition);
        }
        assert!(report.rounds() > 0);
        assert!(report.lane_events() > 0);
        assert_eq!(report.events(), 80);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut sim =
                ParallelSimulation::<u64>::with_workers(8, workers, SimDuration::from_micros(1));
            let ids: Vec<ComponentId> =
                (0..8).map(|i| sim.add_in_partition(i, Box::new(chatter(1_500, 15)))).collect();
            for (i, &id) in ids.iter().enumerate() {
                sim.component_mut::<Chatter>(id).unwrap().peer = Some(ids[(i + 3) % 8]);
            }
            let stats = sim.run().unwrap();
            let logs: Vec<Vec<(SimTime, u64)>> = ids
                .iter()
                .map(|&id| sim.component::<Chatter>(id).unwrap().received.clone())
                .collect();
            (stats.events, logs)
        };
        let reference = run(1);
        for workers in [2usize, 3, 8] {
            assert_eq!(run(workers), reference, "workers={workers} diverged");
        }
    }

    /// A component whose handler panics at a given event count, to exercise
    /// barrier poisoning.
    struct Bomb {
        fuse: u64,
    }

    impl Component<u64> for Bomb {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDuration::from_nanos(10), 0);
        }
        fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
            if self.fuse == 0 {
                panic!("bomb went off");
            }
            self.fuse -= 1;
            ctx.set_timer(SimDuration::from_nanos(10), 0);
        }
        fn on_message(&mut self, _p: PortNo, _m: u64, _c: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn component_panic_poisons_the_executor_instead_of_deadlocking() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Two workers so the surviving worker really waits on the barrier.
        // Partition 0 runs on the calling thread, partition 1 on a spawned
        // one; the bomb goes off on each in turn.
        let mut results = Vec::new();
        for bomb_part in [0usize, 1] {
            let mut sim =
                ParallelSimulation::<u64>::with_workers(2, 2, SimDuration::from_micros(1));
            for part in 0..2 {
                if part == bomb_part {
                    sim.add_in_partition(part, Box::new(Bomb { fuse: 3 }));
                } else {
                    sim.add_in_partition(part, Box::new(chatter(2_000, 100)));
                }
            }
            let err = sim.run().unwrap_err();
            // The executor stays poisoned: later runs fail fast, not hang.
            let err2 = sim.run_until(SimTime::from_millis(1)).unwrap_err();
            results.push((bomb_part, err, err2));
        }
        std::panic::set_hook(prev_hook);
        for (bomb_part, err, err2) in results {
            assert!(matches!(err, EngineError::WorkerPanicked), "bomb on {bomb_part}: got {err:?}");
            assert!(
                matches!(err2, EngineError::WorkerPanicked),
                "bomb on {bomb_part}: got {err2:?}"
            );
        }
    }

    #[test]
    fn too_fast_link_from_a_spawned_worker_is_an_error() {
        // The sender lives in partition 1, which runs on a spawned thread;
        // its error must still reach the caller.
        let mut sim = ParallelSimulation::<u64>::with_workers(2, 2, SimDuration::from_micros(1));
        let a = sim.add_in_partition(0, Box::new(chatter(10, 0)));
        let b = sim.add_in_partition(1, Box::new(chatter(10, 1)));
        sim.component_mut::<Chatter>(b).unwrap().peer = Some(a);
        let err = sim.run().unwrap_err();
        assert!(
            matches!(err, EngineError::CrossPartitionTooSoon { source, target, .. }
                if source == b && target == a),
            "got {err:?}"
        );
    }
}
