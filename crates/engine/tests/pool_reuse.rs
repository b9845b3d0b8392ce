//! Repeated `run_until` calls on the parallel executor start fresh worker
//! threads each time, and must produce exactly the state a single long run
//! — or the serial executor — would.

use diablo_engine::parallel::{ComponentHost, ParallelSimulation};
use diablo_engine::prelude::*;
use std::any::Any;

/// Deterministic gossip node: every 100 ns it messages both mesh neighbors
/// with a running checksum folded from everything it has heard so far.
struct Gossip {
    peers: Vec<ComponentId>,
    sent: u64,
    limit: u64,
    acc: u64,
    log: Vec<(SimTime, u64)>,
}

impl Gossip {
    fn new(limit: u64) -> Self {
        Gossip { peers: Vec::new(), sent: 0, limit, acc: 0x9E3779B9, log: Vec::new() }
    }
}

impl Instrumented for Gossip {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("sent", self.sent);
        v.counter("heard", self.log.len() as u64);
        v.counter("acc", self.acc);
    }
}

impl Component<u64> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_nanos(100), 0);
    }
    fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
        for &p in &self.peers {
            ctx.send_after(p, PortNo(0), SimDuration::from_micros(2), self.acc);
        }
        self.sent += 1;
        if self.sent < self.limit {
            ctx.set_timer(SimDuration::from_nanos(100), 0);
        }
    }
    fn on_message(&mut self, _port: PortNo, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.acc = self.acc.rotate_left(7) ^ msg;
        self.log.push((ctx.now(), self.acc));
    }
    fn instrumented(&self) -> Option<&dyn Instrumented> {
        Some(self)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn build<H: ComponentHost<u64>>(host: &mut H, parts: usize, n: usize) -> Vec<ComponentId> {
    let ids: Vec<ComponentId> =
        (0..n).map(|i| host.add_in_partition(i % parts, Box::new(Gossip::new(50)))).collect();
    ids
}

fn wire(set_peer: &mut dyn FnMut(usize, Vec<ComponentId>), ids: &[ComponentId]) {
    let n = ids.len();
    for i in 0..n {
        set_peer(i, vec![ids[(i + 1) % n], ids[(i + n - 1) % n]]);
    }
}

fn snapshot_parallel(
    sim: &ParallelSimulation<u64>,
    ids: &[ComponentId],
) -> Vec<(u64, Vec<(SimTime, u64)>)> {
    ids.iter()
        .map(|&id| {
            let g = sim.component::<Gossip>(id).unwrap();
            (g.acc, g.log.clone())
        })
        .collect()
}

#[test]
fn split_runs_match_one_long_run_and_serial() {
    let quantum = SimDuration::from_micros(1);
    let end = SimTime::from_micros(40);
    let mid = SimTime::from_micros(7);

    // (a) Parallel (4 partitions multiplexed onto 2 pinned workers), two
    // consecutive run_until calls on the same executor.
    let mut split = ParallelSimulation::<u64>::with_workers(4, 2, quantum);
    let ids = build(&mut split, 4, 8);
    wire(&mut |i, peers| split.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
    split.run_until(mid).unwrap();
    let stats_split = split.run_until(end).unwrap();

    // (b) Parallel, one long run, different worker count.
    let mut long = ParallelSimulation::<u64>::with_workers(4, 4, quantum);
    let ids_l = build(&mut long, 4, 8);
    wire(&mut |i, peers| long.component_mut::<Gossip>(ids_l[i]).unwrap().peers = peers, &ids_l);
    let stats_long = long.run_until(end).unwrap();

    // (c) Serial reference.
    let mut serial = Simulation::<u64>::new();
    let ids_s = build(&mut serial, 1, 8);
    wire(&mut |i, peers| serial.component_mut::<Gossip>(ids_s[i]).unwrap().peers = peers, &ids_s);
    let stats_serial = serial.run_until(end).unwrap();

    assert_eq!(stats_split.events, stats_long.events);
    assert_eq!(stats_split.events, stats_serial.events);
    assert_eq!(stats_split.final_time, stats_long.final_time);

    let snap_split = snapshot_parallel(&split, &ids);
    let snap_long = snapshot_parallel(&long, &ids_l);
    let snap_serial: Vec<(u64, Vec<(SimTime, u64)>)> = ids_s
        .iter()
        .map(|&id| {
            let g = serial.component::<Gossip>(id).unwrap();
            (g.acc, g.log.clone())
        })
        .collect();
    assert_eq!(snap_split, snap_long, "split runs diverged from one long run");
    assert_eq!(snap_split, snap_serial, "parallel diverged from serial");
}

/// Scrapes every instrumented component into a fresh registry and returns
/// the serialized bytes.
fn scrape(sim: &ParallelSimulation<u64>) -> String {
    let mut reg = MetricsRegistry::new();
    sim.visit_instrumented(|id, ins| reg.record(&format!("gossip{}", id.index()), ins));
    reg.to_json()
}

/// Re-running the same workload after a worker-count change must produce
/// byte-identical metrics scrapes at every observation point: worker count
/// is a scheduling knob, and the scrape order is component-id order on
/// every executor, so not a single byte of the artifact may move.
#[test]
fn worker_count_change_rescrapes_identically() {
    let quantum = SimDuration::from_micros(1);
    let mid = SimTime::from_micros(7);
    let end = SimTime::from_micros(40);
    let mut scrapes: Vec<(String, String)> = Vec::new();
    for workers in [1usize, 2, 3] {
        let mut sim = ParallelSimulation::<u64>::with_workers(4, workers, quantum);
        let ids = build(&mut sim, 4, 8);
        wire(&mut |i, peers| sim.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
        sim.run_until(mid).unwrap();
        let at_mid = scrape(&sim);
        sim.run_until(end).unwrap();
        scrapes.push((at_mid, scrape(&sim)));
    }
    assert!(scrapes[0].0.contains("gossip0"), "scrape must actually contain components");
    for w in 1..scrapes.len() {
        assert_eq!(scrapes[0].0, scrapes[w].0, "mid-run scrape diverged at worker set {w}");
        assert_eq!(scrapes[0].1, scrapes[w].1, "final scrape diverged at worker set {w}");
    }
}

/// Twenty short `run_until` steps at 3 workers, each starting its own
/// threads, must scrape the same bytes as one run to the same end.
#[test]
fn many_short_runs_match_one_long_run() {
    let quantum = SimDuration::from_micros(1);
    let end = SimTime::from_micros(40);
    let fresh = || {
        let mut sim = ParallelSimulation::<u64>::with_workers(3, 3, quantum);
        let ids = build(&mut sim, 3, 6);
        wire(&mut |i, peers| sim.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
        (sim, ids)
    };
    let (mut stepped, ids) = fresh();
    for step in 1..=20u64 {
        stepped.run_until(SimTime::from_micros(step * 2)).unwrap();
    }
    let (mut long, _) = fresh();
    long.run_until(end).unwrap();
    assert_eq!(stepped.events_processed(), long.events_processed());
    assert_eq!(scrape(&stepped), scrape(&long), "stepped runs diverged from one long run");
    // Finish and sanity-check the mesh actually communicated.
    stepped.run().unwrap();
    assert!(stepped.component::<Gossip>(ids[0]).unwrap().log.len() >= 50);
}
