//! Experiment definitions: assembled scenarios matching the paper's case
//! studies (§4), returning the measurements the figures plot.
//!
//! Every config here implements [`Experiment`] — the [`ExperimentBase`] it
//! describes plus the [`Workload`] that realises it — and runs through
//! the generic [`run`](crate::experiment::run) / [`try_run`] /
//! [`warm`](crate::experiment::warm) entry points. The drive loop,
//! sampling, settle, conservation audit and failure merge live exactly
//! once in [`crate::experiment`], and the optional control plane is laid
//! out and spawned once in `ControlLayout`; this module only describes
//! *what* runs (which guest processes, where) and *what to measure*.

use crate::cluster::{Cluster, FabricKind, RunMode, SimHost, SwitchTemplate};
use crate::experiment::{
    try_run, CheckpointPolicy, Experiment, ExperimentBase, ExperimentError, Run, Workload,
};
use crate::fault::FaultPlan;
use diablo_apps::arrival::{ArrivalSpec, SloStats};
use diablo_apps::control::{
    gate_futex_key, service_gate, ControlAgent, ControlConfig, ControlPlane, ControlReport,
    DiscoveryConfig, ServiceGate, ServiceSpec, AGENT_PORT, CONTROL_PORT, MAX_POOL,
};
use diablo_apps::failure::FailureStats;
use diablo_apps::incast::{
    shared, IncastEpollClient, IncastMaster, IncastServer, IncastWorker, INCAST_PORT,
};
use diablo_apps::memcached::{
    mc_shared, McClient, McClientConfig, McDispatcher, McOpenLoopClient, McServerConfig,
    McSharedHandle, McVersion, McWorker, MEMCACHED_PORT,
};
use diablo_apps::partition_aggregate::{
    PaFrontend, PaFrontendConfig, PaLeaf, PaLeafConfig, PA_PORT,
};
use diablo_engine::prelude::{DetRng, Frequency, Histogram, SimDuration, SimTime};
use diablo_net::switch::BufferConfig;
use diablo_net::topology::{FatTreeConfig, HopClass, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_stack::process::{Proto, Tid};
use diablo_stack::profile::{CongestionControl, KernelProfile};
use std::collections::BTreeMap;
use std::sync::Arc;

// ====================================================================
// Shared control-plane setup
// ====================================================================

/// Where a workload's control plane goes, fixed from the config before
/// anything is built: the scheduler's node and the one service pool it
/// manages. Every workload checks and spawns its control plane here.
struct ControlLayout {
    ctl: ControlConfig,
    scheduler: NodeAddr,
    /// Service endpoints, each flagged with whether it serves from the
    /// start (the rest are parked spares).
    pool: Vec<(SockAddr, bool)>,
}

impl ControlLayout {
    /// Lays out `ctl`, when set, with the scheduler node and service pool
    /// `place` picks, checking the config and the pool size.
    fn new(
        ctl: Option<&ControlConfig>,
        place: impl FnOnce() -> (NodeAddr, Vec<(SockAddr, bool)>),
    ) -> Result<Option<Self>, ExperimentError> {
        let Some(ctl) = ctl else { return Ok(None) };
        ctl.validate().map_err(ExperimentError::Config)?;
        let (scheduler, pool) = place();
        if pool.len() > MAX_POOL {
            return Err(ExperimentError::ServicePoolTooLarge {
                replicas: pool.len(),
                limit: MAX_POOL,
            });
        }
        Ok(Some(ControlLayout { ctl: ctl.clone(), scheduler, pool }))
    }

    /// The pool's endpoints, one list shared by every client.
    fn endpoints(&self) -> Arc<[SockAddr]> {
        self.pool.iter().map(|&(s, _)| s).collect()
    }

    /// How a client finds live endpoints: registry lookups, starting
    /// from the initial placement.
    fn discovery(&self) -> DiscoveryConfig {
        let initial_mask = (self.pool.iter().enumerate())
            .filter(|(_, &(_, active))| active)
            .fold(0u128, |m, (i, _)| m | (1u128 << i));
        DiscoveryConfig {
            control: SockAddr::new(self.scheduler, CONTROL_PORT),
            service: 0,
            refresh_every: self.ctl.refresh_every,
            initial_mask,
        }
    }

    /// For each pool member in order: whatever `member` spawns on its
    /// node, then its health agent holding the gates `member` returns.
    /// Then the scheduler. Heartbeats are staggered evenly across one
    /// period so the scheduler never sees a synchronized burst.
    fn spawn(
        &self,
        host: &mut SimHost,
        cluster: &Cluster,
        mut member: impl FnMut(&mut SimHost, NodeAddr, bool) -> BTreeMap<u32, ServiceGate>,
    ) {
        let control = SockAddr::new(self.scheduler, CONTROL_PORT);
        let every = self.ctl.heartbeat_every;
        let (mut agents, mut racks, mut initial) = (Vec::new(), Vec::new(), Vec::new());
        for (idx, &(s, active)) in self.pool.iter().enumerate() {
            let gates = member(host, s.node, active);
            let stagger =
                SimDuration::from_picos(every.as_picos() * idx as u64 / self.pool.len() as u64);
            cluster.spawn(
                host,
                s.node,
                Box::new(ControlAgent::new(control, every, stagger, gates)),
            );
            agents.push(SockAddr::new(s.node, AGENT_PORT));
            racks.push(cluster.topo.rack_of(s.node) as u32);
            if active {
                initial.push(idx);
            }
        }
        let spec = ServiceSpec { id: 0, pool: self.endpoints().to_vec(), agents, racks, initial };
        cluster.spawn(
            host,
            self.scheduler,
            Box::new(ControlPlane::new(self.ctl.clone(), vec![spec], CONTROL_PORT)),
        );
    }

    /// The scheduler's counters.
    fn report(&self, host: &SimHost, cluster: &Cluster) -> ControlReport {
        cluster
            .process::<ControlPlane>(host, self.scheduler, Tid(0))
            .expect("control plane missing")
            .report()
    }
}

// ====================================================================
// Incast (§4.1, Figure 6)
// ====================================================================

/// Which client implementation drives the incast benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastClientKind {
    /// One blocking-socket thread per server plus a coordinator.
    Pthread,
    /// Single-threaded nonblocking epoll loop.
    Epoll,
}

/// One incast experiment configuration.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Fan-in: number of storage servers.
    pub servers: usize,
    /// Synchronized-read iterations (40 in the paper).
    pub iterations: u64,
    /// Total block bytes striped per iteration (256 KB in the paper).
    pub block_bytes: u32,
    /// Client structure.
    pub client: IncastClientKind,
    /// Server CPU clock (2 or 4 GHz in Figure 6(b)).
    pub cpu: Frequency,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// Use the 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Override the ToR buffer (defaults to the paper's 4 KB/port).
    pub switch: Option<SwitchTemplate>,
    /// Racks to spread the servers over (1 in the paper's figures; >1
    /// exercises the partitioned executor on a multi-rack cut). Ignored
    /// on a fat-tree fabric, whose shape comes from its own config.
    pub racks: usize,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`IncastConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Per-request deadline for the epoll client (reconnect + retry on
    /// expiry). Ignored by the pthread client, which relies on the TCP
    /// retransmission timeout surfacing `ETIMEDOUT`.
    pub request_deadline: Option<SimDuration>,
    /// Open-loop arrival schedule: iterations start at the profile's
    /// instants instead of back to back, and `iterations` is ignored.
    /// Requires the epoll client.
    pub arrival: Option<ArrivalSpec>,
    /// Per-iteration SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// When set, a monitoring-only [`ControlPlane`] joins the topology
    /// on one extra node: every storage server runs a health-beacon
    /// [`ControlAgent`] and the scheduler tracks their liveness, without
    /// steering the incast client. Exercises the control protocol under
    /// the congestion the incast burst creates.
    pub control: Option<ControlConfig>,
}

impl IncastConfig {
    /// The paper's Figure 6(a) point: 1 Gbps shallow-buffer switch,
    /// 4 GHz CPU, pthread client.
    pub fn fig6a(servers: usize) -> Self {
        IncastConfig {
            servers,
            iterations: 10,
            block_bytes: 256 * 1024,
            client: IncastClientKind::Pthread,
            cpu: Frequency::ghz(4),
            kernel: KernelProfile::linux_2_6_39(),
            ten_gig: false,
            switch: None,
            racks: 1,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            ecn_threshold: None,
            mode: RunMode::Serial,
            seed: 0x0001_ca57,
            sample_every: None,
            faults: None,
            request_deadline: None,
            arrival: None,
            slo: None,
            control: None,
        }
    }

    /// A Figure 6(b) point: 10 Gbps fabric with the given CPU and client.
    pub fn fig6b(servers: usize, ghz: u64, client: IncastClientKind) -> Self {
        IncastConfig { cpu: Frequency::ghz(ghz), ten_gig: true, client, ..Self::fig6a(servers) }
    }

    /// Re-targets the scenario onto a 3-tier fat-tree fabric: the client
    /// stays on node 0, the servers spread across the tree's hosts, and
    /// every switch routes with flow-consistent ECMP.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        self.fabric = FabricKind::FatTree(ft);
        self
    }
}

/// Incast measurements.
#[derive(Debug, Clone)]
pub struct IncastSummary {
    /// Application goodput in Mbps.
    pub goodput_mbps: f64,
    /// Per-iteration completion times.
    pub iteration_times: Vec<SimDuration>,
    /// Switch tail drops across the run.
    pub switch_drops: u64,
    /// Arrivals the open-loop schedule offered (0 in closed-loop runs).
    pub offered: u64,
    /// Monitoring control-plane counters (`None` unless
    /// [`IncastConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// The incast scenario behind the [`Workload`] trait: storage servers on
/// nodes 1..=n, the client (pthread master+workers, or one epoll loop) on
/// node 0, and a monitoring scheduler one past the last server.
struct IncastWorkload<'a> {
    cfg: &'a IncastConfig,
    control: Option<ControlLayout>,
}

const INCAST_CLIENT: NodeAddr = NodeAddr(0);

impl Experiment for IncastConfig {
    type Summary = IncastSummary;

    fn base(&self) -> ExperimentBase {
        // A monitoring control plane adds one node for the scheduler.
        let extra = usize::from(self.control.is_some());
        let topology = match self.fabric {
            FabricKind::FatTree(ft) => {
                let view = ft.view();
                assert!(
                    view.racks * view.servers_per_rack > self.servers + extra,
                    "fat-tree k={} with {} hosts/edge has no room for {} servers + 1 client",
                    ft.k,
                    ft.hosts_per_edge,
                    self.servers
                );
                view
            }
            FabricKind::Tree => {
                let racks = self.racks.max(1);
                TopologyConfig {
                    racks,
                    servers_per_rack: (self.servers + 1 + extra).div_ceil(racks),
                    racks_per_array: racks,
                }
            }
        };
        // A fat-tree is one commodity switch model replicated across
        // tiers, so the override applies to every level; the classic
        // tree keeps it as a ToR-only override.
        let (tor, switch_all) = match self.fabric {
            FabricKind::FatTree(_) => (None, self.switch),
            FabricKind::Tree => (self.switch, None),
        };
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: Some(self.cpu),
            ten_gig: self.ten_gig,
            tor,
            switch_all,
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn workload(&self) -> Result<impl Workload<Summary = IncastSummary> + '_, ExperimentError> {
        if self.arrival.is_some() && self.client != IncastClientKind::Epoll {
            return Err(ExperimentError::Config(
                "incast open-loop mode requires the epoll client".into(),
            ));
        }
        // The scheduler sits one past the last server.
        let n = self.servers as u32;
        let control = ControlLayout::new(self.control.as_ref(), || {
            let pool = (1..=n).map(|i| (SockAddr::new(NodeAddr(i), INCAST_PORT), true));
            (NodeAddr(n + 1), pool.collect())
        })?;
        Ok(IncastWorkload { cfg: self, control })
    }
}

impl Workload for IncastWorkload<'_> {
    type Summary = IncastSummary;

    fn name(&self) -> &str {
        "incast"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing iteration's RTO backoffs.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(10);
        }
        // Worst case: every iteration eats several RTO backoffs.
        SimTime::from_secs(10 + 3 * self.cfg.iterations)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let n = self.cfg.servers;
        let servers: Vec<SockAddr> =
            (1..=n).map(|i| SockAddr::new(NodeAddr(i as u32), INCAST_PORT)).collect();
        for s in &servers {
            cluster.spawn(host, s.node, Box::new(IncastServer::new()));
        }
        let fragment = self.cfg.block_bytes / n as u32;
        // Monitoring only: the servers already run, so their agents are
        // pure health beacons, and the client keeps its static list.
        if let Some(layout) = &self.control {
            layout.spawn(host, cluster, |_, _, _| BTreeMap::new());
        }
        match self.cfg.client {
            IncastClientKind::Pthread => {
                let sh = shared(n);
                cluster.spawn(
                    host,
                    INCAST_CLIENT,
                    Box::new(IncastMaster::new(n, self.cfg.iterations, sh.clone())),
                );
                for s in &servers {
                    cluster.spawn(
                        host,
                        INCAST_CLIENT,
                        Box::new(IncastWorker::new(*s, fragment, sh.clone())),
                    );
                }
            }
            IncastClientKind::Epoll => {
                let mut client = IncastEpollClient::new(servers, fragment, self.cfg.iterations);
                if let Some(d) = self.cfg.request_deadline {
                    client = client.with_deadline(d);
                }
                if let Some(spec) = &self.cfg.arrival {
                    client = client.with_arrival(spec.clone(), DetRng::new(self.cfg.seed ^ 0xa11));
                }
                if let Some(target) = self.cfg.slo {
                    client = client.with_slo(target);
                }
                cluster.spawn(host, INCAST_CLIENT, Box::new(client));
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        // Done-flag poll only: results are extracted once, in summarize.
        match self.cfg.client {
            IncastClientKind::Pthread => {
                let m: &IncastMaster =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("master missing");
                m.done
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                c.done
            }
        }
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> IncastSummary {
        let (goodput_bps, iteration_times, offered) = match self.cfg.client {
            IncastClientKind::Pthread => {
                let m: &IncastMaster =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("master missing");
                (m.goodput_bps(self.cfg.block_bytes as u64), m.iteration_times.clone(), 0)
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                (c.goodput_bps(), c.iteration_times.clone(), c.offered)
            }
        };
        IncastSummary {
            goodput_mbps: goodput_bps / 1e6,
            iteration_times,
            switch_drops: cluster.total_switch_drops(host),
            offered,
            control: self.control.as_ref().map(|l| l.report(host, cluster)),
        }
    }

    fn failure_stats(&self, host: &SimHost, cluster: &Cluster) -> FailureStats {
        let mut failure = FailureStats::default();
        match self.cfg.client {
            IncastClientKind::Pthread => {
                for tid in 1..=self.cfg.servers {
                    let w: &IncastWorker = cluster
                        .process(host, INCAST_CLIENT, Tid(tid as u32))
                        .expect("worker missing");
                    failure.merge(&w.failure);
                }
            }
            IncastClientKind::Epoll => {
                let c: &IncastEpollClient =
                    cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            }
        }
        failure
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        if self.cfg.client == IncastClientKind::Epoll {
            let c: &IncastEpollClient =
                cluster.process(host, INCAST_CLIENT, Tid(0)).expect("client missing");
            slo.merge(&c.slo);
        }
        slo
    }
}

/// Runs one incast configuration to completion with the default
/// checkpoint policy.
///
/// # Errors
///
/// See [`try_run`].
pub fn try_run_incast(cfg: &IncastConfig) -> Result<Run<IncastSummary>, ExperimentError> {
    try_run(cfg, &CheckpointPolicy::default())
}

// ====================================================================
// memcached (§4.2, Figures 8-15)
// ====================================================================

/// One memcached-at-scale experiment configuration.
#[derive(Debug, Clone)]
pub struct McExperimentConfig {
    /// Racks (16 ≈ "500-node", 32 ≈ "1000-node", 64 ≈ "2000-node").
    pub racks: usize,
    /// Servers per rack (31 in the paper).
    pub servers_per_rack: usize,
    /// memcached server nodes per rack (2 in the paper: 128 servers over
    /// 64 racks).
    pub mc_per_rack: usize,
    /// Requests per client (30,000 in the paper; default far smaller).
    pub requests_per_client: u64,
    /// Transport.
    pub proto: Proto,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// memcached release.
    pub version: McVersion,
    /// Worker threads per server.
    pub workers: usize,
    /// 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`McExperimentConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
    /// Extra switch latency at every level (Figure 12).
    pub extra_switch_latency: SimDuration,
    /// Instructions of server-side application logic per request.
    pub request_work: u64,
    /// TCP clients re-open a server connection after this many uses.
    pub reconnect_every: Option<u64>,
    /// TCP clients treat a reply slower than this as a broken connection
    /// (reconnect + retry).
    pub request_deadline: Option<SimDuration>,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Open-loop arrival schedule per client: requests admitted at the
    /// profile's instants, independent of completion, and
    /// `requests_per_client` is ignored. Requires UDP.
    pub arrival: Option<ArrivalSpec>,
    /// Per-request SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// Open-loop in-flight window per client: admissions past this bound
    /// are shed, not queued.
    pub window: usize,
    /// When set, a [`ControlPlane`] scheduler runs inside the simulation:
    /// every rack hosts `mc_per_rack + spares_per_rack` pool nodes (the
    /// spares parked on a service gate), each pool node runs a
    /// [`ControlAgent`] heartbeating to the scheduler, and clients
    /// discover live endpoints through registry lookups instead of the
    /// static server list. Requires an open-loop [`Self::arrival`]
    /// schedule (UDP).
    pub control: Option<ControlConfig>,
}

impl McExperimentConfig {
    /// The paper's §4.2 setup at the given rack count, scaled down to
    /// `requests_per_client` requests.
    pub fn paper(racks: usize, requests_per_client: u64) -> Self {
        McExperimentConfig {
            racks,
            servers_per_rack: 31,
            mc_per_rack: 2,
            requests_per_client,
            proto: Proto::Udp,
            kernel: KernelProfile::linux_2_6_39(),
            version: McVersion::V1_4_17,
            workers: 4,
            ten_gig: false,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            ecn_threshold: None,
            extra_switch_latency: SimDuration::ZERO,
            request_work: 2_500,
            reconnect_every: None,
            request_deadline: None,
            mode: RunMode::Serial,
            seed: 0x9eca_c4ed,
            sample_every: None,
            faults: None,
            arrival: None,
            slo: None,
            window: 64,
            control: None,
        }
    }

    /// A laptop-friendly miniature of the same shape (fewer, smaller
    /// racks) for tests and examples.
    pub fn mini(racks: usize, requests_per_client: u64) -> Self {
        McExperimentConfig {
            servers_per_rack: 6,
            mc_per_rack: 1,
            ..Self::paper(racks, requests_per_client)
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// Re-targets the experiment onto a 3-tier fat-tree fabric,
    /// deriving `racks` / `servers_per_rack` from the fabric's
    /// hierarchical view (edges as racks) so the node layout — servers
    /// on the first slots of each rack, clients on the rest — carries
    /// over unchanged.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        let view = ft.view();
        self.racks = view.racks;
        self.servers_per_rack = view.servers_per_rack;
        self.fabric = FabricKind::FatTree(ft);
        self
    }

    fn node(&self, rack: usize, slot: usize) -> NodeAddr {
        NodeAddr((rack * self.servers_per_rack + slot) as u32)
    }
}

/// Aggregated memcached measurements.
#[derive(Debug, Clone)]
pub struct McSummary {
    /// All client request latencies (nanoseconds).
    pub latency: Histogram,
    /// Latencies split by hop class (local / one-hop / two-hop).
    pub by_class: [Histogram; 3],
    /// Requests served by all memcached servers.
    pub served: u64,
    /// Client-side failures (UDP retry exhaustion).
    pub failures: u64,
    /// UDP retransmissions.
    pub udp_retries: u64,
    /// When the last client finished its final request.
    pub completed_at: SimTime,
    /// Arrivals the open-loop schedules offered across all clients (0 in
    /// closed-loop runs).
    pub offered: u64,
    /// Requests that expired unanswered in open-loop runs (0 in
    /// closed-loop runs, which retry instead).
    pub timed_out: u64,
    /// Control-plane counters (`None` unless
    /// [`McExperimentConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// The memcached-at-scale scenario: the first `mc_per_rack` nodes of each
/// rack serve, every remaining node runs a client. Under a control plane
/// the next `spares_per_rack` nodes of each rack are parked spares, the
/// cluster's last node hosts the scheduler, and clients discover live
/// servers through registry lookups.
struct McWorkload<'a> {
    cfg: &'a McExperimentConfig,
    control: Option<ControlLayout>,
    shareds: Vec<McSharedHandle>,
    client_addrs: Vec<NodeAddr>,
}

impl Experiment for McExperimentConfig {
    type Summary = McSummary;

    fn base(&self) -> ExperimentBase {
        let topology = TopologyConfig {
            racks: self.racks,
            servers_per_rack: self.servers_per_rack,
            racks_per_array: 16.min(self.racks),
        };
        if let FabricKind::FatTree(ft) = self.fabric {
            assert_eq!(
                (topology.racks, topology.servers_per_rack),
                (ft.view().racks, ft.view().servers_per_rack),
                "racks/servers_per_rack must match the fat-tree view: \
                 use McExperimentConfig::on_fat_tree"
            );
        }
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            tor: None,
            switch_all: None,
            extra_switch_latency: self.extra_switch_latency,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn workload(&self) -> Result<impl Workload<Summary = McSummary> + '_, ExperimentError> {
        let config = |msg: &str| Err(ExperimentError::Config(msg.into()));
        if self.arrival.is_some() && self.proto != Proto::Udp {
            return config("open-loop memcached requires UDP");
        }
        let spares = self.control.as_ref().map_or(0, |ctl| ctl.spares_per_rack);
        let pool_slots = self.mc_per_rack + spares;
        if self.control.is_some() {
            if self.arrival.is_none() {
                return config("the control plane requires the open-loop UDP memcached workload");
            }
            if pool_slots >= self.servers_per_rack {
                return config("mc_per_rack + spares_per_rack must leave room for clients");
            }
        }
        let control = ControlLayout::new(self.control.as_ref(), || {
            let pool = (0..self.racks)
                .flat_map(|rack| (0..pool_slots).map(move |slot| (rack, slot)))
                .map(|(rack, slot)| {
                    (SockAddr::new(self.node(rack, slot), MEMCACHED_PORT), slot < self.mc_per_rack)
                });
            // The scheduler claims the cluster's last node (a client slot).
            (NodeAddr((self.nodes() - 1) as u32), pool.collect())
        })?;
        Ok(McWorkload { cfg: self, control, shareds: Vec::new(), client_addrs: Vec::new() })
    }
}

impl Workload for McWorkload<'_> {
    type Summary = McSummary;

    fn name(&self) -> &str {
        "memcached"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing window's expiries and retransmissions.
            return SimTime::ZERO + spec.horizon() + SimDuration::from_secs(3);
        }
        SimTime::from_secs(5 + self.cfg.requests_per_client / 2)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(200)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = self.cfg;
        let scfg = McServerConfig {
            port: MEMCACHED_PORT,
            workers: cfg.workers,
            version: cfg.version,
            udp: cfg.proto == Proto::Udp,
            request_work: cfg.request_work,
        };
        // One memcached server: dispatcher plus workers, the dispatcher
        // parked on `gate` while the control plane holds it as a spare.
        let shareds = &mut self.shareds;
        let mut spawn_server = |host: &mut SimHost, addr: NodeAddr, gate: Option<ServiceGate>| {
            let sh = mc_shared(scfg.workers);
            let mut dispatcher = McDispatcher::new(scfg.clone(), sh.clone());
            if let Some(gate) = gate {
                dispatcher = dispatcher.with_gate(gate, gate_futex_key(0));
            }
            cluster.spawn(host, addr, Box::new(dispatcher));
            for w in 0..scfg.workers {
                cluster.spawn(host, addr, Box::new(McWorker::new(w, scfg.clone(), sh.clone())));
            }
            shareds.push(sh);
        };

        // Servers: the first `mc_per_rack` nodes of each rack, plus the
        // spares and their agents under a control plane.
        let (servers, first_client_slot): (Arc<[SockAddr]>, usize) = match &self.control {
            Some(layout) => {
                layout.spawn(host, cluster, |host, addr, active| {
                    let gate = service_gate(active);
                    spawn_server(host, addr, Some(gate.clone()));
                    BTreeMap::from([(0u32, gate)])
                });
                (layout.endpoints(), layout.pool.len() / cfg.racks)
            }
            None => {
                let mut servers = Vec::new();
                for rack in 0..cfg.racks {
                    for slot in 0..cfg.mc_per_rack {
                        let addr = cfg.node(rack, slot);
                        spawn_server(host, addr, None);
                        servers.push(SockAddr::new(addr, MEMCACHED_PORT));
                    }
                }
                (servers.into(), cfg.mc_per_rack)
            }
        };

        // Clients: every remaining node except the scheduler's.
        let root_rng = DetRng::new(cfg.seed);
        let topo = cluster.topo.clone();
        let scheduler = self.control.as_ref().map(|l| l.scheduler);
        for rack in 0..cfg.racks {
            for slot in first_client_slot..cfg.servers_per_rack {
                let addr = cfg.node(rack, slot);
                if Some(addr) == scheduler {
                    continue;
                }
                let mut ccfg = match cfg.proto {
                    Proto::Tcp => McClientConfig::tcp(servers.clone(), cfg.requests_per_client),
                    Proto::Udp => McClientConfig::udp(servers.clone(), cfg.requests_per_client),
                };
                ccfg.reconnect_every = cfg.reconnect_every;
                ccfg.request_deadline = cfg.request_deadline;
                let rng = root_rng.derive(addr.0 as u64);
                if let Some(spec) = &cfg.arrival {
                    // Open loop: admissions come from the schedule (each
                    // client draws its own Poisson stream), so no start
                    // stagger and no per-hop-class split. Under a control
                    // plane each request draws from the registry's live
                    // endpoints only.
                    ccfg.arrival = Some(spec.clone());
                    ccfg.window = cfg.window;
                    ccfg.slo = cfg.slo;
                    ccfg.discovery = self.control.as_ref().map(ControlLayout::discovery);
                    cluster.spawn(host, addr, Box::new(McOpenLoopClient::new(ccfg, rng)));
                } else {
                    // Stagger client start over ~2 ms to avoid a
                    // synchronized thundering herd at t=0.
                    ccfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                    let topo2 = topo.clone();
                    ccfg.classify = Some(Arc::new(move |server: NodeAddr| {
                        match topo2.hop_class(addr, server) {
                            HopClass::Local => 0,
                            HopClass::OneHop => 1,
                            HopClass::TwoHop => 2,
                        }
                    }));
                    cluster.spawn(host, addr, Box::new(McClient::new(ccfg, rng)));
                }
                self.client_addrs.push(addr);
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        if self.cfg.arrival.is_some() {
            self.client_addrs.iter().all(|&a| {
                cluster
                    .process::<McOpenLoopClient>(host, a, Tid(0))
                    .map(|c| c.done)
                    .unwrap_or(false)
            })
        } else {
            self.client_addrs.iter().all(|&a| {
                cluster.process::<McClient>(host, a, Tid(0)).map(|c| c.done).unwrap_or(false)
            })
        }
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> McSummary {
        let mut latency = Histogram::new();
        let mut by_class = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut failures = 0;
        let mut udp_retries = 0;
        let mut completed_at = SimTime::ZERO;
        let mut offered = 0;
        let mut timed_out = 0;
        for &a in &self.client_addrs {
            if self.cfg.arrival.is_some() {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                latency.merge(&c.latency);
                offered += c.offered;
                timed_out += c.timed_out;
                completed_at = completed_at.max(c.finished_at);
            } else {
                let c: &McClient = cluster.process(host, a, Tid(0)).expect("client missing");
                latency.merge(&c.latency);
                for (dst, src) in by_class.iter_mut().zip(&c.latency_by_class) {
                    dst.merge(src);
                }
                failures += c.failures;
                udp_retries += c.udp_retries;
                completed_at = completed_at.max(c.finished_at);
            }
        }
        let served = self.shareds.iter().map(|s| s.lock().expect("poisoned").served).sum();
        McSummary {
            latency,
            by_class,
            served,
            failures,
            udp_retries,
            completed_at,
            offered,
            timed_out,
            control: self.control.as_ref().map(|l| l.report(host, cluster)),
        }
    }

    fn failure_stats(&self, host: &SimHost, cluster: &Cluster) -> FailureStats {
        let mut failure = FailureStats::default();
        for &a in &self.client_addrs {
            if self.cfg.arrival.is_some() {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            } else {
                let c: &McClient = cluster.process(host, a, Tid(0)).expect("client missing");
                failure.merge(&c.failure);
            }
        }
        failure
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        if self.cfg.arrival.is_some() {
            for &a in &self.client_addrs {
                let c: &McOpenLoopClient =
                    cluster.process(host, a, Tid(0)).expect("client missing");
                slo.merge(&c.slo);
            }
        }
        slo
    }
}

/// Runs one memcached experiment to completion with the default
/// checkpoint policy.
///
/// # Errors
///
/// See [`try_run`].
pub fn try_run_memcached(cfg: &McExperimentConfig) -> Result<Run<McSummary>, ExperimentError> {
    try_run(cfg, &CheckpointPolicy::default())
}

// ====================================================================
// Partition-aggregate search tier
// ====================================================================

/// One partition-aggregate experiment configuration.
#[derive(Debug, Clone)]
pub struct PaExperimentConfig {
    /// Racks; each rack hosts one front-end (slot 0) and
    /// `servers_per_rack - 1` leaves.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Queries per front-end.
    pub queries: u64,
    /// Per-query aggregation deadline.
    pub deadline: SimDuration,
    /// Fan each query over every leaf in the cluster instead of only the
    /// front-end's own rack (forces cross-partition traffic).
    pub cross_rack: bool,
    /// Query payload bytes.
    pub query_bytes: u32,
    /// Answer payload bytes.
    pub answer_bytes: u32,
    /// Instructions of leaf service work per query.
    pub service_work: u64,
    /// Uniform extra instructions per query (the service-time spread).
    pub service_jitter: u64,
    /// Instructions of front-end think time between queries.
    pub think: u64,
    /// Guest kernel.
    pub kernel: KernelProfile,
    /// 10 Gbps fabric instead of 1 Gbps.
    pub ten_gig: bool,
    /// Physical fabric (baseline tree, or a 3-tier fat-tree with ECMP;
    /// see [`PaExperimentConfig::on_fat_tree`]).
    pub fabric: FabricKind,
    /// Congestion control the guest kernels run; DCTCP also enables
    /// switch ECN marking.
    pub cc: CongestionControl,
    /// ECN marking threshold override in queued bytes per egress port
    /// (`None` keeps the DCTCP default, no marking under Reno).
    pub ecn_threshold: Option<u32>,
    /// Execution mode.
    pub mode: RunMode,
    /// Seed.
    pub seed: u64,
    /// When set, scrape the whole cluster at this simulated-time cadence
    /// into the result's time series.
    pub sample_every: Option<SimDuration>,
    /// Scripted fault schedule injected before the run starts.
    pub faults: Option<FaultPlan>,
    /// Open-loop arrival schedule per front-end: queries admitted at the
    /// profile's instants (window of one — a query arriving while the
    /// previous one aggregates is shed), and `queries` is ignored.
    pub arrival: Option<ArrivalSpec>,
    /// Per-query SLO target (open-loop accounting).
    pub slo: Option<SimDuration>,
    /// When set, a [`ControlPlane`] scheduler claims the last leaf slot,
    /// every remaining leaf runs a health-beacon [`ControlAgent`], and
    /// front-ends fan out only to leaves the registry reports live.
    /// Requires [`Self::cross_rack`] so every front-end shares the one
    /// cluster-wide leaf pool the registry indexes.
    pub control: Option<ControlConfig>,
}

impl PaExperimentConfig {
    /// A rack-local search tier at the given rack count, `queries`
    /// queries per front-end.
    pub fn new(racks: usize, queries: u64) -> Self {
        PaExperimentConfig {
            racks,
            servers_per_rack: 6,
            queries,
            deadline: SimDuration::from_millis(1),
            cross_rack: false,
            query_bytes: 64,
            answer_bytes: 2_048,
            service_work: 20_000,
            service_jitter: 8_000,
            think: 8_000,
            kernel: KernelProfile::linux_2_6_39(),
            ten_gig: false,
            fabric: FabricKind::Tree,
            cc: CongestionControl::Reno,
            ecn_threshold: None,
            mode: RunMode::Serial,
            seed: 0xa99_2e6a7e,
            sample_every: None,
            faults: None,
            arrival: None,
            slo: None,
            control: None,
        }
    }

    /// Leaves per front-end fan-out.
    pub fn fanout(&self) -> usize {
        let per_rack = self.servers_per_rack - 1;
        if self.cross_rack {
            per_rack * self.racks
        } else {
            per_rack
        }
    }

    /// ToR template for the search tier: the fabric's stock timing with
    /// a deeper per-port buffer. Every query lands `fanout()` answers on
    /// the front-end's downlink port inside one wire-time window; the
    /// paper's shallow 4 KB commodity buffer would drop most of that
    /// burst before the deadline mechanism ever mattered, so the
    /// aggregation tier models the deeper-buffered racks such tiers are
    /// deployed on.
    fn tor_template(&self) -> SwitchTemplate {
        let mut tor = if self.ten_gig {
            SwitchTemplate::ten_gbe_fast()
        } else {
            SwitchTemplate::gbe_shallow()
        };
        tor.buffer = BufferConfig::PerPort { bytes_per_port: 64 * 1024 };
        tor
    }

    /// Re-targets the search tier onto a 3-tier fat-tree fabric,
    /// deriving `racks` / `servers_per_rack` from the fabric's
    /// hierarchical view (edges as racks) so front-end/leaf placement
    /// carries over unchanged.
    #[must_use]
    pub fn on_fat_tree(mut self, ft: FatTreeConfig) -> Self {
        let view = ft.view();
        self.racks = view.racks;
        self.servers_per_rack = view.servers_per_rack;
        self.fabric = FabricKind::FatTree(ft);
        self
    }

    /// The leaves `rack`'s front-end fans out to: its own rack's, or
    /// every rack's with [`Self::cross_rack`].
    fn leaf_addrs(&self, rack: usize) -> Vec<SockAddr> {
        let leaves_of_rack = |r: usize| {
            (1..self.servers_per_rack).map(move |slot| {
                SockAddr::new(NodeAddr((r * self.servers_per_rack + slot) as u32), PA_PORT)
            })
        };
        if self.cross_rack {
            (0..self.racks).flat_map(leaves_of_rack).collect()
        } else {
            leaves_of_rack(rack).collect()
        }
    }
}

/// Aggregated partition-aggregate measurements.
#[derive(Debug, Clone)]
pub struct PaSummary {
    /// Full-aggregate latencies over all front-ends (nanoseconds).
    pub latency: Histogram,
    /// Queries completed (full or partial) across all front-ends.
    pub queries: u64,
    /// Queries where every leaf answered within the deadline.
    pub full_aggregates: u64,
    /// Queries that hit the deadline with answers outstanding.
    pub deadline_misses: u64,
    /// Leaf answers dropped from aggregates across the run.
    pub missing_answers: u64,
    /// Queries answered by all leaves.
    pub served: u64,
    /// When the last front-end finished.
    pub completed_at: SimTime,
    /// Queries the open-loop schedules offered across all front-ends (0
    /// in closed-loop runs).
    pub offered: u64,
    /// Control-plane counters (`None` unless
    /// [`PaExperimentConfig::control`] was set).
    pub control: Option<ControlReport>,
}

/// The search-tier scenario: slot 0 of each rack is a front-end, the
/// remaining slots are leaves. Rack-local fan-out by default;
/// [`PaExperimentConfig::cross_rack`] widens it to the whole cluster.
/// Under a control plane the scheduler claims the last leaf slot, every
/// other leaf runs a health beacon, and front-ends fan out only to leaves
/// the registry reports live — so a crashed leaf stops costing every
/// query its full deadline as soon as detection lands.
struct PaWorkload<'a> {
    cfg: &'a PaExperimentConfig,
    control: Option<ControlLayout>,
    frontends: Vec<NodeAddr>,
}

impl Experiment for PaExperimentConfig {
    type Summary = PaSummary;

    fn base(&self) -> ExperimentBase {
        let topology = TopologyConfig {
            racks: self.racks,
            servers_per_rack: self.servers_per_rack,
            racks_per_array: 16.min(self.racks),
        };
        if let FabricKind::FatTree(ft) = self.fabric {
            assert_eq!(
                (topology.racks, topology.servers_per_rack),
                (ft.view().racks, ft.view().servers_per_rack),
                "racks/servers_per_rack must match the fat-tree view: \
                 use PaExperimentConfig::on_fat_tree"
            );
        }
        ExperimentBase {
            topology,
            fabric: self.fabric,
            cc: self.cc,
            ecn_threshold: self.ecn_threshold,
            kernel: self.kernel.clone(),
            cpu: None,
            ten_gig: self.ten_gig,
            // One switch model per fabric: the deep-buffered template
            // covers every fat-tree tier, only the racks in the tree.
            tor: Some(self.tor_template()),
            switch_all: matches!(self.fabric, FabricKind::FatTree(_)).then(|| self.tor_template()),
            extra_switch_latency: SimDuration::ZERO,
            seed: self.seed,
            mode: self.mode,
            sample_every: self.sample_every,
            faults: self.faults.clone(),
        }
    }

    fn workload(&self) -> Result<impl Workload<Summary = PaSummary> + '_, ExperimentError> {
        if self.control.is_some() && !self.cross_rack {
            return Err(ExperimentError::Config(
                "the control plane requires the cross-rack search tier (one shared leaf pool)"
                    .into(),
            ));
        }
        let control = ControlLayout::new(self.control.as_ref(), || {
            // The scheduler claims the last leaf slot of the last rack.
            let scheduler = NodeAddr((self.racks * self.servers_per_rack - 1) as u32);
            let leaves = self.leaf_addrs(0).into_iter().filter(|s| s.node != scheduler);
            (scheduler, leaves.map(|s| (s, true)).collect())
        })?;
        if control.as_ref().is_some_and(|l| l.pool.is_empty()) {
            return Err(ExperimentError::Config(
                "the control plane needs at least one leaf besides the scheduler".into(),
            ));
        }
        Ok(PaWorkload { cfg: self, control, frontends: Vec::new() })
    }
}

impl PaWorkload<'_> {
    fn scheduler(&self) -> Option<NodeAddr> {
        self.control.as_ref().map(|l| l.scheduler)
    }
}

impl Workload for PaWorkload<'_> {
    type Summary = PaSummary;

    fn name(&self) -> &str {
        "partition-aggregate"
    }

    fn budget(&self) -> SimTime {
        if let Some(spec) = &self.cfg.arrival {
            // Open loop: the schedule's horizon bounds admissions; slack
            // covers the trailing query's aggregation deadline.
            return SimTime::ZERO
                + spec.horizon()
                + self.cfg.deadline * 4
                + SimDuration::from_secs(2);
        }
        // Deadline-bounded: each query finishes within think + deadline,
        // but faults can only slow a query down to the deadline, so the
        // dominant term is queries * deadline with slack for startup.
        SimTime::from_secs(2) + self.cfg.deadline * (4 * self.cfg.queries)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(100)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = self.cfg;
        let root_rng = DetRng::new(cfg.seed);
        let lcfg = PaLeafConfig {
            port: PA_PORT,
            service_work: cfg.service_work,
            service_jitter: cfg.service_jitter,
            answer_bytes: cfg.answer_bytes,
        };
        let spawn_leaf = |host: &mut SimHost, addr: NodeAddr| {
            let leaf = PaLeaf::new(lcfg.clone(), root_rng.derive(addr.0 as u64));
            cluster.spawn(host, addr, Box::new(leaf));
        };
        // Leaves first: every non-zero slot of each rack (but the
        // scheduler's), each with a pure health beacon under a control
        // plane — leaves are always willing, the registry only tracks
        // their liveness.
        let shared_leaves: Option<Arc<[SockAddr]>> = match &self.control {
            Some(layout) => {
                layout.spawn(host, cluster, |host, addr, _| {
                    spawn_leaf(host, addr);
                    BTreeMap::new()
                });
                Some(layout.endpoints())
            }
            None => {
                for rack in 0..cfg.racks {
                    for slot in 1..cfg.servers_per_rack {
                        spawn_leaf(host, NodeAddr((rack * cfg.servers_per_rack + slot) as u32));
                    }
                }
                cfg.cross_rack.then(|| cfg.leaf_addrs(0).into())
            }
        };
        // Front-ends: slot 0 of each rack, sharing one leaf list per
        // fan-out domain.
        for rack in 0..cfg.racks {
            let addr = NodeAddr((rack * cfg.servers_per_rack) as u32);
            let leaves: Arc<[SockAddr]> = match &shared_leaves {
                Some(shared) => shared.clone(),
                None => cfg.leaf_addrs(rack).into(),
            };
            let mut fcfg = PaFrontendConfig::new(leaves, cfg.queries);
            fcfg.deadline = cfg.deadline;
            fcfg.query_bytes = cfg.query_bytes;
            fcfg.think = cfg.think;
            fcfg.discovery = self.control.as_ref().map(ControlLayout::discovery);
            let fe: Box<PaFrontend> = if let Some(spec) = &cfg.arrival {
                // Open loop: admissions come from the schedule (each
                // front-end draws its own stream), so no start stagger.
                fcfg.arrival = Some(spec.clone());
                fcfg.slo = cfg.slo;
                Box::new(PaFrontend::open_loop(fcfg, root_rng.derive(addr.0 as u64)))
            } else {
                // Stagger front-end start so racks do not fan out in
                // lockstep.
                fcfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                Box::new(PaFrontend::new(fcfg))
            };
            cluster.spawn(host, addr, fe);
            self.frontends.push(addr);
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        self.frontends.iter().all(|&a| {
            cluster.process::<PaFrontend>(host, a, Tid(0)).map(|f| f.done).unwrap_or(false)
        })
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> PaSummary {
        let mut latency = Histogram::new();
        let mut queries = 0;
        let mut full_aggregates = 0;
        let mut deadline_misses = 0;
        let mut missing_answers = 0;
        let mut completed_at = SimTime::ZERO;
        let mut offered = 0;
        for &a in &self.frontends {
            let f: &PaFrontend = cluster.process(host, a, Tid(0)).expect("front-end missing");
            latency.merge(&f.latency);
            queries += f.completed;
            full_aggregates += f.full_aggregates;
            deadline_misses += f.deadline_misses;
            missing_answers += f.missing_answers;
            completed_at = completed_at.max(f.finished_at);
            offered += f.offered;
        }
        let mut served = 0;
        for rack in 0..self.cfg.racks {
            for slot in 1..self.cfg.servers_per_rack {
                let addr = NodeAddr((rack * self.cfg.servers_per_rack + slot) as u32);
                if Some(addr) == self.scheduler() {
                    continue;
                }
                let l: &PaLeaf = cluster.process(host, addr, Tid(0)).expect("leaf missing");
                served += l.served;
            }
        }
        PaSummary {
            latency,
            queries,
            full_aggregates,
            deadline_misses,
            missing_answers,
            served,
            completed_at,
            offered,
            control: self.control.as_ref().map(|l| l.report(host, cluster)),
        }
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        let mut slo = SloStats::default();
        for &a in &self.frontends {
            let f: &PaFrontend = cluster.process(host, a, Tid(0)).expect("front-end missing");
            slo.merge(&f.slo);
        }
        slo
    }
}

/// Runs one partition-aggregate experiment to completion with the default
/// checkpoint policy.
///
/// # Errors
///
/// See [`try_run`].
pub fn try_run_partition_aggregate(
    cfg: &PaExperimentConfig,
) -> Result<Run<PaSummary>, ExperimentError> {
    try_run(cfg, &CheckpointPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run;

    #[test]
    fn incast_fig6a_point_runs() {
        let mut cfg = IncastConfig::fig6a(4);
        cfg.iterations = 3;
        let r = run(&cfg);
        assert_eq!(r.summary.iteration_times.len(), 3);
        assert!(r.summary.goodput_mbps > 0.0);
        assert!(r.events > 1_000);
    }

    #[test]
    fn incast_collapse_at_higher_fanin() {
        let mut small = IncastConfig::fig6a(2);
        small.iterations = 3;
        let mut big = IncastConfig::fig6a(12);
        big.iterations = 3;
        let gs = run(&small).summary.goodput_mbps;
        let gb = run(&big).summary.goodput_mbps;
        assert!(gb < gs / 3.0, "expected collapse: g(2)={gs:.1} g(12)={gb:.1}");
    }

    #[test]
    fn memcached_mini_experiment_completes() {
        let cfg = McExperimentConfig::mini(2, 20);
        let r = run(&cfg);
        // 2 racks x 5 clients x 20 requests.
        assert_eq!(r.summary.latency.count(), 200);
        assert!(r.summary.served >= 200);
        // Hop classes are populated: with one array there are local and
        // one-hop requests.
        assert!(
            r.summary.by_class[0].count()
                + r.summary.by_class[1].count()
                + r.summary.by_class[2].count()
                == 200
        );
    }

    #[test]
    fn memcached_tcp_mini_completes() {
        let mut cfg = McExperimentConfig::mini(2, 15);
        cfg.proto = Proto::Tcp;
        let r = run(&cfg);
        assert_eq!(r.summary.latency.count(), 150);
        assert_eq!(r.summary.failures, 0);
    }

    #[test]
    fn partition_aggregate_mini_completes_fault_free() {
        let cfg = PaExperimentConfig::new(2, 10);
        let r = run(&cfg);
        // 2 front-ends x 10 queries, all full aggregates with no faults.
        assert_eq!(r.summary.queries, 20);
        assert_eq!(r.summary.full_aggregates, 20);
        assert_eq!(r.summary.deadline_misses, 0);
        assert_eq!(r.summary.missing_answers, 0);
        assert_eq!(r.summary.latency.count(), 20);
        // Every query reached every leaf: 10 queries x 5 leaves per rack.
        assert_eq!(r.summary.served, 100);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn partition_aggregate_cross_rack_fans_wider() {
        let mut cfg = PaExperimentConfig::new(2, 5);
        cfg.cross_rack = true;
        let r = run(&cfg);
        assert_eq!(r.summary.queries, 10);
        // 5 queries x 10 leaves x 2 front-ends.
        assert_eq!(r.summary.served, 100);
        assert_eq!(r.summary.full_aggregates + r.summary.deadline_misses, 10);
    }

    #[test]
    fn memcached_open_loop_accounts_every_admission() {
        let mut cfg = McExperimentConfig::mini(1, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(20)).unwrap());
        cfg.slo = Some(SimDuration::from_micros(500));
        let r = run(&cfg);
        assert!(r.summary.offered > 0, "the schedule must admit requests");
        // Every admission resolves exactly once: completed, expired
        // unanswered, or shed at a full window.
        assert_eq!(r.summary.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.slo.completed, r.summary.latency.count() + r.summary.timed_out);
        assert_eq!(r.slo.target, Some(SimDuration::from_micros(500)));
    }

    #[test]
    fn partition_aggregate_open_loop_accounts_every_admission() {
        let mut cfg = PaExperimentConfig::new(1, 0);
        cfg.arrival = Some(ArrivalSpec::constant(2_000.0, SimDuration::from_millis(20)).unwrap());
        cfg.slo = Some(SimDuration::from_micros(800));
        let r = run(&cfg);
        assert!(r.summary.offered > 0, "the schedule must admit queries");
        assert_eq!(r.summary.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.summary.queries, r.slo.completed);
    }

    #[test]
    fn incast_open_loop_paces_iterations() {
        let mut cfg = IncastConfig::fig6a(2);
        cfg.client = IncastClientKind::Epoll;
        cfg.block_bytes = 64 * 1024;
        cfg.arrival = Some(ArrivalSpec::constant(100.0, SimDuration::from_millis(50)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(5));
        let r = run(&cfg);
        assert!(r.summary.offered > 0, "the schedule must admit iterations");
        assert_eq!(r.summary.offered, r.slo.completed + r.slo.shed);
        assert_eq!(r.summary.iteration_times.len() as u64, r.slo.completed);
    }

    #[test]
    fn incast_runs_on_fat_tree_with_dctcp() {
        let mut cfg = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig::new(4));
        cfg.iterations = 2;
        cfg.cc = CongestionControl::Dctcp;
        let r = run(&cfg);
        assert_eq!(r.summary.iteration_times.len(), 2);
        assert!(r.summary.goodput_mbps > 0.0);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn memcached_mini_runs_on_fat_tree() {
        // k=4 fat-tree with 3 hosts/edge: 8 "racks" of 3, one memcached
        // server + two clients per edge.
        let ft = FatTreeConfig { k: 4, hosts_per_edge: 3 };
        let cfg = McExperimentConfig::mini(1, 5).on_fat_tree(ft);
        assert_eq!(cfg.racks, 8);
        assert_eq!(cfg.servers_per_rack, 3);
        let r = run(&cfg);
        // 8 racks x 2 clients x 5 requests.
        assert_eq!(r.summary.latency.count(), 80);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn partition_aggregate_cross_rack_runs_on_fat_tree_dctcp() {
        let mut cfg = PaExperimentConfig::new(1, 4).on_fat_tree(FatTreeConfig::new(4));
        cfg.cross_rack = true;
        cfg.cc = CongestionControl::Dctcp;
        let r = run(&cfg);
        // 8 front-ends (one per edge) x 4 queries.
        assert_eq!(r.summary.queries, 32);
        assert!(r.conservation.is_balanced());
    }

    #[test]
    fn memcached_control_plane_steady_state_stays_clean() {
        // Fault-free controlled run: the scheduler must observe a
        // healthy fleet (no suspicions, no failovers, spares standing
        // by) while the serving replicas absorb the whole offered load.
        let mut cfg = McExperimentConfig::mini(2, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(30)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(1));
        cfg.control = Some(ControlConfig::default());
        let r = run(&cfg);
        assert!(r.summary.offered > 0, "the schedule must admit requests");
        assert_eq!(r.summary.offered, r.slo.completed + r.slo.shed);
        let ctl = r.summary.control.expect("control report present");
        assert!(ctl.heartbeats > 0, "agents must heartbeat");
        assert!(ctl.lookups > 0, "clients must refresh endpoints");
        assert_eq!(ctl.suspicions, 0, "a healthy fleet raises no suspicions");
        assert_eq!(ctl.failovers, 0);
        assert_eq!(ctl.commands_dropped, 0);
        // One service, mc_per_rack x racks = 2 desired, 2 ready.
        assert_eq!(ctl.replicas, vec![(0, 2, 2)]);
        // The fleet the clients see is exactly the ready replicas: the
        // spares never serve while gated off.
        assert!(r.summary.latency.count() > 0);
    }

    #[test]
    fn memcached_control_plane_fails_over_a_crashed_replica() {
        // Crash serving replica node0 at 10 ms without reboot: the
        // scheduler must detect it through missed heartbeats and
        // activate the rack's spare, and clients must finish the run
        // against the re-placed fleet.
        let mut cfg = McExperimentConfig::mini(2, 0);
        cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(60)).unwrap());
        cfg.slo = Some(SimDuration::from_millis(1));
        cfg.control = Some(ControlConfig::default());
        cfg.faults = Some(FaultPlan::parse("10ms node-crash node0").expect("valid plan"));
        let r = run(&cfg);
        let ctl = r.summary.control.expect("control report present");
        assert!(ctl.detections >= 1, "the dead replica must be detected");
        assert_eq!(ctl.failovers, 1, "exactly one replacement activation");
        assert_eq!(ctl.replicas, vec![(0, 2, 2)], "the fleet must be whole again");
        assert_eq!(ctl.replacement_latency.count(), 1);
        // Detection + command round trip is bounded by the config: dead
        // threshold + command timeout budget + fabric slack.
        let bound = SimDuration::from_millis(20).as_nanos();
        assert!(
            ctl.replacement_latency.quantile(1.0) <= bound,
            "replacement took {} ns (bound {bound} ns)",
            ctl.replacement_latency.quantile(1.0)
        );
    }

    #[test]
    fn partition_aggregate_control_plane_drops_dead_leaf_from_fanout() {
        // Crash one leaf mid-run: front-ends shrink their fan-out to the
        // remaining live leaves once detection lands, so late queries
        // aggregate fully instead of eating the deadline forever.
        let mut cfg = PaExperimentConfig::new(2, 40);
        cfg.cross_rack = true;
        cfg.control = Some(ControlConfig::default());
        cfg.faults = Some(FaultPlan::parse("5ms node-crash node1").expect("valid plan"));
        let r = run(&cfg);
        let ctl = r.summary.control.expect("control report present");
        assert_eq!(r.summary.queries, 80, "deadline-bounded queries always complete");
        assert!(ctl.detections >= 1, "the dead leaf must be detected");
        assert!(r.summary.deadline_misses > 0, "queries in the detection window miss");
        assert!(
            r.summary.full_aggregates > 0,
            "queries after the fleet shrank must aggregate fully again"
        );
    }

    #[test]
    fn incast_monitoring_control_plane_observes_servers() {
        let mut cfg = IncastConfig::fig6a(4);
        cfg.iterations = 3;
        cfg.control = Some(ControlConfig::default());
        let r = run(&cfg);
        assert_eq!(r.summary.iteration_times.len(), 3);
        let ctl = r.summary.control.expect("control report present");
        assert!(ctl.heartbeats > 0);
        assert_eq!(ctl.suspicions, 0, "servers stay alive through the burst");
        assert_eq!(ctl.replicas, vec![(0, 4, 4)]);
    }

    #[test]
    fn partition_aggregate_degrades_under_link_fault() {
        // node1 is a leaf of rack 0: while its link is down, rack 0's
        // front-end cannot complete an aggregate and must miss deadlines.
        // The window opens early enough to overlap the ~4 ms fault-free
        // run and closes well before the last query.
        let mut cfg = PaExperimentConfig::new(2, 40);
        cfg.faults =
            Some(FaultPlan::parse("1ms link-down node1\n4ms link-up node1").expect("valid plan"));
        let r = run(&cfg);
        assert_eq!(r.summary.queries, 80, "deadline-bounded queries always complete");
        assert!(r.summary.deadline_misses > 0, "a downed leaf link must cost deadlines");
        assert!(r.summary.missing_answers >= r.summary.deadline_misses);
        assert!(r.summary.full_aggregates > 0, "the fault window ends before the run does");
    }

    /// Asserts `exp` is refused before anything is built, with the pool
    /// size it asked for.
    fn assert_pool_refused<E: Experiment>(exp: &E, replicas: usize) {
        match try_run(exp, &CheckpointPolicy::default()) {
            Err(ExperimentError::ServicePoolTooLarge { replicas: r, limit }) => {
                assert_eq!((r, limit), (replicas, MAX_POOL));
            }
            Err(other) => panic!("expected ServicePoolTooLarge, got {other}"),
            Ok(_) => panic!("an oversized service pool must be refused"),
        }
    }

    #[test]
    fn oversized_control_pools_are_structured_errors() {
        // 65 racks x (1 serving + 1 spare) = 130 replicas.
        let mut mc = McExperimentConfig::mini(65, 0);
        mc.servers_per_rack = 3;
        mc.arrival = Some(ArrivalSpec::constant(100.0, SimDuration::from_millis(1)).unwrap());
        mc.control = Some(ControlConfig::default());
        assert_pool_refused(&mc, 130);

        let mut incast = IncastConfig::fig6a(129);
        incast.client = IncastClientKind::Epoll;
        incast.control = Some(ControlConfig::default());
        assert_pool_refused(&incast, 129);

        // 27 racks x 5 leaves, less the scheduler's slot.
        let mut pa = PaExperimentConfig::new(27, 1);
        pa.cross_rack = true;
        pa.control = Some(ControlConfig::default());
        assert_pool_refused(&pa, 134);
    }
}
