//! The four benchmark workloads and the `Workload` replicas that drive
//! them through the public `ExperimentHarness`.
//!
//! Each replica spawns the same public diablo-apps guest processes, in the
//! same order, as the library's own runner for that config
//! (`try_run_memcached`, `try_run_incast`, `try_run_partition_aggregate`),
//! so its metric scrape is byte-identical to the library's. The crate's
//! tests hold them to that. The replicas exist because the library's
//! workload types are private, and the benchmark must see every phase
//! boundary of the harness lifecycle from outside.

use diablo_apps::incast::{shared, IncastMaster, IncastServer, IncastWorker, INCAST_PORT};
use diablo_apps::memcached::{
    mc_shared, McClient, McClientConfig, McDispatcher, McServerConfig, McSharedHandle, McWorker,
    MEMCACHED_PORT,
};
use diablo_apps::partition_aggregate::{
    PaFrontend, PaFrontendConfig, PaLeaf, PaLeafConfig, PA_PORT,
};
use diablo_core::{
    Cluster, ExperimentBase, IncastConfig, McExperimentConfig, PaExperimentConfig, RunMode,
    SimHost, SwitchTemplate, Workload,
};
use diablo_engine::prelude::{DetRng, SimDuration, SimTime};
use diablo_net::switch::BufferConfig;
use diablo_net::topology::{HopClass, TopologyConfig};
use diablo_net::{NodeAddr, SockAddr};
use diablo_stack::process::{Proto, Tid};
use std::sync::Arc;

/// The seed whose scrape digests are recorded in `golden.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// memcached in the paper's shape: setup-bound (per-client Zipf
    /// tables), large scrape.
    McPaperScale,
    /// memcached in the mini shape: drive-bound through the UDP syscall,
    /// softirq and NIC path.
    McRackUdp,
    /// TCP incast: bulk TCP, retransmits, RTOs and switch buffer drops.
    IncastTcp,
    /// Cross-rack partition-aggregate on the partition-parallel executor.
    PaCrossPar2,
}

impl WorkloadName {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::McPaperScale,
        WorkloadName::McRackUdp,
        WorkloadName::IncastTcp,
        WorkloadName::PaCrossPar2,
    ];

    /// The name `--workload` takes.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::McPaperScale => "mc_paper_scale",
            WorkloadName::McRackUdp => "mc_rack_udp",
            WorkloadName::IncastTcp => "incast_tcp",
            WorkloadName::PaCrossPar2 => "pa_cross_par2",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }

    /// The full-size scenario the benchmark measures.
    pub fn scenario(self, seed: u64) -> Scenario {
        self.sized(seed, false)
    }

    /// A miniature of the same scenario (same layers, same executor) for
    /// the crate's tests.
    pub fn tiny(self, seed: u64) -> Scenario {
        self.sized(seed, true)
    }

    fn sized(self, seed: u64, tiny: bool) -> Scenario {
        let pick = |full: u64, small: u64| if tiny { small } else { full };
        match self {
            WorkloadName::McPaperScale => {
                let racks = if tiny { 4 } else { 32 };
                let mut cfg = McExperimentConfig::paper(racks, pick(30, 2));
                cfg.seed = seed;
                Scenario::Memcached(cfg)
            }
            WorkloadName::McRackUdp => {
                let mut cfg = McExperimentConfig::mini(pick(16, 2) as usize, pick(1_200, 20));
                cfg.seed = seed;
                Scenario::Memcached(cfg)
            }
            WorkloadName::IncastTcp => {
                let mut cfg = IncastConfig::fig6a(pick(16, 4) as usize);
                cfg.block_bytes = 1024 * 1024;
                cfg.iterations = pick(300, 3);
                cfg.seed = seed;
                Scenario::Incast(cfg)
            }
            WorkloadName::PaCrossPar2 => {
                let mut cfg = PaExperimentConfig::new(4, pick(1_500, 20));
                cfg.cross_rack = true;
                cfg.answer_bytes = 512;
                cfg.mode = RunMode::parallel_with_workers(2, 2);
                cfg.seed = seed;
                Scenario::PartitionAggregate(cfg)
            }
        }
    }
}

/// A workload's configuration, expressed in the library's own public
/// config types so the library runner can run the same scenario.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Closed-loop memcached.
    Memcached(McExperimentConfig),
    /// Closed-loop incast with the pthread client.
    Incast(IncastConfig),
    /// Closed-loop partition-aggregate.
    PartitionAggregate(PaExperimentConfig),
}

/// What every replica reports after completion: the application-level
/// work done, for the output check and the `apps.*` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppOutcome {
    /// Requests, iterations or queries finished, abandoned ones included.
    pub ops_completed: u64,
    /// Operations the closed loop was configured to issue.
    pub ops_expected: u64,
    /// Operations abandoned after exhausting retries.
    pub failures: u64,
    /// Retransmissions or retries the clients performed.
    pub retries: u64,
}

impl AppOutcome {
    /// `true` when every configured operation finished.
    pub fn all_finished(&self) -> bool {
        self.ops_completed == self.ops_expected
    }
}

/// A boxed replica, so the runner is not generic over the workload.
pub type BoxedWorkload = Box<dyn Workload<Summary = AppOutcome>>;

impl Scenario {
    /// The executor the scenario runs on.
    pub fn mode(&self) -> RunMode {
        match self {
            Scenario::Memcached(c) => c.mode,
            Scenario::Incast(c) => c.mode,
            Scenario::PartitionAggregate(c) => c.mode,
        }
    }

    /// The same scenario on another executor.
    pub fn with_mode(&self, mode: RunMode) -> Scenario {
        let mut s = self.clone();
        match &mut s {
            Scenario::Memcached(c) => c.mode = mode,
            Scenario::Incast(c) => c.mode = mode,
            Scenario::PartitionAggregate(c) => c.mode = mode,
        }
        s
    }

    /// The experiment base the library's runner derives from the same
    /// config.
    pub fn base(&self) -> ExperimentBase {
        match self {
            Scenario::Memcached(c) => ExperimentBase {
                cc: c.cc,
                ecn_threshold: c.ecn_threshold,
                kernel: c.kernel.clone(),
                extra_switch_latency: c.extra_switch_latency,
                seed: c.seed,
                mode: c.mode,
                ..ExperimentBase::new(TopologyConfig {
                    racks: c.racks,
                    servers_per_rack: c.servers_per_rack,
                    racks_per_array: 16.min(c.racks),
                })
            },
            Scenario::Incast(c) => ExperimentBase {
                cc: c.cc,
                ecn_threshold: c.ecn_threshold,
                kernel: c.kernel.clone(),
                cpu: Some(c.cpu),
                ten_gig: c.ten_gig,
                tor: c.switch,
                seed: c.seed,
                mode: c.mode,
                ..ExperimentBase::new(TopologyConfig {
                    racks: 1,
                    servers_per_rack: c.servers + 1,
                    racks_per_array: 1,
                })
            },
            Scenario::PartitionAggregate(c) => {
                // The library's search tier runs on deep-buffered ToRs.
                let mut tor = SwitchTemplate::gbe_shallow();
                tor.buffer = BufferConfig::PerPort { bytes_per_port: 64 * 1024 };
                ExperimentBase {
                    cc: c.cc,
                    ecn_threshold: c.ecn_threshold,
                    kernel: c.kernel.clone(),
                    tor: Some(tor),
                    seed: c.seed,
                    mode: c.mode,
                    ..ExperimentBase::new(TopologyConfig {
                        racks: c.racks,
                        servers_per_rack: c.servers_per_rack,
                        racks_per_array: 16.min(c.racks),
                    })
                }
            }
        }
    }

    /// A fresh replica workload for one run. The replicas model the
    /// closed-loop, fault-free tree scenarios [`WorkloadName`] builds
    /// (pthread incast client, no open loop or control plane).
    pub fn workload(&self) -> BoxedWorkload {
        match self {
            Scenario::Memcached(c) => {
                Box::new(McReplica { cfg: c.clone(), shareds: Vec::new(), clients: Vec::new() })
            }
            Scenario::Incast(c) => Box::new(IncastReplica { cfg: c.clone() }),
            Scenario::PartitionAggregate(c) => {
                Box::new(PaReplica { cfg: c.clone(), frontends: Vec::new() })
            }
        }
    }
}

/// Closed-loop memcached: the first `mc_per_rack` nodes of each rack
/// serve, every other node runs a client.
struct McReplica {
    cfg: McExperimentConfig,
    shareds: Vec<McSharedHandle>,
    clients: Vec<NodeAddr>,
}

impl McReplica {
    fn each_client<'h>(&self, host: &'h SimHost, cluster: &Cluster) -> Vec<&'h McClient> {
        self.clients
            .iter()
            .map(|&a| cluster.process::<McClient>(host, a, Tid(0)).expect("client missing"))
            .collect()
    }
}

impl Workload for McReplica {
    type Summary = AppOutcome;

    fn name(&self) -> &str {
        "memcached"
    }

    fn budget(&self) -> SimTime {
        SimTime::from_secs(5 + self.cfg.requests_per_client / 2)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(200)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = &self.cfg;
        let topo = cluster.topo.clone();
        let root_rng = DetRng::new(cfg.seed);
        let mut servers = Vec::new();
        for rack in 0..cfg.racks {
            for slot in 0..cfg.mc_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let scfg = McServerConfig {
                    port: MEMCACHED_PORT,
                    workers: cfg.workers,
                    version: cfg.version,
                    udp: cfg.proto == Proto::Udp,
                    request_work: cfg.request_work,
                };
                let sh = mc_shared(scfg.workers);
                cluster.spawn(host, addr, Box::new(McDispatcher::new(scfg.clone(), sh.clone())));
                for w in 0..scfg.workers {
                    cluster.spawn(host, addr, Box::new(McWorker::new(w, scfg.clone(), sh.clone())));
                }
                self.shareds.push(sh);
                servers.push(SockAddr::new(addr, MEMCACHED_PORT));
            }
        }
        let servers: Arc<[SockAddr]> = servers.into();
        for rack in 0..cfg.racks {
            for slot in cfg.mc_per_rack..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let mut ccfg = match cfg.proto {
                    Proto::Tcp => McClientConfig::tcp(servers.clone(), cfg.requests_per_client),
                    Proto::Udp => McClientConfig::udp(servers.clone(), cfg.requests_per_client),
                };
                ccfg.reconnect_every = cfg.reconnect_every;
                ccfg.request_deadline = cfg.request_deadline;
                ccfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
                let topo = topo.clone();
                ccfg.classify =
                    Some(Arc::new(move |server: NodeAddr| match topo.hop_class(addr, server) {
                        HopClass::Local => 0,
                        HopClass::OneHop => 1,
                        HopClass::TwoHop => 2,
                    }));
                let rng = root_rng.derive(addr.0 as u64);
                cluster.spawn(host, addr, Box::new(McClient::new(ccfg, rng)));
                self.clients.push(addr);
            }
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        self.clients
            .iter()
            .all(|&a| cluster.process::<McClient>(host, a, Tid(0)).map(|c| c.done).unwrap_or(false))
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> AppOutcome {
        let clients = self.each_client(host, cluster);
        AppOutcome {
            ops_completed: clients.iter().map(|c| c.completed).sum(),
            ops_expected: clients.len() as u64 * self.cfg.requests_per_client,
            failures: clients.iter().map(|c| c.failures).sum(),
            retries: clients.iter().map(|c| c.udp_retries).sum(),
        }
    }

    fn failure_stats(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> diablo_apps::failure::FailureStats {
        let mut failure = diablo_apps::failure::FailureStats::default();
        for c in self.each_client(host, cluster) {
            failure.merge(&c.failure);
        }
        failure
    }
}

/// Incast: storage servers on nodes 1..=n, the pthread client (master
/// plus one worker per server) on node 0.
struct IncastReplica {
    cfg: IncastConfig,
}

const INCAST_CLIENT: NodeAddr = NodeAddr(0);

impl IncastReplica {
    fn master<'h>(&self, host: &'h SimHost, cluster: &Cluster) -> &'h IncastMaster {
        cluster.process(host, INCAST_CLIENT, Tid(0)).expect("master missing")
    }

    fn failures(&self, host: &SimHost, cluster: &Cluster) -> diablo_apps::failure::FailureStats {
        let mut failure = diablo_apps::failure::FailureStats::default();
        for tid in 1..=self.cfg.servers {
            let w: &IncastWorker =
                cluster.process(host, INCAST_CLIENT, Tid(tid as u32)).expect("worker missing");
            failure.merge(&w.failure);
        }
        failure
    }
}

impl Workload for IncastReplica {
    type Summary = AppOutcome;

    fn name(&self) -> &str {
        "incast"
    }

    fn budget(&self) -> SimTime {
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

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        self.master(host, cluster).done
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> AppOutcome {
        let failure = self.failures(host, cluster);
        AppOutcome {
            ops_completed: self.master(host, cluster).iteration_times.len() as u64,
            ops_expected: self.cfg.iterations,
            failures: failure.failed,
            retries: failure.retried,
        }
    }

    fn failure_stats(
        &self,
        host: &SimHost,
        cluster: &Cluster,
    ) -> diablo_apps::failure::FailureStats {
        self.failures(host, cluster)
    }
}

/// Partition-aggregate: slot 0 of each rack is a front-end, the other
/// slots are leaves; cross-rack fan-out spans every leaf in the cluster.
struct PaReplica {
    cfg: PaExperimentConfig,
    frontends: Vec<NodeAddr>,
}

impl PaReplica {
    fn leaves_of_rack(&self, rack: usize) -> impl Iterator<Item = SockAddr> + '_ {
        let spr = self.cfg.servers_per_rack;
        (1..spr).map(move |slot| SockAddr::new(NodeAddr((rack * spr + slot) as u32), PA_PORT))
    }
}

impl Workload for PaReplica {
    type Summary = AppOutcome;

    fn name(&self) -> &str {
        "partition-aggregate"
    }

    fn budget(&self) -> SimTime {
        SimTime::from_secs(2) + self.cfg.deadline * (4 * self.cfg.queries)
    }

    fn initial_horizon(&self) -> SimTime {
        SimTime::from_millis(100)
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let cfg = self.cfg.clone();
        let root_rng = DetRng::new(cfg.seed);
        for rack in 0..cfg.racks {
            for slot in 1..cfg.servers_per_rack {
                let addr = NodeAddr((rack * cfg.servers_per_rack + slot) as u32);
                let lcfg = PaLeafConfig {
                    port: PA_PORT,
                    service_work: cfg.service_work,
                    service_jitter: cfg.service_jitter,
                    answer_bytes: cfg.answer_bytes,
                };
                let leaf = PaLeaf::new(lcfg, root_rng.derive(addr.0 as u64));
                cluster.spawn(host, addr, Box::new(leaf));
            }
        }
        let all_leaves: Arc<[SockAddr]> =
            (0..cfg.racks).flat_map(|r| self.leaves_of_rack(r)).collect();
        for rack in 0..cfg.racks {
            let addr = NodeAddr((rack * cfg.servers_per_rack) as u32);
            let leaves: Arc<[SockAddr]> = if cfg.cross_rack {
                all_leaves.clone()
            } else {
                self.leaves_of_rack(rack).collect()
            };
            let mut fcfg = PaFrontendConfig::new(leaves, cfg.queries);
            fcfg.deadline = cfg.deadline;
            fcfg.query_bytes = cfg.query_bytes;
            fcfg.think = cfg.think;
            fcfg.start_delay = SimDuration::from_micros((addr.0 as u64 * 7) % 2_000);
            cluster.spawn(host, addr, Box::new(PaFrontend::new(fcfg)));
            self.frontends.push(addr);
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        self.frontends.iter().all(|&a| {
            cluster.process::<PaFrontend>(host, a, Tid(0)).map(|f| f.done).unwrap_or(false)
        })
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> AppOutcome {
        let fes: Vec<&PaFrontend> = self
            .frontends
            .iter()
            .map(|&a| cluster.process(host, a, Tid(0)).expect("front-end missing"))
            .collect();
        AppOutcome {
            ops_completed: fes.iter().map(|f| f.completed).sum(),
            ops_expected: fes.len() as u64 * self.cfg.queries,
            failures: 0,
            retries: 0,
        }
    }
}
