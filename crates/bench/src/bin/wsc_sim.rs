//! `wsc_sim` — the general-purpose simulator front end: run either paper
//! workload on an arbitrary configuration from the command line.
//!
//! ```console
//! $ wsc_sim memcached --racks 32 --requests 200 --proto tcp --kernel 3.5 --10g
//! $ wsc_sim incast --servers 12 --iterations 10 --client epoll --ghz 2 --10g
//! $ wsc_sim partition-aggregate --racks 4 --queries 200 --deadline-us 800
//! $ wsc_sim memcached --parallel 4        # partition-parallel, identical results
//! $ wsc_sim memcached --checkpoint warm.snap --checkpoint-at 2ms
//! $ wsc_sim memcached --restore warm.snap # resume bit-identically
//! $ wsc_sim sweep --spec grid.sweep       # parallel grid, one merged table
//! ```

use diablo_apps::memcached::McVersion;
use diablo_bench::{banner, cc, fabric, parallel_mode, results_dir, write_metrics_artifacts, Args};
use diablo_core::report::percentiles_us;
use diablo_core::snapshot::SnapshotError;
use diablo_core::sweep::parse_duration;
use diablo_core::{
    try_run, warm, ArrivalSpec, CheckpointPolicy, ControlConfig, ControlReport, Experiment,
    ExperimentError, FabricKind, FaultPlan, IncastClientKind, IncastConfig, McExperimentConfig,
    PaExperimentConfig, Run, RunMode, SloStats, SweepEngine, SweepError, SweepPoint, SweepRunner,
    SweepSpec, SwitchTemplate,
};
use diablo_engine::prelude::{Histogram, MetricsRegistry, SimDuration, SimTime};
use diablo_engine::time::Frequency;
use diablo_stack::process::Proto;
use diablo_stack::profile::{CongestionControl, KernelProfile};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: wsc_sim <memcached|incast|partition-aggregate|sweep> [options]\n\
         \n\
         memcached options:\n\
           --racks N (16)  --spr N (6)  --mc-per-rack N (1)  --requests N (150)\n\
           --proto tcp|udp (udp)  --version 1.4.15|1.4.17  --workers N (4)\n\
           --deadline MS       per-request TCP deadline in milliseconds\n\
           --window N          open-loop in-flight window per client (64)\n\
         \n\
         incast options:\n\
           --servers N (8)  --iterations N (10)  --block BYTES (262144)\n\
           --client pthread|epoll (pthread)  --ghz 2|4 (4)  --racks N (1)\n\
           --buffer BYTES      per-port switch buffer override (every tier\n\
                               on a fat-tree, ToR only on the tree)\n\
           --deadline MS       per-request deadline (epoll client)\n\
         \n\
         partition-aggregate options:\n\
           --racks N (4)  --spr N (6)  --queries N (100)  --deadline-us N (1000)\n\
           --query-bytes N (64)  --answer-bytes N (2048)  --cross-rack\n\
         \n\
         sweep options:\n\
           --spec PATH         sweep grid spec: scenario/warm/jobs/set/axis\n\
                               directives (see DESIGN.md §15); the cartesian\n\
                               product of the axes fans out over worker\n\
                               threads, optionally seeded from one shared\n\
                               warmed checkpoint, into a single merged table\n\
           --jobs N            worker threads (overrides the spec's jobs)\n\
           --out PATH          merged results table (default under results/)\n\
           --progress PATH     resumable progress ledger (default results/;\n\
                               delete it to re-run from scratch)\n\
           --warm-checkpoint PATH  shared warm snapshot location (default\n\
                               results/, keyed by the spec digest)\n\
         \n\
         shared (all workloads):\n\
           --seed N  --10g  --kernel 2.6|3.5 (2.6)\n\
           --parallel N        partition-parallel executor, identical results\n\
           --sim-workers N     engine worker threads (with --parallel)\n\
         \n\
         fabric (all workloads):\n\
           --topology tree|fat-tree:k=K[,hosts=N]  (tree)\n\
                               fat-tree is a 3-tier folded Clos with K pods\n\
                               and flow-consistent ECMP; its shape replaces\n\
                               --racks/--spr\n\
           --cc reno|dctcp (reno)  congestion control; dctcp enables ECN\n\
                               marking at the switches\n\
         \n\
         observability (all workloads):\n\
           --metrics PATH      write the metrics JSON here instead of results/\n\
           --check-invariants  exit 1 if frame conservation does not balance\n\
         \n\
         checkpoint/restore (all workloads):\n\
           --checkpoint PATH   snapshot the full simulation state to PATH\n\
                               mid-run (requires --checkpoint-at)\n\
           --checkpoint-at DUR simulated instant to snapshot at, with a\n\
                               ns/us/ms/s suffix (e.g. 2ms)\n\
           --restore PATH      seed the run from a snapshot instead of time\n\
                               zero; the restored run finishes bit-identical\n\
                               to an uninterrupted one\n\
         \n\
         fault injection (all workloads):\n\
           --fault-plan PATH   scripted fault schedule (link flaps, switch and\n\
                               node failures); see DESIGN.md for the grammar\n\
         \n\
         open-loop load (all workloads):\n\
           --arrival PATH      rate-driven admission profile (one\n\
                               '<duration> <const|poisson> <rate>' phase per\n\
                               line); memcached requires --proto udp, incast\n\
                               requires --client epoll\n\
           --slo NS            per-request SLO target in nanoseconds\n\
         \n\
         cluster control plane (all workloads):\n\
           --control-plane     run a scheduler process inside the simulation:\n\
                               per-node heartbeat health checking, failover\n\
                               placement onto spares, registry-based endpoint\n\
                               discovery (memcached needs --arrival; the\n\
                               search tier needs --cross-rack; incast gets\n\
                               monitoring only)\n\
           --spares N          standby replicas per rack (1, memcached only)\n\
           --heartbeat-us N    agent heartbeat period (2000)\n\
           --suspect-us N      silence before a node is suspect (5000)\n\
           --dead-us N         silence before a node is dead (11000)\n\
           --scale-up F        p99-violation fraction that adds a replica (0.25)\n\
           --scale-down F      violation fraction that removes one (0.05)\n\
           --autoscale         scale replicas against the SLO signal\n\
         \n\
         A flag the subcommand does not take is an error."
    );
    std::process::exit(2);
}

/// Prints `error: {msg}` and exits 2: the command line asked for
/// something the simulator will not run.
fn reject(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Rejects contradictory zero values for flags that must be at least 1.
fn positive<T: Default + PartialEq + std::fmt::Display>(name: &str, v: T) -> T {
    if v == T::default() {
        reject(format!("{name} must be at least 1 (got {v})"));
    }
    v
}

/// Human-readable fabric description for the run banner.
fn fabric_desc(f: &FabricKind) -> String {
    match f {
        FabricKind::Tree => "tree".to_string(),
        FabricKind::FatTree(ft) => {
            format!("fat-tree(k={}, hosts/edge={})", ft.k, ft.hosts_per_edge)
        }
    }
}

/// Short fabric token for namespacing `results/` artifacts
/// (`memcached_fattree_metrics.json` and friends).
fn fabric_short(f: &FabricKind) -> &'static str {
    match f {
        FabricKind::Tree => "tree",
        FabricKind::FatTree(_) => "fattree",
    }
}

/// Reads the text file behind `flag`, if given, and parses it, exiting 2
/// on a missing file or a malformed body.
fn load<T, E: std::fmt::Display>(
    args: &Args,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<(T, String)> {
    let path = args.get(flag, String::new());
    if path.is_empty() {
        return None;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| reject(format!("cannot read {what} {path}: {e}")));
    let parsed = parse(&text).unwrap_or_else(|e| reject(format!("{path}: {e}")));
    Some((parsed, path))
}

/// Parses `--slo NS` into an SLO target. An explicit `--slo 0` is
/// contradictory — a zero-nanosecond target is violated by construction —
/// and is an error rather than a silent "no target".
fn slo_target(args: &Args) -> Option<SimDuration> {
    if !args.flag("--slo") {
        return None;
    }
    let ns: u64 = args.get("--slo", 0);
    if ns == 0 {
        reject("--slo must be at least 1 nanosecond (got 0)");
    }
    Some(SimDuration::from_nanos(ns))
}

/// Parses the `--control-plane` flag family into a scheduler config.
///
/// Exits non-zero on contradictions: a tuning flag without
/// `--control-plane` itself, or thresholds [`ControlConfig::validate`]
/// rejects (zero periods, suspect/dead out of order, inverted scaling
/// hysteresis).
fn control_config(args: &Args) -> Option<ControlConfig> {
    const TUNING: [&str; 7] = [
        "--spares",
        "--heartbeat-us",
        "--suspect-us",
        "--dead-us",
        "--scale-up",
        "--scale-down",
        "--autoscale",
    ];
    if !args.flag("--control-plane") {
        for f in TUNING {
            if args.flag(f) {
                reject(format!("{f} requires --control-plane"));
            }
        }
        return None;
    }
    let d = ControlConfig::default();
    let mut ctl = ControlConfig {
        spares_per_rack: args.get("--spares", d.spares_per_rack),
        scale_up_frac: args.get("--scale-up", d.scale_up_frac),
        scale_down_frac: args.get("--scale-down", d.scale_down_frac),
        autoscale: args.flag("--autoscale"),
        ..d
    };
    if args.flag("--heartbeat-us") {
        ctl.heartbeat_every = SimDuration::from_micros(args.get("--heartbeat-us", 0));
    }
    if args.flag("--suspect-us") {
        ctl.suspect_after = SimDuration::from_micros(args.get("--suspect-us", 0));
    }
    if args.flag("--dead-us") {
        ctl.dead_after = SimDuration::from_micros(args.get("--dead-us", 0));
    }
    if let Err(e) = ctl.validate() {
        reject(format!("--control-plane: {e}"));
    }
    Some(ctl)
}

/// The flags every workload subcommand shares, parsed once.
struct Shared {
    seed: Option<u64>,
    ten_gig: bool,
    fabric: FabricKind,
    cc: CongestionControl,
    kernel: KernelProfile,
    faults: Option<FaultPlan>,
    arrival: Option<ArrivalSpec>,
    slo: Option<SimDuration>,
    control: Option<ControlConfig>,
    mode: RunMode,
}

impl Shared {
    /// Parses the shared flags, exiting 2 on malformed values. `verbose`
    /// announces loaded scenario files; sweep workers stay quiet.
    fn parse(args: &Args, verbose: bool) -> Shared {
        let fabric = fabric(args);
        // A fat-tree derives its Clos shape from k and hosts, so an
        // explicit shape flag would be silently ignored: an error instead.
        if matches!(fabric, FabricKind::FatTree(_)) {
            for flag in ["--racks", "--spr"] {
                if args.flag(flag) {
                    reject(format!(
                        "{flag} conflicts with --topology fat-tree \
                         (the Clos shape is derived from k and hosts)"
                    ));
                }
            }
        }
        let kernel = match args.get("--kernel", "2.6".to_string()).as_str() {
            "2.6" => KernelProfile::linux_2_6_39(),
            "3.5" => KernelProfile::linux_3_5_7(),
            other => reject(format!("invalid value {other:?} for --kernel (expected 2.6 or 3.5)")),
        };
        let faults =
            load(args, "--fault-plan", "fault plan", FaultPlan::parse).map(|(plan, path)| {
                if verbose {
                    println!(
                        "fault plan: {} events from {path} (horizon {})",
                        plan.events.len(),
                        plan.horizon()
                    );
                }
                plan
            });
        let arrival = load(args, "--arrival", "arrival spec", ArrivalSpec::parse).map(|(spec, path)| {
            if verbose {
                println!(
                    "arrival profile: {} phases from {path} (horizon {}, ~{:.0} arrivals per client)",
                    spec.phases().len(),
                    spec.horizon(),
                    spec.expected_arrivals()
                );
            }
            spec
        });
        Shared {
            seed: args.flag("--seed").then(|| args.get("--seed", 0)),
            ten_gig: args.flag("--10g"),
            fabric,
            cc: cc(args),
            kernel,
            faults,
            arrival,
            slo: slo_target(args),
            control: control_config(args),
            mode: parallel_mode(args),
        }
    }
}

/// Copies the shared flags onto a config (every config carries the same
/// fields), re-targeting it onto a fat-tree when one was asked for.
macro_rules! with_shared {
    ($cfg:expr, $shared:expr) => {{
        let (mut cfg, s) = ($cfg, $shared);
        if let Some(seed) = s.seed {
            cfg.seed = seed;
        }
        cfg.ten_gig = s.ten_gig;
        if let FabricKind::FatTree(ft) = s.fabric {
            cfg = cfg.on_fat_tree(ft);
        }
        cfg.cc = s.cc;
        cfg.kernel = s.kernel.clone();
        cfg.faults = s.faults.clone();
        cfg.arrival = s.arrival.clone();
        cfg.slo = s.slo;
        cfg.control = s.control.clone();
        cfg.mode = s.mode;
        cfg
    }};
}

/// Parses the `--checkpoint`/`--checkpoint-at`/`--restore` flag family.
///
/// Exits 2 on contradictions: a snapshot path without an instant (or the
/// reverse), a malformed duration token, a restore file that does not
/// exist, or a checkpoint that would clobber the snapshot it restores
/// from.
fn checkpoint_policy(args: &Args) -> CheckpointPolicy {
    let save_path = args.get("--checkpoint", String::new());
    let has_at = args.flag("--checkpoint-at");
    if save_path.is_empty() && has_at {
        reject("--checkpoint-at requires --checkpoint <path>");
    }
    if !save_path.is_empty() && !has_at {
        reject("--checkpoint requires --checkpoint-at <duration>");
    }
    let save = (!save_path.is_empty()).then(|| {
        let tok: String = args.get("--checkpoint-at", String::new());
        let at = parse_duration(&tok).unwrap_or_else(|e| reject(format!("--checkpoint-at: {e}")));
        (PathBuf::from(&save_path), SimTime::ZERO + at)
    });
    let restore_path = args.get("--restore", String::new());
    let restore_from = (!restore_path.is_empty()).then(|| {
        let p = PathBuf::from(&restore_path);
        if !p.is_file() {
            reject(format!("--restore: cannot read snapshot {restore_path}: no such file"));
        }
        p
    });
    if let (Some((s, _)), Some(r)) = (&save, &restore_from) {
        if s == r {
            reject("--checkpoint and --restore must not share a path");
        }
    }
    CheckpointPolicy { save, restore_from }
}

/// Announces what the checkpoint policy will do to this run.
fn print_checkpoint(ckpt: &CheckpointPolicy) {
    if let Some(p) = &ckpt.restore_from {
        println!("restore: seeding simulation state from {}", p.display());
    }
    if let Some((p, at)) = &ckpt.save {
        println!("checkpoint: will snapshot to {} at {at}", p.display());
    }
}

/// Exits 2 naming the first flag `command` never read.
fn reject_unread(args: &Args, command: &str) {
    if let Some(flag) = args.unread() {
        reject(format!("{command} does not take {flag}"));
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let args = Args::parse();
    match mode.as_str() {
        "memcached" => subcommand::<McExperimentConfig>(&args),
        "incast" => subcommand::<IncastConfig>(&args),
        "partition-aggregate" => subcommand::<PaExperimentConfig>(&args),
        "sweep" => sweep(&args),
        _ => usage(),
    }
}

// ====================================================================
// The workload subcommands
// ====================================================================

/// One workload subcommand: its own flags on top of the shared ones, and
/// how it reports a run.
trait Subcommand: Experiment + Sized {
    /// The subcommand (and sweep scenario) name.
    const NAME: &'static str;
    /// The run banner's title.
    const TITLE: &'static str;

    /// Builds the config from the subcommand's own flags and the shared
    /// ones, exiting 2 on malformed or contradictory values.
    fn from_args(args: &Args, shared: &Shared) -> Self;

    /// Prints the scenario before the run.
    fn describe(&self);

    /// Prints a finished run's measurements.
    fn report(run: &Run<Self::Summary>);

    /// A finished run's sweep-table columns.
    fn columns(run: &Run<Self::Summary>) -> Vec<(String, String)>;
}

fn subcommand<E: Subcommand>(args: &Args) {
    banner("wsc_sim", E::TITLE);
    let shared = Shared::parse(args, true);
    let cfg = E::from_args(args, &shared);
    let ckpt = checkpoint_policy(args);
    let json = Some(args.get("--metrics", String::new())).filter(|p| !p.is_empty());
    let check_invariants = args.flag("--check-invariants");
    reject_unread(args, E::NAME);
    cfg.describe();
    println!("fabric: {}, congestion control: {}", fabric_desc(&shared.fabric), shared.cc.name());
    print_checkpoint(&ckpt);
    // A config the library cannot realise, or a `--restore` file whose
    // contents fail validation (corrupt, truncated, another version or
    // shape), is a command-line error (exit 2); a run that fails
    // (unreachable checkpoint instants, budget exhaustion) exits 1.
    let run = try_run(&cfg, &ckpt).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        let code = match e {
            ExperimentError::ServicePoolTooLarge { .. }
            | ExperimentError::Config(_)
            | ExperimentError::Snapshot(SnapshotError::Decode { .. }) => 2,
            _ => 1,
        };
        std::process::exit(code);
    });
    E::report(&run);
    let tag = format!("{}_{}", E::NAME.replace('-', "_"), fabric_short(&shared.fabric));
    emit_observability(&tag, json.map(PathBuf::from), check_invariants, &run);
}

/// Writes the run's metrics artifacts, prints the conservation audit, and
/// (under `--check-invariants`) exits non-zero on an unbalanced book.
///
/// `tag` is namespaced by subcommand and fabric (e.g.
/// `memcached_fattree`), so scenario variants never clobber each other's
/// default artifacts under `results/`.
fn emit_observability<S>(tag: &str, json: Option<PathBuf>, check_invariants: bool, run: &Run<S>) {
    let (metrics, conservation) = (&run.metrics, &run.conservation);
    // A redirected run keeps every artifact (CSV twin, exec stats) next
    // to the redirected JSON instead of clobbering the defaults under
    // results/.
    let exec_override = json.as_ref().map(|p| {
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("metrics");
        p.with_file_name(format!("{stem}_exec.json"))
    });
    match write_metrics_artifacts(tag, metrics, json) {
        Ok(path) => println!("\nmetrics: {} ({} metrics)", path.display(), metrics.len()),
        Err(e) => eprintln!("warning: failed to write metrics artifacts: {e}"),
    }
    if let Some(exec) = &run.exec {
        // Executor statistics differ between serial and parallel runs by
        // construction, and phase times are host time; keep both out of
        // the comparable model scrape.
        let mut reg = MetricsRegistry::new();
        reg.record("exec", exec);
        for (name, d) in run.phases.named() {
            reg.set_gauge(&format!("host.phase.{name}_s"), d.as_secs_f64());
        }
        if let Err(e) = write_metrics_artifacts(&format!("{tag}_exec"), &reg, exec_override) {
            eprintln!("warning: failed to write executor metrics: {e}");
        }
    }
    if conservation.is_balanced() {
        println!(
            "frame conservation: balanced (nodes tx {} + lost {}, switches tx-to-nodes {}, \
             nic rx {} + ring drops {})",
            conservation.node_tx_frames,
            conservation.node_tx_loss,
            conservation.switch_tx_to_nodes,
            conservation.node_rx_frames,
            conservation.node_rx_ring_drops
        );
    } else {
        eprintln!("frame conservation VIOLATED:");
        for v in &conservation.violations {
            eprintln!("  {v}");
        }
        if check_invariants {
            std::process::exit(1);
        }
    }
}

/// Prints the scheduler's counters after a controlled run.
fn print_control(ctl: Option<&ControlReport>) {
    let Some(ctl) = ctl else { return };
    println!(
        "control plane: heartbeats={} lookups={} suspicions={} (false={}) detections={} \
         rejoins={}",
        ctl.heartbeats,
        ctl.lookups,
        ctl.suspicions,
        ctl.false_positive_suspicions,
        ctl.detections,
        ctl.rejoins
    );
    println!(
        "  failovers={} scale_ups={} scale_downs={} commands sent={} retried={} acked={} \
         dropped={} stalls={}",
        ctl.failovers,
        ctl.scale_ups,
        ctl.scale_downs,
        ctl.commands_sent,
        ctl.commands_retried,
        ctl.commands_acked,
        ctl.commands_dropped,
        ctl.placement_stalls
    );
    for (id, desired, ready) in &ctl.replicas {
        println!("  service {id}: desired={desired} ready={ready}");
    }
    if !ctl.replacement_latency.is_empty() {
        println!(
            "  replacement latency: n={} p50={:.1}us max={:.1}us",
            ctl.replacement_latency.count(),
            ctl.replacement_latency.quantile(0.5) as f64 / 1e3,
            ctl.replacement_latency.quantile(1.0) as f64 / 1e3
        );
    }
}

/// Prints the open-loop offered/violation/shed summary after a run.
fn print_slo(offered: u64, slo: &SloStats) {
    if offered == 0 && slo.is_empty() {
        return;
    }
    let target = slo.target.map_or("none".to_string(), |t| t.to_string());
    println!(
        "open loop: offered={offered} completed={} shed={} slo_target={target} \
         violations={} ({:.1}%)",
        slo.completed,
        slo.shed,
        slo.violations,
        slo.violation_fraction() * 100.0
    );
}

/// Prints the clients' failure/recovery report when anything failed.
fn print_failures<S>(run: &Run<S>) {
    let f = &run.failure;
    if f.failed > 0 {
        println!(
            "client failures: failed={} retried={} reconnects={} recovered={} gave_up={} \
             crash_lost={} recovery_time={}ns",
            f.failed,
            f.retried,
            f.reconnects,
            f.recovered,
            f.gave_up,
            f.crash_lost,
            f.recovery_time.as_nanos()
        );
    }
}

/// `--deadline MS` as a request deadline (absent or 0: none).
fn request_deadline(args: &Args) -> Option<SimDuration> {
    let ms: u64 = args.get("--deadline", 0);
    (ms > 0).then(|| SimDuration::from_millis(ms))
}

/// Formats a latency quantile in microseconds for a sweep cell (`-` when
/// the histogram is empty).
fn q_us(h: &Histogram, q: f64) -> String {
    if h.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", h.quantile(q) as f64 / 1e3)
    }
}

impl Subcommand for McExperimentConfig {
    const NAME: &'static str = "memcached";
    const TITLE: &'static str = "memcached at scale";

    fn from_args(args: &Args, shared: &Shared) -> Self {
        let mut cfg = McExperimentConfig::mini(
            positive("--racks", args.get("--racks", 16)),
            positive("--requests", args.get("--requests", 150)),
        );
        cfg.servers_per_rack = positive("--spr", args.get("--spr", cfg.servers_per_rack));
        cfg.mc_per_rack = positive("--mc-per-rack", args.get("--mc-per-rack", cfg.mc_per_rack));
        cfg.workers = positive("--workers", args.get("--workers", cfg.workers));
        let mut cfg = with_shared!(cfg, shared);
        cfg.request_deadline = request_deadline(args);
        cfg.proto = match args.get("--proto", "udp".to_string()).as_str() {
            "tcp" => Proto::Tcp,
            "udp" => Proto::Udp,
            _ => usage(),
        };
        cfg.version = match args.get("--version", "1.4.17".to_string()).as_str() {
            "1.4.15" => McVersion::V1_4_15,
            "1.4.17" => McVersion::V1_4_17,
            _ => usage(),
        };
        cfg.window = positive("--window", args.get("--window", cfg.window));
        if cfg.arrival.is_some() && cfg.proto != Proto::Udp {
            reject("--arrival requires --proto udp (open-loop memcached is UDP-only)");
        }
        if let Some(ctl) = &cfg.control {
            if cfg.arrival.is_none() {
                reject(
                    "--control-plane memcached requires --arrival (clients discover \
                     endpoints through the registry, which the open-loop client implements)",
                );
            }
            if cfg.mc_per_rack + ctl.spares_per_rack >= cfg.servers_per_rack {
                reject(format!(
                    "--mc-per-rack {} + --spares {} leaves no client slots at --spr {}",
                    cfg.mc_per_rack, ctl.spares_per_rack, cfg.servers_per_rack
                ));
            }
        }
        cfg
    }

    fn describe(&self) {
        println!(
            "{} nodes ({} racks x {}), {} memcached servers, {:?}, kernel {}, memcached {}, {}",
            self.nodes(),
            self.racks,
            self.servers_per_rack,
            self.racks * self.mc_per_rack,
            self.proto,
            self.kernel.name,
            self.version.as_str(),
            if self.ten_gig { "10 Gbps" } else { "1 Gbps" },
        );
    }

    fn report(run: &Run<Self::Summary>) {
        let s = &run.summary;
        println!(
            "\n{} requests in {} simulated ({} events, {:.2}s wall: {})",
            s.latency.count(),
            s.completed_at,
            run.events,
            run.wall.as_secs_f64(),
            run.phases
        );
        println!("served={} udp_retries={} failures={}", s.served, s.udp_retries, s.failures);
        print_control(s.control.as_ref());
        print_slo(s.offered, &run.slo);
        if s.timed_out > 0 {
            println!("timed_out={} (expired unanswered; window slots reclaimed)", s.timed_out);
        }
        print_failures(run);
        for (name, v) in percentiles_us(&s.latency) {
            println!("  {name:>6}: {v:>12.1} us");
        }
        let labels = ["local", "1-hop", "2-hop"];
        for (label, h) in labels.iter().zip(&s.by_class) {
            if !h.is_empty() {
                println!(
                    "  {label:>6}: n={:<8} p50={:.1}us p99={:.1}us",
                    h.count(),
                    h.quantile(0.5) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3
                );
            }
        }
    }

    fn columns(run: &Run<Self::Summary>) -> Vec<(String, String)> {
        let s = &run.summary;
        vec![
            ("served".into(), s.served.to_string()),
            ("p50_us".into(), q_us(&s.latency, 0.5)),
            ("p99_us".into(), q_us(&s.latency, 0.99)),
            ("sim_time".into(), s.completed_at.to_string()),
            ("events".into(), run.events.to_string()),
        ]
    }
}

impl Subcommand for IncastConfig {
    const NAME: &'static str = "incast";
    const TITLE: &'static str = "TCP incast";

    fn from_args(args: &Args, shared: &Shared) -> Self {
        let client = match args.get("--client", "pthread".to_string()).as_str() {
            "pthread" => IncastClientKind::Pthread,
            "epoll" => IncastClientKind::Epoll,
            _ => usage(),
        };
        let mut cfg = IncastConfig::fig6a(positive("--servers", args.get("--servers", 8)));
        cfg.iterations = positive("--iterations", args.get("--iterations", 10));
        cfg.block_bytes = positive("--block", args.get("--block", 256 * 1024));
        cfg.client = client;
        cfg.cpu = Frequency::ghz(positive("--ghz", args.get("--ghz", 4)));
        // Same --racks under serial and --parallel N is the same model, so
        // the two runs' metric scrapes must compare byte-identical.
        cfg.racks = positive("--racks", args.get("--racks", cfg.racks));
        let mut cfg = with_shared!(cfg, shared);
        cfg.request_deadline = request_deadline(args);
        if cfg.arrival.is_some() && cfg.client != IncastClientKind::Epoll {
            reject("--arrival requires --client epoll (the pthread client is closed-loop)");
        }
        // Buffer depth is the axis the incast literature sweeps, so it gets a
        // first-class knob; 0 keeps the workload's shallow default.
        let buffer_bytes: u32 = args.get("--buffer", 0);
        if buffer_bytes > 0 {
            cfg.switch = Some(SwitchTemplate {
                buffer: diablo_net::switch::BufferConfig::PerPort { bytes_per_port: buffer_bytes },
                ..SwitchTemplate::gbe_shallow()
            });
        }
        cfg
    }

    fn describe(&self) {
        println!(
            "{} servers, {} iterations, {} B blocks, {:?} client, {} CPU, {}",
            self.servers,
            self.iterations,
            self.block_bytes,
            self.client,
            self.cpu,
            if self.ten_gig { "10 Gbps" } else { "1 Gbps" },
        );
    }

    fn report(run: &Run<Self::Summary>) {
        let s = &run.summary;
        println!(
            "\ngoodput {:.1} Mbps over {} iterations ({} switch drops, {} events, {:.2}s wall: {})",
            s.goodput_mbps,
            s.iteration_times.len(),
            s.switch_drops,
            run.events,
            run.wall.as_secs_f64(),
            run.phases
        );
        print_control(s.control.as_ref());
        print_slo(s.offered, &run.slo);
        for (i, d) in s.iteration_times.iter().enumerate() {
            println!("  iteration {:>2}: {d}", i + 1);
        }
        print_failures(run);
    }

    fn columns(run: &Run<Self::Summary>) -> Vec<(String, String)> {
        vec![
            ("goodput_mbps".into(), format!("{:.1}", run.summary.goodput_mbps)),
            ("switch_drops".into(), run.summary.switch_drops.to_string()),
            ("events".into(), run.events.to_string()),
        ]
    }
}

impl Subcommand for PaExperimentConfig {
    const NAME: &'static str = "partition-aggregate";
    const TITLE: &'static str = "partition-aggregate search tier";

    fn from_args(args: &Args, shared: &Shared) -> Self {
        let mut cfg = PaExperimentConfig::new(
            positive("--racks", args.get("--racks", 4)),
            positive("--queries", args.get("--queries", 100)),
        );
        cfg.servers_per_rack = positive("--spr", args.get("--spr", cfg.servers_per_rack));
        cfg.deadline =
            SimDuration::from_micros(positive("--deadline-us", args.get("--deadline-us", 1_000)));
        cfg.query_bytes = positive("--query-bytes", args.get("--query-bytes", cfg.query_bytes));
        cfg.answer_bytes = positive("--answer-bytes", args.get("--answer-bytes", cfg.answer_bytes));
        cfg.cross_rack = args.flag("--cross-rack");
        let cfg = with_shared!(cfg, shared);
        if cfg.control.is_some() && !cfg.cross_rack {
            reject(
                "--control-plane partition-aggregate requires --cross-rack \
                 (one shared leaf pool for the registry to index)",
            );
        }
        cfg
    }

    fn describe(&self) {
        println!(
            "{} racks x {} servers: {} front-ends fanning {} over {} leaves each, \
             {} queries under a {} deadline, {}",
            self.racks,
            self.servers_per_rack,
            self.racks,
            if self.cross_rack { "cluster-wide" } else { "rack-local" },
            self.fanout(),
            self.queries,
            self.deadline,
            if self.ten_gig { "10 Gbps" } else { "1 Gbps" },
        );
    }

    fn report(run: &Run<Self::Summary>) {
        let s = &run.summary;
        println!(
            "\n{} queries in {} simulated ({} events, {:.2}s wall: {})",
            s.queries,
            s.completed_at,
            run.events,
            run.wall.as_secs_f64(),
            run.phases
        );
        println!(
            "full_aggregates={} deadline_misses={} missing_answers={} leaf_served={}",
            s.full_aggregates, s.deadline_misses, s.missing_answers, s.served
        );
        print_control(s.control.as_ref());
        print_slo(s.offered, &run.slo);
        if !s.latency.is_empty() {
            println!("full-aggregate latency:");
            for (name, v) in percentiles_us(&s.latency) {
                println!("  {name:>6}: {v:>12.1} us");
            }
        }
    }

    fn columns(run: &Run<Self::Summary>) -> Vec<(String, String)> {
        let s = &run.summary;
        vec![
            ("full_aggregates".into(), s.full_aggregates.to_string()),
            ("deadline_misses".into(), s.deadline_misses.to_string()),
            ("p99_us".into(), q_us(&s.latency, 0.99)),
            ("events".into(), run.events.to_string()),
        ]
    }
}

// ====================================================================
// The sweep subcommand
// ====================================================================

/// One sweep leg's config from its argument vector (the spec's fixed
/// flags, plus the point's axis cells), or the flag the scenario does
/// not take.
fn sweep_cfg<E: Subcommand>(raw: Vec<String>) -> Result<E, String> {
    let args = Args::from_vec(raw);
    let cfg = E::from_args(&args, &Shared::parse(&args, false));
    match args.unread() {
        Some(flag) => Err(format!("sweep scenario {} does not take {flag}", E::NAME)),
        None => Ok(cfg),
    }
}

/// The sweep engine's bridge into a scenario: the warm prefix runs with
/// the spec's fixed flags only, and each point adds its axis cells and
/// restores the shared checkpoint.
struct WscRunner<'a, E> {
    spec: &'a SweepSpec,
    scenario: PhantomData<fn() -> E>,
}

impl<E: Subcommand> SweepRunner for WscRunner<'_, E> {
    fn warm(&self, at: SimDuration, path: &Path) -> Result<(), String> {
        let cfg: E = sweep_cfg(self.spec.warm_args())?;
        warm(&cfg, path, SimTime::ZERO + at).map_err(|e| e.to_string())
    }

    fn run_point(
        &self,
        point: &SweepPoint,
        warm: Option<&Path>,
    ) -> Result<Vec<(String, String)>, String> {
        let cfg: E = sweep_cfg(self.spec.point_args(point))?;
        let ckpt = CheckpointPolicy { save: None, restore_from: warm.map(Path::to_path_buf) };
        try_run(&cfg, &ckpt).map(|run| E::columns(&run)).map_err(|e| e.to_string())
    }
}

fn sweep(args: &Args) {
    banner("wsc_sim", "parameter sweep");
    let spec_path = args.get("--spec", String::new());
    if spec_path.is_empty() {
        reject("sweep requires --spec <file>");
    }
    let text = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| reject(format!("cannot read sweep spec {spec_path}: {e}")));
    let spec = SweepSpec::parse(&text).unwrap_or_else(|e| reject(format!("{spec_path}: {e}")));
    match spec.scenario.as_str() {
        "memcached" => sweep_grid::<McExperimentConfig>(args, &spec),
        "incast" => sweep_grid::<IncastConfig>(args, &spec),
        "partition-aggregate" => sweep_grid::<PaExperimentConfig>(args, &spec),
        other => reject(format!(
            "{spec_path}: unknown sweep scenario `{other}` \
             (expected memcached|incast|partition-aggregate)"
        )),
    }
}

fn sweep_grid<E: Subcommand>(args: &Args, spec: &SweepSpec) {
    let dir = results_dir();
    let scenario_file = spec.scenario.replace('-', "_");
    let pick = |flag: &str, default: PathBuf| -> PathBuf {
        Some(args.get(flag, String::new())).filter(|p| !p.is_empty()).map_or(default, PathBuf::from)
    };
    let progress = pick("--progress", dir.join(format!("sweep_{scenario_file}.progress")));
    // The warm snapshot default is keyed by the spec digest: editing the
    // spec (different fixed flags, different warm instant) must re-warm,
    // not silently reuse a checkpoint of a different prefix.
    let warm_path = pick(
        "--warm-checkpoint",
        dir.join(format!("sweep_{scenario_file}_{:016x}_warm.snap", spec.digest())),
    );
    let out_path = pick("--out", dir.join(format!("sweep_{scenario_file}.tsv")));
    let jobs = args.flag("--jobs").then(|| positive("--jobs", args.get("--jobs", 0)));
    reject_unread(args, "sweep");

    // Every leg's flags are checked before anything runs, so a flag the
    // scenario does not take (or a malformed value) fails the whole
    // sweep up front instead of one point at a time.
    let points = spec.points();
    let legs = std::iter::once(spec.warm_args()).chain(points.iter().map(|p| spec.point_args(p)));
    for raw in legs {
        if let Err(e) = sweep_cfg::<E>(raw) {
            reject(e);
        }
    }
    println!(
        "{} scenario, {} axes, {} points{}",
        spec.scenario,
        spec.axes.len(),
        points.len(),
        spec.warm.map_or(String::new(), |w| format!(", shared warm checkpoint at {w}"))
    );

    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let runner = WscRunner::<E> { spec, scenario: PhantomData };
    let mut engine =
        SweepEngine::new(spec, &runner).progress_file(progress.clone()).warm_checkpoint(warm_path);
    if let Some(jobs) = jobs {
        engine = engine.jobs(jobs);
    }
    let started = std::time::Instant::now();
    let outcome = engine.run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        let code = match e {
            SweepError::Parse { .. } | SweepError::Invalid(_) => 2,
            _ => 1,
        };
        std::process::exit(code);
    });

    println!();
    print!("{}", outcome.table.render());
    if let Err(e) = std::fs::write(&out_path, outcome.table.to_tsv()) {
        eprintln!("warning: failed to write sweep table {}: {e}", out_path.display());
    }
    println!(
        "\nsweep table: {} ({} points: {} ran, {} resumed, {} failed; {:.2}s wall)",
        out_path.display(),
        points.len(),
        outcome.ran,
        outcome.resumed,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    println!("progress: {} (delete to re-run from scratch)", progress.display());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
