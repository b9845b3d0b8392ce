//! One benchmark invocation: the serial reference run, the timed runs,
//! the output check on every run, and (when traced) the per-layer spans
//! and the snapshot measurement.

use crate::layers::LayerCounts;
use crate::probe::{
    calibrate, peak_rss_bytes, release_free_memory, reset_peak_rss, Probed, Stamps, Trace,
};
use crate::workloads::{AppOutcome, Scenario, WorkloadName, DEFAULT_SEED};
use diablo_core::{Cluster, ExperimentHarness, RunMode};
use diablo_engine::metrics::MetricsRegistry;
use diablo_engine::prelude::{ExecReport, SimTime, SnapReader, SnapWriter};
use std::time::Instant;

/// Scrape digests at [`DEFAULT_SEED`], one `workload hex-digest` line per
/// workload.
const GOLDEN: &str = include_str!("../golden.txt");

/// Calibration-kernel time on the reference host. End-to-end host times
/// are reported as they would read on a host running the kernel this
/// fast; see [`calibrate`].
const REFERENCE_CALIBRATION_S: f64 = 0.040;

/// Timed runs measured even when `--seconds` runs out first, so every
/// median has at least this many samples.
const MIN_RUNS: usize = 3;

/// Scrapes timed on the finished cluster of a traced invocation.
const SCRAPE_REPEATS: usize = 5;

/// The recorded golden digest of `workload`, if any.
pub fn golden_digest(workload: WorkloadName) -> Option<u64> {
    GOLDEN.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == workload.as_str()).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// 64-bit FNV-1a over the scrape's canonical JSON: the identity of a
/// run's simulated output.
pub fn digest(metrics: &MetricsRegistry) -> u64 {
    metrics
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Everything measured about one harness run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Start of the run to the harness's return.
    pub wall_s: f64,
    /// Start of the run to the start of `Workload::build`
    /// (`Cluster::instantiate`).
    pub instantiate_s: f64,
    /// `Workload::build`: constructing and spawning the guest processes.
    pub build_s: f64,
    /// Start of the run to the first simulated event (instantiate plus
    /// build).
    pub setup_s: f64,
    /// End of build to the end of the final completion poll.
    pub drive_s: f64,
    /// End of the final completion poll to the harness's return: settle,
    /// conservation audit, summary, final scrape and teardown.
    pub tail_s: f64,
    /// Events dispatched by the final completion poll.
    pub drive_events: u64,
    /// Completion polls (one per drive horizon).
    pub horizon_polls: u64,
    /// Simulated time of the final completion poll.
    pub finish_at: SimTime,
    /// Peak resident memory during this run, in MB.
    pub peak_rss_mb: f64,
    /// Resident memory added by `Workload::build`, in MB (traced runs).
    pub build_rss_mb: Option<f64>,
    /// Digest of the final scrape.
    pub digest: u64,
    /// Per-layer work counts from the final scrape.
    pub counts: LayerCounts,
    /// Parallel-executor report (`None` on the serial executor).
    pub exec: Option<ExecReport>,
    /// Application-level outcome.
    pub outcome: AppOutcome,
    /// Output-check failures of this run (empty when it passed).
    pub problems: Vec<String>,
    /// Host-time stamps at the workload boundaries.
    pub stamps: Stamps,
    /// When the run started.
    pub started: Instant,
    /// When the harness returned.
    pub ended: Instant,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Runs `scenario` once through `ExperimentHarness::run` and checks its
/// output: the harness finished within the budget, frame conservation
/// balanced, and every configured operation finished.
///
/// # Errors
///
/// A harness error (budget exhausted, executor failure), as text.
pub fn run_once(scenario: &Scenario, traced: bool) -> Result<RunRecord, String> {
    release_free_memory();
    // Best effort: without clear_refs the peak is the process's
    // high-water mark, which only over-reports.
    let _ = reset_peak_rss();
    let harness = ExperimentHarness::new(scenario.base());
    let mut probe = Probed::new(scenario.workload(), traced);
    let started = Instant::now();
    let result = harness.run(&mut probe);
    let ended = Instant::now();
    let peak = peak_rss_bytes();
    let stamps = probe.into_stamps();
    let (outcome, env) = result.map_err(|e| e.to_string())?;

    let build_start = stamps.build_start.ok_or("the harness never called build")?;
    let build_end = stamps.build_end.ok_or("the harness never called build")?;
    let last = *stamps.polls.last().ok_or("the harness never polled for completion")?;
    let mut problems = Vec::new();
    if !env.conserved() {
        problems.push(format!("frame conservation failed: {:?}", env.conservation.violations));
    }
    if !outcome.all_finished() {
        problems.push(format!(
            "{} of {} operations finished",
            outcome.ops_completed, outcome.ops_expected
        ));
    }
    Ok(RunRecord {
        wall_s: secs(started, ended),
        instantiate_s: secs(started, build_start),
        build_s: secs(build_start, build_end),
        setup_s: secs(started, build_end),
        drive_s: secs(build_end, last.end),
        tail_s: secs(last.end, ended),
        drive_events: last.events,
        horizon_polls: stamps.polls.len() as u64,
        finish_at: last.sim_now,
        peak_rss_mb: peak as f64 / 1e6,
        build_rss_mb: stamps.build_rss.map(|(a, b)| b.saturating_sub(a) as f64 / 1e6),
        digest: digest(&env.metrics),
        counts: LayerCounts::from_scrape(&env.metrics),
        exec: env.exec,
        outcome,
        problems,
        stamps,
        started,
        ended,
    })
}

/// Host-time costs of the snapshot path and of one scrape, measured on
/// the cluster as it stood at the final completion poll.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCost {
    /// Median of [`SCRAPE_REPEATS`] `Cluster::scrape` calls.
    pub scrape_s: f64,
    /// `SimHost::save_state`.
    pub save_s: f64,
    /// `SimHost::load_state` into a freshly built cluster.
    pub load_s: f64,
    /// Size of the saved state.
    pub bytes: u64,
}

/// Rebuilds the scenario, drives it straight to `finish_at`, and times
/// a scrape, a state save and a state load there. The restored cluster
/// must scrape identically to the saved one.
///
/// # Errors
///
/// An executor or snapshot error, or a restored scrape that differs.
pub fn snapshot_cost(
    scenario: &Scenario,
    finish_at: SimTime,
    trace: &mut Trace,
    run: u64,
) -> Result<SnapshotCost, String> {
    let spec = scenario.base().spec();
    let t0 = Instant::now();
    let (mut host, cluster) = Cluster::instantiate(&spec, scenario.mode());
    scenario.workload().build(&mut host, &cluster);
    let t1 = Instant::now();
    host.run_until(finish_at).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let root = trace.span(run, None, "core.snapshot_replay", t0, t2);
    trace.span(run, Some(root), "apps.build", t0, t1);
    trace.span(run, Some(root), "engine.drive", t1, t2);

    let mut scrapes = Vec::with_capacity(SCRAPE_REPEATS);
    let mut saved = MetricsRegistry::new();
    for _ in 0..SCRAPE_REPEATS {
        let s = Instant::now();
        saved = cluster.scrape(&host);
        let e = Instant::now();
        trace.span(run, None, "core.scrape", s, e);
        scrapes.push(secs(s, e));
    }

    let s = Instant::now();
    let mut w = SnapWriter::new();
    host.save_state(&mut w);
    let bytes = w.into_bytes();
    let e = Instant::now();
    trace.span(run, None, "core.snapshot_save", s, e);
    let save_s = secs(s, e);
    drop(host);

    let (mut fresh, fresh_cluster) = Cluster::instantiate(&spec, scenario.mode());
    scenario.workload().build(&mut fresh, &fresh_cluster);
    let s = Instant::now();
    fresh.load_state(&mut SnapReader::new(&bytes)).map_err(|e| e.to_string())?;
    let e = Instant::now();
    trace.span(run, None, "core.snapshot_load", s, e);
    if digest(&fresh_cluster.scrape(&fresh)) != digest(&saved) {
        return Err("restored cluster scrapes differently from the saved one".to_string());
    }
    Ok(SnapshotCost {
        scrape_s: median(&scrapes),
        save_s,
        load_s: secs(s, e),
        bytes: bytes.len() as u64,
    })
}

/// Records one traced run's spans under `run`.
fn record_spans(trace: &mut Trace, run: u64, r: &RunRecord) {
    let st = &r.stamps;
    let (Some(bs), Some(be)) = (st.build_start, st.build_end) else { return };
    let root = trace.span(run, None, "core.run", r.started, r.ended);
    trace.span(run, Some(root), "core.instantiate", r.started, bs);
    trace.span(run, Some(root), "apps.build", bs, be);
    let last_end = st.polls.last().map_or(be, |p| p.end);
    let drive = trace.span(run, Some(root), "engine.drive", be, last_end);
    let mut prev = be;
    for p in &st.polls {
        trace.span(run, Some(drive), "engine.run_until", prev, p.start);
        trace.span(run, Some(drive), "apps.poll", p.start, p.end);
        prev = p.end;
    }
    let tail = trace.span(run, Some(root), "core.settle_scrape", last_end, r.ended);
    if let Some((s, e)) = st.summarize {
        trace.span(run, Some(tail), "apps.summarize", s, e);
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Facts about the host and build that every result record carries.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Executor worker threads the scenario asks for (1 when serial).
    pub workers_requested: usize,
    /// Executor worker threads that actually ran (1 when serial).
    pub workers_effective: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `rustc --version` of the compiler that built it.
    pub rustc: &'static str,
}

impl HostFacts {
    fn new(mode: RunMode, exec: Option<&ExecReport>) -> Self {
        let requested = match mode {
            RunMode::Serial => 1,
            RunMode::Parallel { workers, partitions, .. } => workers.unwrap_or(partitions),
        };
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers_requested: exec.map_or(requested, |e| e.workers_requested),
            workers_effective: exec.map_or(1, |e| e.workers.len()),
            profile: env!("SIMBENCH_PROFILE"),
            rustc: env!("SIMBENCH_RUSTC_VERSION"),
        }
    }

    /// The facts as `(key, value)` pairs.
    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("workers_requested", self.workers_requested.to_string()),
            ("workers_effective", self.workers_effective.to_string()),
            ("profile", self.profile.to_string()),
            ("rustc", self.rustc.to_string()),
        ]
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct Measurement {
    /// The workload measured.
    pub workload: WorkloadName,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Harness runs made, the serial reference included.
    pub attempted: u64,
    /// Runs that failed the output check.
    pub failed: u64,
    /// Every output-check failure, for the report.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced runs), host times in reference-host
    /// seconds.
    pub end_to_end: Vec<Metric>,
    /// The same host times as measured on this host, with the median
    /// calibration time that relates the two.
    pub host_time: Vec<Metric>,
    /// Calibration-kernel times: two at the start and two after each
    /// round of runs.
    pub calibration: Vec<f64>,
    /// Per-layer metrics (traced invocations only).
    pub per_layer: Vec<Metric>,
    /// Host facts.
    pub host: HostFacts,
    /// The spans of the traced runs.
    pub trace: Trace,
    /// Digest every run of this seed produced.
    pub digest: Option<u64>,
    /// Timed untraced runs.
    pub runs: Vec<RunRecord>,
}

impl Measurement {
    /// `true` when every run passed the output check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Tallies runs and their check failures for one invocation.
struct Checker {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    expected: Option<u64>,
}

impl Checker {
    /// Counts one run. A run passes when it finished, passed
    /// [`run_once`]'s checks, and scraped the digest every other run of
    /// the invocation scraped.
    fn check(&mut self, what: &str, r: Result<RunRecord, String>) -> Option<RunRecord> {
        self.attempted += 1;
        let mut problems = match &r {
            Err(e) => vec![e.clone()],
            Ok(rec) => rec.problems.clone(),
        };
        if let Ok(rec) = &r {
            match self.expected {
                None => self.expected = Some(rec.digest),
                Some(d) if d != rec.digest => problems.push(format!(
                    "scrape digest {:016x} differs from the invocation's {d:016x}",
                    rec.digest
                )),
                Some(_) => {}
            }
        }
        if problems.is_empty() {
            r.ok()
        } else {
            self.failed += 1;
            self.problems.extend(problems.into_iter().map(|p| format!("{what} run: {p}")));
            None
        }
    }
}

/// Runs one invocation of `workload`: check runs, then timed runs until
/// `seconds` have passed (and at least [`MIN_RUNS`]), alternating with
/// traced runs when `traced`.
pub fn measure(
    workload: WorkloadName,
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Measurement {
    let mut chk = Checker { attempted: 0, failed: 0, problems: Vec::new(), expected: None };
    // The golden applies only to the default seed; every other check runs
    // under any seed.
    if seed == DEFAULT_SEED {
        chk.expected = golden_digest(workload);
        if chk.expected.is_none() {
            chk.problems.push(format!("no golden digest recorded for {}", workload.as_str()));
            chk.failed += 1;
        }
    }
    // The determinism contract: a partition-parallel run scrapes exactly
    // what the serial executor scrapes.
    if scenario.mode() != RunMode::Serial {
        chk.check("serial reference", run_once(&scenario.with_mode(RunMode::Serial), false));
    }

    let mut trace = Trace::default();
    let mut runs = Vec::new();
    let mut traced_runs = Vec::new();
    // Each timed run is scaled by the calibration kernel's speed around
    // it: the mean of the samples in the two gaps before it and the two
    // after it (two samples per gap, between consecutive rounds).
    let mut calibration = vec![calibrate(), calibrate()];
    let mut before = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_RUNS || secs(start, Instant::now()) < seconds {
        rounds += 1;
        let at = calibration.len() - 2;
        let timed = chk.check("timed", run_once(scenario, false));
        if traced {
            if let Some(r) = chk.check("traced", run_once(scenario, true)) {
                record_spans(&mut trace, traced_runs.len() as u64 + 1, &r);
                traced_runs.push(r);
            }
        }
        calibration.extend([calibrate(), calibrate()]);
        if let Some(r) = timed {
            runs.push(r);
            before.push(at);
        }
    }
    let slowdowns: Vec<f64> = before
        .iter()
        .map(|&at| {
            let around = &calibration[at.saturating_sub(2)..(at + 6).min(calibration.len())];
            around.iter().sum::<f64>() / around.len() as f64 / REFERENCE_CALIBRATION_S
        })
        .collect();

    let reference = runs.last();
    let host = HostFacts::new(scenario.mode(), reference.and_then(|r| r.exec.as_ref()));
    let col = |rs: &[RunRecord], f: &dyn Fn(&RunRecord) -> f64| {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    // Host time in reference-host seconds: a run's slowdown is > 1 when
    // this host ran the calibration kernel slower than the reference host.
    let scaled = |f: &dyn Fn(&RunRecord) -> f64, exponent: i32| {
        let v: Vec<f64> =
            runs.iter().zip(&slowdowns).map(|(r, s)| f(r) * s.powi(exponent)).collect();
        median(&v)
    };
    let rate = |r: &RunRecord| r.drive_events as f64 / r.drive_s.max(1e-9);
    let end_to_end = vec![
        metric("wall_s", "s", scaled(&|r| r.wall_s, -1)),
        metric("setup_s", "s", scaled(&|r| r.setup_s, -1)),
        metric("drive_events_per_s", "events/s", scaled(&rate, 1)),
        metric("peak_rss_mb", "MB", col(&runs, &|r| r.peak_rss_mb)),
    ];
    let host_time = vec![
        metric("host.wall_s", "s", col(&runs, &|r| r.wall_s)),
        metric("host.setup_s", "s", col(&runs, &|r| r.setup_s)),
        metric("host.drive_events_per_s", "events/s", col(&runs, &rate)),
        metric("host.calibration_s", "s", median(&calibration)),
    ];

    let mut per_layer = Vec::new();
    if traced {
        let snap_run = traced_runs.len() as u64 + 1;
        let snap = reference.map(|r| snapshot_cost(scenario, r.finish_at, &mut trace, snap_run));
        let snap = match snap {
            Some(Ok(s)) => Some(s),
            Some(Err(e)) => {
                chk.failed += 1;
                chk.problems.push(format!("snapshot: {e}"));
                None
            }
            None => None,
        };
        per_layer = layer_metrics(reference, &host, &traced_runs, snap);
        per_layer.push(metric(
            "trace.overhead_s",
            "s",
            col(&traced_runs, &|r| r.wall_s) - col(&runs, &|r| r.wall_s),
        ));
    }

    Measurement {
        workload,
        seed,
        attempted: chk.attempted,
        failed: chk.failed,
        problems: chk.problems,
        end_to_end,
        host_time,
        calibration,
        per_layer,
        host,
        trace,
        digest: chk.expected,
        runs,
    }
}

/// The per-layer table: host-time spans as medians over the traced runs,
/// work counts from the reference run's scrape and executor report.
fn layer_metrics(
    reference: Option<&RunRecord>,
    host: &HostFacts,
    traced: &[RunRecord],
    snap: Option<SnapshotCost>,
) -> Vec<Metric> {
    let scrape_s = snap.map_or(0.0, |s| s.scrape_s);
    let col = |f: &dyn Fn(&RunRecord) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let c = reference.map(|r| r.counts).unwrap_or_default();
    let o = reference.map(|r| r.outcome).unwrap_or_default();
    let exec = reference.and_then(|r| r.exec.clone()).unwrap_or_default();
    let n = |v: u64| v as f64;
    // The serial executor has no rounds, lanes or batches: those read 0.
    let per = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    vec![
        metric("host.nproc", "count", n(host.nproc as u64)),
        metric("core.instantiate_s", "s", col(&|r| r.instantiate_s)),
        metric("apps.build_s", "s", col(&|r| r.build_s)),
        metric("apps.build_rss_mb", "MB", col(&|r| r.build_rss_mb.unwrap_or(0.0))),
        metric("engine.drive_s", "s", col(&|r| r.drive_s)),
        metric("engine.events", "count", n(reference.map_or(0, |r| r.drive_events))),
        metric("engine.horizon_polls", "count", n(reference.map_or(0, |r| r.horizon_polls))),
        metric("engine.rounds", "count", n(exec.rounds())),
        metric("engine.events_per_round", "events/round", per(exec.events(), exec.rounds())),
        metric(
            "engine.barrier_wait_s",
            "s",
            col(&|r| r.exec.as_ref().map_or(0.0, |e| e.barrier_wait_ns() as f64 / 1e9)),
        ),
        metric("engine.lane_events", "count", n(exec.lane_events())),
        metric(
            "engine.events_per_batch",
            "events/batch",
            per(exec.events(), exec.dispatch_batches()),
        ),
        metric("engine.workers", "count", n(host.workers_effective as u64)),
        metric("engine.workers_requested", "count", n(host.workers_requested as u64)),
        // A difference of two host times: near zero, and then as likely
        // negative as positive, when the cluster is already quiescent.
        metric("core.settle_s", "s", col(&|r| r.tail_s) - scrape_s),
        metric("core.scrape_s", "s", scrape_s),
        metric("core.scrape_metrics", "count", n(c.scrape_metrics)),
        metric("core.snapshot_save_s", "s", snap.map_or(0.0, |s| s.save_s)),
        metric("core.snapshot_load_s", "s", snap.map_or(0.0, |s| s.load_s)),
        metric("core.snapshot_bytes", "bytes", n(snap.map_or(0, |s| s.bytes))),
        metric("stack.syscalls", "count", n(c.syscalls)),
        metric("stack.context_switches", "count", n(c.context_switches)),
        metric("stack.softirq_runs", "count", n(c.softirq_runs)),
        metric("stack.udp_rcv_drops", "count", n(c.udp_rcv_drops)),
        metric("stack.tcp_segs_out", "count", n(c.tcp_segs_out)),
        metric("stack.tcp_retransmits", "count", n(c.tcp_retransmits)),
        metric("stack.tcp_rtos", "count", n(c.tcp_rtos)),
        metric("nic.tx_frames", "count", n(c.nic_tx_frames)),
        metric("nic.rx_frames", "count", n(c.nic_rx_frames)),
        metric("nic.interrupts", "count", n(c.nic_interrupts)),
        metric("nic.rx_ring_drops", "count", n(c.nic_rx_ring_drops)),
        metric("net.switch_tx_frames", "count", n(c.switch_tx_frames)),
        metric("net.switch_drops_buffer", "count", n(c.switch_drops_buffer)),
        metric("net.max_buffered_bytes", "bytes", n(c.max_buffered_bytes)),
        metric("node.cpu_busy_s", "s", c.cpu_busy_ps as f64 / 1e12),
        metric("apps.ops_completed", "count", n(o.ops_completed)),
        metric("apps.retries", "count", n(o.retries)),
        metric("apps.failures", "count", n(o.failures)),
    ]
}
