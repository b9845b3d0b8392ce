//! S5: simulator performance (§5) — wall-clock cost per simulated second,
//! event throughput, and scaling with node count, serial vs
//! partition-parallel.
//!
//! Paper reference points: the FPGA prototype needed ~50 minutes of wall
//! clock per simulated second (a 3,000x slowdown at 4 GHz targets) and
//! showed no performance drop from 500 to 2,000 nodes; an equivalent
//! software simulator would take "almost two weeks" per simulated 10 s.
//! This binary measures what *this* software reproduction achieves.
//!
//! Parallel runs derive their synchronization quantum from the rack-cut
//! partition plan (`RunMode::parallel`), so every partition count is
//! measured with the window its own cut actually supports instead of one
//! hand-picked constant. Each configuration is timed best-of-`--repeat`
//! (results are deterministic; only host noise differs between runs), and
//! every sweep interleaves its configurations round-robin so seconds-scale
//! host-frequency drift hits every configuration alike instead of
//! flattering whichever ran last. Speedups are medians of per-round paired
//! wall ratios (see `median_paired_speedup`), not ratios of the best
//! throughputs, so a noise spike in either executor's samples cannot fake
//! or mask a scaling regression.
//!
//! Two modes:
//!
//! * default — the node-scaling table plus the fixed-size engine sweep
//!   (partitions 1→8 at `--scale-racks`), written to
//!   `results/bench_engine.json` as `"benchmark": "engine_scaling"`.
//! * `--grow` — the paper-scale speedup-vs-workers curve: clusters grown
//!   through `--grow-racks` (default 4,16,32,128 racks of 31 servers —
//!   124 → 3,968 servers, the paper's §5 largest run) at a fixed
//!   `--grow-partitions`, each measured serial and with 1/2/4 pinned
//!   workers. Written as `"benchmark": "engine_grow"`. At each scale the
//!   first interleaved round is a warmup for the speedup pairing (memory
//!   for the scale's working set is faulted in by whichever configuration
//!   runs first); with `--repeat N` the pairing uses the remaining N-1
//!   rounds. `--check-speedup X`
//!   gates the largest scale's best multi-worker speedup (enforced only on
//!   hosts with ≥4 cores — fewer cores cannot express the concurrency the
//!   gate asserts); `--baseline FILE` fails the run if any multi-worker
//!   row regresses events/sec by more than 10% against a committed
//!   `bench_engine.json`.
//!
//! Every parallel row records both the *effective* worker count
//! (`workers`, from the executor's report) and the *requested* one
//! (`workers_requested`), so a silent clamp — more workers asked for than
//! partitions — is visible in the artifact. Rows also carry lane sanity warnings: a
//! multi-partition run that never sent a cross-partition event, or a
//! multi-worker run whose exchange lanes stayed empty, almost certainly
//! isn't measuring what it claims to.
//!
//! Every row also splits its wall time by lifecycle phase (`build_s`,
//! `drive_s`, from `Run::phases`) and reports drive-only throughput
//! (`drive_events_per_sec`) next to the end-to-end `events_per_sec`,
//! plus the run's peak resident memory (`peak_rss_mb`).

use diablo_bench::{banner, best_of, peak_rss_mb, reset_peak_rss, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, McExperimentConfig, Phases, RunMode};
use diablo_engine::prelude::ExecReport;
use diablo_stack::process::Proto;
use std::fmt::Write as _;

struct Measurement {
    events: u64,
    wall_s: f64,
    sim_s: f64,
    exec: Option<ExecReport>,
    phases: Phases,
    peak_rss_mb: f64,
}

impl Measurement {
    /// End to end: every phase of the run, setup and teardown included.
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
    /// Events over the drive phase's host time alone.
    fn drive_events_per_sec(&self) -> f64 {
        self.events as f64 / self.phases.drive.as_secs_f64().max(1e-9)
    }
    /// Simulated seconds advanced per wall-clock second (1/slowdown).
    fn sim_rate(&self) -> f64 {
        self.sim_s / self.wall_s.max(1e-9)
    }
    fn slowdown(&self) -> f64 {
        self.wall_s / self.sim_s.max(1e-9)
    }
}

fn measure(cfg: &McExperimentConfig, repeat: usize) -> Measurement {
    best_of(
        repeat,
        || {
            reset_peak_rss();
            let r = run(cfg);
            Measurement {
                events: r.events,
                wall_s: r.wall.as_secs_f64(),
                sim_s: r.summary.completed_at.as_secs_f64().max(1e-9),
                exec: r.exec,
                phases: r.phases,
                peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
            }
        },
        |m| m.wall_s,
    )
}

/// Lane sanity for a parallel measurement: warning labels (empty when
/// healthy) that go to stderr and into the JSON row.
fn sanity_warnings(m: &Measurement, partitions: usize) -> Vec<&'static str> {
    let Some(exec) = &m.exec else { return Vec::new() };
    let mut w = Vec::new();
    if partitions > 1 && exec.partitions.iter().map(|p| p.sent_cross).sum::<u64>() == 0 {
        w.push("no_cross_partition_events");
    }
    if exec.workers.len() > 1 && exec.lane_events() == 0 {
        w.push("no_cross_worker_lane_events");
    }
    if exec.workers.len() < exec.workers_requested {
        w.push("workers_clamped_below_request");
    }
    w
}

/// Serializes one measurement as a JSON object body (no surrounding
/// braces). Parallel measurements carry the executor's synchronization
/// statistics so the record explains *why* a configuration scales —
/// including the effective vs. requested worker counts.
fn json_fields(m: &Measurement, warnings: &[&str]) -> String {
    let mut s = format!(
        "\"events\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \"sim_rate\": {:.6}, \
         \"build_s\": {:.6}, \"drive_s\": {:.6}, \"drive_events_per_sec\": {:.1}, \
         \"peak_rss_mb\": {:.1}",
        m.events,
        m.wall_s,
        m.events_per_sec(),
        m.sim_rate(),
        m.phases.build.as_secs_f64(),
        m.phases.drive.as_secs_f64(),
        m.drive_events_per_sec(),
        m.peak_rss_mb
    );
    if let Some(exec) = &m.exec {
        write!(
            s,
            ", \"lookahead_ps\": {}, \"workers\": {}, \"workers_requested\": {}, \
             \"rounds\": {}, \"events_per_round\": {:.1}, \"barrier_wait_ms\": {:.3}, \
             \"lane_events\": {}",
            exec.lookahead_ps,
            exec.workers.len(),
            exec.workers_requested,
            exec.rounds(),
            exec.events_per_round(),
            exec.barrier_wait_ns() as f64 / 1e6,
            exec.lane_events()
        )
        .unwrap();
    }
    if !warnings.is_empty() {
        let list: Vec<String> = warnings.iter().map(|w| format!("\"{w}\"")).collect();
        write!(s, ", \"warnings\": [{}]", list.join(", ")).unwrap();
    }
    s
}

/// The build/drive split, drive-only throughput and peak RSS of a row,
/// for the console.
fn phase_summary(m: &Measurement) -> String {
    format!(
        "build {:.3}s drive {:.3}s ({:.0} drive ev/s) peak {:.0} MB",
        m.phases.build.as_secs_f64(),
        m.phases.drive.as_secs_f64(),
        m.drive_events_per_sec(),
        m.peak_rss_mb
    )
}

/// Median of per-round paired wall ratios serial/other: within one
/// round-robin cycle the host runs every configuration back to back, so
/// the ratio of that cycle cancels whatever speed the host happened to
/// have. Taking a ratio of best-of minima instead would compare walls from
/// *different* host moments, and a rare fast window hitting one slot skews
/// that by several percent.
fn median_paired_speedup(serial_walls: &[f64], other_walls: &[f64]) -> f64 {
    let mut ratios: Vec<f64> =
        serial_walls.iter().zip(other_walls).map(|(s, p)| s / p.max(1e-9)).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Extracts `"key": <number>` from a single JSON line (the emitter writes
/// one row per line, which is what makes this line-oriented reader enough
/// for the baseline regression check — no JSON parser dependency needed).
fn extract_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads every per-row line carrying `racks`/`workers_requested`/
/// `events_per_sec` from a grow-mode `bench_engine.json`, keyed by
/// `(racks, workers_requested)`.
fn read_baseline_rows(text: &str) -> Vec<((u64, u64), f64)> {
    text.lines()
        .filter_map(|line| {
            let racks = extract_num(line, "racks")? as u64;
            let workers_req = extract_num(line, "workers_requested")? as u64;
            let eps = extract_num(line, "events_per_sec")?;
            Some(((racks, workers_req), eps))
        })
        .collect()
}

/// `--grow`: the paper-scale speedup-vs-workers curve. Exits the process
/// on gate or baseline failure.
fn run_grow(args: &Args) {
    let racks_spec: String = args.get("--grow-racks", "4,16,32,128".to_string());
    let racks_list: Vec<usize> = racks_spec
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim().parse().expect("--grow-racks takes a comma-separated list of rack counts")
        })
        .collect();
    let requests: u64 = args.get("--grow-requests", 6);
    let partitions: usize = args.get("--grow-partitions", 4);
    let repeat: usize = args.get("--repeat", 2);
    let check_speedup: f64 = args.get("--check-speedup", 0.0);
    let baseline: Option<String> =
        if args.flag("--baseline") { Some(args.get("--baseline", String::new())) } else { None };
    let cores = host_cores();
    let worker_points: Vec<usize> =
        [1usize, 2, 4].into_iter().filter(|&w| w <= partitions).collect();

    println!(
        "grow mode: racks {racks_list:?} x {partitions} partitions, workers {worker_points:?}, \
         {requests} requests/client, host cores {cores}"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"engine_grow\",").unwrap();
    writeln!(json, "  \"workload\": \"memcached_udp_paper\",").unwrap();
    writeln!(json, "  \"host_cores\": {cores},").unwrap();
    writeln!(json, "  \"partitions\": {partitions},").unwrap();
    writeln!(json, "  \"requests_per_client\": {requests},").unwrap();
    writeln!(json, "  \"scales\": [").unwrap();

    // Speedup of the best multi-worker row at the largest scale, for the
    // gate below.
    let mut gate_speedup = f64::NAN;
    let mut fresh_rows: Vec<((u64, u64), f64)> = Vec::new();

    for (si, &racks) in racks_list.iter().enumerate() {
        let mut base = McExperimentConfig::paper(racks, requests);
        base.proto = Proto::Udp;
        let servers = base.nodes();

        // Interleave serial and every worker point round-robin, rotating
        // the start slot per round (same rationale as the default sweep).
        let modes: Vec<RunMode> = std::iter::once(RunMode::Serial)
            .chain(worker_points.iter().map(|&w| RunMode::parallel_with_workers(partitions, w)))
            .collect();
        let mut best: Vec<Option<Measurement>> = modes.iter().map(|_| None).collect();
        let mut walls: Vec<Vec<f64>> = modes.iter().map(|_| Vec::new()).collect();
        for round in 0..repeat.max(1) {
            // Round 0 is a warmup at this scale: its first run pays the
            // full page-fault cost of the largest allocation the process
            // has seen so far, and rotation places the serial executor in
            // that first slot — pairing round 0's walls would credit the
            // parallel rows with serial's one-time warmup. With repeat >= 2
            // the speedup pairing uses rounds 1.. only; best-of throughput
            // still considers every round (a warmup wall never wins it).
            let timed = round > 0 || repeat <= 1;
            for k in 0..modes.len() {
                let slot = (round + k) % modes.len();
                let mut cfg = base.clone();
                cfg.mode = modes[slot];
                let m = measure(&cfg, 1);
                if timed {
                    walls[slot].push(m.wall_s);
                }
                if best[slot].as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
                    best[slot] = Some(m);
                }
            }
        }
        let mut best = best.into_iter().map(|m| m.expect("measured"));
        let serial = best.next().expect("serial slot");
        println!(
            "racks={racks:>3} servers={servers:>4} serial: {:>12.0} ev/s  {}",
            serial.events_per_sec(),
            phase_summary(&serial)
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"racks\": {racks}, \"servers\": {servers},").unwrap();
        writeln!(json, "      \"serial\": {{ {} }},", json_fields(&serial, &[])).unwrap();
        writeln!(json, "      \"curve\": [").unwrap();
        for (wi, (&w, m)) in worker_points.iter().zip(best).enumerate() {
            let speedup = median_paired_speedup(&walls[0], &walls[wi + 1]);
            let warnings = sanity_warnings(&m, partitions);
            for warn in &warnings {
                eprintln!("warning: racks={racks} workers={w}: {warn}");
            }
            let effective = m.exec.as_ref().map_or(1, |e| e.workers.len());
            println!(
                "racks={racks:>3} servers={servers:>4} par{partitions}xw{w}: {:>12.0} ev/s  \
                 ({speedup:.2}x serial, {effective} effective workers)  {}",
                m.events_per_sec(),
                phase_summary(&m)
            );
            if w > 1 {
                fresh_rows.push(((racks as u64, w as u64), m.events_per_sec()));
                if si + 1 == racks_list.len() && (gate_speedup.is_nan() || speedup > gate_speedup) {
                    gate_speedup = speedup;
                }
            }
            writeln!(
                json,
                "        {{ \"racks\": {racks}, \"servers\": {servers}, \
                 \"partitions\": {partitions}, {}, \"speedup_vs_serial\": {:.3} }}{}",
                json_fields(&m, &warnings),
                speedup,
                if wi + 1 < worker_points.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(json, "      ]").unwrap();
        writeln!(json, "    }}{}", if si + 1 < racks_list.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    let jpath = results_dir().join("bench_engine.json");
    std::fs::create_dir_all(jpath.parent().expect("results dir parent")).expect("mkdir results");
    std::fs::write(&jpath, json).expect("write json");
    println!("json: {}", jpath.display());

    let mut failed = false;
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let base_rows = read_baseline_rows(&text);
                for &(key, fresh_eps) in &fresh_rows {
                    let Some(&(_, base_eps)) = base_rows.iter().find(|(k, _)| *k == key) else {
                        continue;
                    };
                    if fresh_eps < 0.9 * base_eps {
                        eprintln!(
                            "FAIL: racks={} workers_requested={} regressed to {fresh_eps:.0} \
                             ev/s, more than 10% below the baseline {base_eps:.0} ev/s ({path})",
                            key.0, key.1
                        );
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("FAIL: cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if check_speedup > 0.0 {
        if cores >= 4 {
            // NaN (no multi-worker row measured) must fail too.
            if gate_speedup.is_nan() || gate_speedup < check_speedup {
                eprintln!(
                    "FAIL: best multi-worker speedup at the largest scale is \
                     {gate_speedup:.3}, below the required {check_speedup:.3}"
                );
                failed = true;
            }
        } else {
            println!(
                "note: speedup gate ({check_speedup:.2}x) skipped — host has {cores} core(s), \
                 the gate needs >= 4 to express the asserted concurrency"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse();
    banner("S5", "Simulator performance and scaling");
    if args.flag("--grow") {
        run_grow(&args);
        return;
    }
    let requests: u64 = args.get("--requests", 60);
    let threads: usize = args.get("--threads", 4);
    let repeat: usize = args.get("--repeat", 2);
    let check_speedup: f64 = args.get("--check-speedup", 0.0);

    let mut t =
        Table::new(vec!["racks", "nodes", "mode", "events", "events/s", "slowdown (wall/sim)"]);
    for racks in [4usize, 8, 16] {
        let mut cfg = McExperimentConfig::mini(racks, requests);
        cfg.proto = Proto::Udp;
        let nodes = cfg.nodes();

        cfg.mode = RunMode::Serial;
        let m = measure(&cfg, repeat);
        let (sd, eps, ev) = (m.slowdown(), m.events_per_sec(), m.events);
        t.row(vec![
            racks.to_string(),
            nodes.to_string(),
            "serial".into(),
            ev.to_string(),
            fmt_f(eps, 0),
            fmt_f(sd, 2),
        ]);
        println!("racks={racks:>2} nodes={nodes:>4} serial:   {eps:>12.0} ev/s  slowdown={sd:.2}x");

        let mut pcfg = cfg.clone();
        pcfg.mode = RunMode::parallel(threads);
        let m = measure(&pcfg, repeat);
        let (sd, eps, ev) = (m.slowdown(), m.events_per_sec(), m.events);
        t.row(vec![
            racks.to_string(),
            nodes.to_string(),
            format!("parallel x{threads}"),
            ev.to_string(),
            fmt_f(eps, 0),
            fmt_f(sd, 2),
        ]);
        println!("racks={racks:>2} nodes={nodes:>4} parallel: {eps:>12.0} ev/s  slowdown={sd:.2}x");
    }
    println!();
    print!("{t}");
    println!(
        "\npaper reference: FPGA prototype ~3,000x slowdown, flat from 500 to 2,000 nodes; \
         pure software estimated ~250x worse than the FPGA"
    );
    let path = results_dir().join("perf_scaling.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());

    // Engine scaling: fixed workload, partitions swept 1 -> 8, with a
    // serial baseline. Each partition count derives its quantum from its
    // own rack-cut plan. This is the machine-readable record CI and the
    // roadmap's perf tracking consume. The workload is larger than the
    // table sweep's so setup cost stops dominating, and the repeats are
    // interleaved across configurations (see module docs).
    let scale_racks: usize = args.get("--scale-racks", 8);
    let scale_requests: u64 = args.get("--scale-requests", 480);
    let mut base = McExperimentConfig::mini(scale_racks, scale_requests);
    base.proto = Proto::Udp;

    let parts = [1usize, 2, 4, 8];
    let modes: Vec<RunMode> = std::iter::once(RunMode::Serial)
        .chain(parts.iter().map(|&p| RunMode::parallel(p)))
        .collect();
    let mut best: Vec<Option<Measurement>> = modes.iter().map(|_| None).collect();
    let mut walls: Vec<Vec<f64>> = modes.iter().map(|_| Vec::new()).collect();
    for round in 0..repeat.max(1) {
        // Rotate the starting configuration each round: if within-cycle
        // position correlates with host speed (boost decay, cache or
        // allocator state left by the previous run), a fixed order would
        // systematically favor whichever config always ran first.
        for k in 0..modes.len() {
            let slot = (round + k) % modes.len();
            let mut cfg = base.clone();
            cfg.mode = modes[slot];
            let m = measure(&cfg, 1);
            walls[slot].push(m.wall_s);
            if best[slot].as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
                best[slot] = Some(m);
            }
        }
    }
    let mut best = best.into_iter().map(|m| m.expect("measured"));
    let serial = best.next().expect("serial slot");

    println!(
        "\nengine scaling (racks={scale_racks}, requests={scale_requests}, \
         interleaved best of {repeat}, host cores {}):",
        host_cores()
    );
    println!(
        "  serial:        {:>12.0} ev/s  sim-rate={:.3e}",
        serial.events_per_sec(),
        serial.sim_rate()
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"engine_scaling\",").unwrap();
    writeln!(json, "  \"workload\": \"memcached_udp\",").unwrap();
    writeln!(json, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(json, "  \"racks\": {scale_racks},").unwrap();
    writeln!(json, "  \"nodes\": {},", base.nodes()).unwrap();
    writeln!(json, "  \"requests_per_client\": {scale_requests},").unwrap();
    writeln!(json, "  \"quantum\": \"derived from the partition cut (see lookahead_ps)\",")
        .unwrap();
    writeln!(json, "  \"serial\": {{ {} }},", json_fields(&serial, &[])).unwrap();
    writeln!(json, "  \"parallel\": [").unwrap();
    let mut speedup_at_2 = f64::NAN;
    for (i, (&partitions, m)) in parts.iter().zip(best).enumerate() {
        let speedup = median_paired_speedup(&walls[0], &walls[i + 1]);
        if partitions == 2 {
            speedup_at_2 = speedup;
        }
        let warnings = sanity_warnings(&m, partitions);
        for warn in &warnings {
            eprintln!("warning: partitions={partitions}: {warn}");
        }
        let rounds = m.exec.as_ref().map_or(0, |e| e.rounds());
        let effective = m.exec.as_ref().map_or(1, |e| e.workers.len());
        println!(
            "  parallel x{partitions}:   {:>12.0} ev/s  sim-rate={:.3e}  rounds={rounds}  \
             workers={effective}  ({speedup:.2}x serial)",
            m.events_per_sec(),
            m.sim_rate()
        );
        writeln!(
            json,
            "    {{ \"partitions\": {partitions}, {}, \"speedup_vs_serial\": {:.3} }}{}",
            json_fields(&m, &warnings),
            speedup,
            if i + 1 < parts.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    let jpath = results_dir().join("bench_engine.json");
    std::fs::create_dir_all(jpath.parent().expect("results dir parent")).expect("mkdir results");
    std::fs::write(&jpath, json).expect("write json");
    println!("json: {}", jpath.display());

    // NaN (no measurement) must fail the gate too, hence the negated form.
    let gate_ok = speedup_at_2 >= check_speedup;
    if check_speedup > 0.0 && !gate_ok {
        eprintln!(
            "FAIL: speedup_vs_serial at 2 partitions is {speedup_at_2:.3}, \
             below the required {check_speedup:.3}"
        );
        std::process::exit(1);
    }
}
