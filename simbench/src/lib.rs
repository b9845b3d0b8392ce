//! Host-time benchmark of the DIABLO reproduction.
//!
//! Four closed-loop workloads run one simulation after another through
//! the public [`diablo_core::ExperimentHarness`]. The benchmark times its
//! own calls into the harness and the harness's calls into each workload
//! (instantiate → build → drive → settle and scrape), reads the counts
//! the public API already returns, and checks every run's simulated
//! output. Nothing inside the simulator is instrumented: the spans sit at
//! the boundaries the public API exposes.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload mc_rack_udp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, medians over the untraced runs:
//!
//! - `wall_s`: one full run, from the experiment spec to the final scrape;
//! - `setup_s`: start of the run to the first simulated event (cluster
//!   instantiation plus workload build);
//! - `drive_events_per_s`: events dispatched by the final completion poll,
//!   over the host time from the end of build to that poll;
//! - `peak_rss_mb`: the run's own peak resident memory.
//!
//! The three host-time metrics are in reference-host seconds: the median
//! measured on this host, scaled by how much slower than the reference
//! host this host ran a fixed calibration kernel timed before every run
//! ([`probe::calibrate`]). The table printed above the result line also
//! gives the unscaled medians (`host.*`) and the calibration time.
//! `failed / attempted` is the share of runs whose output check failed.
//! With `--trace 1` the metrics are the per-layer table, and the spans go
//! to a Chrome trace-event file under `--out`.
//!
//! Every run, untraced or traced, starts with the allocator's free memory
//! handed back to the kernel, so each one pays page faults and reports
//! peak memory as a fresh process would.

pub mod bench;
pub mod layers;
pub mod probe;
pub mod workloads;

use bench::{Measurement, Metric};
use probe::json_escape;
use std::fmt::Write as _;

/// A number as JSON: every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot carry) as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(out: &mut String, prefix: &str, metrics: &[Metric], first: &mut bool) {
    for m in metrics {
        let sep = if *first { "" } else { ", " };
        *first = false;
        let _ = write!(
            out,
            "{sep}\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(m.name),
            json_num(m.value),
            json_escape(m.unit)
        );
    }
}

/// The result line: correctness and run counts over every measurement,
/// and the end-to-end (untraced) or per-layer (traced) metrics. Metric
/// names are bare for one workload and `workload.metric` for several.
pub fn result_json(ms: &[Measurement], traced: bool) -> String {
    let attempted: u64 = ms.iter().map(|m| m.attempted).sum();
    let failed: u64 = ms.iter().map(|m| m.failed).sum();
    let correct = !ms.is_empty() && ms.iter().all(Measurement::correct);
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for m in ms {
        let prefix =
            if ms.len() == 1 { String::new() } else { format!("{}.", m.workload.as_str()) };
        let metrics = if traced { &m.per_layer } else { &m.end_to_end };
        metrics_json(&mut out, &prefix, metrics, &mut first);
    }
    out.push_str("}}");
    out
}

/// A human-readable table of one measurement: host facts, the output
/// check, every end-to-end metric (with `failed_frac`), and the per-layer
/// table when traced.
pub fn table(m: &Measurement) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed={} timed_runs={} attempted={} failed={} digest={}",
        m.workload.as_str(),
        m.seed,
        m.runs.len(),
        m.attempted,
        m.failed,
        m.digest.map_or("none".to_string(), |d| format!("{d:016x}")),
    );
    let host: Vec<String> = m.host.pairs().iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(out, "host: {}", host.join(" "));
    for p in &m.problems {
        let _ = writeln!(out, "CHECK FAILED: {p}");
    }
    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    let rows = m.end_to_end.iter().chain(&m.host_time).map(|x| (x.name, x.value, x.unit));
    let rows = rows.chain(std::iter::once(("failed_frac", failed_frac, "fraction")));
    for (name, value, unit) in rows.chain(m.per_layer.iter().map(|x| (x.name, x.value, x.unit))) {
        let _ = writeln!(out, "  {name:<26} {value:>16.6} {unit}");
    }
    out
}

/// The full record of one measurement as JSON: host facts, digest,
/// every metric and the per-run samples behind the medians.
pub fn record_json(m: &Measurement, traced: bool) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {traced}, \"attempted\": {}, \
         \"failed\": {}, \"digest\": \"{}\", \"host\": {{",
        m.workload.as_str(),
        m.seed,
        m.attempted,
        m.failed,
        m.digest.map_or(String::new(), |d| format!("{d:016x}")),
    );
    for (i, (k, v)) in m.host.pairs().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": \"{}\"", json_escape(v));
    }
    out.push_str("}, \"problems\": [");
    for (i, p) in m.problems.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", json_escape(p));
    }
    out.push_str("], \"metrics\": {");
    let mut first = true;
    metrics_json(&mut out, "", &m.end_to_end, &mut first);
    metrics_json(&mut out, "", &m.host_time, &mut first);
    metrics_json(&mut out, "", &m.per_layer, &mut first);
    out.push_str("}, \"calibration_s\": [");
    let cal: Vec<String> = m.calibration.iter().map(|&c| json_num(c)).collect();
    out.push_str(&cal.join(", "));
    out.push_str("], \"runs\": [");
    for (i, r) in m.runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"wall_s\": {}, \"setup_s\": {}, \"drive_s\": {}, \"drive_events\": {}, \
             \"peak_rss_mb\": {}}}",
            json_num(r.wall_s),
            json_num(r.setup_s),
            json_num(r.drive_s),
            r.drive_events,
            json_num(r.peak_rss_mb)
        );
    }
    out.push_str("]}\n");
    out
}
