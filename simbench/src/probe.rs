//! Measurement from outside the program: a `Workload` wrapper that
//! timestamps the harness's calls into the workload, in-memory spans
//! written out as Chrome trace-event JSON, and the process's resident
//! memory as Linux reports it.

use crate::workloads::{AppOutcome, BoxedWorkload};
use diablo_apps::arrival::SloStats;
use diablo_apps::failure::FailureStats;
use diablo_core::{Cluster, SimHost, Workload};
use diablo_engine::prelude::SimTime;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One completion poll: when the harness asked, and what the executor
/// had done by then.
#[derive(Debug, Clone, Copy)]
pub struct Poll {
    /// Host time the poll started.
    pub start: Instant,
    /// Host time the poll returned.
    pub end: Instant,
    /// Simulated time at the poll.
    pub sim_now: SimTime,
    /// Events the executor had dispatched by the poll.
    pub events: u64,
}

/// Host-time stamps at the boundaries the harness crosses when it calls
/// into the workload.
#[derive(Debug, Clone, Default)]
pub struct Stamps {
    /// `Workload::build` entered: cluster instantiation is over.
    pub build_start: Option<Instant>,
    /// `Workload::build` returned: the next thing the harness does is run
    /// the first simulated event.
    pub build_end: Option<Instant>,
    /// Every `Workload::is_done` poll, in order. The last one returned
    /// `true` (unless the budget ran out).
    pub polls: Vec<Poll>,
    /// `Workload::summarize` entered and returned.
    pub summarize: Option<(Instant, Instant)>,
    /// Resident memory when `build` was entered and when it returned, in
    /// bytes (traced runs only).
    pub build_rss: Option<(u64, u64)>,
}

/// Wraps a replica workload and records [`Stamps`] as the harness drives
/// it. Delegates every call unchanged, so the simulation is the same with
/// or without the wrapper.
pub struct Probed {
    inner: BoxedWorkload,
    traced: bool,
    // `is_done` and `summarize` take `&self`.
    stamps: RefCell<Stamps>,
}

impl Probed {
    /// Wraps `inner`; a traced probe also samples resident memory around
    /// the build.
    pub fn new(inner: BoxedWorkload, traced: bool) -> Self {
        Probed { inner, traced, stamps: RefCell::new(Stamps::default()) }
    }

    /// The stamps recorded by the run.
    pub fn into_stamps(self) -> Stamps {
        self.stamps.into_inner()
    }
}

impl Workload for Probed {
    type Summary = AppOutcome;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn budget(&self) -> SimTime {
        self.inner.budget()
    }

    fn initial_horizon(&self) -> SimTime {
        self.inner.initial_horizon()
    }

    fn build(&mut self, host: &mut SimHost, cluster: &Cluster) {
        let rss_before = self.traced.then(current_rss_bytes);
        let start = Instant::now();
        self.inner.build(host, cluster);
        let stamps = self.stamps.get_mut();
        stamps.build_start = Some(start);
        stamps.build_end = Some(Instant::now());
        if let Some(before) = rss_before {
            stamps.build_rss = Some((before, current_rss_bytes()));
        }
    }

    fn is_done(&self, host: &SimHost, cluster: &Cluster) -> bool {
        let start = Instant::now();
        let done = self.inner.is_done(host, cluster);
        self.stamps.borrow_mut().polls.push(Poll {
            start,
            end: Instant::now(),
            sim_now: host.now(),
            events: host.events_processed(),
        });
        done
    }

    fn summarize(&self, host: &SimHost, cluster: &Cluster) -> AppOutcome {
        let start = Instant::now();
        let out = self.inner.summarize(host, cluster);
        self.stamps.borrow_mut().summarize = Some((start, Instant::now()));
        out
    }

    fn failure_stats(&self, host: &SimHost, cluster: &Cluster) -> FailureStats {
        self.inner.failure_stats(host, cluster)
    }

    fn slo_stats(&self, host: &SimHost, cluster: &Cluster) -> SloStats {
        self.inner.slo_stats(host, cluster)
    }
}

/// One timed interval: a layer boundary the benchmark crossed.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the trace.
    pub id: u64,
    /// The enclosing span (`None` for a run's root).
    pub parent: Option<u64>,
    /// The run the span belongs to; spans of one run share it.
    pub run: u64,
    /// `layer.phase` name, e.g. `apps.build`.
    pub name: String,
    /// Start, in microseconds since the trace's epoch.
    pub start_us: f64,
    /// End, in microseconds since the trace's epoch.
    pub end_us: f64,
}

/// Spans kept in memory until the benchmark ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: u64,
    /// Every span recorded, in recording order.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { epoch: Instant::now(), next_id: 1, spans: Vec::new() }
    }
}

impl Trace {
    /// Records the interval `[start, end]` and returns its span id.
    pub fn span(
        &mut self,
        run: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            run,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    /// The spans as Chrome trace-event JSON ("X" complete events), which
    /// Perfetto and `chrome://tracing` open. Each run is its own track;
    /// `metadata` lands in the file's `otherData`.
    pub fn to_chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let cat = s.name.split('.').next().unwrap_or("bench");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}{sep}",
                json_escape(&s.name),
                json_escape(cat),
                s.run,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.id,
                parent,
                s.run,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs a fixed CPU and memory kernel that shares no code with the
/// simulator and returns its host time in seconds.
///
/// Shared virtual machines change speed by tens of percent over minutes
/// as other tenants load the host. Timed around each simulator run, the
/// kernel tracks that drift: on a 2-vCPU KVM guest (Xeon), over six
/// minutes in which `mc_rack_udp` runs drifted from 1.3 s to 1.9 s,
/// 20-second medians of the kernel's time correlated 0.9 with those of
/// the run time. Dividing one by the other removes most of the drift,
/// while a change to the simulator moves only the run time. The kernel
/// mimics a discrete-event simulator's work: a binary heap of pending
/// timestamps and scattered updates to a 4 MB table.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut heap = std::collections::BinaryHeap::with_capacity(1 << 16);
    let mut table = vec![0u64; 1 << 19];
    let mut acc = 0u64;
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 20));
        if heap.len() > 50_000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        let j = (x as usize) & (table.len() - 1);
        table[j] = table[j].wrapping_add(i ^ acc);
    }
    std::hint::black_box((acc, &table));
    start.elapsed().as_secs_f64()
}

/// A `VmRSS`/`VmHWM`-style field of `/proc/self/status`, in bytes (0
/// where the field is unavailable).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Resident memory now, in bytes.
pub fn current_rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Peak resident memory since the last [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Hands the allocator's free memory back to the kernel, so the next
/// run's resident memory starts from what is live, as in a fresh process,
/// rather than from heap pages an earlier run freed but glibc kept.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only
        // returns unused pages of the allocator's own heap, and locks the
        // arenas it walks, so it is sound to call at any point.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_bytes`] is the peak of what runs after this call rather than
/// a high-water mark an earlier run left behind.
///
/// # Errors
///
/// When the kernel does not offer `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
