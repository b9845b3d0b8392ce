//! Guard on the cost of *building* a paper-scale memcached run.
//!
//! Every memcached client draws keys from the same Zipf table over the
//! ETC keyspace. Built once per client, 928 copies of that 800 KB table
//! made the build phase most of a paper-scale run's wall time and most
//! of its memory. This test keeps both bounded. It is the only test in
//! its binary, so the process's peak RSS (`VmHWM`) is its runs' alone;
//! each run frees the shared table, so three runs peak as high as one.

use diablo::core::{run, McExperimentConfig};
use diablo_bench::peak_rss_mb;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn paper_scale_memcached_builds_cheaply() {
    // 32 racks x 31 servers: 64 memcached servers and 928 clients.
    let cfg = McExperimentConfig::paper(32, 1);
    // The build phase takes a few milliseconds of a ~0.1 s run, so one
    // preemption inside it could push a single sample past the bound;
    // the share check takes the least of three runs.
    let mut best: Option<(f64, String)> = None;
    for _ in 0..3 {
        let r = run(&cfg);
        let digest = fnv1a(r.metrics.to_json().bytes());
        assert_eq!(digest, 0xa5b4_3b64_07c1_e9ef, "scrape digest {digest:016x} moved");

        let phases: std::time::Duration = r.phases.named().iter().map(|&(_, d)| d).sum();
        assert!(phases <= r.wall, "phases {phases:?} overrun the {:?} wall", r.wall);
        let share = r.phases.build.as_secs_f64() / r.wall.as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| share < *b) {
            best = Some((share, format!("{:.3}s wall: {}", r.wall.as_secs_f64(), r.phases)));
        }
    }
    let (share, run) = best.expect("three runs");
    assert!(share < 0.25, "build phase is {:.0}% of the best run ({run})", 100.0 * share);

    if cfg!(target_os = "linux") {
        let peak = peak_rss_mb().expect("VmHWM in /proc/self/status");
        assert!(peak < 400.0, "peak RSS {peak:.0} MB over three runs");
    }
}
