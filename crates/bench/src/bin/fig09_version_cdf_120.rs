//! Figure 9: client request latency CDF at ~120 nodes, memcached 1.4.15 vs
//! 1.4.17 (the validation-cluster comparison).
//!
//! Paper shape to reproduce: <0.1% of requests land orders of magnitude
//! past the median, and 1.4.17 has a slightly thinner tail than 1.4.15.

use diablo_apps::memcached::McVersion;
use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{percentiles_us, tail_cdf_us, Table};
use diablo_core::{run, McExperimentConfig};
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 9", "Latency CDF at ~120 nodes: memcached 1.4.15 vs 1.4.17");
    // 8 racks x 15 nodes = 120 nodes, like the paper's validation cluster.
    let requests: u64 = args.get("--requests", 150);
    let racks: usize = args.get("--racks", 8);
    let spr: usize = args.get("--spr", 15);

    let mut t = Table::new(vec!["version", "p50_us", "p99_us", "p99.9_us", "max_us"]);
    let mut cdf_rows = Table::new(vec!["version", "latency_us", "cum_frac"]);
    for version in [McVersion::V1_4_15, McVersion::V1_4_17] {
        let mut cfg = McExperimentConfig::mini(racks, requests);
        cfg.servers_per_rack = spr;
        cfg.mc_per_rack = 2;
        cfg.version = version;
        cfg.proto = Proto::Tcp;
        let r = run(&cfg).summary;
        let p = percentiles_us(&r.latency);
        let get = |n: &str| p.iter().find(|(k, _)| *k == n).map(|(_, v)| *v).unwrap_or(0.0);
        t.row(vec![
            version.as_str().into(),
            format!("{:.1}", get("p50")),
            format!("{:.1}", get("p99")),
            format!("{:.1}", get("p99.9")),
            format!("{:.1}", get("max")),
        ]);
        println!(
            "memcached {}: p50={:.1}us p99={:.1}us p99.9={:.1}us max={:.1}us ({} requests)",
            version.as_str(),
            get("p50"),
            get("p99"),
            get("p99.9"),
            get("max"),
            r.latency.count()
        );
        for (us, q) in tail_cdf_us(&r.latency, 0.98) {
            cdf_rows.row(vec![version.as_str().into(), format!("{us:.1}"), format!("{q:.5}")]);
        }
    }
    println!();
    print!("{t}");
    println!("\npaper shape: long tail visible; 1.4.17 slightly better than 1.4.15");
    let path = results_dir().join("fig09_version_cdf_120.csv");
    cdf_rows.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
