//! Figure 15: impact of the memcached release (1.4.15 vs 1.4.17, i.e.
//! `accept` + `fcntl` vs `accept4`) on client latency, at a small and a
//! large scale, over TCP (where connection setup matters).
//!
//! Paper shape to reproduce: nearly indistinguishable at the small scale;
//! the newer version's tail advantage becomes apparent at the large scale.

use diablo_apps::memcached::McVersion;
use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::{tail_cdf_us, Table};
use diablo_core::run;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 15", "memcached 1.4.15 vs 1.4.17 at two scales (TCP)");
    let requests: u64 = args.get("--requests", 300);
    let (small, large) = if args.flag("--full") { (16, 64) } else { (4, 16) };

    let mut csv = Table::new(vec!["scale", "version", "latency_us", "cum_frac"]);
    let mut summary = Table::new(vec!["racks", "version", "p50_us", "p99_us"]);
    for racks in [small, large] {
        let mut p99s = Vec::new();
        for version in [McVersion::V1_4_15, McVersion::V1_4_17] {
            let mut cfg = mc_config_from_args(&args, racks, requests);
            cfg.racks = racks;
            cfg.proto = Proto::Tcp;
            cfg.version = version;
            // Connection churn keeps the accept path on the measurement
            // path (clients re-open a connection every 5 requests).
            cfg.reconnect_every = Some(args.get("--reconnect-every", 5));
            let r = run(&cfg).summary;
            let p99 = r.latency.quantile(0.99) as f64 / 1e3;
            p99s.push(p99);
            summary.row(vec![
                racks.to_string(),
                version.as_str().into(),
                format!("{:.1}", r.latency.quantile(0.50) as f64 / 1e3),
                format!("{p99:.1}"),
            ]);
            println!(
                "racks={racks:>3} memcached {:>7}: p50={:>8.1}us p99={:>9.1}us",
                version.as_str(),
                r.latency.quantile(0.50) as f64 / 1e3,
                p99
            );
            for (us, q) in tail_cdf_us(&r.latency, 0.97) {
                csv.row(vec![
                    racks.to_string(),
                    version.as_str().into(),
                    format!("{us:.1}"),
                    format!("{q:.5}"),
                ]);
            }
        }
        println!(
            "  -> p99 delta at {racks} racks: {:.1}us (1.4.15 minus 1.4.17)",
            p99s[0] - p99s[1]
        );
    }
    println!();
    print!("{summary}");
    println!("\npaper shape: negligible delta at small scale; clear 1.4.17 advantage at scale");
    let path = results_dir().join("fig15_memcached_version.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
