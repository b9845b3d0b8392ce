//! Figure 11: 95th–100th percentile latency CDF at three system scales on
//! the 1 Gbps interconnect running UDP.
//!
//! Paper shape to reproduce: the tail worsens with scale — the
//! 99th-percentile latency of the largest system is an order of magnitude
//! beyond the smallest's.

use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::{tail_cdf_us, Table};
use diablo_core::run;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 11", "95th-100th pct latency CDF vs scale (1 Gbps, UDP)");
    // The paper's 500/1000/2000-node family is one, two and four arrays
    // (16/32/64 racks); scaled-down racks keep exactly that array
    // structure, which is what drives the tail growth.
    let scales: Vec<usize> = vec![16, 32, 64];
    let requests: u64 = args.get("--requests", 150);

    let mut csv = Table::new(vec!["racks", "nodes", "latency_us", "cum_frac"]);
    let mut summary = Table::new(vec!["racks", "nodes", "p95_us", "p99_us", "p99.9_us"]);
    for racks in scales {
        let mut cfg = mc_config_from_args(&args, racks, requests);
        cfg.racks = racks;
        cfg.proto = Proto::Udp;
        let r = run(&cfg).summary;
        let nodes = cfg.nodes();
        summary.row(vec![
            racks.to_string(),
            nodes.to_string(),
            format!("{:.1}", r.latency.quantile(0.95) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.99) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.999) as f64 / 1e3),
        ]);
        println!(
            "racks={racks:>3} nodes={nodes:>5}: p95={:>9.1}us p99={:>10.1}us p99.9={:>11.1}us",
            r.latency.quantile(0.95) as f64 / 1e3,
            r.latency.quantile(0.99) as f64 / 1e3,
            r.latency.quantile(0.999) as f64 / 1e3
        );
        for (us, q) in tail_cdf_us(&r.latency, 0.95) {
            csv.row(vec![
                racks.to_string(),
                nodes.to_string(),
                format!("{us:.1}"),
                format!("{q:.5}"),
            ]);
        }
    }
    println!();
    print!("{summary}");
    println!("\npaper shape: p99 of the largest scale >= an order of magnitude above the smallest");
    let path = results_dir().join("fig11_scale_tail.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
