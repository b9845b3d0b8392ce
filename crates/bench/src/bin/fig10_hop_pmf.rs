//! Figure 10: PMF of client request latency at scale, classified by the
//! number of switch levels traversed (local / 1-hop / 2-hop), for the
//! 1 Gbps and 10 Gbps interconnects, over UDP.
//!
//! Paper shape to reproduce: most requests complete quickly; a small
//! fraction lands orders of magnitude later; more hops mean more variance;
//! 2-hop requests dominate the overall distribution at scale.

use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::Table;
use diablo_core::run;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 10", "Latency PMF by hop count, UDP, 1 vs 10 Gbps");
    // Default: 36 mini-racks over 3 arrays so all three hop classes exist.
    let mut base = mc_config_from_args(&args, 36, 120);
    base.proto = Proto::Udp;

    let labels = ["local", "1-hop", "2-hop"];
    let mut csv = Table::new(vec!["link", "class", "latency_us", "fraction"]);
    for ten_gig in [false, true] {
        let mut cfg = base.clone();
        cfg.ten_gig = ten_gig;
        let r = run(&cfg).summary;
        let link = if ten_gig { "10Gbps" } else { "1Gbps" };
        println!("\n--- {link} interconnect ({} requests) ---", r.latency.count());
        for (class, hist) in r.by_class.iter().enumerate() {
            if hist.is_empty() {
                println!("{:>6}: (no requests)", labels[class]);
                continue;
            }
            println!(
                "{:>6}: n={:<7} p50={:>8.1}us p99={:>9.1}us max={:>10.1}us",
                labels[class],
                hist.count(),
                hist.quantile(0.5) as f64 / 1e3,
                hist.quantile(0.99) as f64 / 1e3,
                hist.max() as f64 / 1e3,
            );
            for (ns, frac) in hist.log_pmf(1_000, 10_000_000_000, 5) {
                if frac > 0.0 {
                    csv.row(vec![
                        link.into(),
                        labels[class].into(),
                        format!("{:.1}", ns as f64 / 1e3),
                        format!("{frac:.6}"),
                    ]);
                }
            }
        }
        let overall = &r.latency;
        println!(
            "overall: n={} p50={:.1}us p99={:.1}us",
            overall.count(),
            overall.quantile(0.5) as f64 / 1e3,
            overall.quantile(0.99) as f64 / 1e3
        );
    }
    println!(
        "\npaper shape: majority <100us; small fraction 100x slower; more hops = more \
         variance; 2-hop dominates the overall PMF"
    );
    let path = results_dir().join("fig10_hop_pmf.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
