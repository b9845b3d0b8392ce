//! Figure 12: client latency tail with +0/+50/+100 ns of extra
//! port-to-port latency at every switch level (10 Gbps fabric).
//!
//! Paper shape to reproduce: the extra latency does not change the shape
//! of the tail, shifts the 99th percentile moderately, and barely taxes
//! non-tail requests.

use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::{tail_cdf_us, Table};
use diablo_core::run;
use diablo_engine::time::SimDuration;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 12", "Latency tail vs extra switch latency (+0/+50/+100 ns)");
    let mut base = mc_config_from_args(&args, 32, 400);
    base.proto = Proto::Udp;
    base.ten_gig = true;

    let mut csv = Table::new(vec!["extra_ns", "latency_us", "cum_frac"]);
    let mut summary = Table::new(vec!["extra_ns", "p50_us", "p99_us", "p99.9_us"]);
    for extra_ns in [0u64, 50, 100] {
        let mut cfg = base.clone();
        cfg.extra_switch_latency = SimDuration::from_nanos(extra_ns);
        let r = run(&cfg).summary;
        summary.row(vec![
            extra_ns.to_string(),
            format!("{:.1}", r.latency.quantile(0.50) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.99) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.999) as f64 / 1e3),
        ]);
        println!(
            "+{extra_ns:>3}ns: p50={:>8.1}us p99={:>9.1}us p99.9={:>10.1}us",
            r.latency.quantile(0.50) as f64 / 1e3,
            r.latency.quantile(0.99) as f64 / 1e3,
            r.latency.quantile(0.999) as f64 / 1e3
        );
        for (us, q) in tail_cdf_us(&r.latency, 0.96) {
            csv.row(vec![extra_ns.to_string(), format!("{us:.1}"), format!("{q:.5}")]);
        }
    }
    println!();
    print!("{summary}");
    println!("\npaper shape: tail shape unchanged; p99 rises moderately; non-tail untaxed");
    let path = results_dir().join("fig12_switch_latency.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
