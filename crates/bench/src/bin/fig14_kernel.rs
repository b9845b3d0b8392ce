//! Figure 14: impact of the guest kernel version (Linux 2.6.39.3 vs
//! 3.5.7) on client latency at scale (10 Gbps interconnect).
//!
//! Paper shape to reproduce: the newer kernel roughly halves average
//! request latency and thins the tail.

use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::{tail_cdf_us, Table};
use diablo_core::run;
use diablo_stack::process::Proto;
use diablo_stack::profile::KernelProfile;

fn main() {
    let args = Args::parse();
    banner("Figure 14", "Kernel version impact at scale (10 Gbps)");
    let mut base = mc_config_from_args(&args, 32, 120);
    base.proto = Proto::Udp;
    base.ten_gig = true;

    let mut csv = Table::new(vec!["kernel", "latency_us", "cum_frac"]);
    let mut summary = Table::new(vec!["kernel", "p50_us", "mean_us", "p95_us", "p99_us"]);
    let mut medians = Vec::new();
    for kernel in [KernelProfile::linux_2_6_39(), KernelProfile::linux_3_5_7()] {
        let name = kernel.name;
        let mut cfg = base.clone();
        cfg.kernel = kernel;
        let r = run(&cfg).summary;
        let mean_us = r.latency.mean() / 1e3;
        let p50_us = r.latency.quantile(0.5) as f64 / 1e3;
        medians.push(p50_us);
        summary.row(vec![
            name.into(),
            format!("{p50_us:.1}"),
            format!("{mean_us:.1}"),
            format!("{:.1}", r.latency.quantile(0.95) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.99) as f64 / 1e3),
        ]);
        println!(
            "{name:>15}: p50={p50_us:>7.1}us mean={mean_us:>8.1}us p95={:>8.1}us p99={:>9.1}us",
            r.latency.quantile(0.95) as f64 / 1e3,
            r.latency.quantile(0.99) as f64 / 1e3
        );
        for (us, q) in tail_cdf_us(&r.latency, 0.95) {
            csv.row(vec![name.into(), format!("{us:.1}"), format!("{q:.5}")]);
        }
    }
    println!();
    print!("{summary}");
    println!(
        "\nmeasured median ratio old/new = {:.2} (paper: ~2x average improvement on 3.5.7; \
         here the far tail is retry-dominated and identical, so the median carries the effect)",
        medians[0] / medians[1]
    );
    let path = results_dir().join("fig14_kernel.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
