//! Figure 6(a): TCP Incast goodput collapse on a 1 Gbps shallow-buffer
//! switch — the full-stack simulator vs the ns2-like network-only
//! baseline vs the analytical fluid model.
//!
//! Paper shape to reproduce: goodput near ~800-900 Mbps at tiny fan-in,
//! sharp collapse within the first handful of servers (faster than the
//! shared-buffer hardware's), and a modest recovery trend at high fan-in.
//!
//! Defaults are scaled down (5 iterations, a coarse server sweep); use
//! `--iterations 40 --fine` for the paper's parameters.

use diablo_baseline::analytic::incast_goodput_analytic;
use diablo_baseline::run_baseline_incast;
use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, IncastConfig};
use diablo_net::link::LinkParams;
use diablo_net::switch::SwitchConfig;

fn main() {
    let args = Args::parse();
    banner("Figure 6(a)", "TCP Incast goodput, 1 Gbps shallow-buffer switch");
    let iterations: u64 = args.get("--iterations", 5);
    let block: u32 = args.get("--block", 256 * 1024);
    let servers: Vec<usize> = if args.flag("--fine") {
        (1..=24).collect()
    } else {
        vec![1, 2, 3, 4, 6, 8, 12, 16, 20, 24]
    };

    let mut t =
        Table::new(vec!["servers", "diablo_mbps", "ns2like_mbps", "analytic_mbps", "diablo_drops"]);
    for &n in &servers {
        let mut cfg = IncastConfig::fig6a(n);
        cfg.iterations = iterations;
        cfg.block_bytes = block;
        let diablo = run(&cfg);

        let sw = SwitchConfig::shallow_gbe("tor", (n + 2) as u16);
        let ns2 = run_baseline_incast(n, iterations, block as u64, sw, LinkParams::gbe(500));

        let analytic =
            incast_goodput_analytic(1e9, block as f64, 4096.0, n, 10.0 * 1460.0, 0.2, 200e-6) / 1e6;

        t.row(vec![
            n.to_string(),
            fmt_f(diablo.summary.goodput_mbps, 1),
            fmt_f(ns2, 1),
            fmt_f(analytic, 1),
            diablo.summary.switch_drops.to_string(),
        ]);
        println!(
            "n={n:>2}  diablo={:>7.1} Mbps  ns2like={:>7.1} Mbps  analytic={:>7.1} Mbps",
            diablo.summary.goodput_mbps, ns2, analytic
        );
    }
    println!();
    print!("{t}");
    println!("\npaper shape: ~800 Mbps pre-collapse, collapse by ~4-8 servers, mild recovery");
    let path = results_dir().join("fig06a_incast_1g.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
