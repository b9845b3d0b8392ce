//! Figure 13(a–f): TCP vs UDP client latency CDFs at three scales on both
//! interconnects.
//!
//! Paper shape to reproduce: on 1 Gbps, UDP clearly wins at the smallest
//! scale, the gap closes at the middle scale, and TCP wins at the largest
//! — the small-scale conclusion is *reversed* by scale. On 10 Gbps the
//! protocols differ much less.

use diablo_bench::{banner, mc_config_from_args, results_dir, Args};
use diablo_core::report::{tail_cdf_us, Table};
use diablo_core::run;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Figure 13", "TCP vs UDP latency CDFs across scale and interconnect");
    let requests: u64 = args.get("--requests", 150);
    // One, two and four arrays — the paper's 500/1000/2000-node family.
    let scales: Vec<usize> = vec![16, 32, 64];

    let mut csv = Table::new(vec!["panel", "proto", "latency_us", "cum_frac"]);
    let mut summary = Table::new(vec!["panel", "udp_p99_us", "tcp_p99_us", "winner"]);
    for ten_gig in [false, true] {
        for &racks in &scales {
            let panel = format!("{}racks-{}", racks, if ten_gig { "10G" } else { "1G" });
            let mut p99s = Vec::new();
            for proto in [Proto::Udp, Proto::Tcp] {
                let mut cfg = mc_config_from_args(&args, racks, requests);
                cfg.racks = racks;
                cfg.proto = proto;
                cfg.ten_gig = ten_gig;
                let r = run(&cfg).summary;
                let p99 = r.latency.quantile(0.99) as f64 / 1e3;
                p99s.push(p99);
                let label = if proto == Proto::Udp { "UDP" } else { "TCP" };
                for (us, q) in tail_cdf_us(&r.latency, 0.97) {
                    csv.row(vec![
                        panel.clone(),
                        label.into(),
                        format!("{us:.1}"),
                        format!("{q:.5}"),
                    ]);
                }
            }
            let winner = if p99s[0] < p99s[1] { "UDP" } else { "TCP" };
            println!(
                "{panel:>14}: UDP p99={:>10.1}us  TCP p99={:>10.1}us  -> {winner}",
                p99s[0], p99s[1]
            );
            summary.row(vec![
                panel,
                format!("{:.1}", p99s[0]),
                format!("{:.1}", p99s[1]),
                winner.into(),
            ]);
        }
    }
    println!();
    print!("{summary}");
    println!(
        "\npaper shape: 1G small scale favours UDP, largest favours TCP (conclusion \
         reverses with scale); 10G shows little difference"
    );
    let path = results_dir().join("fig13_tcp_vs_udp.csv");
    csv.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
