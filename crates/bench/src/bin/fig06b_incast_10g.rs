//! Figure 6(b): Incast goodput on the simulated 10 Gbps fabric under four
//! endpoint configurations: {2 GHz, 4 GHz} CPU x {pthread, epoll} client.
//!
//! Paper shape to reproduce: CPU speed and syscall structure dominate —
//! the 2 GHz pthread client cannot even reach 10G line rate before any
//! collapse; epoll delays the onset of collapse; collapsed throughput does
//! not track CPU speed.

use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, IncastClientKind, IncastConfig, SwitchTemplate};
use diablo_net::switch::BufferConfig;

fn main() {
    let args = Args::parse();
    banner("Figure 6(b)", "Incast goodput, 10 Gbps fabric, CPU x client-structure sweep");
    let iterations: u64 = args.get("--iterations", 10);
    // The 10 GbE fabric carries a moderately deeper buffer than the GbE
    // shallow switch (64 KB/port by default): the paper's Figure 6(b)
    // collapse is partial (Gbps-scale), i.e. fast-retransmit-bound, not
    // RTO-bound.
    let buffer_kb: u32 = args.get("--buffer-kb", 256);
    let servers: Vec<usize> =
        if args.flag("--fine") { (1..=23).collect() } else { vec![1, 2, 4, 6, 9, 12, 16, 20, 23] };
    let configs = [
        ("4GHz-pthread", 4, IncastClientKind::Pthread),
        ("4GHz-epoll", 4, IncastClientKind::Epoll),
        ("2GHz-pthread", 2, IncastClientKind::Pthread),
        ("2GHz-epoll", 2, IncastClientKind::Epoll),
    ];

    let mut t =
        Table::new(vec!["servers", "4GHz-pthread", "4GHz-epoll", "2GHz-pthread", "2GHz-epoll"]);
    for &n in &servers {
        let mut row = vec![n.to_string()];
        let mut printed = format!("n={n:>2} ");
        for (name, ghz, kind) in configs {
            let mut cfg = IncastConfig::fig6b(n, ghz, kind);
            cfg.iterations = iterations;
            let mut sw = SwitchTemplate::ten_gbe_fast();
            sw.buffer = BufferConfig::PerPort { bytes_per_port: buffer_kb * 1024 };
            cfg.switch = Some(sw);
            let r = run(&cfg).summary;
            row.push(fmt_f(r.goodput_mbps, 1));
            printed.push_str(&format!(" {name}={:>8.1}", r.goodput_mbps));
        }
        t.row(row);
        println!("{printed}");
    }
    println!();
    print!("{t}");
    println!(
        "\npaper shape: 2 GHz pthread plateaus ~1.8 Gbps; epoll delays collapse; \
         collapsed goodput decouples from CPU speed"
    );
    let path = results_dir().join("fig06b_incast_10g.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
