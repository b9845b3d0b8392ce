//! Ablation: switch buffer architecture (DESIGN.md decision #5) — the
//! per-port-vs-shared organization and the size sweep behind the
//! DIABLO-vs-real-hardware gap in Figure 6(a).

use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, IncastConfig, SwitchTemplate};
use diablo_net::switch::BufferConfig;

fn main() {
    let args = Args::parse();
    banner("Ablation", "Switch buffer organization & size under 8-server incast");
    let servers: usize = args.get("--servers", 8);
    let iterations: u64 = args.get("--iterations", 4);

    let mut t = Table::new(vec!["organization", "bytes", "goodput_mbps", "drops"]);
    for kb in [4u32, 16, 64, 256] {
        for shared in [false, true] {
            let buffer = if shared {
                // A shared pool the size of all ports' dedicated buffers.
                BufferConfig::Shared { total_bytes: kb * 1024 * (servers as u32 + 1) }
            } else {
                BufferConfig::PerPort { bytes_per_port: kb * 1024 }
            };
            let mut cfg = IncastConfig::fig6a(servers);
            cfg.iterations = iterations;
            cfg.switch = Some(SwitchTemplate { buffer, ..SwitchTemplate::gbe_shallow() });
            let r = run(&cfg).summary;
            let org = if shared { "shared pool" } else { "per-port" };
            t.row(vec![
                org.into(),
                format!("{}K", if shared { kb * (servers as u32 + 1) } else { kb }),
                fmt_f(r.goodput_mbps, 1),
                r.switch_drops.to_string(),
            ]);
            println!(
                "{org:>12} {kb:>4}K/port-equiv: {:>8.1} Mbps  ({} drops)",
                r.goodput_mbps, r.switch_drops
            );
        }
    }
    println!();
    print!("{t}");
    println!(
        "\nThe shared pool absorbs the synchronized burst that per-port \
         partitions drop — the organization difference behind DIABLO's \
         faster-than-hardware collapse in Figure 6(a)."
    );
    let path = results_dir().join("ablation_buffers.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
