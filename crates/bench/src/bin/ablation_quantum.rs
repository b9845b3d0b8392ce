//! Ablation: partition-parallel execution — partitions and synchronization
//! quantum vs wall-clock time, with results asserted identical to serial
//! (DESIGN.md decision #4, mirroring DIABLO's multi-FPGA synchronization).

use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, McExperimentConfig, RunMode};
use diablo_engine::time::SimDuration;
use diablo_stack::process::Proto;

fn main() {
    let args = Args::parse();
    banner("Ablation", "Parallel partitions & quantum vs wall-clock (results identical)");
    let racks: usize = args.get("--racks", 8);
    let requests: u64 = args.get("--requests", 60);

    let mut base = McExperimentConfig::mini(racks, requests);
    base.proto = Proto::Udp;

    let serial = {
        let mut cfg = base.clone();
        cfg.mode = RunMode::Serial;
        run(&cfg)
    };
    println!(
        "serial: {} events, wall {:.3}s, p99 {:.1}us",
        serial.events,
        serial.wall.as_secs_f64(),
        serial.summary.latency.quantile(0.99) as f64 / 1e3
    );

    let mut t = Table::new(vec!["mode", "quantum_ns", "events", "wall_s", "identical"]);
    t.row(vec![
        "serial".into(),
        "-".into(),
        serial.events.to_string(),
        fmt_f(serial.wall.as_secs_f64(), 3),
        "-".into(),
    ]);
    // Explicit undersized quanta: legal (any quantum at or below the cut's
    // lookahead is safe) but slower, which is exactly what this ablation
    // shows. `RunMode::parallel` would derive the full lookahead instead.
    for partitions in [2usize, 4] {
        for quantum_ns in [100u64, 250, 500] {
            let mut cfg = base.clone();
            cfg.mode = RunMode::Parallel {
                partitions,
                quantum: Some(SimDuration::from_nanos(quantum_ns)),
                workers: None,
            };
            let r = run(&cfg);
            let identical = r.events == serial.events
                && r.summary.latency.quantile(0.99) == serial.summary.latency.quantile(0.99)
                && r.summary.served == serial.summary.served;
            assert!(identical, "parallel run diverged from serial!");
            t.row(vec![
                format!("parallel x{partitions}"),
                quantum_ns.to_string(),
                r.events.to_string(),
                fmt_f(r.wall.as_secs_f64(), 3),
                "yes".into(),
            ]);
            println!(
                "parallel x{partitions} quantum={quantum_ns}ns: wall {:.3}s (identical: {identical})",
                r.wall.as_secs_f64()
            );
        }
    }
    println!();
    print!("{t}");
    println!(
        "\nSmaller explicit quanta tighten the lookahead horizon and add barrier \
         rounds; the derived quantum (RunMode::parallel) uses the cut's full \
         lookahead. Every configuration produces bit-identical results."
    );
    let path = results_dir().join("ablation_quantum.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
