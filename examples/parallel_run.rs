//! Partition-parallel execution: the software analogue of DIABLO's
//! multi-FPGA scaling. Racks map to partitions the way the prototype maps
//! them to Rack FPGAs, synchronized once per round by worker threads each
//! `run_until` call starts and joins — and the results are bit-identical
//! to a serial run.
//!
//! Run with: `cargo run --release --example parallel_run`

use diablo::core::{run, McExperimentConfig, RunMode};
use diablo::stack::process::Proto;

fn main() {
    let mut base = McExperimentConfig::mini(8, 60);
    base.proto = Proto::Udp;

    let mut serial = base.clone();
    serial.mode = RunMode::Serial;
    let s = run(&serial);
    println!(
        "serial:     {:>9} events, {:>7} requests, p99 {:>8.1} us, wall {:.3}s",
        s.events,
        s.summary.latency.count(),
        s.summary.latency.quantile(0.99) as f64 / 1e3,
        s.wall.as_secs_f64()
    );

    // The synchronization quantum is derived from the rack-cut partition
    // plan: the minimum latency any partition-crossing link guarantees
    // (store-and-forward GbE: min-frame serialization + propagation).
    let mut parallel = base;
    parallel.mode = RunMode::parallel(4);
    let p = run(&parallel);
    println!(
        "parallel x4:{:>9} events, {:>7} requests, p99 {:>8.1} us, wall {:.3}s",
        p.events,
        p.summary.latency.count(),
        p.summary.latency.quantile(0.99) as f64 / 1e3,
        p.wall.as_secs_f64()
    );

    assert_eq!(s.events, p.events, "event counts must match");
    assert_eq!(
        s.summary.latency.quantile(0.99),
        p.summary.latency.quantile(0.99),
        "results must match"
    );
    println!("\nserial and parallel runs are bit-identical — deterministic, repeatable");
    println!("experiments are a core DIABLO property (the FPGA prototype has it too).");
}
