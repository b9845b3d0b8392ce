//! Figure 8: single-rack memcached validation — (a) server throughput and
//! (b) mean client latency as the number of clients grows, for 4 and 8
//! worker threads.
//!
//! Paper shape to reproduce: throughput rises with client count and then
//! saturates; latency stays low and linear with few clients, then grows as
//! the server saturates.

use diablo_bench::{banner, results_dir, Args};
use diablo_core::report::{fmt_f, Table};
use diablo_core::{run, McExperimentConfig};
use diablo_stack::process::Proto;

fn run_point(clients: usize, workers: usize, requests: u64, seed: u64) -> (f64, f64) {
    let mut cfg = McExperimentConfig::mini(1, requests);
    cfg.servers_per_rack = clients + 1;
    cfg.mc_per_rack = 1;
    cfg.workers = workers;
    cfg.proto = Proto::Tcp;
    cfg.seed = seed;
    // Heavier per-request service cost so saturation appears within the
    // paper's 1..14-client sweep (~15 us of application logic at 4 GHz).
    cfg.request_work = 60_000;
    let r = run(&cfg).summary;
    let ops_per_sec = r.served as f64 / r.completed_at.as_secs_f64().max(1e-9);
    let mean_us = r.latency.mean() / 1_000.0;
    (ops_per_sec, mean_us)
}

fn main() {
    let args = Args::parse();
    banner("Figure 8", "Single-rack memcached: throughput and latency vs clients");
    let requests: u64 = args.get("--requests", 150);
    let max_clients: usize = args.get("--clients", 14);
    let seed: u64 = args.get("--seed", 7);

    let mut t = Table::new(vec!["clients", "tput_4w_ops", "lat_4w_us", "tput_8w_ops", "lat_8w_us"]);
    for clients in (1..=max_clients).step_by(if max_clients > 8 { 2 } else { 1 }) {
        let (t4, l4) = run_point(clients, 4, requests, seed);
        let (t8, l8) = run_point(clients, 8, requests, seed);
        t.row(vec![clients.to_string(), fmt_f(t4, 0), fmt_f(l4, 1), fmt_f(t8, 0), fmt_f(l8, 1)]);
        println!(
            "clients={clients:>2}  4w: {t4:>9.0} ops/s {l4:>8.1} us   8w: {t8:>9.0} ops/s {l8:>8.1} us"
        );
    }
    println!();
    print!("{t}");
    println!("\npaper shape: throughput saturates with clients; latency linear then explodes");
    let path = results_dir().join("fig08_memcached_rack.csv");
    t.write_csv(&path).expect("write csv");
    println!("csv: {}", path.display());
}
