//! `simbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`: runs the benchmark and prints its result line last.

use diablo_simbench::bench::measure;
use diablo_simbench::workloads::{WorkloadName, DEFAULT_SEED};
use diablo_simbench::{record_json, result_json, table};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<WorkloadName>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid value {value:?} for {flag} (expected {what})");
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    WorkloadName::ALL.to_vec()
                } else {
                    let names: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.as_str()).collect();
                    vec![WorkloadName::parse(&value)
                        .ok_or_else(|| bad(&format!("all, {}", names.join(", "))))?]
                };
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        let m = measure(w, &w.scenario(args.seed), args.seed, args.seconds, args.traced);
        print!("{}", table(&m));
        let stem = format!("{}.seed{}", w.as_str(), args.seed);
        let mut files = vec![(
            format!("{stem}.trace{}.json", u8::from(args.traced)),
            record_json(&m, args.traced),
        )];
        if args.traced {
            let mut meta = m.host.pairs();
            meta.push(("workload", w.as_str().to_string()));
            meta.push(("seed", args.seed.to_string()));
            files.push((format!("{stem}.chrome-trace.json"), m.trace.to_chrome_json(&meta)));
        }
        for (name, body) in files {
            let path = args.out.join(name);
            match std::fs::write(&path, body) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        results.push(m);
    }
    println!("{}", result_json(&results, args.traced));
    ExitCode::SUCCESS
}
