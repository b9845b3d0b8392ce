//! Every metric `BENCHMARK.json` names is printed with its unit, on tiny
//! shapes of every workload, and each run's peak memory is its own.

use diablo_simbench::bench::{measure, run_once};
use diablo_simbench::result_json;
use diablo_simbench::workloads::WorkloadName;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn every_declared_metric_is_reported_with_its_unit_on_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WorkloadName::ALL {
        // A non-default seed: the golden digests belong to the full shapes.
        let m = measure(w, &w.tiny(5), 5, 0.0, true);
        assert!(m.correct(), "{}: {:?}", w.as_str(), m.problems);
        for (traced, wanted) in [(false, &end_to_end), (true, &per_layer)] {
            let line = result_json(std::slice::from_ref(&m), traced);
            for (name, unit) in wanted {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&entry).unwrap_or_else(|| {
                    panic!("{} trace={traced}: {name} missing from {line}", w.as_str())
                });
                let tail = &line[at..];
                let close = tail.find('}').expect("entry closes");
                assert!(
                    tail[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{} trace={traced}: {name} lacks unit {unit}",
                    w.as_str()
                );
            }
            let count = line.matches("\"unit\"").count();
            assert_eq!(count, wanted.len(), "{}: undeclared metrics in {line}", w.as_str());
        }
        assert!(m.trace.spans.iter().any(|s| s.name == "apps.build"), "no build span");
        assert!(m.trace.spans.iter().any(|s| s.name == "core.snapshot_load"), "no snapshot span");
    }
}

#[test]
fn peak_rss_is_per_run_not_a_leftover_high_water_mark() {
    let big = run_once(&WorkloadName::McPaperScale.tiny(5), false).expect("big run");
    let small = run_once(&WorkloadName::IncastTcp.tiny(5), false).expect("small run");
    assert!(
        small.peak_rss_mb < big.peak_rss_mb * 0.7,
        "a small run after a large one reported {} MB against the large run's {} MB",
        small.peak_rss_mb,
        big.peak_rss_mb
    );
}
