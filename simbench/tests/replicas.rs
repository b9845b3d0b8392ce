//! The benchmark's replicas must simulate exactly what the library's own
//! runners simulate, so a rework of the harness cannot leave the benchmark
//! measuring a different model.

use diablo_core::{try_run_incast, try_run_memcached, try_run_partition_aggregate};
use diablo_simbench::bench::{digest, run_once};
use diablo_simbench::workloads::{Scenario, WorkloadName};

fn library_digest(scenario: &Scenario) -> u64 {
    let metrics = match scenario {
        Scenario::Memcached(c) => try_run_memcached(c).expect("library memcached run").metrics,
        Scenario::Incast(c) => try_run_incast(c).expect("library incast run").metrics,
        Scenario::PartitionAggregate(c) => {
            try_run_partition_aggregate(c).expect("library partition-aggregate run").metrics
        }
    };
    digest(&metrics)
}

#[test]
fn every_replica_scrapes_byte_identically_to_the_library_runner() {
    for w in WorkloadName::ALL {
        for seed in [3, 11] {
            let scenario = w.tiny(seed);
            let replica = run_once(&scenario, false).expect("replica run");
            assert!(replica.problems.is_empty(), "{}: {:?}", w.as_str(), replica.problems);
            assert_eq!(
                replica.digest,
                library_digest(&scenario),
                "{} seed {seed}: replica scrape differs from the library's",
                w.as_str()
            );
        }
    }
}

#[test]
fn seeds_change_the_simulated_inputs() {
    let digests: Vec<u64> = [3, 11]
        .iter()
        .map(|&s| run_once(&WorkloadName::McRackUdp.tiny(s), false).expect("run").digest)
        .collect();
    assert_ne!(digests[0], digests[1], "the seed must reach the workload's inputs");
}
