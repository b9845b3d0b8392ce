//! Guard on the size of latency histograms in a checkpoint.
//!
//! Each memcached client keeps per-request latency histograms. A dense
//! bucket vector — one slot from bucket 0 up to the largest sample's
//! bucket — spends ~10 KB on a single 100 µs sample and made a paper-shape
//! run's mid-run checkpoint 4.4 MB. Histograms store only occupied
//! buckets, and the checkpoint of the same run is ~0.25 MB; the bound
//! below fails if a dense layout comes back.

use diablo::core::{Cluster, Experiment, McExperimentConfig, Workload};
use diablo::engine::snap::SnapWriter;
use diablo::engine::time::SimTime;

#[test]
fn paper_shape_memcached_checkpoint_stays_small() {
    // 4 racks x 31 servers: 8 memcached servers and 116 clients, 30
    // requests each, checkpointed mid-run at 2 ms.
    let exp = McExperimentConfig::paper(4, 30);
    let base = exp.base();
    let (mut host, cluster) = Cluster::instantiate(&base.spec(), base.mode);
    exp.workload().expect("valid config").build(&mut host, &cluster);
    host.run_until(SimTime::from_millis(2)).expect("drive to the checkpoint instant");
    let mut w = SnapWriter::new();
    host.save_state(&mut w);
    let bytes = w.len();
    assert!(bytes < 1_000_000, "checkpoint payload is {bytes} bytes, over the 1 MB bound");
}
