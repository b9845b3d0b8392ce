//! Corrupt snapshots fail loudly. A warmed checkpoint of a tiny memcached
//! run is mutated — single-bit flips spread over the header, the drive
//! state, the executor payload and the checksum trailer, plus
//! truncations — and every mutated file must be refused by the restore
//! path with a structured snapshot error, never restored into a run that
//! quietly differs from the one that was saved.

use diablo::core::snapshot::{DriveState, SnapshotError};
use diablo::core::{try_run, warm, CheckpointPolicy, ExperimentError, McExperimentConfig};
use diablo::engine::snap::{Snap, SnapError, SnapWriter};
use diablo::engine::time::SimTime;
use std::path::{Path, PathBuf};

/// Magic (8 bytes), version (`u32`) and fingerprint (`u64`).
const HEADER: usize = 20;
/// The `u64` checksum that ends the file.
const TRAILER: usize = 8;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("diablo_snapshot_corruption");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Restores `bytes` through the experiment harness and returns the
/// decode error it must fail with.
fn restore_error(cfg: &McExperimentConfig, path: &Path, bytes: &[u8], what: &str) -> SnapError {
    std::fs::write(path, bytes).expect("write mutated snapshot");
    let ckpt = CheckpointPolicy { save: None, restore_from: Some(path.to_path_buf()) };
    match try_run(cfg, &ckpt) {
        Err(ExperimentError::Snapshot(SnapshotError::Decode { error, .. })) => error,
        Err(e) => panic!("{what}: expected a snapshot decode error, got {e}"),
        Ok(_) => panic!("{what}: the corrupted snapshot restored"),
    }
}

/// `n` positions spread evenly over `range`.
fn spread(range: std::ops::Range<usize>, n: usize) -> impl Iterator<Item = usize> {
    let len = range.len();
    (0..n).map(move |i| range.start + i * len / n)
}

#[test]
fn every_flipped_bit_and_truncation_is_rejected() {
    let cfg = McExperimentConfig::mini(1, 10);
    let dir = scratch_dir();
    let warm_path = dir.join("warm.snap");
    warm(&cfg, &warm_path, SimTime::from_micros(300)).expect("warm prefix");
    let good = std::fs::read(&warm_path).expect("read warm snapshot");

    // Without a sampling cadence the drive state is two instants and an
    // empty series; measure its encoding rather than hard-coding it.
    let mut w = SnapWriter::new();
    DriveState { horizon: SimTime::ZERO, next_sample: SimTime::ZERO, series: None }.save(&mut w);
    let drive_end = HEADER + w.len();
    let payload_end = good.len() - TRAILER;
    assert!(payload_end > drive_end + 1024, "warm payload unexpectedly small");

    let regions = [
        ("header", 0..HEADER, 20),
        ("drive state", HEADER..drive_end, 8),
        ("executor payload", drive_end..payload_end, 28),
        ("trailer", payload_end..good.len(), 8),
    ];
    let path = dir.join("mutated.snap");
    let mut flips = 0;
    for (name, range, n) in regions {
        for (i, at) in spread(range, n).enumerate() {
            let bit = (i * 3 + at) % 8;
            let mut bad = good.clone();
            bad[at] ^= 1 << bit;
            let what = format!("{name} byte {at} bit {bit}");
            let err = restore_error(&cfg, &path, &bad, &what);
            // Only the magic and version are read before the checksum.
            if at >= 12 {
                assert!(matches!(err, SnapError::Checksum { .. }), "{what}: {err}");
            }
            flips += 1;
        }
    }
    assert!(flips >= 64);

    let cuts = spread(0..good.len(), 14).chain([good.len() - 1, good.len() - TRAILER]);
    let mut truncations = 0;
    for cut in cuts {
        restore_error(&cfg, &path, &good[..cut], &format!("truncated to {cut} bytes"));
        truncations += 1;
    }
    assert!(truncations >= 16);

    // The pristine file still restores and finishes.
    std::fs::write(&path, &good).expect("write pristine snapshot");
    let ckpt = CheckpointPolicy { save: None, restore_from: Some(path) };
    try_run(&cfg, &ckpt).expect("pristine snapshot restores");
}
