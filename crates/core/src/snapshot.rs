//! Versioned whole-simulation snapshot files: checkpoint a running
//! experiment to disk and restore it bit-identically.
//!
//! A snapshot captures everything that evolves deterministically — the
//! executor clock and event queue, every component's persisted state
//! (switch queues, NIC rings, kernels, sockets, TCP connections, guest
//! processes, RNG streams), and the harness's own drive position
//! (horizon, sampling cursor, recorded series). It deliberately does
//! **not** capture configuration: topology, link parameters at build
//! time, workload knobs, and the fault plan are rebuilt from the
//! scenario spec on restore, which is what lets a parameter sweep seed
//! many differently-tuned runs from one shared warmed checkpoint (the
//! restored state overwrites only state; rebuilt config wins). See
//! DESIGN.md §15 for the full what-is/what-isn't-serialized table.
//!
//! # File format
//!
//! ```text
//! magic       8 bytes  b"DIABSNAP"
//! version     u32      SNAP_VERSION; mismatch => SnapError::Version
//! fingerprint u64      structural hash; mismatch => SnapError::Fingerprint
//! drive       DriveState (harness horizon, sample cursor, series)
//! executor    SimHost::save_state (common serial/parallel format)
//! checksum    u64      FNV-1a of every preceding byte; mismatch => SnapError::Checksum
//! ```
//!
//! The checksum is verified before any state is loaded, so a flipped bit
//! or a truncated file fails loudly instead of restoring a silently
//! different run.
//!
//! The fingerprint covers *structure only* — topology shape, fabric
//! kind, workload name — never sweepable knobs, so a checkpoint warmed
//! under one service time restores under another, but restoring a
//! 2-rack snapshot into a 4-rack cluster fails loudly instead of
//! corrupting memory-by-another-name.

use crate::cluster::SimHost;
use diablo_engine::prelude::SeriesRecorder;
use diablo_engine::snap::{Snap, SnapError, SnapReader, SnapWriter};
use diablo_engine::time::SimTime;
use std::path::Path;

/// Leading magic of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"DIABSNAP";

/// Format version this build writes and reads. Bump on any layout
/// change; restore rejects other versions with [`SnapError::Version`].
pub const SNAP_VERSION: u32 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step per byte, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over the structural description strings, the cheap stable
/// hash used for the header fingerprint. Not cryptographic — it guards
/// against honest shape mismatches, not adversaries.
pub fn fingerprint<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> u64 {
    // The separator byte after each part keeps ["ab","c"] and ["a","bc"]
    // apart.
    parts.into_iter().fold(FNV_OFFSET, |h, part| fnv1a(fnv1a(h, part.as_ref().as_bytes()), &[0xff]))
}

/// The experiment harness's resumable drive position, snapshotted
/// alongside the executor so a restored run continues the same horizon
/// doubling schedule and sampling cadence (and keeps the series rows
/// already recorded).
#[derive(Debug, Clone, PartialEq)]
pub struct DriveState {
    /// Current drive horizon (the harness doubles it per pending poll).
    pub horizon: SimTime,
    /// Next periodic-scrape instant.
    pub next_sample: SimTime,
    /// Series rows recorded so far (`None` without a sampling cadence).
    pub series: Option<SeriesRecorder>,
}

diablo_engine::impl_snap_struct!(DriveState { horizon, next_sample, series });

/// Serializes `host` plus the harness drive position into a complete
/// snapshot byte stream (header and checksum trailer included).
pub fn encode_snapshot(host: &mut SimHost, fingerprint: u64, drive: &DriveState) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_bytes(&SNAP_MAGIC);
    SNAP_VERSION.save(&mut w);
    fingerprint.save(&mut w);
    drive.save(&mut w);
    host.save_state(&mut w);
    let mut bytes = w.into_bytes();
    let checksum = fnv1a(FNV_OFFSET, &bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Restores a snapshot byte stream into a freshly built,
/// software-loaded `host`, validating magic, version, checksum and
/// structural fingerprint before touching any state.
///
/// # Errors
///
/// [`SnapError::Malformed`] on bad magic or trailing bytes,
/// [`SnapError::Version`] / [`SnapError::Checksum`] /
/// [`SnapError::Fingerprint`] on header and trailer mismatches,
/// [`SnapError::Eof`] on a file too short to hold them, and any decode
/// error from the executor payload.
pub fn decode_snapshot(
    bytes: &[u8],
    host: &mut SimHost,
    expected_fingerprint: u64,
) -> Result<DriveState, SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take_bytes(SNAP_MAGIC.len())?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::Malformed(format!(
            "not a snapshot file: expected magic {:?}, found {:?}",
            SNAP_MAGIC, magic
        )));
    }
    let version: u32 = Snap::load(&mut r)?;
    if version != SNAP_VERSION {
        return Err(SnapError::Version { found: version, expected: SNAP_VERSION });
    }
    // The trailer checksums everything before it; check it before the
    // rest of the header so a corrupt file reports corruption.
    let header = bytes.len() - r.remaining();
    let body_len = bytes.len().checked_sub(8).filter(|&n| n >= header).ok_or(SnapError::Eof)?;
    let (body, trailer) = bytes.split_at(body_len);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(SnapError::Checksum { stored, computed });
    }
    let mut r = SnapReader::new(&body[header..]);
    let found: u64 = Snap::load(&mut r)?;
    if found != expected_fingerprint {
        return Err(SnapError::Fingerprint { found, expected: expected_fingerprint });
    }
    let drive: DriveState = Snap::load(&mut r)?;
    host.load_state(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::Malformed(format!(
            "{} trailing bytes after the executor state",
            r.remaining()
        )));
    }
    Ok(drive)
}

/// A snapshot operation failure for CLI-facing reporting: either the
/// file could not be read/written, or its contents did not validate.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error on the snapshot path.
    Io {
        /// The snapshot path.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The snapshot stream failed to decode or validate.
    Decode {
        /// The snapshot path.
        path: String,
        /// The underlying decode error.
        error: SnapError,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, error } => write!(f, "snapshot `{path}`: {error}"),
            SnapshotError::Decode { path, error } => write!(f, "snapshot `{path}`: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Writes a complete snapshot of `host` (plus drive position) to `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be written.
pub fn write_snapshot_file(
    path: &Path,
    host: &mut SimHost,
    fingerprint: u64,
    drive: &DriveState,
) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(host, fingerprint, drive);
    std::fs::write(path, bytes)
        .map_err(|error| SnapshotError::Io { path: path.display().to_string(), error })
}

/// Reads and restores a snapshot file into `host`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be read,
/// [`SnapshotError::Decode`] when its contents fail validation.
pub fn read_snapshot_file(
    path: &Path,
    host: &mut SimHost,
    expected_fingerprint: u64,
) -> Result<DriveState, SnapshotError> {
    let bytes = std::fs::read(path)
        .map_err(|error| SnapshotError::Io { path: path.display().to_string(), error })?;
    decode_snapshot(&bytes, host, expected_fingerprint)
        .map_err(|error| SnapshotError::Decode { path: path.display().to_string(), error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec, RunMode};
    use diablo_net::topology::TopologyConfig;

    fn tiny_host() -> SimHost {
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 1, servers_per_rack: 2, racks_per_array: 1 });
        Cluster::instantiate(&spec, RunMode::Serial).0
    }

    #[test]
    fn fingerprint_separates_parts_and_is_stable() {
        assert_eq!(fingerprint(["a", "b"]), fingerprint(["a", "b"]));
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_ne!(fingerprint(["a"]), fingerprint(["a", ""]));
    }

    #[test]
    fn header_validation_rejects_magic_version_and_fingerprint() {
        let drive = DriveState {
            horizon: SimTime::from_millis(5),
            next_sample: SimTime::ZERO,
            series: None,
        };
        let mut host = tiny_host();
        let good = encode_snapshot(&mut host, 7, &drive);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Malformed(_))));

        // Bad version (little-endian u32 follows the 8-byte magic).
        let mut bad = good.clone();
        bad[8] = 0xee;
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Version { .. })));

        // Bad fingerprint.
        let mut h = tiny_host();
        assert!(matches!(
            decode_snapshot(&good, &mut h, 8),
            Err(SnapError::Fingerprint { found: 7, expected: 8 })
        ));

        // Trailing garbage shifts the trailer, so the checksum fails.
        let mut bad = good.clone();
        bad.push(0);
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Checksum { .. })));

        // A flipped payload bit and a truncation are checksum failures.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x10;
        let mut h = tiny_host();
        assert!(matches!(decode_snapshot(&bad, &mut h, 7), Err(SnapError::Checksum { .. })));
        let mut h = tiny_host();
        assert!(matches!(
            decode_snapshot(&good[..good.len() - 3], &mut h, 7),
            Err(SnapError::Checksum { .. })
        ));
        let mut h = tiny_host();
        assert_eq!(decode_snapshot(&good[..14], &mut h, 7), Err(SnapError::Eof));

        // The pristine stream restores.
        let mut h = tiny_host();
        assert_eq!(decode_snapshot(&good, &mut h, 7).expect("round trip"), drive);
    }
}
