//! Durability for the catalog: immutable checksummed segments, a
//! write-ahead log, and crash-safe recovery.
//!
//! The design follows the classic WAL-then-checkpoint propagation
//! boundary between a write-optimized layout (the log) and read-optimized
//! layouts (the segments mirroring the in-memory arenas):
//!
//! - **Mutations** (`ingest_*`/`remove_*`) append a checksummed
//!   [`WalRecord`] and fsync *before* the writer gate acknowledges. An
//!   acked mutation is durable by definition.
//! - **Checkpoints** serialize the compacted catalog into a brand-new,
//!   write-once segment file (named, length-prefixed, individually
//!   checksummed sections; the file name comes from a monotone sequence,
//!   so the live segment is never reopened for writing), swap the
//!   manifest atomically via write-temp-then-rename, then truncate the
//!   WAL. The manifest records `last_applied_lsn`, so a crash *between*
//!   manifest swap and WAL truncation cannot double-apply: replay
//!   filters to newer LSNs.
//! - **Recovery** loads the newest valid manifest, verifies every section
//!   checksum, replays the WAL tail, and skips (never crashes on) a torn
//!   final record. Any detected corruption degrades to a
//!   rebuild-from-source with a logged reason.
//!
//! The whole layer is driven through [`Io`], whose failpoints let the
//! crash harness in `tests/recovery.rs` kill the "process" at every fsync
//! boundary and prove no acknowledged mutation is ever lost.

mod checksum;
mod codec;
mod io;
mod segment;
mod wal;

pub use checksum::xxh64;
pub use codec::{decode_profiled, encode_profiled};
pub use io::{write_atomic, DurableFile, Fault, FaultPlan, Io, PersistError};
pub use segment::{read_sections, SectionWriter, SEGMENT_MAGIC};
pub use wal::{decode_frames, encode_frame, Wal, WalOpen, WalRecord};

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Magic prefix of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CMDLMAN1";

/// File name of the manifest inside a catalog directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The manifest: the single mutable pointer of the directory. Swapped
/// atomically, it names the live segment and the WAL replay floor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version (bump on incompatible layout changes).
    pub version: u64,
    /// The catalog generation the segment captures.
    pub generation: u64,
    /// File name of the live segment.
    pub segment: String,
    /// xxh64 of the entire segment file.
    pub segment_checksum: u64,
    /// LSN of the last mutation folded into the segment; replay only
    /// applies records with a strictly greater LSN.
    pub last_applied_lsn: u64,
}

/// Current manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

fn encode_manifest(manifest: &Manifest) -> Result<Vec<u8>, PersistError> {
    let payload = serde_json::to_string(manifest)
        .map_err(|e| PersistError::Io(format!("manifest serialize: {e}")))?;
    let mut bytes = MANIFEST_MAGIC.to_vec();
    bytes.extend_from_slice(&xxh64(payload.as_bytes(), 0).to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    Ok(bytes)
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, PersistError> {
    if bytes.len() < 16 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(PersistError::Corrupt("manifest magic mismatch".into()));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[16..];
    if xxh64(payload, 0) != expected {
        return Err(PersistError::Corrupt("manifest checksum mismatch".into()));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| PersistError::Corrupt("manifest is not utf-8".into()))?;
    let manifest: Manifest = serde_json::from_str(text)
        .map_err(|e| PersistError::Corrupt(format!("manifest failed to parse: {e}")))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(PersistError::Corrupt(format!(
            "manifest version {} unsupported (expected {MANIFEST_VERSION})",
            manifest.version
        )));
    }
    Ok(manifest)
}

/// A verified segment load: the manifest plus every section, checksums
/// already checked.
pub struct LoadedSegment {
    /// The live manifest.
    pub manifest: Manifest,
    /// The whole segment file.
    bytes: Vec<u8>,
    /// Byte range of each section's payload within `bytes`, by name.
    sections: HashMap<String, Range<usize>>,
}

impl LoadedSegment {
    /// The payload of section `name`, if the segment has one.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .get(name)
            .map(|range| &self.bytes[range.clone()])
    }
}

/// Load and fully verify the live segment of `dir`. `Ok(None)` means a
/// fresh directory (no manifest); `Err(Corrupt)` means the manifest or
/// segment is damaged and the caller should rebuild from source.
pub fn load_segment(io: &Io, dir: &Path) -> Result<Option<LoadedSegment>, PersistError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    if !io.exists(&manifest_path) {
        return Ok(None);
    }
    let manifest = decode_manifest(&io.read(&manifest_path)?)?;
    let segment_path = dir.join(&manifest.segment);
    let segment_bytes = io.read(&segment_path).map_err(|e| match e {
        PersistError::Io(detail) => PersistError::Corrupt(format!(
            "segment '{}' unreadable: {detail}",
            manifest.segment
        )),
        other => other,
    })?;
    // The whole-file hash and the per-section verification walk the same
    // megabytes; overlap them instead of paying for both serially.
    let (whole_file, sections) = rayon::join(
        || xxh64(&segment_bytes, 0),
        || read_sections(&segment_bytes),
    );
    if whole_file != manifest.segment_checksum {
        return Err(PersistError::Corrupt(format!(
            "segment '{}' whole-file checksum mismatch",
            manifest.segment
        )));
    }
    // Payloads stay in the file buffer: copying them out would be one more
    // pass over every byte of the segment on each open.
    let base = segment_bytes.as_ptr() as usize;
    let sections = sections?
        .into_iter()
        .map(|(name, payload)| {
            let start = payload.as_ptr() as usize - base;
            (name, start..start + payload.len())
        })
        .collect();
    Ok(Some(LoadedSegment {
        manifest,
        bytes: segment_bytes,
        sections,
    }))
}

/// How a persistent catalog came up.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryReport {
    /// A fresh directory: built from source, initial checkpoint written.
    Fresh,
    /// Loaded from a valid segment; `replayed` WAL records were re-applied
    /// and `discarded_bytes` of torn WAL tail were dropped.
    Loaded {
        /// Generation restored from the segment.
        generation: u64,
        /// WAL records replayed on top of the segment.
        replayed: usize,
        /// Bytes of torn/corrupt WAL tail skipped.
        discarded_bytes: usize,
    },
    /// The segment or manifest was damaged: rebuilt from source. The
    /// reason is also logged to stderr at open time.
    Rebuilt {
        /// What recovery found wrong.
        reason: String,
    },
}

/// What [`PersistHandle::open`] yields: the handle, the `(lsn, record)`
/// pairs above the replay floor, and the torn-tail bytes discarded.
pub type OpenedHandle = (PersistHandle, Vec<(u64, WalRecord)>, usize);

/// The live durability handle a catalog holds: the open WAL plus the
/// directory for checkpoints.
#[derive(Debug)]
pub struct PersistHandle {
    io: Io,
    dir: PathBuf,
    wal: Wal,
    /// File-name sequence of the next segment to write. Every checkpoint
    /// gets a brand-new `seg-<seq>` file — segments are write-once, so a
    /// crash mid-checkpoint can never damage the segment the live
    /// manifest points at.
    next_seq: u64,
}

impl PersistHandle {
    /// Open the WAL of `dir` (creating the directory if needed) with the
    /// replay floor from the manifest, returning the handle plus the
    /// replayable records. Records targeted by a [`WalRecord::Abort`]
    /// compensation marker are filtered out (their mutation was reported
    /// as failed), as are the markers themselves.
    pub fn open(io: &Io, dir: &Path, floor_lsn: u64) -> Result<OpenedHandle, PersistError> {
        io.create_dir_all(dir)?;
        let opened = Wal::open(io, &dir.join(Wal::FILE_NAME), floor_lsn)?;
        let aborted: std::collections::HashSet<u64> = opened
            .records
            .iter()
            .filter_map(|(_, record)| match record {
                WalRecord::Abort { lsn } => Some(*lsn),
                _ => None,
            })
            .collect();
        let replayable: Vec<(u64, WalRecord)> = opened
            .records
            .into_iter()
            .filter(|(lsn, record)| {
                *lsn > floor_lsn
                    && !aborted.contains(lsn)
                    && !matches!(record, WalRecord::Abort { .. })
            })
            .collect();
        // Seed the segment sequence past every `seg-` file already in the
        // directory (live, orphaned by a crash, or left by a failed GC) so
        // the next checkpoint never overwrites an existing file.
        let mut next_seq = 1;
        for name in io.list_dir(dir)? {
            if let Some(n) = name
                .strip_prefix("seg-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                next_seq = next_seq.max(n + 1);
            }
        }
        Ok((
            Self {
                io: io.clone(),
                dir: dir.to_path_buf(),
                wal: opened.wal,
                next_seq,
            },
            replayable,
            opened.discarded_bytes,
        ))
    }

    /// Append one mutation record and fsync. Must succeed before the
    /// mutation is applied in memory or acknowledged.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        self.wal.append(record)
    }

    /// Write a new segment from `sections`, atomically swap the manifest,
    /// truncate the WAL, and garbage-collect old segments.
    ///
    /// The segment file name comes from the handle's own monotone
    /// sequence, never from `generation`: checkpoints can repeat a
    /// generation (EKG materialization, back-to-back compactions), and the
    /// write-once/atomic-swap invariant requires that the file the live
    /// manifest points at is never reopened for writing — a crash mid-way
    /// through this function must leave the previous checkpoint intact.
    pub fn checkpoint(
        &mut self,
        generation: u64,
        sections: &[(&str, Vec<u8>)],
    ) -> Result<(), PersistError> {
        let mut writer = SectionWriter::new();
        for (name, payload) in sections {
            writer.push(name, payload);
        }
        let segment_bytes = writer.finish();
        let segment_name = format!("seg-{:08}", self.next_seq);
        self.next_seq += 1;
        let segment_path = self.dir.join(&segment_name);
        let mut file = DurableFile::create(&self.io, &segment_path)?;
        file.append(&segment_bytes)?;
        file.sync("segment.write.sync")?;
        drop(file);
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            generation,
            segment: segment_name.clone(),
            segment_checksum: xxh64(&segment_bytes, 0),
            last_applied_lsn: self.wal.next_lsn().saturating_sub(1),
        };
        write_atomic(
            &self.io,
            &self.dir,
            MANIFEST_NAME,
            &encode_manifest(&manifest)?,
            "manifest",
        )?;
        // Past this point the checkpoint is live: WAL truncation and old
        // segment GC are cleanup. A crash here replays LSN-filtered
        // records (no double-apply) and re-collects garbage next time.
        self.wal.reset()?;
        for name in self.io.list_dir(&self.dir)? {
            if name.starts_with("seg-") && name != segment_name {
                let _ = self.io.remove_file(&self.dir.join(name));
            }
        }
        Ok(())
    }

    /// The directory this handle persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The io layer this handle writes through (real fs or fault-planned).
    pub fn io(&self) -> &Io {
        &self.io
    }

    /// The LSN the next mutation will get.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cmdl-persist-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_dir_loads_as_none() {
        let dir = temp_dir("fresh");
        let io = Io::real();
        io.create_dir_all(&dir).unwrap();
        assert!(load_segment(&io, &dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_load_roundtrips_sections_and_floor() {
        let dir = temp_dir("roundtrip");
        let io = Io::real();
        let (mut handle, records, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        assert!(records.is_empty());
        let lsn = handle
            .append(&WalRecord::RemoveDocument { index: 7 })
            .unwrap();
        handle
            .checkpoint(
                3,
                &[("lake", b"alpha".to_vec()), ("meta", b"beta".to_vec())],
            )
            .unwrap();
        let loaded = load_segment(&io, &dir).unwrap().expect("manifest exists");
        assert_eq!(loaded.manifest.generation, 3);
        assert_eq!(loaded.manifest.last_applied_lsn, lsn);
        assert_eq!(loaded.section("lake"), Some(&b"alpha"[..]));
        assert_eq!(loaded.section("meta"), Some(&b"beta"[..]));
        // The WAL was truncated: reopening with the manifest floor
        // replays nothing.
        drop(handle);
        let (_, replay, discarded) =
            PersistHandle::open(&io, &dir, loaded.manifest.last_applied_lsn).unwrap();
        assert!(replay.is_empty());
        assert_eq!(discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_manifest_swap_and_wal_truncate_filters_by_lsn() {
        let dir = temp_dir("lsnfilter");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle
            .append(&WalRecord::RemoveDocument { index: 1 })
            .unwrap();
        handle
            .append(&WalRecord::RemoveDocument { index: 2 })
            .unwrap();
        // Die right after the manifest rename: the WAL still holds both
        // records, but the manifest's floor makes them no-ops on replay.
        plan.arm("manifest.rename", 0, Fault::Kill);
        assert!(handle.checkpoint(1, &[("lake", b"x".to_vec())]).is_err());
        let io2 = Io::real();
        let loaded = load_segment(&io2, &dir).unwrap().expect("manifest live");
        assert_eq!(loaded.manifest.last_applied_lsn, 2);
        let (_, replay, _) =
            PersistHandle::open(&io2, &dir, loaded.manifest.last_applied_lsn).unwrap();
        assert!(replay.is_empty(), "checkpointed records must not replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_manifest_and_segment_are_detected() {
        let dir = temp_dir("corrupt");
        let io = Io::real();
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle
            .checkpoint(1, &[("lake", b"payload".to_vec())])
            .unwrap();
        // Flip a bit in the segment body.
        let seg_path = dir.join("seg-00000001");
        let mut seg = std::fs::read(&seg_path).unwrap();
        let last = seg.len() - 1;
        seg[last] ^= 0x40;
        std::fs::write(&seg_path, &seg).unwrap();
        assert!(matches!(
            load_segment(&io, &dir),
            Err(PersistError::Corrupt(_))
        ));
        // Now corrupt the manifest itself.
        let man_path = dir.join(MANIFEST_NAME);
        let mut man = std::fs::read(&man_path).unwrap();
        man[20] ^= 0x01;
        std::fs::write(&man_path, &man).unwrap();
        assert!(matches!(
            load_segment(&io, &dir),
            Err(PersistError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeat_checkpoint_at_same_generation_never_touches_live_segment() {
        let dir = temp_dir("write-once");
        let io = Io::real();
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle
            .checkpoint(1, &[("lake", b"first".to_vec())])
            .unwrap();
        let first = load_segment(&io, &dir).unwrap().expect("live").manifest;
        // Same generation again (the materialize_ekg / train_joint path):
        // a brand-new file, not an in-place rewrite of the live one.
        handle
            .checkpoint(1, &[("lake", b"second".to_vec())])
            .unwrap();
        let second = load_segment(&io, &dir).unwrap().expect("live").manifest;
        assert_ne!(first.segment, second.segment);
        assert_eq!(second.generation, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_recheckpoint_leaves_previous_checkpoint_loadable() {
        let dir = temp_dir("recheckpoint-kill");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle.checkpoint(1, &[("lake", b"good".to_vec())]).unwrap();
        // Die mid-way through the next segment write, generation unchanged.
        plan.arm("segment.write.sync.before", 1, Fault::Kill);
        assert!(handle
            .checkpoint(1, &[("lake", b"doomed".to_vec())])
            .is_err());
        // The manifest still points at the intact first segment.
        let loaded = load_segment(&Io::real(), &dir)
            .expect("no corruption")
            .expect("manifest live");
        assert_eq!(loaded.section("lake"), Some(&b"good"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_handle_never_reuses_segment_names() {
        let dir = temp_dir("seq-reopen");
        let io = Io::real();
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle.checkpoint(1, &[("lake", b"a".to_vec())]).unwrap();
        let live = load_segment(&io, &dir).unwrap().unwrap().manifest.segment;
        drop(handle);
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 1).unwrap();
        handle.checkpoint(2, &[("lake", b"b".to_vec())]).unwrap();
        let next = load_segment(&io, &dir).unwrap().unwrap().manifest.segment;
        assert_ne!(live, next, "sequence must resume past existing files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_records_and_markers_never_replay() {
        let dir = temp_dir("abort");
        let io = Io::real();
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        let keep = handle
            .append(&WalRecord::RemoveDocument { index: 1 })
            .unwrap();
        let doomed = handle
            .append(&WalRecord::RemoveDocument { index: 2 })
            .unwrap();
        handle.append(&WalRecord::Abort { lsn: doomed }).unwrap();
        drop(handle);
        let (_, replay, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        assert_eq!(replay.len(), 1, "aborted record and marker are filtered");
        assert_eq!(replay[0].0, keep);
        assert!(matches!(
            replay[0].1,
            WalRecord::RemoveDocument { index: 1 }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_segments_are_garbage_collected() {
        let dir = temp_dir("gc");
        let io = Io::real();
        let (mut handle, _, _) = PersistHandle::open(&io, &dir, 0).unwrap();
        handle.checkpoint(1, &[("lake", b"a".to_vec())]).unwrap();
        handle.checkpoint(2, &[("lake", b"b".to_vec())]).unwrap();
        let names = io.list_dir(&dir).unwrap();
        assert!(names.contains(&"seg-00000002".to_string()));
        assert!(!names.contains(&"seg-00000001".to_string()), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
