//! Sharded parallel codec for the `profiled` segment section.
//!
//! The profiled lake dwarfs every other section — it carries the source
//! lake plus a token bag, sketch set, and embedding per element — and a
//! single-threaded decode of it dominates cold start while the rebuild
//! path it competes against profiles elements on every core. The section
//! is therefore written as independently decodable *parts*: the source
//! lake, the id/statistics tail, and a fixed number of shards of the
//! per-element profile map. Each part is a length-prefixed binary payload
//! ([`serde::to_bin_bytes`]); decoding fans the parts out over the rayon
//! pool, turning the dominant cold-start cost into a parallel one.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [u32 part_count]
//! part_count × [u64 payload_len][payload]
//! part 0:  DataLake
//! part 1:  (doc_ids, column_ids, doc_df)
//! part 2+: profile shard, Vec<(DeId, DeProfile)> ordered by id
//! ```

use std::collections::HashMap;
use std::time::Duration;

use rayon::prelude::*;

use cmdl_datalake::{DataLake, DeId};
use cmdl_text::DocumentFrequencyFilter;

use super::io::PersistError;
use crate::profile::{DeProfile, ProfiledLake};
use crate::value_index::ValueIndex;

/// Number of profile shards per segment. A fixed count keeps segment
/// bytes identical across machines; decode parallelism is capped by it.
const PROFILE_SHARDS: usize = 8;

/// Encode `profiled` into the sharded section payload. Shards are ordered
/// by element id, so the bytes are deterministic for equal catalogs.
pub fn encode_profiled(profiled: &ProfiledLake) -> Vec<u8> {
    let mut entries: Vec<(DeId, &DeProfile)> =
        profiled.profiles.iter().map(|(id, p)| (*id, p)).collect();
    entries.sort_unstable_by_key(|(id, _)| *id);
    let shard_len = entries.len().div_ceil(PROFILE_SHARDS).max(1);
    let chunks: Vec<&[(DeId, &DeProfile)]> = entries.chunks(shard_len).collect();

    let (lake_and_tail, shards) = rayon::join(
        || {
            rayon::join(
                || serde::to_bin_bytes(&profiled.lake),
                || {
                    serde::to_bin_bytes(&(
                        &profiled.doc_ids,
                        profiled.column_ids(),
                        &profiled.doc_df,
                    ))
                },
            )
        },
        || {
            let shards: Vec<Vec<u8>> = chunks
                .par_iter()
                .map(|chunk| {
                    // Matches the Vec<(DeId, DeProfile)> encoding: u32
                    // count, then each pair's fields back to back.
                    let mut bytes = Vec::new();
                    bytes.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                    for (id, profile) in *chunk {
                        serde::Serialize::write_bin(id, &mut bytes);
                        serde::Serialize::write_bin(*profile, &mut bytes);
                    }
                    bytes
                })
                .collect();
            shards
        },
    );
    let (lake, tail) = lake_and_tail;

    let parts: Vec<&[u8]> = std::iter::once(lake.as_slice())
        .chain(std::iter::once(tail.as_slice()))
        .chain(shards.iter().map(Vec::as_slice))
        .collect();
    let total: usize = parts.iter().map(|p| 8 + p.len()).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(&(part.len() as u64).to_le_bytes());
        out.extend_from_slice(part);
    }
    out
}

/// Decode a payload written by [`encode_profiled`]. The restored
/// `profiling_time` is zero (it is runtime bookkeeping, not state).
pub fn decode_profiled(bytes: &[u8]) -> Result<ProfiledLake, PersistError> {
    let parts = split_parts(bytes)?;
    if parts.len() < 2 {
        return Err(corrupt(format!(
            "profiled section has {} parts, expected at least 2",
            parts.len()
        )));
    }
    let (lake_part, tail_part, shard_parts) = (parts[0], parts[1], &parts[2..]);

    // Workers take contiguous runs of shards, and column profiles, several
    // times the size of document profiles, cluster by id. Taking the
    // shards even-first spreads the columns over the workers.
    let shard_parts: Vec<&[u8]> = shard_parts
        .iter()
        .step_by(2)
        .chain(shard_parts.iter().skip(1).step_by(2))
        .copied()
        .collect();

    let (tail, shards) = rayon::join(
        || serde::from_bin_bytes::<(Vec<DeId>, Vec<DeId>, DocumentFrequencyFilter)>(tail_part),
        || {
            let shards: Vec<Result<Vec<(DeId, DeProfile)>, serde::Error>> = shard_parts
                .par_iter()
                .map(|part| serde::from_bin_bytes::<Vec<(DeId, DeProfile)>>(part))
                .collect();
            shards
        },
    );
    let (doc_ids, column_ids, doc_df) =
        tail.map_err(|e| corrupt(format!("profiled tail failed to decode: {e}")))?;
    let mut decoded_shards = Vec::with_capacity(shards.len());
    for shard in shards {
        decoded_shards
            .push(shard.map_err(|e| corrupt(format!("profile shard failed to decode: {e}")))?);
    }
    let mut profiles = HashMap::with_capacity(decoded_shards.iter().map(Vec::len).sum());
    for shard in decoded_shards {
        profiles.extend(shard);
    }
    // The value index is derived state, rebuilt here and never stored. It
    // needs the profiles, so it is built while the source lake decodes: the
    // lake decode is the longer of the two. Decoding the lake alongside the
    // shards instead would leave the build alone on the critical path.
    let (lake, values) = rayon::join(
        || serde::from_bin_bytes::<DataLake>(lake_part),
        || ValueIndex::build(column_ids.iter().filter_map(|id| profiles.get(id))),
    );
    let lake = lake.map_err(|e| corrupt(format!("profiled lake failed to decode: {e}")))?;
    Ok(ProfiledLake::with_index(
        lake,
        profiles,
        doc_ids,
        values,
        doc_df,
        Duration::ZERO,
    ))
}

/// Split the `[u32 count] count × [u64 len][payload]` framing into
/// borrowed payload slices, rejecting truncation and trailing garbage.
fn split_parts(bytes: &[u8]) -> Result<Vec<&[u8]>, PersistError> {
    let mut rest = bytes;
    if rest.len() < 4 {
        return Err(corrupt("profiled section too short for part count".into()));
    }
    let count = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    rest = &rest[4..];
    let mut parts = Vec::with_capacity(count.min(rest.len()));
    for i in 0..count {
        if rest.len() < 8 {
            return Err(corrupt(format!("profiled part {i} missing length prefix")));
        }
        let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")) as usize;
        rest = &rest[8..];
        if rest.len() < len {
            return Err(corrupt(format!(
                "profiled part {i} truncated: need {len} bytes, have {}",
                rest.len()
            )));
        }
        parts.push(&rest[..len]);
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after profiled parts",
            rest.len()
        )));
    }
    Ok(parts)
}

fn corrupt(message: String) -> PersistError {
    PersistError::Corrupt(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmdlConfig;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn sample_profiled() -> ProfiledLake {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        Profiler::new(&CmdlConfig::fast()).profile_lake(lake)
    }

    #[test]
    fn sharded_roundtrip_preserves_everything() {
        let profiled = sample_profiled();
        let bytes = encode_profiled(&profiled);
        let back = decode_profiled(&bytes).unwrap();
        assert_eq!(back.profiles.len(), profiled.profiles.len());
        assert_eq!(back.doc_ids, profiled.doc_ids);
        assert_eq!(back.column_ids(), profiled.column_ids());
        assert_eq!(back.lake.tables().len(), profiled.lake.tables().len());
        assert_eq!(back.lake.documents().len(), profiled.lake.documents().len());
        for (id, profile) in &profiled.profiles {
            let restored = back.profiles.get(id).expect("profile present");
            assert_eq!(restored.name, profile.name);
            assert_eq!(restored.content, profile.content);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let profiled = sample_profiled();
        assert_eq!(encode_profiled(&profiled), encode_profiled(&profiled));
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let bytes = encode_profiled(&sample_profiled());
        assert!(decode_profiled(&bytes[..bytes.len() / 2]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_profiled(&padded).is_err());
        assert!(decode_profiled(&[]).is_err());
    }
}
