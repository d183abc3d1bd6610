//! The immutable segment format: named, length-prefixed, individually
//! checksummed sections behind a magic header.
//!
//! ```text
//! [8B magic "CMDLSEG1"]
//! repeat per section:
//!   [u16 name_len][name bytes][u64 payload_len][u64 xxh64(payload)][payload]
//! ```
//!
//! A segment mirrors the in-memory read layouts of one catalog generation
//! — each serde-serialized component lands in its own section so recovery
//! can report *which* structure rotted. Segments are write-once: a new
//! generation gets a new file, the manifest swap makes it live, and the
//! old file is garbage-collected afterwards.

use rayon::prelude::*;

use super::checksum::xxh64;
use super::io::PersistError;

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CMDLSEG1";

/// Incrementally builds a segment byte buffer.
pub struct SectionWriter {
    bytes: Vec<u8>,
}

impl Default for SectionWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SectionWriter {
    /// A writer with just the magic header.
    pub fn new() -> Self {
        Self {
            bytes: SEGMENT_MAGIC.to_vec(),
        }
    }

    /// Append one named section with its checksum.
    pub fn push(&mut self, name: &str, payload: &[u8]) {
        let name_bytes = name.as_bytes();
        assert!(
            name_bytes.len() <= u16::MAX as usize,
            "section name too long"
        );
        self.bytes
            .extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(name_bytes);
        self.bytes
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.bytes
            .extend_from_slice(&xxh64(payload, 0).to_le_bytes());
        self.bytes.extend_from_slice(payload);
    }

    /// The finished segment bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Parse and verify a segment, returning `(name, payload)` pairs in file
/// order. Any framing or checksum violation is [`PersistError::Corrupt`]
/// naming the failing section.
///
/// Framing is walked serially (it is a few bytes per section), but the
/// expensive part — checksumming multi-megabyte payloads — fans out over
/// the rayon pool so segment verification scales with cores like the
/// rebuild path it competes against. Payloads are borrowed from `bytes`,
/// never copied.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(String, &[u8])>, PersistError> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt("segment magic mismatch".into()));
    }
    let mut rest = &bytes[SEGMENT_MAGIC.len()..];
    let mut framed: Vec<(String, u64, &[u8])> = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 2 {
            return Err(PersistError::Corrupt(
                "truncated section name length".into(),
            ));
        }
        let name_len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
        rest = &rest[2..];
        if rest.len() < name_len + 16 {
            return Err(PersistError::Corrupt("truncated section header".into()));
        }
        let name = String::from_utf8(rest[..name_len].to_vec())
            .map_err(|_| PersistError::Corrupt("section name is not utf-8".into()))?;
        rest = &rest[name_len..];
        let payload_len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")) as usize;
        let expected = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        rest = &rest[16..];
        if rest.len() < payload_len {
            return Err(PersistError::Corrupt(format!(
                "section '{name}' truncated: need {payload_len} bytes, have {}",
                rest.len()
            )));
        }
        framed.push((name, expected, &rest[..payload_len]));
        rest = &rest[payload_len..];
    }
    let verified: Vec<Result<(), PersistError>> = framed
        .par_iter()
        .map(|(name, expected, payload)| {
            if xxh64(payload, 0) != *expected {
                return Err(PersistError::Corrupt(format!(
                    "section '{name}' checksum mismatch"
                )));
            }
            Ok(())
        })
        .collect();
    verified.into_iter().collect::<Result<(), _>>()?;
    Ok(framed
        .into_iter()
        .map(|(name, _, payload)| (name, payload))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_sections_in_order() {
        let mut writer = SectionWriter::new();
        writer.push("lake", b"alpha");
        writer.push("indexes", &[0u8; 100]);
        writer.push("empty", b"");
        let bytes = writer.finish();
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], ("lake".to_string(), &b"alpha"[..]));
        assert_eq!(sections[1].0, "indexes");
        assert_eq!(sections[2], ("empty".to_string(), &b""[..]));
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_isolated() {
        let mut writer = SectionWriter::new();
        writer.push("a", b"payload-one");
        writer.push("b", b"payload-two");
        let bytes = writer.finish();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            match read_sections(&corrupt) {
                Err(PersistError::Corrupt(_)) => {}
                Ok(sections) => {
                    // A flip inside a length/name field can reframe the
                    // stream; if it still parses, every surviving section's
                    // checksum must have been verified, so no payload may
                    // be silently wrong under the *original* name.
                    for (name, payload) in &sections {
                        if name == "a" {
                            assert_eq!(*payload, b"payload-one", "flip at byte {i}");
                        }
                        if name == "b" {
                            assert_eq!(*payload, b"payload-two", "flip at byte {i}");
                        }
                    }
                }
                Err(e) => panic!("unexpected error class at byte {i}: {e}"),
            }
        }
    }

    #[test]
    fn truncation_at_any_point_is_detected() {
        let mut writer = SectionWriter::new();
        writer.push("only", b"0123456789");
        let bytes = writer.finish();
        for len in 0..bytes.len() {
            if len == SEGMENT_MAGIC.len() {
                // Magic-only parses as an empty segment; the manifest's
                // whole-file checksum catches this truncation instead.
                assert!(read_sections(&bytes[..len]).unwrap().is_empty());
                continue;
            }
            assert!(
                matches!(read_sections(&bytes[..len]), Err(PersistError::Corrupt(_))),
                "truncation to {len} bytes must be detected"
            );
        }
        assert!(read_sections(&bytes).is_ok());
    }
}
