//! Byte-level container layout: header, section table, checksums.
//!
//! A `.fpdq` container is a flat file:
//!
//! ```text
//! magic "FPDQCNTR"            8 bytes
//! format_version              u32 LE (currently 1)
//! section_count               u32 LE
//! section table               section_count × 24 bytes:
//!     id                      u32 LE
//!     offset                  u64 LE (absolute, 64-byte aligned)
//!     len                     u64 LE (payload bytes, excludes padding)
//!     crc32                   u32 LE (IEEE, over the payload bytes)
//! payloads                    each at its table offset; gaps are zero
//! ```
//!
//! Every structural fact is validated before any payload byte is
//! interpreted — see `parse_sections`. The exact layout contract lives
//! in `docs/container.md`.

use bytes::Bytes;
use fpdq_tensor::FpdqError;

/// File magic, first eight bytes of every container.
pub const MAGIC: [u8; 8] = *b"FPDQCNTR";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Alignment of every section payload and of every packed weight payload
/// inside the weights section, in bytes.
pub const ALIGN: usize = 64;

/// Section id: JSON metadata (architecture, formats, layer table).
pub const SECTION_META: u32 = 1;
/// Section id: U-Net parameter archive (`fpdq_tensor::io` format).
pub const SECTION_UNET_PARAMS: u32 = 2;
/// Section id: autoencoder parameter archive (LDM/SD pipelines).
pub const SECTION_AE_PARAMS: u32 = 3;
/// Section id: text-encoder parameter archive (SD pipelines).
pub const SECTION_TEXT_PARAMS: u32 = 4;
/// Section id: concatenated packed weight payloads.
pub const SECTION_WEIGHTS: u32 = 5;

/// Fixed header bytes before the section table.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 4;
/// Bytes per section-table entry.
pub(crate) const ENTRY_LEN: usize = 24;
/// Upper bound on the section count a parser will consider.
const MAX_SECTIONS: usize = 1024;

/// Rounds `n` up to the next multiple of [`ALIGN`].
pub(crate) fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN) * ALIGN
}

fn corrupt(msg: impl std::fmt::Display) -> FpdqError {
    FpdqError::corrupt(format!("container: {msg}"))
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds pre-checked"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds pre-checked"))
}

/// A validated section: id plus a zero-copy view of its payload.
#[derive(Clone, Debug)]
pub(crate) struct Section {
    pub id: u32,
    pub payload: Bytes,
}

/// Parses and fully validates the header and section table of `file`,
/// returning zero-copy payload views. Every offset, length, alignment and
/// checksum is checked here; callers may index the returned payloads
/// freely. Unknown section ids are accepted and returned (the version
/// policy in `docs/container.md` makes them ignorable), duplicate ids are
/// rejected.
pub(crate) fn parse_sections(file: &Bytes) -> Result<Vec<Section>, FpdqError> {
    if file.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file of {} bytes is shorter than the {HEADER_LEN}-byte header",
            file.len()
        )));
    }
    if file[..8] != MAGIC {
        return Err(corrupt(format!("bad magic {:02x?} (expected \"FPDQCNTR\")", &file[..8])));
    }
    let version = read_u32(file, 8);
    if version != FORMAT_VERSION {
        return Err(FpdqError::unsupported(format!(
            "container: format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let count = read_u32(file, 12) as usize;
    if count == 0 {
        return Err(corrupt("empty section table"));
    }
    if count > MAX_SECTIONS {
        return Err(corrupt(format!("section count {count} exceeds the cap of {MAX_SECTIONS}")));
    }
    let table_end = HEADER_LEN + count * ENTRY_LEN;
    if file.len() < table_end {
        return Err(corrupt(format!(
            "file of {} bytes truncates the {count}-entry section table (needs {table_end})",
            file.len()
        )));
    }

    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_LEN + i * ENTRY_LEN;
        let id = read_u32(file, at);
        let offset = read_u64(file, at + 4);
        let len = read_u64(file, at + 12);
        let crc = read_u32(file, at + 20);

        if sections.iter().any(|s: &Section| s.id == id) {
            return Err(corrupt(format!("duplicate section id {id}")));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section {id} offset+len overflows u64")))?;
        if end > file.len() as u64 {
            return Err(corrupt(format!(
                "section {id} spans {offset}..{end} beyond the {}-byte file",
                file.len()
            )));
        }
        if offset < table_end as u64 {
            return Err(corrupt(format!(
                "section {id} offset {offset} overlaps the header/table (ends at {table_end})"
            )));
        }
        if !(offset as usize).is_multiple_of(ALIGN) {
            return Err(corrupt(format!(
                "section {id} offset {offset} is not {ALIGN}-byte aligned"
            )));
        }
        let payload = file.slice(offset as usize..end as usize);
        let actual = crc32fast::hash(&payload);
        if actual != crc {
            return Err(corrupt(format!(
                "section {id} checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
            )));
        }
        sections.push(Section { id, payload });
    }
    Ok(sections)
}

/// Looks up a required section by id.
pub(crate) fn require<'s>(
    sections: &'s [Section],
    id: u32,
    what: &str,
) -> Result<&'s Bytes, FpdqError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .map(|s| &s.payload)
        .ok_or_else(|| corrupt(format!("missing required section {id} ({what})")))
}

/// Assembles a container image from `(id, payload)` pairs: header, CRC'd
/// section table, 64-byte-aligned payloads with zero padding between.
pub(crate) fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());

    // Lay the payloads out first so the table can be emitted in one pass.
    let mut offset = align_up(table_end);
    let mut placed = Vec::with_capacity(sections.len());
    for (id, payload) in sections {
        placed.push((*id, offset as u64, payload.len() as u64, crc32fast::hash(payload)));
        offset = align_up(offset + payload.len());
    }
    for (id, off, len, crc) in &placed {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }
    for ((_, payload), (_, off, _, _)) in sections.iter().zip(&placed) {
        out.resize(*off as usize, 0);
        out.extend_from_slice(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_then_parse_roundtrips() {
        let img = assemble(&[(SECTION_META, b"{}".to_vec()), (7, vec![1, 2, 3, 4, 5])]);
        let sections = parse_sections(&Bytes::from(img)).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].id, SECTION_META);
        assert_eq!(&sections[0].payload[..], b"{}");
        assert_eq!(&sections[1].payload[..], &[1, 2, 3, 4, 5]);
        for s in &sections {
            // Zero-copy: payload views alias the file buffer.
            assert!(!s.payload.is_empty());
        }
    }

    #[test]
    fn payload_offsets_are_aligned() {
        let img = assemble(&[(1, vec![9; 3]), (2, vec![8; 100]), (3, vec![7; 1])]);
        let file = Bytes::from(img);
        for s in parse_sections(&file).unwrap() {
            let off = s.payload.as_ptr() as usize - file.as_ptr() as usize;
            assert_eq!(off % ALIGN, 0, "section {} at unaligned offset {off}", s.id);
        }
    }

    #[test]
    fn version_skew_is_typed_unsupported() {
        let mut img = assemble(&[(1, b"x".to_vec())]);
        img[8] = 2;
        let err = parse_sections(&Bytes::from(img)).unwrap_err();
        assert!(matches!(err, FpdqError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn bad_magic_and_truncation_are_corrupt() {
        let img = assemble(&[(1, b"hello".to_vec())]);
        let mut bad = img.clone();
        bad[0] = b'X';
        assert!(matches!(parse_sections(&Bytes::from(bad)).unwrap_err(), FpdqError::Corrupt(_)));
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3, img.len() - 1] {
            let t = Bytes::from(img[..cut].to_vec());
            assert!(parse_sections(&t).is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let img = assemble(&[(1, vec![0xAB; 32])]);
        let payload_off = align_up(HEADER_LEN + ENTRY_LEN);
        for bit in 0..8 {
            let mut bad = img.clone();
            bad[payload_off + 13] ^= 1 << bit;
            let err = parse_sections(&Bytes::from(bad)).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    #[test]
    fn duplicate_sections_rejected() {
        let img = assemble(&[(1, b"a".to_vec()), (1, b"b".to_vec())]);
        let err = parse_sections(&Bytes::from(img)).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }
}
