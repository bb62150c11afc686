//! The sectioned binary container all zkperf file formats share.
//!
//! Layout (all integers little-endian, like the iden3 formats this
//! mirrors): a 4-byte magic, a `u32` version, a `u32` section count, then
//! per section a `u32` id, a `u64` byte length, a `u32` CRC32 of the
//! payload, and the payload itself.
//!
//! This module is the one place that layout is written and parsed: the
//! in-memory [`Container`] and the chunked `.zkey` writer and reader in
//! `crate::zkey` all frame their records through the functions here.
//!
//! Readers accept exactly [`VERSION`]. A checksum mismatch surfaces as
//! [`FormatError::ChecksumMismatch`] before any payload is decoded, so
//! bit-level tampering is caught at the container layer rather than deep
//! inside a field or curve decoder.

use crate::checksum::crc32;
use std::io::{self, Read, Write};

/// Errors produced while reading a zkperf container.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match the expected file kind.
    BadMagic {
        /// Magic found in the file.
        found: [u8; 4],
        /// Magic the reader expected.
        expected: [u8; 4],
    },
    /// Unsupported container version.
    BadVersion(u32),
    /// A required section is missing.
    MissingSection(u32),
    /// A section's stored CRC32 does not match its payload.
    ChecksumMismatch {
        /// Section id whose payload failed verification.
        section: u32,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// A section payload was malformed.
    Corrupt(&'static str),
    /// A failure at a known byte offset within the file — the streamed
    /// reader path wraps its errors with the seekable location of the
    /// failing section so mid-stream corruption is diagnosable without
    /// re-reading the artifact.
    AtOffset {
        /// Byte offset (from the start of the file) of the failing
        /// section's payload.
        offset: u64,
        /// The underlying failure.
        inner: Box<FormatError>,
    },
}

impl FormatError {
    /// Wraps `self` with the byte offset where it was detected (idempotent:
    /// an already-located error keeps its original, innermost offset).
    pub fn at_offset(self, offset: u64) -> FormatError {
        match self {
            FormatError::AtOffset { .. } => self,
            other => FormatError::AtOffset {
                offset,
                inner: Box::new(other),
            },
        }
    }
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic { found, expected } => write!(
                f,
                "bad magic {found:?}, expected {expected:?} (wrong file kind?)"
            ),
            FormatError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            FormatError::MissingSection(id) => write!(f, "missing required section {id}"),
            FormatError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {section} checksum mismatch: stored {stored:#010x}, computed {computed:#010x} (file is corrupt or tampered)"
            ),
            FormatError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            FormatError::AtOffset { offset, inner } => {
                write!(f, "{inner} (at byte offset {offset})")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// The container format version this crate writes and reads (v2: every
/// section carries a CRC32; the checksum-less v1 is rejected).
pub const VERSION: u32 = 2;

/// Upper bound on sections per container; anything larger is treated as
/// corruption rather than an allocation request.
const MAX_SECTIONS: usize = 1024;

/// Upper bound on a single section payload (4 GiB mirrors the widest
/// artifact the paper sweep can produce, with margin).
const MAX_SECTION_LEN: u64 = 1 << 32;

/// Bytes of the preamble: magic, version, section count.
pub(crate) const PREAMBLE_LEN: u64 = 12;

/// Bytes of a section record's header: id, payload length, CRC32.
pub(crate) const SECTION_HEADER_LEN: u64 = 16;

pub(crate) fn write_preamble(w: &mut impl Write, magic: [u8; 4], n: usize) -> io::Result<()> {
    w.write_all(&magic)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(n as u32).to_le_bytes())
}

/// Reads the preamble of a container of any kind: its magic, version and
/// section count, unchecked.
///
/// # Errors
///
/// An I/O error on a short input.
pub fn read_preamble(r: &mut impl Read) -> Result<([u8; 4], u32, u32), FormatError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    Ok((magic, read_u32(r)?, read_u32(r)?))
}

/// Reads the preamble of an `expected` container of [`VERSION`] with at
/// most `max_sections` sections, returning the section count.
pub(crate) fn expect_preamble(
    r: &mut impl Read,
    expected: [u8; 4],
    max_sections: usize,
) -> Result<usize, FormatError> {
    let (found, version, count) = read_preamble(r)?;
    if found != expected {
        return Err(FormatError::BadMagic { found, expected });
    }
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    if count as usize > max_sections {
        return Err(FormatError::Corrupt("unreasonable section count"));
    }
    Ok(count as usize)
}

/// A section record's header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionHeader {
    pub(crate) id: u32,
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

pub(crate) fn write_section(w: &mut impl Write, id: u32, payload: &[u8]) -> io::Result<()> {
    w.write_all(&id.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

pub(crate) fn read_section_header(r: &mut impl Read) -> Result<SectionHeader, FormatError> {
    let id = read_u32(r)?;
    let len = read_u64(r)?;
    if len > MAX_SECTION_LEN {
        return Err(FormatError::Corrupt("unreasonable section length"));
    }
    let crc = read_u32(r)?;
    Ok(SectionHeader { id, len, crc })
}

/// Reads the payload `section` announces and verifies its CRC32. The
/// buffer grows with the bytes actually read, so a corrupt length on a
/// short input fails fast instead of allocating what it claims.
pub(crate) fn read_payload(
    r: &mut impl Read,
    section: &SectionHeader,
) -> Result<Vec<u8>, FormatError> {
    let mut payload = Vec::with_capacity(section.len.min(1 << 24) as usize);
    r.take(section.len).read_to_end(&mut payload)?;
    if payload.len() as u64 != section.len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let computed = crc32(&payload);
    if computed != section.crc {
        return Err(FormatError::ChecksumMismatch {
            section: section.id,
            stored: section.crc,
            computed,
        });
    }
    Ok(payload)
}

fn read_u32(r: &mut impl Read) -> Result<u32, FormatError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, FormatError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// An in-memory sectioned container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    magic: [u8; 4],
    sections: Vec<(u32, Vec<u8>)>,
}

impl Container {
    /// Starts an empty container with the given magic.
    pub fn new(magic: [u8; 4]) -> Self {
        Container {
            magic,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn push_section(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// The payload of the first section with `id`.
    ///
    /// # Errors
    ///
    /// [`FormatError::MissingSection`] when absent.
    pub fn section(&self, id: u32) -> Result<&[u8], FormatError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, p)| p.as_slice())
            .ok_or(FormatError::MissingSection(id))
    }

    /// Serializes the container.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), FormatError> {
        write_preamble(w, self.magic, self.sections.len())?;
        for (id, payload) in &self.sections {
            write_section(w, *id, payload)?;
        }
        Ok(())
    }

    /// Parses a container, checking the magic, the version and every
    /// section checksum.
    ///
    /// # Errors
    ///
    /// [`FormatError`] on magic/version mismatch, truncated input, or a
    /// checksum failure.
    pub fn read_from(r: &mut impl Read, expected_magic: [u8; 4]) -> Result<Self, FormatError> {
        let count = expect_preamble(r, expected_magic, MAX_SECTIONS)?;
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let section = read_section_header(r)?;
            sections.push((section.id, read_payload(r, &section)?));
        }
        Ok(Container {
            magic: expected_magic,
            sections,
        })
    }
}

/// A growable little-endian payload writer (section bodies are built with
/// it; it also appears in the [`crate::FieldCodec`] interface).
#[derive(Debug, Default)]
pub struct Payload(pub Vec<u8>);

impl Payload {
    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}

/// A cursor over a payload with bounds-checked primitive reads.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }
    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Corrupt`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| FormatError::Corrupt("truncated section"))?;
        Ok(u32::from_le_bytes(b))
    }
    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Corrupt`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| FormatError::Corrupt("truncated section"))?;
        Ok(u64::from_le_bytes(b))
    }
    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`FormatError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(FormatError::Corrupt("length overflow"))?;
        if end > self.data.len() {
            return Err(FormatError::Corrupt("truncated section"));
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    /// Whether every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_roundtrip() {
        let mut c = Container::new(*b"test");
        c.push_section(1, vec![1, 2, 3]);
        c.push_section(7, vec![]);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let back = Container::read_from(&mut buf.as_slice(), *b"test").unwrap();
        assert_eq!(back, c);
        assert_eq!(back.section(1).unwrap(), &[1, 2, 3]);
        assert!(back.section(7).unwrap().is_empty());
        assert!(matches!(
            back.section(9),
            Err(FormatError::MissingSection(9))
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut c = Container::new(*b"aaaa");
        c.push_section(1, vec![5]);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let err = Container::read_from(&mut buf.as_slice(), *b"bbbb").unwrap_err();
        assert!(matches!(err, FormatError::BadMagic { .. }));
    }

    #[test]
    fn truncation_is_an_error() {
        let mut c = Container::new(*b"test");
        c.push_section(1, vec![0u8; 100]);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(Container::read_from(&mut buf.as_slice(), *b"test").is_err());
    }

    #[test]
    fn v1_files_without_checksums_are_rejected() {
        // Hand-assemble the version-1 layout: no per-section CRC.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"test");
        buf.extend_from_slice(&1u32.to_le_bytes()); // version 1
        buf.extend_from_slice(&1u32.to_le_bytes()); // one section
        buf.extend_from_slice(&7u32.to_le_bytes()); // id
        buf.extend_from_slice(&3u64.to_le_bytes()); // len
        buf.extend_from_slice(&[9, 8, 7]);
        assert!(matches!(
            Container::read_from(&mut buf.as_slice(), *b"test"),
            Err(FormatError::BadVersion(1))
        ));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"test");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Container::read_from(&mut buf.as_slice(), *b"test"),
            Err(FormatError::BadVersion(99))
        ));
    }

    #[test]
    fn payload_tampering_trips_the_checksum() {
        let mut c = Container::new(*b"test");
        c.push_section(3, (0u8..=255).collect());
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // Flip one bit in the payload (the last byte of the file).
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        match Container::read_from(&mut buf.as_slice(), *b"test") {
            Err(FormatError::ChecksumMismatch { section: 3, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn huge_section_length_fails_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"test");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // id
        buf.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // absurd len
        buf.extend_from_slice(&0u32.to_le_bytes()); // crc
        assert!(Container::read_from(&mut buf.as_slice(), *b"test").is_err());
        // A merely-large (but in-cap) length against a short file must
        // error at the first missing chunk, not preallocate the claim.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"test");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&((1u64 << 32) - 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(Container::read_from(&mut buf.as_slice(), *b"test").is_err());
    }

    #[test]
    fn cursor_bounds_checks() {
        let data = [1u8, 0, 0, 0, 9];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u32().unwrap(), 1);
        assert!(!c.finished());
        assert!(c.u32().is_err(), "only one byte left");
    }
}
