//! The streamed `.zkey`: a chunked, seekable proving-key container that
//! is never resident in full.
//!
//! Same wire conventions as every other zkperf artifact — the v2
//! sectioned container of [`crate::format`] (magic, version, section
//! count, then `(id, len, crc32, payload)` records) — but written
//! incrementally by [`StreamedZkeyWriter`] as setup emits chunks, and
//! read back by [`StreamedZkeyReader`] one chunk at a time with the
//! per-section CRC32 doubling as the per-chunk checksum. Each query
//! vector is split into `chunk_points`-sized chunks, one section per
//! chunk, so the reader's working set is a single chunk regardless of
//! key size.
//!
//! Section ids encode `(query tag << 24) | chunk index`; the section
//! count is fully determined by the header (query lengths + chunk size),
//! which is what lets the writer emit the count up front and stream the
//! rest with a plain sequential `Write`.
//!
//! Failures carry their location: a chunk that fails its checksum, comes
//! up short, or decodes to the wrong point count surfaces a
//! [`StreamError`] with the payload's byte offset (wrapped from
//! [`FormatError::AtOffset`]), so mid-stream corruption is reported as a
//! typed artifact error pointing at the exact section — never a panic or
//! a silent truncation.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use zkperf_ec::{Affine, CurveParams, Engine};
use zkperf_groth16::{
    FixedParts, G1Chunks, G1Query, G2Chunks, QuerySink, QuerySource, StreamError, StreamHeader,
    VerifyingKey,
};
use zkperf_pool as pool;

use crate::artifact::ArtifactError;
use crate::checksum::crc32;
use crate::codec::{
    decode_point, decode_point_vec, encode_point, encode_point_vec, FieldCodec,
};
use crate::format::{read_u32, read_u64, Cursor, FormatError, Payload, VERSION};

/// Magic of the streamed proving-key container.
pub const MAGIC_ZKEY_STREAM: [u8; 4] = *b"zkst";

/// Upper bound on one chunk section (a chunk is bounded by the streaming
/// planner, so anything near this is corruption).
const MAX_CHUNK_SECTION_LEN: u64 = 1 << 32;

/// Upper bound on total sections (≈ chunk count); 2^21 sections cover a
/// 2^30-point key at the minimum chunk size, with margin.
const MAX_STREAM_SECTIONS: usize = 1 << 21;

const TAG_HEADER: u32 = 0;
const TAG_A: u32 = 1;
const TAG_B_G1: u32 = 2;
const TAG_L: u32 = 3;
const TAG_H: u32 = 4;
const TAG_G2: u32 = 5;
const TAG_FIXED: u32 = 6;

fn g1_tag(q: G1Query) -> u32 {
    match q {
        G1Query::A => TAG_A,
        G1Query::BG1 => TAG_B_G1,
        G1Query::L => TAG_L,
        G1Query::H => TAG_H,
    }
}

fn sec_id(tag: u32, index: usize) -> u32 {
    (tag << 24) | index as u32
}

/// Lowers a located [`FormatError`] into the transport error the
/// `groth16` streaming traits carry.
fn stream_err(path: &Path, e: FormatError) -> StreamError {
    let (offset, inner) = match e {
        FormatError::AtOffset { offset, inner } => (Some(offset), *inner),
        other => (None, other),
    };
    StreamError {
        path: Some(path.display().to_string()),
        offset,
        detail: inner.to_string(),
    }
}

/// Points expected in chunk `index` of a query of `len` points.
fn chunk_len(len: usize, chunk_points: usize, index: usize) -> usize {
    let start = index * chunk_points;
    chunk_points.min(len.saturating_sub(start))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Incremental writer for the streamed `.zkey`; the [`QuerySink`]
/// `zkperf_groth16::setup_streamed` drives. Writes to a `.tmp` sibling
/// and renames into place on [`QuerySink::finish`], so a crashed setup
/// never leaves a half-written key that later reads as corruption.
pub struct StreamedZkeyWriter<E: Engine> {
    path: PathBuf,
    tmp: PathBuf,
    out: Option<BufWriter<fs::File>>,
    header: Option<StreamHeader>,
    emitted: [usize; 5], // chunks written per tag (A, BG1, L, H, G2)
    finished: bool,
    _marker: std::marker::PhantomData<E>,
}

impl<E: Engine> StreamedZkeyWriter<E> {
    /// Opens the temporary sibling of `path` for writing.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] carrying `path` when the file cannot be created.
    pub fn create(path: impl Into<PathBuf>) -> Result<StreamedZkeyWriter<E>, ArtifactError> {
        let path = path.into();
        let tmp = path.with_extension("tmp");
        let file = fs::File::create(&tmp).map_err(|e| ArtifactError {
            path: path.clone(),
            error: FormatError::Io(e),
        })?;
        Ok(StreamedZkeyWriter {
            path,
            tmp,
            out: Some(BufWriter::new(file)),
            header: None,
            emitted: [0; 5],
            finished: false,
            _marker: std::marker::PhantomData,
        })
    }

    fn fail(&self, detail: impl Into<String>) -> StreamError {
        StreamError {
            path: Some(self.path.display().to_string()),
            offset: None,
            detail: detail.into(),
        }
    }

    fn io_err(&self, e: std::io::Error) -> StreamError {
        stream_err(&self.path, FormatError::Io(e))
    }

    fn writer(&mut self) -> Result<&mut BufWriter<fs::File>, StreamError> {
        match self.out.as_mut() {
            Some(w) => Ok(w),
            None => Err(StreamError {
                path: Some(self.path.display().to_string()),
                offset: None,
                detail: "write after finish".into(),
            }),
        }
    }

    fn write_section(&mut self, id: u32, payload: &[u8]) -> Result<(), StreamError> {
        let crc = crc32(payload);
        let len = payload.len() as u64;
        let path = self.path.display().to_string();
        let w = self.writer()?;
        let res = (|| {
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&len.to_le_bytes())?;
            w.write_all(&crc.to_le_bytes())?;
            w.write_all(payload)
        })();
        res.map_err(|e| StreamError {
            path: Some(path),
            offset: None,
            detail: format!("i/o error: {e}"),
        })?;
        pool::mem::add_streamed_bytes(payload.len() as u64);
        Ok(())
    }

    /// The expected chunk emission for tag slot `slot` given the header.
    fn expected_chunks(header: &StreamHeader, slot: usize) -> usize {
        match slot {
            0 => header.chunks_of(header.g1_len(G1Query::A)),
            1 => header.chunks_of(header.g1_len(G1Query::BG1)),
            2 => header.chunks_of(header.g1_len(G1Query::L)),
            3 => header.chunks_of(header.g1_len(G1Query::H)),
            _ => header.chunks_of(header.g2_len()),
        }
    }

    fn push_chunk(&mut self, slot: usize, tag: u32, query_len: usize, got: usize, payload: &[u8]) -> Result<(), StreamError> {
        let header = match self.header {
            Some(h) => h,
            None => return Err(self.fail("chunk before begin")),
        };
        let index = self.emitted[slot];
        if index >= Self::expected_chunks(&header, slot) {
            return Err(self.fail(format!("too many chunks for tag {tag}")));
        }
        let expect = chunk_len(query_len, header.chunk_points, index);
        if got != expect {
            return Err(self.fail(format!(
                "chunk {index} of tag {tag} has {got} points, expected {expect}"
            )));
        }
        self.write_section(sec_id(tag, index), payload)?;
        self.emitted[slot] += 1;
        Ok(())
    }
}

impl<E: Engine> QuerySink<E> for StreamedZkeyWriter<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError> {
        if self.header.is_some() {
            return Err(self.fail("begin called twice"));
        }
        if header.chunk_points == 0 {
            return Err(self.fail("zero chunk size"));
        }
        self.header = Some(*header);
        let total_sections = 2 // header + fixed
            + (0..5).map(|s| Self::expected_chunks(header, s)).sum::<usize>();
        let mut head = Payload::default();
        head.u64(header.num_wires as u64);
        head.u64(header.num_public_wires as u64);
        head.u64(header.domain_size as u64);
        head.u64(header.chunk_points as u64);
        let path = self.path.display().to_string();
        {
            let w = self.writer()?;
            let res = (|| {
                w.write_all(&MAGIC_ZKEY_STREAM)?;
                w.write_all(&VERSION.to_le_bytes())?;
                w.write_all(&(total_sections as u32).to_le_bytes())
            })();
            res.map_err(|e| StreamError {
                path: Some(path),
                offset: None,
                detail: format!("i/o error: {e}"),
            })?;
        }
        self.write_section(sec_id(TAG_HEADER, 0), &head.0)
    }

    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError> {
        let header = match self.header {
            Some(h) => h,
            None => return Err(self.fail("chunk before begin")),
        };
        let mut payload = Payload::default();
        encode_point_vec(pts, &mut payload);
        let slot = (g1_tag(q) - 1) as usize;
        self.push_chunk(slot, g1_tag(q), header.g1_len(q), pts.len(), &payload.0)
    }

    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError> {
        let header = match self.header {
            Some(h) => h,
            None => return Err(self.fail("chunk before begin")),
        };
        let mut payload = Payload::default();
        encode_point_vec(pts, &mut payload);
        self.push_chunk(4, TAG_G2, header.g2_len(), pts.len(), &payload.0)
    }

    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError> {
        let header = match self.header {
            Some(h) => h,
            None => return Err(self.fail("finish before begin")),
        };
        for slot in 0..5 {
            let want = Self::expected_chunks(&header, slot);
            if self.emitted[slot] != want {
                return Err(self.fail(format!(
                    "query slot {slot} incomplete: {} of {want} chunks",
                    self.emitted[slot]
                )));
            }
        }
        let mut payload = Payload::default();
        encode_point(&fixed.beta_g1, &mut payload);
        encode_point(&fixed.delta_g1, &mut payload);
        encode_point(&fixed.vk.alpha_g1, &mut payload);
        encode_point(&fixed.vk.beta_g2, &mut payload);
        encode_point(&fixed.vk.gamma_g2, &mut payload);
        encode_point(&fixed.vk.delta_g2, &mut payload);
        encode_point_vec(&fixed.vk.ic, &mut payload);
        self.write_section(sec_id(TAG_FIXED, 0), &payload.0)?;
        let mut w = match self.out.take() {
            Some(w) => w,
            None => return Err(self.fail("finish called twice")),
        };
        w.flush().map_err(|e| self.io_err(e))?;
        drop(w);
        fs::rename(&self.tmp, &self.path).map_err(|e| self.io_err(e))?;
        self.finished = true;
        Ok(())
    }
}

impl<E: Engine> Drop for StreamedZkeyWriter<E> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One section's location in the file, from the open-time scan.
#[derive(Debug, Clone, Copy)]
struct SectionAt {
    /// Byte offset of the payload (after the 16-byte section header).
    offset: u64,
    len: u64,
    crc: u32,
}

/// Seekable chunk reader over a streamed `.zkey`; the [`QuerySource`]
/// `zkperf_groth16::prove_streamed` consumes.
///
/// Opening scans the section table once (seeking over payloads, reading
/// none of them) and decodes only the small header and fixed sections;
/// query chunks are read, checksum-verified, and decoded on demand as the
/// prover's chunk iterators advance, so peak residency is one chunk.
pub struct StreamedZkeyReader<E: Engine> {
    path: PathBuf,
    file: RefCell<fs::File>,
    header: StreamHeader,
    sections: std::collections::BTreeMap<u32, SectionAt>,
    fixed: FixedParts<E>,
}

impl<E: Engine> std::fmt::Debug for StreamedZkeyReader<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedZkeyReader")
            .field("path", &self.path)
            .field("header", &self.header)
            .field("sections", &self.sections.len())
            .finish_non_exhaustive()
    }
}

impl<E: Engine> StreamedZkeyReader<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    /// Opens and indexes `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] carrying `path`: magic/version mismatch, a
    /// truncated or oversized section table, a missing section, or a
    /// corrupt header/fixed payload. Chunk payloads are *not* validated
    /// here — their checksums are verified as they stream.
    pub fn open(path: impl Into<PathBuf>) -> Result<StreamedZkeyReader<E>, ArtifactError> {
        let path = path.into();
        let wrap = |error: FormatError| ArtifactError { path: path.clone(), error };
        let mut file = fs::File::open(&path)
            .map_err(|e| wrap(FormatError::Io(e)))?;

        let mut magic = [0u8; 4];
        file.read_exact(&mut magic).map_err(|e| wrap(FormatError::Io(e)))?;
        if magic != MAGIC_ZKEY_STREAM {
            return Err(wrap(FormatError::BadMagic {
                found: magic,
                expected: MAGIC_ZKEY_STREAM,
            }));
        }
        let version = read_u32(&mut file).map_err(wrap)?;
        if version != VERSION {
            return Err(wrap(FormatError::BadVersion(version)));
        }
        let count = read_u32(&mut file).map_err(wrap)? as usize;
        if count > MAX_STREAM_SECTIONS {
            return Err(wrap(FormatError::Corrupt("unreasonable section count")));
        }

        // Scan the table: record (id → offset, len, crc), seek past every
        // payload. A zero-length or oversized section is typed corruption
        // located at its own header.
        let mut sections = std::collections::BTreeMap::new();
        let mut pos = 12u64; // magic + version + count
        for _ in 0..count {
            let sec_header_at = pos;
            let id = read_u32(&mut file).map_err(|e| wrap(e.at_offset(sec_header_at)))?;
            let len = read_u64(&mut file).map_err(|e| wrap(e.at_offset(sec_header_at)))?;
            let crc = read_u32(&mut file).map_err(|e| wrap(e.at_offset(sec_header_at)))?;
            let payload_at = pos + 16;
            if len > MAX_CHUNK_SECTION_LEN {
                return Err(wrap(
                    FormatError::Corrupt("unreasonable section length").at_offset(sec_header_at),
                ));
            }
            if len == 0 {
                return Err(wrap(
                    FormatError::Corrupt("zero-length section").at_offset(sec_header_at),
                ));
            }
            if sections.insert(id, SectionAt { offset: payload_at, len, crc }).is_some() {
                return Err(wrap(
                    FormatError::Corrupt("duplicate section id").at_offset(sec_header_at),
                ));
            }
            pos = payload_at + len;
            file.seek(SeekFrom::Start(pos)).map_err(|e| wrap(FormatError::Io(e)))?;
        }
        // The seek past the last payload succeeds even beyond EOF; probe
        // one byte so a truncated final section fails at open, typed.
        let end = file.seek(SeekFrom::End(0)).map_err(|e| wrap(FormatError::Io(e)))?;
        if end < pos {
            return Err(wrap(
                FormatError::Corrupt("truncated final section").at_offset(end),
            ));
        }

        let read_verified = |file: &mut fs::File, at: &SectionAt, what: u32| -> Result<Vec<u8>, FormatError> {
            file.seek(SeekFrom::Start(at.offset)).map_err(FormatError::Io)?;
            let mut buf = vec![0u8; at.len as usize];
            file.read_exact(&mut buf)
                .map_err(|e| FormatError::Io(e).at_offset(at.offset))?;
            let computed = crc32(&buf);
            if computed != at.crc {
                return Err(FormatError::ChecksumMismatch {
                    section: what,
                    stored: at.crc,
                    computed,
                }
                .at_offset(at.offset));
            }
            Ok(buf)
        };

        // Header section.
        let head_id = sec_id(TAG_HEADER, 0);
        let head_at = *sections
            .get(&head_id)
            .ok_or_else(|| wrap(FormatError::MissingSection(head_id)))?;
        let head = read_verified(&mut file, &head_at, head_id).map_err(&wrap)?;
        let mut cur = Cursor::new(&head);
        let header = (|| -> Result<StreamHeader, FormatError> {
            let num_wires = cur.u64()? as usize;
            let num_public_wires = cur.u64()? as usize;
            let domain_size = cur.u64()? as usize;
            let chunk_points = cur.u64()? as usize;
            if chunk_points == 0 {
                return Err(FormatError::Corrupt("zero chunk size"));
            }
            if num_public_wires > num_wires {
                return Err(FormatError::Corrupt("public wires exceed wires"));
            }
            if !domain_size.is_power_of_two() || domain_size > (1 << 30) {
                return Err(FormatError::Corrupt("bad domain size"));
            }
            Ok(StreamHeader { num_wires, num_public_wires, domain_size, chunk_points })
        })()
        .map_err(|e| wrap(e.at_offset(head_at.offset)))?;

        // Every expected chunk section must exist (a missing one would
        // otherwise silently truncate the query it belongs to).
        for q in zkperf_groth16::G1_QUERIES {
            let n = header.chunks_of(header.g1_len(q));
            for i in 0..n {
                let id = sec_id(g1_tag(q), i);
                if !sections.contains_key(&id) {
                    return Err(wrap(FormatError::MissingSection(id)));
                }
            }
        }
        for i in 0..header.chunks_of(header.g2_len()) {
            let id = sec_id(TAG_G2, i);
            if !sections.contains_key(&id) {
                return Err(wrap(FormatError::MissingSection(id)));
            }
        }

        // Fixed section.
        let fixed_id = sec_id(TAG_FIXED, 0);
        let fixed_at = *sections
            .get(&fixed_id)
            .ok_or_else(|| wrap(FormatError::MissingSection(fixed_id)))?;
        let raw = read_verified(&mut file, &fixed_at, fixed_id).map_err(&wrap)?;
        let mut cur = Cursor::new(&raw);
        let fixed = (|| -> Result<FixedParts<E>, FormatError> {
            let beta_g1 = decode_point::<E::G1>(&mut cur)?;
            let delta_g1 = decode_point::<E::G1>(&mut cur)?;
            let alpha_g1 = decode_point::<E::G1>(&mut cur)?;
            let beta_g2 = decode_point::<E::G2>(&mut cur)?;
            let gamma_g2 = decode_point::<E::G2>(&mut cur)?;
            let delta_g2 = decode_point::<E::G2>(&mut cur)?;
            let ic = decode_point_vec::<E::G1>(&mut cur)?;
            if !cur.finished() {
                return Err(FormatError::Corrupt("trailing bytes in fixed section"));
            }
            if ic.len() != header.num_public_wires {
                return Err(FormatError::Corrupt("ic length disagrees with header"));
            }
            Ok(FixedParts {
                beta_g1,
                delta_g1,
                vk: VerifyingKey { alpha_g1, beta_g2, gamma_g2, delta_g2, ic },
            })
        })()
        .map_err(|e| wrap(e.at_offset(fixed_at.offset)))?;

        Ok(StreamedZkeyReader {
            path,
            file: RefCell::new(file),
            header,
            sections,
            fixed,
        })
    }

    /// The indexed shape (also available through [`QuerySource`]).
    pub fn stream_header(&self) -> StreamHeader {
        self.header
    }

    /// Reads and checksum-verifies one chunk section's raw payload.
    fn read_chunk_section(&self, tag: u32, index: usize) -> Result<(Vec<u8>, u64), StreamError> {
        let id = sec_id(tag, index);
        let at = *self
            .sections
            .get(&id)
            .ok_or_else(|| stream_err(&self.path, FormatError::MissingSection(id)))?;
        let mut file = self.file.borrow_mut();
        let located = |e: FormatError| stream_err(&self.path, e.at_offset(at.offset));
        file.seek(SeekFrom::Start(at.offset)).map_err(|e| located(FormatError::Io(e)))?;
        let mut buf = vec![0u8; at.len as usize];
        file.read_exact(&mut buf).map_err(|e| located(FormatError::Io(e)))?;
        let computed = crc32(&buf);
        if computed != at.crc {
            return Err(located(FormatError::ChecksumMismatch {
                section: id,
                stored: at.crc,
                computed,
            }));
        }
        pool::mem::add_streamed_bytes(at.len);
        Ok((buf, at.offset))
    }

    fn g1_chunk(&self, q: G1Query, index: usize) -> Result<Vec<Affine<E::G1>>, StreamError> {
        let len = self.header.g1_len(q);
        let (buf, offset) = self.read_chunk_section(g1_tag(q), index)?;
        let located = |e: FormatError| stream_err(&self.path, e.at_offset(offset));
        let mut cur = Cursor::new(&buf);
        let pts = decode_point_vec::<E::G1>(&mut cur).map_err(located)?;
        let expect = chunk_len(len, self.header.chunk_points, index);
        if pts.len() != expect || !cur.finished() {
            return Err(located(FormatError::Corrupt("chunk point count mismatch")));
        }
        Ok(pts)
    }

    fn g2_chunk(&self, index: usize) -> Result<Vec<Affine<E::G2>>, StreamError> {
        let len = self.header.g2_len();
        let (buf, offset) = self.read_chunk_section(TAG_G2, index)?;
        let located = |e: FormatError| stream_err(&self.path, e.at_offset(offset));
        let mut cur = Cursor::new(&buf);
        let pts = decode_point_vec::<E::G2>(&mut cur).map_err(located)?;
        let expect = chunk_len(len, self.header.chunk_points, index);
        if pts.len() != expect || !cur.finished() {
            return Err(located(FormatError::Corrupt("chunk point count mismatch")));
        }
        Ok(pts)
    }
}

impl<E: Engine> QuerySource<E> for StreamedZkeyReader<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    fn header(&self) -> StreamHeader {
        self.header
    }

    fn fixed(&self) -> Result<FixedParts<E>, StreamError> {
        Ok(self.fixed.clone())
    }

    fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, E> {
        let n = self.header.chunks_of(self.header.g1_len(q));
        Box::new((0..n).map(move |i| self.g1_chunk(q, i).map(Cow::Owned)))
    }

    fn g2_chunks(&self) -> G2Chunks<'_, E> {
        let n = self.header.chunks_of(self.header.g2_len());
        Box::new((0..n).map(move |i| self.g2_chunk(i).map(Cow::Owned)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;
    use zkperf_groth16::{prove, prove_streamed, setup, setup_streamed, MemorySink};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zkperf-stream-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixture(dir: &Path, chunk: usize, constraints: usize) -> PathBuf {
        let circuit = exponentiate::<Fr>(constraints);
        let mut rng = zkperf_ff::test_rng();
        let path = dir.join(format!("k{chunk}.zks"));
        let mut w = StreamedZkeyWriter::<Bn254>::create(&path).unwrap();
        setup_streamed(circuit.r1cs(), &mut rng, chunk, &mut w).unwrap();
        path
    }

    #[test]
    fn roundtrip_prove_matches_resident_including_partial_final_chunk() {
        let dir = tmp_dir("roundtrip");
        let circuit = exponentiate::<Fr>(45); // 47 wires: not a chunk multiple
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(5)], &[]).unwrap();
        let mut rng = zkperf_ff::test_rng();
        let reference = prove(&pk, circuit.r1cs(), &w, &mut rng).unwrap();

        for chunk in [1usize, 13, 1 << 12] {
            let path = write_fixture(&dir, chunk, 45);
            let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
            assert_eq!(reader.stream_header().chunk_points, chunk);
            let mut rng = zkperf_ff::test_rng();
            let streamed = prove_streamed(&reader, circuit.r1cs(), &w, &mut rng).unwrap();
            assert_eq!(streamed, reference, "chunk = {chunk}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_file_reassembles_to_the_resident_key() {
        let dir = tmp_dir("reassemble");
        let circuit = exponentiate::<Fr>(20);
        let mut rng = zkperf_ff::test_rng();
        let resident = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let path = write_fixture(&dir, 7, 20);
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();

        // Drain the reader through a MemorySink — the key must reassemble
        // byte-identically.
        let mut sink = MemorySink::<Bn254>::new();
        use zkperf_groth16::{QuerySink, QuerySource, G1_QUERIES};
        sink.begin(&reader.header()).unwrap();
        for q in G1_QUERIES {
            for chunk in reader.g1_chunks(q) {
                sink.g1_chunk(q, &chunk.unwrap()).unwrap();
            }
        }
        for chunk in reader.g2_chunks() {
            sink.g2_chunk(&chunk.unwrap()).unwrap();
        }
        sink.finish(&reader.fixed().unwrap()).unwrap();
        assert_eq!(sink.into_proving_key().unwrap(), resident);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_checksum_failure_is_typed_with_byte_offset() {
        let dir = tmp_dir("crc");
        let path = write_fixture(&dir, 5, 30);

        // Corrupt one byte inside the H query's second chunk payload.
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        let at = reader.sections[&sec_id(TAG_H, 1)];
        drop(reader);
        let mut bytes = fs::read(&path).unwrap();
        bytes[at.offset as usize + 3] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        // Open succeeds (chunks are lazily verified)…
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        // …the first chunk still reads clean…
        let mut chunks = reader.g1_chunks(G1Query::H);
        assert!(chunks.next().unwrap().is_ok());
        // …and the corrupt one surfaces typed, with the payload offset.
        let err = chunks.next().unwrap().unwrap_err();
        assert_eq!(err.offset, Some(at.offset));
        assert!(err.detail.contains("checksum mismatch"), "{}", err.detail);
        assert!(err.to_string().contains(&format!("byte offset {}", at.offset)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_section_is_typed_corruption_at_open() {
        let dir = tmp_dir("zero");
        let path = write_fixture(&dir, 9, 12);
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        let at = reader.sections[&sec_id(TAG_A, 0)];
        drop(reader);
        let sec_header_at = at.offset as usize - 16;
        let mut bytes = fs::read(&path).unwrap();
        // Zero the section's length field (bytes 4..12 of its header) and
        // splice out its payload so the table stays aligned.
        bytes[sec_header_at + 4..sec_header_at + 12].fill(0);
        bytes.drain(at.offset as usize..at.offset as usize + at.len as usize);
        fs::write(&path, &bytes).unwrap();

        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(err.is_corruption());
        let msg = err.to_string();
        assert!(msg.contains("zero-length section"), "{msg}");
        assert!(msg.contains(&format!("byte offset {sec_header_at}")), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_missing_sections_are_typed() {
        let dir = tmp_dir("trunc");
        let path = write_fixture(&dir, 11, 25);
        let full = fs::read(&path).unwrap();

        // Truncated mid-payload: typed corruption at open.
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(err.is_corruption(), "{err}");

        // Truncated section *count* (header claims more sections than
        // present): typed, not a panic.
        fs::write(&path, &full[..20]).unwrap();
        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(err.is_corruption(), "{err}");

        // Wrong magic.
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(matches!(err.error, FormatError::BadMagic { .. }));

        // Version 1 never had this framing.
        let mut old = full.clone();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &old).unwrap();
        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(matches!(err.error, FormatError::BadVersion(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_enforces_chunk_contract_and_cleans_tmp() {
        let dir = tmp_dir("contract");
        let path = dir.join("bad.zks");
        {
            let mut w = StreamedZkeyWriter::<Bn254>::create(&path).unwrap();
            let header = StreamHeader {
                num_wires: 10,
                num_public_wires: 2,
                domain_size: 8,
                chunk_points: 4,
            };
            QuerySink::<Bn254>::begin(&mut w, &header).unwrap();
            // Wrong chunk length is rejected.
            let pts = vec![zkperf_ec::bn254::G1Affine::generator(); 3];
            let err = w.g1_chunk(G1Query::A, &pts).unwrap_err();
            assert!(err.detail.contains("expected 4"), "{}", err.detail);
            // Dropping without finish leaves no artifact…
        }
        assert!(!path.exists());
        // …and no temp file.
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
