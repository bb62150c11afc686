//! The `.zkey`: the proving-key container, chunked and seekable.
//!
//! A key is the v2 sectioned container of [`crate::format`] (magic
//! `zkst`) with every query vector split into `chunk_points`-point chunks,
//! one section per chunk, the section CRC32 doubling as the chunk
//! checksum. [`StreamedZkeyWriter`] writes it as `setup_streamed` emits
//! chunks and [`StreamedZkeyReader`] lends it to `prove_streamed` a chunk
//! at a time, so neither holds more than one chunk of points.
//!
//! A resident key is the one-chunk case: [`write_zkey`] writes each
//! non-empty query as one chunk under the header chunk size `usize::MAX`
//! — the bytes `setup_streamed(.., usize::MAX, ..)` writes — and
//! [`read_zkey`] assembles any chunking back into a [`ProvingKey`], so
//! every key file opens either way.
//!
//! Section ids encode `(query tag << 24) | chunk index`. The header (query
//! lengths and chunk size) fixes the whole table — the header section,
//! the chunks of A, B in G1, L, H and B in G2 in index order, then the
//! fixed points — so the writer emits the section count up front and the
//! reader accepts that table and no other. Every failure is a typed
//! [`FormatError`] located at its section's byte offset (a [`StreamError`]
//! carrying the offset when a chunk is streamed): never a panic or a
//! silent truncation.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use zkperf_ec::{Affine, CurveParams, Engine};
use zkperf_groth16::{
    ChunkedKey, FixedParts, G1Chunks, G1Query, G2Chunks, ProvingKey, QuerySink, QuerySource,
    StreamError, StreamHeader, VerifyingKey, G1_QUERIES,
};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::artifact::{write_atomic, ArtifactError, AtomicFile};
use crate::codec::{decode_point, decode_point_vec, encode_point, encode_point_vec, FieldCodec};
use crate::format::{
    expect_preamble, read_payload, read_section_header, write_preamble, write_section, Cursor,
    FormatError, Payload, SectionHeader, PREAMBLE_LEN, SECTION_HEADER_LEN,
};

/// Magic of the proving-key container.
pub const MAGIC_ZKEY_STREAM: [u8; 4] = *b"zkst";

/// Upper bound on total sections (≈ chunk count); 2^21 sections cover a
/// 2^30-point key at the minimum chunk size, with margin.
const MAX_STREAM_SECTIONS: usize = 1 << 21;

/// Section tags: the header is 0, query slot `s` is `s + 1`, the fixed
/// points are 6.
const TAG_HEADER: u32 = 0;
const TAG_FIXED: u32 = 6;

/// Slot of the G2 query, after the four G1 queries.
const G2_SLOT: usize = 4;

/// A G1 query's slot: its position in stream order.
fn g1_slot(q: G1Query) -> usize {
    G1_QUERIES.iter().position(|&g| g == q).unwrap_or_default()
}

/// Points per query slot: A, B in G1, L, H, then B in G2.
fn query_lens(header: &StreamHeader) -> [usize; 5] {
    let [a, b, l, h] = G1_QUERIES.map(|q| header.g1_len(q));
    [a, b, l, h, header.g2_len()]
}

fn sec_id(tag: u32, index: usize) -> u32 {
    (tag << 24) | index as u32
}

fn chunk_id(slot: usize, index: usize) -> u32 {
    sec_id(slot as u32 + 1, index)
}

/// The section ids a key of this shape is written as, in file order.
fn section_ids(header: &StreamHeader) -> impl Iterator<Item = u32> + '_ {
    let chunks = query_lens(header)
        .into_iter()
        .enumerate()
        .flat_map(move |(slot, len)| (0..header.chunks_of(len)).map(move |i| chunk_id(slot, i)));
    std::iter::once(sec_id(TAG_HEADER, 0))
        .chain(chunks)
        .chain([sec_id(TAG_FIXED, 0)])
}

fn section_count(header: &StreamHeader) -> usize {
    let chunks = query_lens(header).map(|len| header.chunks_of(len));
    chunks.into_iter().fold(2, usize::saturating_add)
}

/// Points expected in chunk `index` of a query of `len` points.
fn chunk_len(len: usize, chunk_points: usize, index: usize) -> usize {
    chunk_points.min(len.saturating_sub(index.saturating_mul(chunk_points)))
}

/// The shape checks: the writer refuses to write what the reader refuses
/// to read.
fn check_header(header: &StreamHeader) -> Result<(), FormatError> {
    if header.chunk_points == 0 {
        return Err(FormatError::Corrupt("zero chunk size"));
    }
    if header.num_public_wires > header.num_wires {
        return Err(FormatError::Corrupt("public wires exceed wires"));
    }
    if !header.domain_size.is_power_of_two() || header.domain_size > (1 << 30) {
        return Err(FormatError::Corrupt("bad domain size"));
    }
    if section_count(header) > MAX_STREAM_SECTIONS {
        return Err(FormatError::Corrupt("unreasonable section count"));
    }
    Ok(())
}

fn decode_header(raw: &[u8]) -> Result<StreamHeader, FormatError> {
    let mut cur = Cursor::new(raw);
    let header = StreamHeader {
        num_wires: cur.u64()? as usize,
        num_public_wires: cur.u64()? as usize,
        domain_size: cur.u64()? as usize,
        chunk_points: cur.u64()? as usize,
    };
    if !cur.finished() {
        return Err(FormatError::Corrupt("trailing bytes in header section"));
    }
    check_header(&header)?;
    Ok(header)
}

fn decode_fixed<E: Engine>(raw: &[u8], header: &StreamHeader) -> Result<FixedParts<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut cur = Cursor::new(raw);
    // Fields are decoded in the order they are written, which is file order.
    let fixed = FixedParts {
        beta_g1: decode_point::<E::G1>(&mut cur)?,
        delta_g1: decode_point::<E::G1>(&mut cur)?,
        vk: VerifyingKey {
            alpha_g1: decode_point::<E::G1>(&mut cur)?,
            beta_g2: decode_point::<E::G2>(&mut cur)?,
            gamma_g2: decode_point::<E::G2>(&mut cur)?,
            delta_g2: decode_point::<E::G2>(&mut cur)?,
            ic: decode_point_vec::<E::G1>(&mut cur)?,
        },
    };
    if !cur.finished() {
        return Err(FormatError::Corrupt("trailing bytes in fixed section"));
    }
    if fixed.vk.ic.len() != header.num_public_wires {
        return Err(FormatError::Corrupt("ic length disagrees with header"));
    }
    Ok(fixed)
}

/// Lowers a (possibly located) [`FormatError`] into the transport error
/// the `groth16` streaming traits carry.
fn stream_err(path: Option<&Path>, e: FormatError) -> StreamError {
    let (offset, inner) = match e {
        FormatError::AtOffset { offset, inner } => (Some(offset), *inner),
        other => (None, other),
    };
    StreamError {
        path: path.map(|p| p.display().to_string()),
        offset,
        detail: inner.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes a key's sections as its chunks arrive, each checked against the
/// header's shape. `to_file` says whether the bytes cross a file boundary,
/// and so count as streamed, or land in memory.
struct ChunkWriter<E: Engine, W: Write> {
    out: W,
    to_file: bool,
    header: Option<StreamHeader>,
    emitted: [usize; 5], // chunks written per query slot
    _marker: std::marker::PhantomData<E>,
}

impl<E: Engine, W: Write> ChunkWriter<E, W>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    fn new(out: W, to_file: bool) -> ChunkWriter<E, W> {
        let _marker = std::marker::PhantomData;
        ChunkWriter {
            out,
            to_file,
            header: None,
            emitted: [0; 5],
            _marker,
        }
    }

    fn section(&mut self, id: u32, payload: Payload) -> Result<(), FormatError> {
        write_section(&mut self.out, id, &payload.0)?;
        if self.to_file {
            pool::mem::add_streamed_bytes(payload.0.len() as u64);
        }
        Ok(())
    }

    fn begin(&mut self, header: &StreamHeader) -> Result<(), FormatError> {
        if self.header.is_some() {
            return Err(FormatError::Corrupt("begin called twice"));
        }
        check_header(header)?;
        self.header = Some(*header);
        write_preamble(&mut self.out, MAGIC_ZKEY_STREAM, section_count(header))?;
        let mut head = Payload::default();
        head.u64(header.num_wires as u64);
        head.u64(header.num_public_wires as u64);
        head.u64(header.domain_size as u64);
        head.u64(header.chunk_points as u64);
        self.section(sec_id(TAG_HEADER, 0), head)
    }

    fn header(&self) -> Result<StreamHeader, FormatError> {
        self.header
            .ok_or(FormatError::Corrupt("chunk before begin"))
    }

    fn chunk<C: CurveParams>(&mut self, slot: usize, pts: &[Affine<C>]) -> Result<(), FormatError>
    where
        C::Base: FieldCodec,
    {
        let header = self.header()?;
        let len = query_lens(&header)[slot];
        let index = self.emitted[slot];
        if index >= header.chunks_of(len) || pts.len() != chunk_len(len, header.chunk_points, index)
        {
            return Err(FormatError::Corrupt("chunk point count mismatch"));
        }
        let mut payload = Payload::default();
        encode_point_vec(pts, &mut payload);
        self.section(chunk_id(slot, index), payload)?;
        self.emitted[slot] += 1;
        Ok(())
    }

    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), FormatError> {
        let header = self.header()?;
        let lens = query_lens(&header);
        if lens
            .iter()
            .zip(self.emitted)
            .any(|(&len, n)| n != header.chunks_of(len))
        {
            return Err(FormatError::Corrupt("a query is missing chunks"));
        }
        if fixed.vk.ic.len() != header.num_public_wires {
            return Err(FormatError::Corrupt("ic length disagrees with header"));
        }
        let mut payload = Payload::default();
        for p in [&fixed.beta_g1, &fixed.delta_g1, &fixed.vk.alpha_g1] {
            encode_point(p, &mut payload);
        }
        for p in [&fixed.vk.beta_g2, &fixed.vk.gamma_g2, &fixed.vk.delta_g2] {
            encode_point(p, &mut payload);
        }
        encode_point_vec(&fixed.vk.ic, &mut payload);
        self.section(sec_id(TAG_FIXED, 0), payload)?;
        Ok(self.out.flush()?)
    }

    /// Writes every chunk of `key`, then its fixed points.
    fn write_key(&mut self, key: &impl QuerySource<E>) -> Result<(), FormatError> {
        // A source that cannot deliver a chunk failed to read it.
        let lost = |e: StreamError| FormatError::Io(io::Error::other(e));
        self.begin(&key.header())?;
        for (slot, q) in G1_QUERIES.into_iter().enumerate() {
            for chunk in key.g1_chunks(q) {
                self.chunk(slot, &chunk.map_err(lost)?)?;
            }
        }
        for chunk in key.g2_chunks() {
            self.chunk(G2_SLOT, &chunk.map_err(lost)?)?;
        }
        self.finish(&key.fixed().map_err(lost)?)
    }
}

/// Writes `key`, at its own chunking, as a `.zkey` container.
///
/// # Errors
///
/// Writer failures, a chunk source failure (as [`FormatError::Io`]), and a
/// key whose vectors disagree with its header ([`FormatError::Corrupt`]).
pub fn write_zkey_chunks<E: Engine>(
    w: &mut impl Write,
    key: &impl QuerySource<E>,
) -> Result<(), FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    ChunkWriter::new(w, false).write_key(key)
}

/// Writes a resident proving key as a one-chunk `.zkey` container.
///
/// # Errors
///
/// As [`write_zkey_chunks`].
pub fn write_zkey<E: Engine>(w: &mut impl Write, pk: &ProvingKey<E>) -> Result<(), FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    write_zkey_chunks(w, &ChunkedKey::new(pk, usize::MAX))
}

/// Atomically writes a resident proving key to `path` as a one-chunk
/// `.zkey`, counting its payload bytes as streamed.
///
/// # Errors
///
/// [`ArtifactError`] carrying the path on any failure.
pub fn write_zkey_file<E: Engine>(path: &Path, pk: &ProvingKey<E>) -> Result<(), ArtifactError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    write_atomic(path, |w| {
        ChunkWriter::new(w, true).write_key(&ChunkedKey::new(pk, usize::MAX))
    })
}

/// Incremental writer for the `.zkey`; the [`QuerySink`]
/// `zkperf_groth16::setup_streamed` drives. Writes to a `.tmp` sibling
/// and renames it into place on [`QuerySink::finish`], so a crashed setup
/// never leaves a half-written key that later reads as corruption.
pub struct StreamedZkeyWriter<E: Engine>(ChunkWriter<E, AtomicFile>);

impl<E: Engine> StreamedZkeyWriter<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    /// Opens the temporary sibling of `path` for writing.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] carrying `path` when the file cannot be created.
    pub fn create(path: impl Into<PathBuf>) -> Result<StreamedZkeyWriter<E>, ArtifactError> {
        Ok(StreamedZkeyWriter(ChunkWriter::new(
            AtomicFile::create(&path.into())?,
            true,
        )))
    }

    fn fail(&self, e: FormatError) -> StreamError {
        stream_err(Some(self.0.out.path()), e)
    }
}

impl<E: Engine> QuerySink<E> for StreamedZkeyWriter<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError> {
        self.0.begin(header).map_err(|e| self.fail(e))
    }

    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError> {
        self.0.chunk(g1_slot(q), pts).map_err(|e| self.fail(e))
    }

    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError> {
        self.0.chunk(G2_SLOT, pts).map_err(|e| self.fail(e))
    }

    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError> {
        self.0.finish(fixed).map_err(|e| self.fail(e))?;
        self.0.out.commit().map_err(|e| self.fail(e.into()))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One section's place in the source, from the open-time scan.
#[derive(Debug, Clone, Copy)]
struct SectionAt {
    /// Byte offset of the payload (after the section's header).
    offset: u64,
    header: SectionHeader,
}

/// Seekable chunk reader over a `.zkey`; the [`QuerySource`]
/// `zkperf_groth16::prove_streamed` consumes. `R` is the byte source: a
/// file from [`StreamedZkeyReader::open`], or the buffer behind
/// [`read_zkey`].
///
/// Opening scans the section table once (seeking over payloads, reading
/// none of them) and decodes only the small header and fixed sections;
/// query chunks are read, checksum-verified, and decoded on demand as the
/// prover's chunk iterators advance, so peak residency is one chunk.
pub struct StreamedZkeyReader<E: Engine, R = fs::File> {
    /// The file behind `src`, if any: errors name it, and only its bytes
    /// count as streamed.
    path: Option<PathBuf>,
    src: RefCell<R>,
    header: StreamHeader,
    /// Every section, in file order (the order [`section_ids`] gives).
    table: Vec<SectionAt>,
    fixed: FixedParts<E>,
}

impl<E: Engine, R> std::fmt::Debug for StreamedZkeyReader<E, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedZkeyReader")
            .field("path", &self.path)
            .field("header", &self.header)
            .field("sections", &self.table.len())
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
    /// section table other than the header's, or a corrupt header/fixed
    /// payload. Chunk payloads are *not* validated here — their checksums
    /// are verified as they stream.
    pub fn open(path: impl Into<PathBuf>) -> Result<StreamedZkeyReader<E>, ArtifactError> {
        let path = path.into();
        fs::File::open(&path)
            .map_err(FormatError::from)
            .and_then(|file| StreamedZkeyReader::index(file, Some(path.clone())))
            .map_err(|e| ArtifactError::new(&path, e))
    }
}

impl<E: Engine, R: Read + Seek> StreamedZkeyReader<E, R>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    /// Scans the section table of `src` and decodes its header and fixed
    /// sections; `path` names a file source.
    fn index(mut src: R, path: Option<PathBuf>) -> Result<StreamedZkeyReader<E, R>, FormatError> {
        let count = expect_preamble(&mut src, MAGIC_ZKEY_STREAM, MAX_STREAM_SECTIONS)?;
        // Record each section's place, seeking past its payload; a
        // zero-length or truncated section fails at its own header.
        let end = src.seek(SeekFrom::End(0))?;
        let mut pos = src.seek(SeekFrom::Start(PREAMBLE_LEN))?;
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let at = pos;
            let header = read_section_header(&mut src).map_err(|e| e.at_offset(at))?;
            if header.len == 0 {
                return Err(FormatError::Corrupt("zero-length section").at_offset(at));
            }
            pos = at + SECTION_HEADER_LEN + header.len;
            if pos > end {
                return Err(FormatError::Corrupt("truncated section").at_offset(at));
            }
            table.push(SectionAt {
                offset: at + SECTION_HEADER_LEN,
                header,
            });
            src.seek(SeekFrom::Start(pos))?;
        }
        if pos < end {
            return Err(
                FormatError::Corrupt("trailing bytes after the last section").at_offset(pos),
            );
        }

        let from_file = path.is_some();
        let head_at = *table
            .first()
            .ok_or(FormatError::MissingSection(sec_id(TAG_HEADER, 0)))?;
        let raw = read_section(&mut src, &head_at, from_file)?;
        let header = decode_header(&raw).map_err(|e| e.at_offset(head_at.offset))?;

        // The header fixes the table: exactly its sections, in its order. A
        // duplicate, missing, reordered or foreign section is out of place.
        if count != section_count(&header) {
            return Err(FormatError::Corrupt("section count disagrees with header").at_offset(8));
        }
        for (at, id) in table.iter().zip(section_ids(&header)) {
            if at.header.id != id {
                let at = at.offset - SECTION_HEADER_LEN;
                return Err(FormatError::Corrupt("section out of place").at_offset(at));
            }
        }

        let fixed_at = table[count - 1]; // the count is at least 2
        let raw = read_section(&mut src, &fixed_at, from_file)?;
        let fixed = decode_fixed::<E>(&raw, &header).map_err(|e| e.at_offset(fixed_at.offset))?;
        Ok(StreamedZkeyReader {
            path,
            src: RefCell::new(src),
            header,
            table,
            fixed,
        })
    }

    /// Chunks query `slot` is stored in.
    fn chunks(&self, slot: usize) -> usize {
        self.header.chunks_of(query_lens(&self.header)[slot])
    }

    /// Reads, checksum-verifies and decodes chunk `index` of query `slot`.
    fn chunk<C: CurveParams>(
        &self,
        slot: usize,
        index: usize,
    ) -> Result<Vec<Affine<C>>, FormatError>
    where
        C::Base: FieldCodec,
    {
        let position = 1 + (0..slot).map(|s| self.chunks(s)).sum::<usize>() + index;
        let at = *self
            .table
            .get(position)
            .ok_or(FormatError::MissingSection(chunk_id(slot, index)))?;
        let raw = read_section(&mut *self.src.borrow_mut(), &at, self.path.is_some())?;
        let mut cur = Cursor::new(&raw);
        let pts = decode_point_vec::<C>(&mut cur).map_err(|e| e.at_offset(at.offset))?;
        let len = query_lens(&self.header)[slot];
        if pts.len() != chunk_len(len, self.header.chunk_points, index) || !cur.finished() {
            return Err(FormatError::Corrupt("chunk point count mismatch").at_offset(at.offset));
        }
        Ok(pts)
    }

    /// Reads every chunk of query `slot` into one vector; a one-chunk
    /// query is moved, not copied.
    fn query<C: CurveParams>(&self, slot: usize) -> Result<Vec<Affine<C>>, FormatError>
    where
        C::Base: FieldCodec,
    {
        let mut all = Vec::new();
        for index in 0..self.chunks(slot) {
            let mut chunk = self.chunk(slot, index)?;
            if all.is_empty() {
                all = chunk;
            } else {
                all.append(&mut chunk);
            }
        }
        Ok(all)
    }

    /// Reads every chunk, in file order, into a resident key.
    fn into_proving_key(self) -> Result<ProvingKey<E>, FormatError> {
        let [a_query, b_g1_query, l_query, h_query] = [0, 1, 2, 3].map(|slot| self.query(slot));
        Ok(ProvingKey {
            a_query: a_query?,
            b_g1_query: b_g1_query?,
            l_query: l_query?,
            h_query: h_query?,
            b_g2_query: self.query(G2_SLOT)?,
            vk: self.fixed.vk,
            beta_g1: self.fixed.beta_g1,
            delta_g1: self.fixed.delta_g1,
            domain_size: self.header.domain_size,
            num_public_wires: self.header.num_public_wires,
        })
    }

    fn transport(&self, e: FormatError) -> StreamError {
        stream_err(self.path.as_deref(), e)
    }
}

/// Reads one section's payload, checksum-verified; a failure is located at
/// the payload's offset.
fn read_section<R: Read + Seek>(
    src: &mut R,
    at: &SectionAt,
    from_file: bool,
) -> Result<Vec<u8>, FormatError> {
    let payload = src
        .seek(SeekFrom::Start(at.offset))
        .map_err(FormatError::from)
        .and_then(|_| read_payload(src, &at.header))
        .map_err(|e| e.at_offset(at.offset))?;
    if from_file {
        pool::mem::add_streamed_bytes(at.header.len);
    }
    Ok(payload)
}

impl<E: Engine, R: Read + Seek> QuerySource<E> for StreamedZkeyReader<E, R>
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
        let slot = g1_slot(q);
        let chunks = (0..self.chunks(slot)).map(move |i| self.chunk(slot, i));
        Box::new(chunks.map(|c| c.map(Cow::Owned).map_err(|e| self.transport(e))))
    }

    fn g2_chunks(&self) -> G2Chunks<'_, E> {
        let chunks = (0..self.chunks(G2_SLOT)).map(|i| self.chunk(G2_SLOT, i));
        Box::new(chunks.map(|c| c.map(Cow::Owned).map_err(|e| self.transport(e))))
    }
}

/// Reads a `.zkey` container at any chunking into a resident proving key.
///
/// # Errors
///
/// [`FormatError`] on malformed input (every point is curve-checked).
pub fn read_zkey<E: Engine>(r: &mut impl Read) -> Result<ProvingKey<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    StreamedZkeyReader::index(io::Cursor::new(bytes), None)?.into_proving_key()
}

/// Reads the `.zkey` at `path` into a resident proving key one section at
/// a time, counting its payload bytes as streamed.
///
/// # Errors
///
/// [`ArtifactError`] carrying the path on any failure; use
/// [`ArtifactError::is_corruption`] to decide evict-and-rebuild.
pub fn read_zkey_file<E: Engine>(path: &Path) -> Result<ProvingKey<E>, ArtifactError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    let reader = StreamedZkeyReader::<E>::open(path)?;
    reader
        .into_proving_key()
        .map_err(|e| ArtifactError::new(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_groth16::{setup, setup_streamed};

    impl<E: Engine, R> StreamedZkeyReader<E, R> {
        fn section(&self, id: u32) -> SectionAt {
            *self.table.iter().find(|s| s.header.id == id).unwrap()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zkperf-stream-{tag}-{}", std::process::id()));
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

    /// A key of `exponentiate(constraints)` written in memory at `chunk`.
    fn key_bytes(constraints: usize, chunk: usize) -> Vec<u8> {
        let circuit = exponentiate::<Fr>(constraints);
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();
        let mut bytes = Vec::new();
        write_zkey_chunks(&mut bytes, &ChunkedKey::new(&pk, chunk)).unwrap();
        bytes
    }

    /// The located error `read_zkey` gives for `bytes`, as text.
    fn located_error(bytes: &[u8]) -> String {
        let err = read_zkey::<Bn254>(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, FormatError::AtOffset { .. }), "{err}");
        err.to_string()
    }

    #[test]
    fn the_section_table_must_be_the_headers() {
        let good = key_bytes(12, 5);
        let reader = StreamedZkeyReader::<Bn254, _>::index(io::Cursor::new(good.clone()), None);
        let reader = reader.unwrap();
        let id_at = |i| (reader.section(chunk_id(0, i)).offset - SECTION_HEADER_LEN) as usize;
        let (a0, a1) = (id_at(0), id_at(1));
        let with_ids = |first: u32, second: u32| {
            let mut bytes = good.clone();
            bytes[a0..a0 + 4].copy_from_slice(&first.to_le_bytes());
            bytes[a1..a1 + 4].copy_from_slice(&second.to_le_bytes());
            located_error(&bytes)
        };
        // A duplicate and a swap are out of place at the first section that is.
        for (ids, at) in [((0, 0), a1), ((1, 0), a0)] {
            let msg = with_ids(chunk_id(0, ids.0), chunk_id(0, ids.1));
            assert!(msg.contains("section out of place"), "{msg}");
            assert!(msg.contains(&format!("offset {at})")), "{msg}");
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(located_error(&trailing).contains("trailing bytes after the last section"));
    }

    #[test]
    fn mid_stream_checksum_failure_is_typed_with_byte_offset() {
        let dir = tmp_dir("crc");
        let path = write_fixture(&dir, 5, 30);

        // Corrupt one byte inside the H query's second chunk payload.
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        let at = reader.section(chunk_id(3, 1));
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
        assert!(err
            .to_string()
            .contains(&format!("byte offset {}", at.offset)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_section_is_typed_corruption_at_open() {
        let dir = tmp_dir("zero");
        let path = write_fixture(&dir, 9, 12);
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        let at = reader.section(chunk_id(0, 0));
        drop(reader);
        let sec_header_at = at.offset as usize - 16;
        let mut bytes = fs::read(&path).unwrap();
        // Zero the section's length field (bytes 4..12 of its header) and
        // splice out its payload so the table stays aligned.
        bytes[sec_header_at + 4..sec_header_at + 12].fill(0);
        bytes.drain(at.offset as usize..(at.offset + at.header.len) as usize);
        fs::write(&path, &bytes).unwrap();

        let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
        assert!(err.is_corruption());
        let msg = err.to_string();
        assert!(msg.contains("zero-length section"), "{msg}");
        assert!(
            msg.contains(&format!("byte offset {sec_header_at}")),
            "{msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
