//! The chunk transport between `setup`, the proving key and `prove`.
//!
//! The proving key's query vectors are the prover's memory wall — at
//! 2^20 constraints they are hundreds of megabytes of affine points. Key
//! material therefore moves as chunks between a [`QuerySink`]
//! ([`crate::setup_streamed`]'s output) and a [`QuerySource`]
//! ([`crate::prove_streamed`]'s input), and the only state those two hold
//! beyond the scalar-side vectors is one chunk.
//!
//! A resident [`ProvingKey`] is one implementation of each trait —
//! [`MemorySink`] collects chunks into it, [`ChunkedKey`] lends slices of
//! it — with one chunk per query, or chunks sized from
//! `ZKPERF_MEM_BUDGET`. The traits live here (not in `zkperf-io`) because
//! `zkperf-io` already depends on this crate; its streamed zkey
//! reader/writer implement them over the checksummed v2 container format.
//!
//! # Determinism
//!
//! Artifacts are byte-identical at any chunk size:
//!
//! * Scalar generation runs before any chunk is cut, so RNG draws and
//!   field values do not depend on the chunking.
//! * Fixed-base multiplication results are affine points, and the affine
//!   representative of a group element is unique — batching does not
//!   change bytes.
//! * The streaming MSM folds per-chunk window sums into the same group
//!   element at any chunking, and proofs normalize through
//!   `batch_to_affine` before serialization.
//!
//! `tests/groth16_kat.rs` pins the bytes themselves.

use std::borrow::Cow;

use zkperf_ec::{tuning, Affine, Engine};
use zkperf_pool as pool;

use crate::key::{ProvingKey, VerifyingKey};

/// A failure in the chunk transport (disk, checksum, truncation) as
/// opposed to the proving math. Carries the byte offset of the failing
/// chunk when the transport knows it, so the error surfaces as a typed
/// artifact error with a seekable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Path of the backing artifact, when there is one.
    pub path: Option<String>,
    /// Byte offset of the failing chunk within the artifact, when known.
    pub offset: Option<u64>,
    /// What went wrong.
    pub detail: String,
}

impl StreamError {
    /// A transport-agnostic error with no location info.
    pub fn msg(detail: impl Into<String>) -> StreamError {
        StreamError { path: None, offset: None, detail: detail.into() }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{path}: ")?;
        }
        write!(f, "{}", self.detail)?;
        if let Some(off) = self.offset {
            write!(f, " (at byte offset {off})")?;
        }
        Ok(())
    }
}

impl std::error::Error for StreamError {}

/// The wire-indexed G1 query vectors of a proving key, in their canonical
/// stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum G1Query {
    /// `[uᵢ(τ)]₁` — the A query.
    A,
    /// `[vᵢ(τ)]₁` — the B query mirrored into G1.
    BG1,
    /// `[(β·uᵢ + α·vᵢ + wᵢ)/δ]₁` over the private wires.
    L,
    /// `[τⁱ·z(τ)/δ]₁` over the domain.
    H,
}

/// All G1 queries in stream order.
pub const G1_QUERIES: [G1Query; 4] = [G1Query::A, G1Query::BG1, G1Query::L, G1Query::H];

/// The shape of a streamed key: enough to derive every query length and
/// chunk count without touching point data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Total wires (length of the A/B queries in both groups).
    pub num_wires: usize,
    /// Public wires (`ic` length; `L` covers the rest).
    pub num_public_wires: usize,
    /// Evaluation-domain size (`H` length).
    pub domain_size: usize,
    /// Points per chunk every query is split into (the final chunk of a
    /// query may be shorter).
    pub chunk_points: usize,
}

impl StreamHeader {
    /// Length of one G1 query vector.
    pub fn g1_len(&self, q: G1Query) -> usize {
        match q {
            G1Query::A | G1Query::BG1 => self.num_wires,
            G1Query::L => self.num_wires - self.num_public_wires,
            G1Query::H => self.domain_size,
        }
    }

    /// Length of the G2 query vector.
    pub fn g2_len(&self) -> usize {
        self.num_wires
    }

    /// Chunks a query of `len` points splits into.
    pub fn chunks_of(&self, len: usize) -> usize {
        len.div_ceil(self.chunk_points.max(1))
    }
}

/// The small fixed points of a proving key — everything that is not a
/// wire-indexed query vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedParts<E: Engine> {
    /// `[β]₁`.
    pub beta_g1: Affine<E::G1>,
    /// `[δ]₁`.
    pub delta_g1: Affine<E::G1>,
    /// The embedded verification key (including the short `ic` vector).
    pub vk: VerifyingKey<E>,
}

/// A fallible chunk iterator over one G1 query. Chunks are lent when the
/// source holds the points ([`ChunkedKey`]) and owned when it decodes them
/// on demand (`zkperf-io`'s streamed reader).
pub type G1Chunks<'a, E> =
    Box<dyn Iterator<Item = Result<Cow<'a, [Affine<<E as Engine>::G1>]>, StreamError>> + 'a>;

/// A fallible chunk iterator over the G2 query.
pub type G2Chunks<'a, E> =
    Box<dyn Iterator<Item = Result<Cow<'a, [Affine<<E as Engine>::G2>]>, StreamError>> + 'a>;

/// Read side of a chunked proving key. Implemented by the in-memory
/// [`ChunkedKey`] and by `zkperf-io`'s streamed zkey reader.
pub trait QuerySource<E: Engine> {
    /// The key's shape.
    fn header(&self) -> StreamHeader;
    /// The fixed (non-query) points.
    fn fixed(&self) -> Result<FixedParts<E>, StreamError>;
    /// Chunk iterator over one G1 query, in index order.
    fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, E>;
    /// Chunk iterator over the G2 query, in index order.
    fn g2_chunks(&self) -> G2Chunks<'_, E>;
}

/// Write side of a chunked proving key. Implemented by the in-memory
/// [`MemorySink`] and by `zkperf-io`'s streamed zkey writer.
pub trait QuerySink<E: Engine> {
    /// Announces the shape before any chunk; called exactly once.
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError>;
    /// Appends the next chunk of `q`, in index order.
    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError>;
    /// Appends the next chunk of the G2 query, in index order.
    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError>;
    /// Delivers the fixed points and finalizes the artifact.
    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError>;
}

/// Points per chunk when the key is resident ([`crate::setup`],
/// [`crate::prove`]): sized from `ZKPERF_MEM_BUDGET` by the G1 point, as a
/// key streamed to disk is, and the whole query when there is no budget.
pub(crate) fn resident_chunk_points<E: Engine>() -> usize {
    match pool::mem::budget() {
        Some(budget) => tuning::stream_chunk_points(
            budget,
            std::mem::size_of::<Affine<E::G1>>(),
            std::mem::size_of::<E::Fr>(),
        ),
        None => usize::MAX,
    }
}

/// [`QuerySource`] over a resident [`ProvingKey`]: lends slices of the
/// key's own vectors as chunks; no point is copied.
pub struct ChunkedKey<'a, E: Engine> {
    key: &'a ProvingKey<E>,
    chunk_points: usize,
}

impl<'a, E: Engine> ChunkedKey<'a, E> {
    /// Wraps `key`, splitting every query into `chunk_points`-sized
    /// chunks.
    pub fn new(key: &'a ProvingKey<E>, chunk_points: usize) -> ChunkedKey<'a, E> {
        ChunkedKey { key, chunk_points: chunk_points.max(1) }
    }

    fn g1_query(&self, q: G1Query) -> &'a [Affine<E::G1>] {
        match q {
            G1Query::A => &self.key.a_query,
            G1Query::BG1 => &self.key.b_g1_query,
            G1Query::L => &self.key.l_query,
            G1Query::H => &self.key.h_query,
        }
    }
}

impl<E: Engine> QuerySource<E> for ChunkedKey<'_, E> {
    fn header(&self) -> StreamHeader {
        StreamHeader {
            num_wires: self.key.a_query.len(),
            num_public_wires: self.key.num_public_wires,
            domain_size: self.key.domain_size,
            chunk_points: self.chunk_points,
        }
    }

    fn fixed(&self) -> Result<FixedParts<E>, StreamError> {
        Ok(FixedParts {
            beta_g1: self.key.beta_g1,
            delta_g1: self.key.delta_g1,
            vk: self.key.vk.clone(),
        })
    }

    fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, E> {
        Box::new(self.g1_query(q).chunks(self.chunk_points).map(|c| Ok(Cow::Borrowed(c))))
    }

    fn g2_chunks(&self) -> G2Chunks<'_, E> {
        Box::new(self.key.b_g2_query.chunks(self.chunk_points).map(|c| Ok(Cow::Borrowed(c))))
    }
}

/// [`QuerySink`] that collects the chunks into a resident [`ProvingKey`].
pub struct MemorySink<E: Engine> {
    header: Option<StreamHeader>,
    a: Vec<Affine<E::G1>>,
    b_g1: Vec<Affine<E::G1>>,
    l: Vec<Affine<E::G1>>,
    h: Vec<Affine<E::G1>>,
    b_g2: Vec<Affine<E::G2>>,
    fixed: Option<FixedParts<E>>,
}

impl<E: Engine> MemorySink<E> {
    /// An empty sink.
    pub fn new() -> MemorySink<E> {
        MemorySink {
            header: None,
            a: Vec::new(),
            b_g1: Vec::new(),
            l: Vec::new(),
            h: Vec::new(),
            b_g2: Vec::new(),
            fixed: None,
        }
    }

    /// The assembled key, once `finish` has delivered the fixed parts.
    pub fn into_proving_key(self) -> Option<ProvingKey<E>> {
        let header = self.header?;
        let fixed = self.fixed?;
        Some(ProvingKey {
            vk: fixed.vk,
            beta_g1: fixed.beta_g1,
            delta_g1: fixed.delta_g1,
            a_query: self.a,
            b_g1_query: self.b_g1,
            b_g2_query: self.b_g2,
            l_query: self.l,
            h_query: self.h,
            domain_size: header.domain_size,
            num_public_wires: header.num_public_wires,
        })
    }
}

impl<E: Engine> Default for MemorySink<E> {
    fn default() -> MemorySink<E> {
        MemorySink::new()
    }
}

impl<E: Engine> QuerySink<E> for MemorySink<E> {
    fn begin(&mut self, header: &StreamHeader) -> Result<(), StreamError> {
        self.header = Some(*header);
        self.a.reserve_exact(header.g1_len(G1Query::A));
        self.b_g1.reserve_exact(header.g1_len(G1Query::BG1));
        self.l.reserve_exact(header.g1_len(G1Query::L));
        self.h.reserve_exact(header.g1_len(G1Query::H));
        self.b_g2.reserve_exact(header.g2_len());
        Ok(())
    }

    fn g1_chunk(&mut self, q: G1Query, pts: &[Affine<E::G1>]) -> Result<(), StreamError> {
        match q {
            G1Query::A => self.a.extend_from_slice(pts),
            G1Query::BG1 => self.b_g1.extend_from_slice(pts),
            G1Query::L => self.l.extend_from_slice(pts),
            G1Query::H => self.h.extend_from_slice(pts),
        }
        Ok(())
    }

    fn g2_chunk(&mut self, pts: &[Affine<E::G2>]) -> Result<(), StreamError> {
        self.b_g2.extend_from_slice(pts);
        Ok(())
    }

    fn finish(&mut self, fixed: &FixedParts<E>) -> Result<(), StreamError> {
        self.fixed = Some(fixed.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::{prove, prove_streamed, ProveError};
    use crate::setup::{setup, setup_streamed};
    use crate::verify::verify;
    use zkperf_circuit::Witness;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;
    use zkperf_pool::mem;

    fn fixture() -> (zkperf_circuit::Circuit<Fr>, ProvingKey<Bn254>, Witness<Fr>) {
        let circuit = exponentiate::<Fr>(40);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        (circuit, pk, w)
    }

    #[test]
    fn streamed_setup_reproduces_resident_key() {
        let circuit = exponentiate::<Fr>(25);
        let mut rng = zkperf_ff::test_rng();
        let resident = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        for chunk in [1usize, 7, 64, 1 << 20] {
            let mut rng = zkperf_ff::test_rng();
            let mut sink = MemorySink::<Bn254>::new();
            let vk =
                setup_streamed(circuit.r1cs(), &mut rng, chunk, &mut sink).unwrap();
            let streamed = sink.into_proving_key().unwrap();
            assert_eq!(streamed, resident, "chunk = {chunk}");
            assert_eq!(vk, resident.vk, "chunk = {chunk}");
        }
    }

    #[test]
    fn streamed_prove_reproduces_resident_proof() {
        let (circuit, pk, w) = fixture();
        let mut rng = zkperf_ff::test_rng();
        let reference = prove(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        for chunk in [1usize, 13, 1 << 20] {
            let mut rng = zkperf_ff::test_rng();
            let src = ChunkedKey::new(&pk, chunk);
            let streamed =
                prove_streamed(&src, circuit.r1cs(), &w, &mut rng).unwrap();
            assert_eq!(streamed, reference, "chunk = {chunk}");
        }
        assert!(verify::<Bn254>(&pk.vk, &reference, w.public()).unwrap());
    }

    #[test]
    fn budget_gate_keeps_setup_and_prove_byte_identical() {
        let (circuit, _, w) = fixture();
        mem::set_budget(None);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let mut rng = zkperf_ff::test_rng();
        let reference = prove(&pk, circuit.r1cs(), &w, &mut rng).unwrap();

        // Absurdly small budget: both stages must chunk and still match.
        mem::set_budget(Some(1));
        let mut rng = zkperf_ff::test_rng();
        let pk_budgeted = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let mut rng = zkperf_ff::test_rng();
        let proof_budgeted = prove(&pk_budgeted, circuit.r1cs(), &w, &mut rng).unwrap();
        mem::set_budget(None);

        assert_eq!(pk_budgeted, pk);
        assert_eq!(proof_budgeted, reference);
    }

    #[test]
    fn stream_errors_propagate_with_location() {
        struct FailingSource<'a>(ChunkedKey<'a, Bn254>);
        impl QuerySource<Bn254> for FailingSource<'_> {
            fn header(&self) -> StreamHeader {
                self.0.header()
            }
            fn fixed(&self) -> Result<FixedParts<Bn254>, StreamError> {
                self.0.fixed()
            }
            fn g1_chunks(&self, q: G1Query) -> G1Chunks<'_, Bn254> {
                if matches!(q, G1Query::H) {
                    Box::new(std::iter::once(Err(StreamError {
                        path: Some("pk.zkey".into()),
                        offset: Some(4096),
                        detail: "section checksum mismatch".into(),
                    })))
                } else {
                    self.0.g1_chunks(q)
                }
            }
            fn g2_chunks(&self) -> G2Chunks<'_, Bn254> {
                self.0.g2_chunks()
            }
        }
        let (circuit, pk, w) = fixture();
        let src = FailingSource(ChunkedKey::new(&pk, 8));
        let mut rng = zkperf_ff::test_rng();
        let err = prove_streamed(&src, circuit.r1cs(), &w, &mut rng).unwrap_err();
        match err {
            ProveError::Source(e) => {
                assert_eq!(e.offset, Some(4096));
                let msg = e.to_string();
                assert!(msg.contains("pk.zkey"), "{msg}");
                assert!(msg.contains("byte offset 4096"), "{msg}");
            }
            other => panic!("expected Source error, got {other:?}"),
        }
    }
}
