//! The `setup` stage: trusted parameter generation.
//!
//! One key builder emits the query vectors chunk by chunk into a
//! [`QuerySink`]: [`setup_streamed`] is that builder, [`setup`] collects
//! its chunks into a resident [`ProvingKey`] through a [`MemorySink`], and
//! [`setup_contributed`] is [`setup`] with one phase-2 contribution folded
//! into δ before the group phase. The query scalars are built by
//! `zkperf-pool` jobs over `SCALAR_GRAIN`-scalar chunks — one body each,
//! inline on the caller when the pool says so.

use rand::Rng;

use zkperf_circuit::R1cs;
use zkperf_ec::{Engine, FixedBaseTable, Projective};
use zkperf_ff::{BigUint, Field};
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_trace as trace;

/// Scalars per pool task when building the query batches.
const SCALAR_GRAIN: usize = 1 << 11;

use crate::key::{ProvingKey, VerifyingKey};
use crate::qap;
use crate::stream::{
    resident_chunk_points, FixedParts, G1Query, MemorySink, QuerySink, StreamError, StreamHeader,
};

/// Errors from [`setup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// The constraint count exceeds the scalar field's 2-adic domain.
    CircuitTooLarge {
        /// Constraints requested.
        constraints: usize,
    },
    /// The ambient [`zkperf_pool::CancelToken`] was cancelled or its
    /// deadline expired; setup was abandoned at a stage boundary.
    Cancelled,
    /// The key's chunk transport failed (disk full, chunk contract
    /// violated) — never from the resident [`MemorySink`].
    Sink(StreamError),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::CircuitTooLarge { constraints } => {
                write!(f, "circuit with {constraints} constraints exceeds the FFT domain")
            }
            SetupError::Cancelled => write!(f, "setup cancelled by caller or deadline"),
            SetupError::Sink(e) => write!(f, "streamed key sink: {e}"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<StreamError> for SetupError {
    fn from(e: StreamError) -> SetupError {
        SetupError::Sink(e)
    }
}

/// Runs the Groth16 trusted setup over `r1cs`, producing the proving and
/// verification keys: [`setup_streamed`] into a [`MemorySink`] — one chunk
/// per query, or `ZKPERF_MEM_BUDGET`-sized chunks, which bound the
/// fixed-base transient working set and change no byte of the key.
///
/// # Errors
///
/// Returns [`SetupError::CircuitTooLarge`] if the constraint count exceeds
/// the field's 2-adic FFT domain.
pub fn setup<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
) -> Result<ProvingKey<E>, SetupError> {
    setup_resident(r1cs, rng, false)
}

/// [`setup`] followed by one [`contribute`](crate::contribute), for the
/// party that runs both: the same key, byte for byte, and the same RNG
/// draws (τ, α, β, γ, δ, then the contribution's `d`), without the
/// contribution's variable-base sweep.
///
/// A phase-2 contributor multiplies every `L` and `H` point by `d⁻¹`
/// because they do not know δ. The caller of this function drew δ a
/// moment earlier, so it uses `δ·d` and `(δ·d)⁻¹` in the scalar phase and
/// the fixed-base pass emits the contributed key directly. Trust
/// assumptions are those of `setup` then `contribute` by one party, who
/// held both δ and `d` either way; a key other parties will contribute
/// to goes through [`setup`] and [`contribute`](crate::contribute).
///
/// # Errors
///
/// As [`setup`].
pub fn setup_contributed<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
) -> Result<ProvingKey<E>, SetupError> {
    setup_resident(r1cs, rng, true)
}

/// The key builder into a [`MemorySink`].
fn setup_resident<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
    contributed: bool,
) -> Result<ProvingKey<E>, SetupError> {
    let mut sink = MemorySink::<E>::new();
    build_key(r1cs, rng, resident_chunk_points::<E>(), &mut sink, contributed)?;
    sink.into_proving_key()
        .ok_or_else(|| SetupError::Sink(StreamError::msg("key sink was never finished")))
}

/// Runs the Groth16 trusted setup with the key leaving through `sink` in
/// chunks of `chunk_points` points.
///
/// The toxic waste `(τ, α, β, γ, δ)` is sampled from `rng` and dropped on
/// return. Dominated by fixed-base multi-exponentiation: the G1 query
/// batches. (The paper's 76.1%-of-execution-time setup
/// stage is this plus a ceremony [`contribute`](crate::contribute), which
/// is the larger part.) The RNG draws and the emitted points do not
/// depend on `chunk_points` (affine coordinates are canonical), so a key
/// streamed to disk and read back equals the resident one byte for
/// byte. Emission order: header,
/// then the [`crate::G1_QUERIES`] in order, then the G2 query, then the
/// fixed parts.
///
/// Returns the verification key (also embedded in the fixed parts).
///
/// # Errors
///
/// [`SetupError::CircuitTooLarge`] if the constraint count exceeds the
/// field's 2-adic FFT domain, [`SetupError::Cancelled`] when the ambient
/// cancel token fires between chunks, and [`SetupError::Sink`] with the
/// first error `sink` returns.
pub fn setup_streamed<E: Engine, R: Rng + ?Sized, S: QuerySink<E>>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
    chunk_points: usize,
    sink: &mut S,
) -> Result<VerifyingKey<E>, SetupError> {
    build_key(r1cs, rng, chunk_points, sink, false)
}

/// The one key builder. With `contributed`, one more invertible scalar
/// `d` is drawn after δ and the key is built for `δ·d`: what
/// [`contribute`](crate::contribute) would turn the plain key into with
/// the same `rng`.
fn build_key<E: Engine, R: Rng + ?Sized, S: QuerySink<E>>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
    chunk_points: usize,
    sink: &mut S,
    contributed: bool,
) -> Result<VerifyingKey<E>, SetupError> {
    let _g = trace::region_profile("setup");
    let domain =
        Radix2Domain::<E::Fr>::new_power_of_two(r1cs.num_constraints().max(2)).ok_or(
            SetupError::CircuitTooLarge {
                constraints: r1cs.num_constraints(),
            },
        )?;

    // Toxic waste; τ outside the domain, divisors non-zero.
    let tau = loop {
        let t = E::Fr::random(rng);
        if !domain.eval_vanishing(t).is_zero() {
            break t;
        }
    };
    let nonzero = |rng: &mut R| loop {
        let v = E::Fr::random(rng);
        if !v.is_zero() {
            break v;
        }
    };
    // Sample γ and δ together with their inverses, so invertibility is
    // established by construction instead of asserted after the fact.
    let invertible = |rng: &mut R| loop {
        let v = E::Fr::random(rng);
        if let Some(inv) = v.inverse() {
            break (v, inv);
        }
    };
    let (alpha, beta) = (nonzero(rng), nonzero(rng));
    let (gamma, gamma_inv) = invertible(rng);
    let (mut delta, mut delta_inv) = invertible(rng);
    if contributed {
        let (d, d_inv) = invertible(rng);
        delta *= d;
        delta_inv *= d_inv;
    }

    if pool::cancellation_pending() {
        return Err(SetupError::Cancelled);
    }

    // QAP evaluations at τ for every wire.
    let (u, v, w) = qap::evaluate_matrices_at(r1cs, &domain, tau);
    let num_public = r1cs.num_public_wires();

    // Scalar batches for the group queries, each an index-addressed map
    // built on the pool. The h-power chain seeds each chunk with one
    // exponentiation, making chunks independent while computing the exact
    // field values of a single running prefix.
    let query_scalars = |first: usize, len: usize, inv: E::Fr| {
        let mut out = vec![E::Fr::zero(); len];
        pool::parallel_fill(&mut out, SCALAR_GRAIN, |j| {
            let i = first + j;
            (beta * u[i] + alpha * v[i] + w[i]) * inv
        });
        out
    };
    let ic_scalars = query_scalars(0, num_public, gamma_inv);
    let l_scalars = query_scalars(num_public, r1cs.num_wires() - num_public, delta_inv);
    let z_tau = domain.eval_vanishing(tau);
    let mut h_scalars = vec![E::Fr::zero(); domain.size()];
    pool::parallel_chunks_mut(&mut h_scalars, SCALAR_GRAIN, |ci, chunk| {
        let mut tau_pow = tau.pow(&BigUint::from_u64((ci * SCALAR_GRAIN) as u64));
        for slot in chunk.iter_mut() {
            *slot = tau_pow * z_tau * delta_inv;
            tau_pow *= tau;
        }
    });

    // The group phase needs only `u` and `v` of the QAP evaluations.
    drop(w);

    if pool::cancellation_pending() {
        return Err(SetupError::Cancelled);
    }

    let chunk_points = chunk_points.max(1);
    sink.begin(&StreamHeader {
        num_wires: r1cs.num_wires(),
        num_public_wires: num_public,
        domain_size: domain.size(),
        chunk_points,
    })?;

    // One fixed-base window table per generator, built once and shared by
    // every query. Size each by the scalars that actually cost work: the
    // QAP matrices are sparse, so (especially for G2, whose field ops are
    // several times pricier) the nonzero count can be orders of magnitude
    // below the batch length, and a table tuned to the raw length would
    // cost more to build than it saves. [α, β, δ] and [β, γ, δ] are
    // nonzero by construction.
    let count = |s: &[E::Fr]| s.iter().filter(|x| !x.is_zero()).count();
    let g1_nonzero =
        count(&u) + count(&v) + count(&ic_scalars) + count(&l_scalars) + count(&h_scalars) + 3;
    let g2_nonzero = count(&v) + 3;
    let t1 = FixedBaseTable::for_batch(&Projective::<E::G1>::generator(), g1_nonzero);
    let t2 = FixedBaseTable::for_batch(&Projective::<E::G2>::generator(), g2_nonzero);

    let emit_g1 = |sink: &mut S, q: G1Query, scalars: &[E::Fr]| -> Result<(), SetupError> {
        for chunk in scalars.chunks(chunk_points) {
            if pool::cancellation_pending() {
                return Err(SetupError::Cancelled);
            }
            sink.g1_chunk(q, &t1.mul_batch(chunk))?;
        }
        Ok(())
    };
    emit_g1(sink, G1Query::A, &u)?;
    emit_g1(sink, G1Query::BG1, &v)?;
    emit_g1(sink, G1Query::L, &l_scalars)?;
    emit_g1(sink, G1Query::H, &h_scalars)?;

    for chunk in v.chunks(chunk_points) {
        if pool::cancellation_pending() {
            return Err(SetupError::Cancelled);
        }
        sink.g2_chunk(&t2.mul_batch(chunk))?;
    }

    let ic = t1.mul_batch(&ic_scalars);
    let g1_fixed = t1.mul_batch(&[alpha, beta, delta]);
    let g2_fixed = t2.mul_batch(&[beta, gamma, delta]);
    let vk = VerifyingKey {
        alpha_g1: g1_fixed[0],
        beta_g2: g2_fixed[0],
        gamma_g2: g2_fixed[1],
        delta_g2: g2_fixed[2],
        ic,
    };
    let fixed = FixedParts { beta_g1: g1_fixed[1], delta_g1: g1_fixed[2], vk: vk.clone() };
    sink.finish(&fixed)?;
    Ok(vk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;

    #[test]
    fn setup_produces_consistent_shapes() {
        let circuit = exponentiate::<zkperf_ff::bn254::Fr>(10);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let n = circuit.r1cs().num_wires();
        assert_eq!(pk.a_query.len(), n);
        assert_eq!(pk.b_g1_query.len(), n);
        assert_eq!(pk.b_g2_query.len(), n);
        assert_eq!(pk.vk.ic.len(), circuit.r1cs().num_public_wires());
        assert_eq!(
            pk.l_query.len(),
            n - circuit.r1cs().num_public_wires()
        );
        assert_eq!(pk.h_query.len(), pk.domain_size);
        assert_eq!(pk.domain_size, 16); // 10 constraints → 16-point domain
    }

    /// Counts chunks and cancels the ambient token on receiving the
    /// `cancel_at`-th.
    struct CancellingSink {
        token: pool::CancelToken,
        cancel_at: usize,
        chunks: usize,
    }

    impl CancellingSink {
        fn chunk(&mut self) -> Result<(), StreamError> {
            self.chunks += 1;
            if self.chunks == self.cancel_at {
                self.token.cancel();
            }
            Ok(())
        }
    }

    impl QuerySink<Bn254> for CancellingSink {
        fn begin(&mut self, _: &StreamHeader) -> Result<(), StreamError> {
            Ok(())
        }
        fn g1_chunk(
            &mut self,
            _: G1Query,
            _: &[zkperf_ec::Affine<<Bn254 as Engine>::G1>],
        ) -> Result<(), StreamError> {
            self.chunk()
        }
        fn g2_chunk(
            &mut self,
            _: &[zkperf_ec::Affine<<Bn254 as Engine>::G2>],
        ) -> Result<(), StreamError> {
            self.chunk()
        }
        fn finish(&mut self, _: &FixedParts<Bn254>) -> Result<(), StreamError> {
            Ok(())
        }
    }

    #[test]
    fn a_cancellation_mid_build_stops_at_the_next_chunk_boundary() {
        let circuit = exponentiate::<zkperf_ff::bn254::Fr>(10);
        let build = |cancel_at: usize| {
            let token = pool::CancelToken::new();
            let _scope = token.enter();
            let mut sink = CancellingSink { token: token.clone(), cancel_at, chunks: 0 };
            let built = build_key(circuit.r1cs(), &mut zkperf_ff::test_rng(), 4, &mut sink, true);
            (built.map(|_| ()), sink.chunks)
        };
        let (built, total) = build(usize::MAX);
        assert_eq!(built, Ok(()));
        // Every boundary, G1 to G2 included: no chunk is computed after the
        // one during which the token fired.
        for cancel_at in 1..total {
            assert_eq!(build(cancel_at), (Err(SetupError::Cancelled), cancel_at));
        }
    }
}
