//! The `proving` stage.
//!
//! One prover, [`prove_streamed`], reads the key through a
//! [`QuerySource`] chunk by chunk; [`prove`] hands it a resident
//! [`ProvingKey`] as a [`ChunkedKey`].

use rand::Rng;

use zkperf_circuit::{R1cs, Witness};
use zkperf_ec::{msm_stream, Engine, Projective};
use zkperf_ff::Field;
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::key::{Proof, ProvingKey};
use crate::qap;
use crate::stream::{resident_chunk_points, ChunkedKey, G1Query, QuerySource, StreamError};

/// Errors from [`prove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveError {
    /// The witness length does not match the proving key's wire count.
    WitnessLengthMismatch {
        /// Wires in the proving key's queries.
        expected: usize,
        /// Wires in the supplied witness.
        got: usize,
    },
    /// The proving key's domain size is unusable for this field (a
    /// corrupt or tampered zkey header).
    InvalidDomain {
        /// Domain size recorded in the key.
        size: usize,
    },
    /// The proving key's domain cannot hold the circuit's constraints.
    DomainTooSmall {
        /// Domain size recorded in the key.
        domain: usize,
        /// Constraints in the circuit being proven.
        constraints: usize,
    },
    /// The proving key's internal shape is inconsistent (e.g. more
    /// public wires than query points) — a corrupt or tampered zkey.
    MalformedKey(&'static str),
    /// The ambient [`zkperf_pool::CancelToken`] was cancelled or its
    /// deadline expired; the proof was abandoned at a stage boundary.
    Cancelled,
    /// The key's chunk transport failed (disk, checksum, truncation) —
    /// never from a resident key.
    Source(StreamError),
}

impl std::fmt::Display for ProveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProveError::WitnessLengthMismatch { expected, got } => {
                write!(f, "witness has {got} wires but the proving key expects {expected}")
            }
            ProveError::InvalidDomain { size } => {
                write!(f, "proving key domain size {size} is not usable for this field")
            }
            ProveError::DomainTooSmall { domain, constraints } => write!(
                f,
                "proving key domain holds {domain} evaluations but the circuit has {constraints} constraints"
            ),
            ProveError::MalformedKey(what) => write!(f, "malformed proving key: {what}"),
            ProveError::Cancelled => write!(f, "proving cancelled by caller or deadline"),
            ProveError::Source(e) => write!(f, "streamed key source: {e}"),
        }
    }
}

impl std::error::Error for ProveError {}

impl From<StreamError> for ProveError {
    fn from(e: StreamError) -> ProveError {
        ProveError::Source(e)
    }
}

/// Produces a Groth16 proof for `witness` under the resident key `pk`:
/// [`prove_streamed`] over `pk`'s own vectors — one chunk per query, or
/// `ZKPERF_MEM_BUDGET`-sized chunks, which bound the MSM's transient
/// tables and change no byte of the proof.
pub fn prove<E: Engine, R: Rng + ?Sized>(
    pk: &ProvingKey<E>,
    r1cs: &R1cs<E::Fr>,
    witness: &Witness<E::Fr>,
    rng: &mut R,
) -> Result<Proof<E>, ProveError> {
    prove_streamed(&ChunkedKey::new(pk, resident_chunk_points::<E>()), r1cs, witness, rng)
}

/// Produces a Groth16 proof for `witness` with the key arriving through
/// `src` chunk by chunk.
///
/// Structure: three variable-base MSMs over the witness (A, B in both
/// groups), the quotient-polynomial computation via coset NTTs, one MSM over
/// the H query, and the L-query MSM — the mix of scattered (MSM buckets)
/// and strided (NTT) memory traffic that gives the proving stage the
/// highest memory bandwidth in the paper's Table III. Each MSM folds the
/// chunks `src` lends it ([`msm_stream`]), and the proof normalizes to
/// affine form before leaving, so the proof bytes depend on the key and
/// the RNG stream alone — not on the chunk size, the thread count or
/// whether the key is resident or on disk.
///
/// # Errors
///
/// Returns [`ProveError::WitnessLengthMismatch`] when `witness` was
/// generated for a different circuit, and [`ProveError::InvalidDomain`] /
/// [`ProveError::DomainTooSmall`] / [`ProveError::MalformedKey`] when the
/// proving key's header fields are inconsistent with the circuit — the
/// shapes a corrupted or tampered `.zkey` produces — and
/// [`ProveError::Source`] with the first error a chunk iterator yields.
///
/// Cancellation is cooperative: when the ambient
/// [`zkperf_pool::CancelToken`] fires, the prover returns
/// [`ProveError::Cancelled`] at the next internal boundary (before the
/// quotient computation, before the MSMs, and between MSM groups) rather
/// than mid-kernel, so partial work never escapes.
pub fn prove_streamed<E: Engine, S: QuerySource<E>, R: Rng + ?Sized>(
    src: &S,
    r1cs: &R1cs<E::Fr>,
    witness: &Witness<E::Fr>,
    rng: &mut R,
) -> Result<Proof<E>, ProveError> {
    let _g = trace::region_profile("prove");
    let header = src.header();
    let w = witness.full();
    if w.len() != header.num_wires {
        return Err(ProveError::WitnessLengthMismatch {
            expected: header.num_wires,
            got: w.len(),
        });
    }
    if r1cs.num_wires() != w.len() {
        return Err(ProveError::WitnessLengthMismatch {
            expected: r1cs.num_wires(),
            got: w.len(),
        });
    }
    if header.num_public_wires > w.len() {
        return Err(ProveError::MalformedKey("public wires exceed witness length"));
    }
    let domain = Radix2Domain::<E::Fr>::new(header.domain_size).ok_or(
        ProveError::InvalidDomain { size: header.domain_size },
    )?;
    if domain.size() < r1cs.num_constraints() {
        return Err(ProveError::DomainTooSmall {
            domain: domain.size(),
            constraints: r1cs.num_constraints(),
        });
    }

    if pool::cancellation_pending() {
        return Err(ProveError::Cancelled);
    }

    // Quotient polynomial h(x) = (a·b − c)/z.
    let (a_ev, b_ev, c_ev) = qap::evaluate_constraints(r1cs, &domain, w);
    let h = qap::compute_h_coefficients(&domain, a_ev, b_ev, c_ev);

    if pool::cancellation_pending() {
        return Err(ProveError::Cancelled);
    }

    let (r, s) = (E::Fr::random(rng), E::Fr::random(rng));
    let fixed = src.fixed()?;

    let g1 = |q: G1Query, scalars: &[E::Fr]| -> Result<Projective<E::G1>, StreamError> {
        msm_stream(header.g1_len(q), src.g1_chunks(q), scalars)
    };
    // A = α + Σ wᵢ·uᵢ(τ) + r·δ
    let g_a = fixed.vk.alpha_g1.to_projective()
        + g1(G1Query::A, w)?
        + fixed.delta_g1.to_projective() * r;
    // B = β + Σ wᵢ·vᵢ(τ) + s·δ (in G2, and mirrored in G1 for C).
    let g_b = fixed.vk.beta_g2.to_projective()
        + msm_stream(header.g2_len(), src.g2_chunks(), w)?
        + fixed.vk.delta_g2.to_projective() * s;
    let g_b1 = fixed.beta_g1.to_projective()
        + g1(G1Query::BG1, w)?
        + fixed.delta_g1.to_projective() * s;

    if pool::cancellation_pending() {
        return Err(ProveError::Cancelled);
    }

    // C = Σ_{priv} wᵢ·Lᵢ + Σ hᵢ·Hᵢ + s·A + r·B₁ − r·s·δ
    let priv_witness = &w[header.num_public_wires..];
    let l_part = g1(G1Query::L, priv_witness)?;
    let h_part = g1(G1Query::H, &h)?;
    let g_c = l_part
        + h_part
        + g_a * s
        + g_b1 * r
        + (fixed.delta_g1.to_projective() * (r * s)).neg();

    let out = [g_a, g_c];
    let affine = Projective::batch_to_affine(&out);
    trace::alloc(std::mem::size_of::<Proof<E>>());
    Ok(Proof {
        a: affine[0],
        b: g_b.to_affine(),
        c: affine[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::setup;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn ambient_cancellation_stops_setup_and_prove() {
        use crate::setup::SetupError;
        let circuit = exponentiate::<Fr>(8);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();

        let token = zkperf_pool::CancelToken::new();
        token.cancel();
        let _scope = token.enter();
        assert!(matches!(
            setup::<Bn254, _>(circuit.r1cs(), &mut rng),
            Err(SetupError::Cancelled)
        ));
        assert!(matches!(
            prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng),
            Err(ProveError::Cancelled)
        ));
        drop(_scope);
        assert!(prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).is_ok());
    }

    #[test]
    fn witness_length_mismatch_is_reported() {
        let c10 = exponentiate::<Fr>(10);
        let c20 = exponentiate::<Fr>(20);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(c10.r1cs(), &mut rng).unwrap();
        let w20 = c20.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let err = prove::<Bn254, _>(&pk, c20.r1cs(), &w20, &mut rng).unwrap_err();
        assert!(matches!(err, ProveError::WitnessLengthMismatch { .. }));
        assert!(err.to_string().contains("wires"));
    }
}
