//! The `setup` stage: trusted parameter generation.

use rand::Rng;

use zkperf_circuit::R1cs;
use zkperf_ec::{Engine, FixedBaseTable, Projective};
use zkperf_ff::{BigUint, Field};
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_trace as trace;

/// Smallest scalar batch worth constructing on the pool.
const PAR_MIN_SCALARS: usize = 1 << 12;

/// Scalars per pool task when building the query batches.
const SCALAR_GRAIN: usize = 1 << 11;

use crate::key::{ProvingKey, VerifyingKey};
use crate::qap;

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
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::CircuitTooLarge { constraints } => {
                write!(f, "circuit with {constraints} constraints exceeds the FFT domain")
            }
            SetupError::Cancelled => write!(f, "setup cancelled by caller or deadline"),
        }
    }
}

impl std::error::Error for SetupError {}

/// Runs the Groth16 trusted setup over `r1cs`, producing the proving and
/// verification keys.
///
/// The toxic waste `(τ, α, β, γ, δ)` is sampled from `rng` and dropped on
/// return. Dominated by fixed-base multi-exponentiation — this is the
/// paper's most time-consuming stage (76.1% of total execution time).
///
/// # Errors
///
/// Returns [`SetupError::CircuitTooLarge`] if the constraint count exceeds
/// the field's 2-adic FFT domain.
pub fn setup<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
) -> Result<ProvingKey<E>, SetupError> {
    // Under a memory budget the fixed-base passes run chunked through the
    // QuerySink machinery instead of one concatenated batch — identical
    // RNG draws and field values (the scalar phase below is shared), and
    // affine points are canonical per group element, so the key is
    // byte-identical either way. Instrumented runs stay on this body so
    // the characterization op stream is unchanged.
    if !trace::is_active() && pool::mem::budget().is_some() {
        return crate::stream::setup_budgeted(r1cs, rng);
    }
    let _g = trace::region_profile("setup");
    let scalars = setup_scalars::<E, R>(r1cs, rng)?;
    build_key_monolithic(r1cs, scalars)
}

/// Everything [`setup`] does before any group operation: domain
/// construction, toxic-waste sampling, and the per-query scalar batches.
/// Shared verbatim by the monolithic and streamed key builders so both
/// consume identical RNG draws and produce identical field values.
pub(crate) struct SetupScalars<E: Engine> {
    pub domain: Radix2Domain<E::Fr>,
    pub alpha: E::Fr,
    pub beta: E::Fr,
    pub gamma: E::Fr,
    pub delta: E::Fr,
    pub u: Vec<E::Fr>,
    pub v: Vec<E::Fr>,
    pub ic_scalars: Vec<E::Fr>,
    pub l_scalars: Vec<E::Fr>,
    pub h_scalars: Vec<E::Fr>,
    pub num_public: usize,
}

pub(crate) fn setup_scalars<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
) -> Result<SetupScalars<E>, SetupError> {
    let domain =
        Radix2Domain::<E::Fr>::new(r1cs.num_constraints().max(2)).ok_or(
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
    let (delta, delta_inv) = invertible(rng);

    if pool::cancellation_pending() {
        return Err(SetupError::Cancelled);
    }

    // QAP evaluations at τ for every wire.
    let (u, v, w) = qap::evaluate_matrices_at(r1cs, &domain, tau);
    let num_public = r1cs.num_public_wires();

    // Scalar batches for the group queries. Each batch is an
    // index-addressed map, so uninstrumented multi-thread runs build them
    // on the pool; the h-power chain seeds each chunk with one
    // exponentiation, making chunks independent while computing the exact
    // same field values as the serial prefix.
    let use_pool = |n: usize| {
        !trace::is_active() && pool::current_threads() > 1 && n >= PAR_MIN_SCALARS
    };
    let ic_scalars: Vec<E::Fr> = if use_pool(num_public) {
        let mut out = vec![E::Fr::zero(); num_public];
        pool::parallel_fill(&mut out, SCALAR_GRAIN, |i| {
            (beta * u[i] + alpha * v[i] + w[i]) * gamma_inv
        });
        out
    } else {
        (0..num_public)
            .map(|i| (beta * u[i] + alpha * v[i] + w[i]) * gamma_inv)
            .collect()
    };
    let l_scalars: Vec<E::Fr> = if use_pool(r1cs.num_wires() - num_public) {
        let mut out = vec![E::Fr::zero(); r1cs.num_wires() - num_public];
        pool::parallel_fill(&mut out, SCALAR_GRAIN, |j| {
            let i = num_public + j;
            (beta * u[i] + alpha * v[i] + w[i]) * delta_inv
        });
        out
    } else {
        (num_public..r1cs.num_wires())
            .map(|i| (beta * u[i] + alpha * v[i] + w[i]) * delta_inv)
            .collect()
    };
    let z_tau = domain.eval_vanishing(tau);
    let mut h_scalars;
    if use_pool(domain.size()) {
        h_scalars = vec![E::Fr::zero(); domain.size()];
        pool::parallel_chunks_mut(&mut h_scalars, SCALAR_GRAIN, |ci, chunk| {
            let mut tau_pow = tau.pow(&BigUint::from_u64((ci * SCALAR_GRAIN) as u64));
            for slot in chunk.iter_mut() {
                *slot = tau_pow * z_tau * delta_inv;
                tau_pow *= tau;
            }
        });
    } else {
        h_scalars = Vec::with_capacity(domain.size());
        let mut tau_pow = E::Fr::one();
        for _ in 0..domain.size() {
            h_scalars.push(tau_pow * z_tau * delta_inv);
            tau_pow *= tau;
        }
    }

    if pool::cancellation_pending() {
        return Err(SetupError::Cancelled);
    }

    Ok(SetupScalars {
        domain,
        alpha,
        beta,
        gamma,
        delta,
        u,
        v,
        ic_scalars,
        l_scalars,
        h_scalars,
        num_public,
    })
}

/// The in-memory group-operation phase of [`setup`]: one concatenated
/// fixed-base batch per group.
fn build_key_monolithic<E: Engine>(
    r1cs: &R1cs<E::Fr>,
    scalars: SetupScalars<E>,
) -> Result<ProvingKey<E>, SetupError> {
    let SetupScalars {
        domain,
        alpha,
        beta,
        gamma,
        delta,
        u,
        v,
        ic_scalars,
        l_scalars,
        h_scalars,
        num_public,
    } = scalars;

    // One fixed-base window table per generator, each built once and
    // shared by every tau-power query vector. All G1 scalars ride a single
    // `mul_batch` pass (likewise for G2), so the window tables — and the
    // batch inversions inside the pass — amortize across the whole key,
    // and the table width is tuned to the combined batch size.
    let num_wires = r1cs.num_wires();
    let total_g1 =
        2 * num_wires + ic_scalars.len() + l_scalars.len() + h_scalars.len() + 3;
    let mut g1_scalars = Vec::with_capacity(total_g1);
    g1_scalars.extend_from_slice(&u);
    g1_scalars.extend_from_slice(&v);
    g1_scalars.extend_from_slice(&ic_scalars);
    g1_scalars.extend_from_slice(&l_scalars);
    g1_scalars.extend_from_slice(&h_scalars);
    g1_scalars.extend_from_slice(&[alpha, beta, delta]);
    let mut g2_scalars = Vec::with_capacity(num_wires + 3);
    g2_scalars.extend_from_slice(&v);
    g2_scalars.extend_from_slice(&[beta, gamma, delta]);

    // Size each window table by the scalars that actually cost work: the
    // QAP matrices are sparse, so (especially for G2, whose field ops are
    // several times pricier) the nonzero count can be orders of magnitude
    // below the batch length, and a table tuned to the raw length would
    // cost more to build than it saves.
    let nonzero = |s: &[E::Fr]| s.iter().filter(|v| !v.is_zero()).count();
    let t1 = FixedBaseTable::for_batch(&Projective::<E::G1>::generator(), nonzero(&g1_scalars));
    let t2 = FixedBaseTable::for_batch(&Projective::<E::G2>::generator(), nonzero(&g2_scalars));

    let g1_points = t1.mul_batch(&g1_scalars);
    // The batch ends with [alpha, beta, delta] by construction.
    let alpha_g1 = g1_points[g1_points.len() - 3];
    let beta_g1 = g1_points[g1_points.len() - 2];
    let delta_g1 = g1_points[g1_points.len() - 1];
    let mut g1_points = g1_points.into_iter();
    let a_query: Vec<_> = g1_points.by_ref().take(num_wires).collect();
    let b_g1_query: Vec<_> = g1_points.by_ref().take(num_wires).collect();
    let ic: Vec<_> = g1_points.by_ref().take(num_public).collect();
    let l_query: Vec<_> = g1_points.by_ref().take(r1cs.num_wires() - num_public).collect();
    // `by_ref` here too: collecting the owned iterator would reuse the whole
    // batch's allocation for the H query and keep it live with the key.
    let h_query: Vec<_> = g1_points.by_ref().take(domain.size()).collect();

    if pool::cancellation_pending() {
        return Err(SetupError::Cancelled);
    }

    let g2_points = t2.mul_batch(&g2_scalars);
    // Likewise [beta, gamma, delta] close the G2 batch.
    let beta_g2 = g2_points[g2_points.len() - 3];
    let gamma_g2 = g2_points[g2_points.len() - 2];
    let delta_g2 = g2_points[g2_points.len() - 1];
    let b_g2_query: Vec<_> = g2_points.into_iter().take(num_wires).collect();

    let vk = VerifyingKey {
        alpha_g1,
        beta_g2,
        gamma_g2,
        delta_g2,
        ic,
    };
    Ok(ProvingKey {
        vk,
        beta_g1,
        delta_g1,
        a_query,
        b_g1_query,
        b_g2_query,
        l_query,
        h_query,
        domain_size: domain.size(),
        num_public_wires: num_public,
    })
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
}
