//! The transparent verifier: transcript replay, out-of-domain consistency
//! and the per-query Merkle/FRI spot checks.
//!
//! Every check failure is a distinct [`StarkError`] variant; the
//! soundness-negative battery asserts each mutation class dies in the
//! check that owns it.

use zkperf_circuit::R1cs;
use zkperf_ff::{Field, Goldilocks};
use zkperf_poly::Radix2Domain;
use zkperf_trace as trace;

use crate::air::{eval_poly, public_interpolant, public_vanishing, TraceLayout};
use crate::error::StarkError;
use crate::fri::{final_degree_bound, fold_pair, num_folds, LayerDomain};
use crate::merkle::{hash_row, verify_path};
use crate::params::StarkParams;
use crate::proof::StarkProof;
use crate::prove::{draw_deep_point, TRANSCRIPT_LABEL};
use crate::transcript::Transcript;

type F = Goldilocks;

fn check_header(
    proof: &StarkProof,
    layout: TraceLayout,
    params: &StarkParams,
    public: &[F],
) -> Result<(), StarkError> {
    let checks: [(&'static str, u64, u64); 5] = [
        ("trace length", layout.n as u64, proof.n),
        ("public wires", layout.k as u64, proof.k),
        ("blowup", params.blowup as u64, proof.blowup),
        ("num_queries", params.num_queries as u64, proof.num_queries),
        ("public input count", layout.k as u64, public.len() as u64),
    ];
    for (what, expected, got) in checks {
        if expected != got {
            return Err(StarkError::ParamsMismatch { what, expected, got });
        }
    }
    Ok(())
}

/// Verifies a transparent proof against the circuit and the claimed
/// public inputs (the `k` public wires, leading constant-one included).
///
/// # Errors
///
/// A [`StarkError`] naming the first check that failed; `Ok(())` means
/// the proof is accepted.
pub fn verify(
    r1cs: &R1cs<F>,
    public: &[F],
    proof: &StarkProof,
    params: &StarkParams,
) -> Result<(), StarkError> {
    let _g = trace::region_profile("stark_verify");
    let layout = TraceLayout::of(r1cs);
    check_header(proof, layout, params, public)?;
    let (n, k) = (layout.n, layout.k);
    let n_ext = n
        .checked_mul(params.blowup)
        .ok_or(StarkError::DomainTooLarge { needed: usize::MAX })?;
    let dom_h =
        Radix2Domain::<F>::new_power_of_two(n).ok_or(StarkError::DomainTooLarge { needed: n })?;
    let dom_lde = Radix2Domain::<F>::new_power_of_two(n_ext)
        .ok_or(StarkError::DomainTooLarge { needed: n_ext })?;
    let lde = LayerDomain {
        shift: dom_lde.coset_shift(),
        omega: dom_lde.group_gen(),
        size: n_ext,
    };
    let folds = num_folds(n);
    if proof.fri_roots.len() != folds {
        return Err(StarkError::Malformed { what: "fri layer count" });
    }
    if proof.final_coeffs.len() != final_degree_bound(n) {
        return Err(StarkError::Malformed { what: "final polynomial length" });
    }
    if proof.queries.len() != params.num_queries {
        return Err(StarkError::Malformed { what: "query count" });
    }

    // Replay the transcript to re-derive every challenge.
    let mut t = Transcript::new(TRANSCRIPT_LABEL);
    t.absorb_u64(n as u64);
    t.absorb_u64(k as u64);
    t.absorb_u64(params.blowup as u64);
    t.absorb_u64(params.num_queries as u64);
    t.absorb_slice(public);
    t.absorb(proof.trace_root);
    let alpha = t.challenge();
    t.absorb(proof.q_root);
    let z = draw_deep_point(&mut t, n, &lde);
    t.absorb_slice(&proof.ood);
    let gamma = t.challenge();
    let mut betas = Vec::with_capacity(folds);
    for root in &proof.fri_roots {
        t.absorb(*root);
        betas.push(t.challenge());
    }
    t.absorb_slice(&proof.final_coeffs);
    let indices: Vec<usize> = (0..params.num_queries)
        .map(|_| t.challenge_index(n_ext))
        .collect();

    // Out-of-domain consistency: the committed quotient must satisfy the
    // constraint identity at z.
    let zpub = public_vanishing(&dom_h, k);
    let ipub = public_interpolant(&dom_h, public);
    let [a_z, b_z, c_z, p_z, q_z] = proof.ood;
    let zh_z = z.pow_u64(n as u64) - F::one();
    let zh_inv = zh_z.inverse().ok_or(StarkError::OodInconsistent)?;
    let zpub_inv = eval_poly(&zpub, z)
        .inverse()
        .ok_or(StarkError::OodInconsistent)?;
    let expected_q = (a_z * b_z - c_z) * zh_inv + alpha * (p_z - eval_poly(&ipub, z)) * zpub_inv;
    if expected_q != q_z {
        return Err(StarkError::OodInconsistent);
    }

    // Per-query spot checks.
    let z_inv_denominator = |x: F| (x - z).inverse();
    for (round, (query, &expect_idx)) in proof.queries.iter().zip(&indices).enumerate() {
        if query.index != expect_idx as u64 {
            return Err(StarkError::Malformed { what: "query index" });
        }
        let q = expect_idx;
        let x_q = lde.element(q);

        // Commitment openings.
        if !verify_path(
            proof.trace_root,
            q,
            hash_row(&query.trace_row),
            &query.trace_path,
        ) {
            return Err(StarkError::MerklePath { tree: "trace", query: round });
        }
        if !verify_path(proof.q_root, q, hash_row(&[query.q_value]), &query.q_path) {
            return Err(StarkError::MerklePath { tree: "quotient", query: round });
        }

        // The opened quotient must satisfy the identity pointwise.
        let [a_q, b_q, c_q, p_q] = query.trace_row;
        let zh_q = (x_q.pow_u64(n as u64) - F::one())
            .inverse()
            .ok_or(StarkError::QuotientMismatch { query: round })?;
        let zpub_q = eval_poly(&zpub, x_q)
            .inverse()
            .ok_or(StarkError::QuotientMismatch { query: round })?;
        let q_expected =
            (a_q * b_q - c_q) * zh_q + alpha * (p_q - eval_poly(&ipub, x_q)) * zpub_q;
        if q_expected != query.q_value {
            return Err(StarkError::QuotientMismatch { query: round });
        }

        // DEEP composition at the queried point, from the openings.
        let denom = z_inv_denominator(x_q).ok_or(StarkError::DeepMismatch { query: round })?;
        let mut expect = F::zero();
        let mut coeff = F::one();
        for (opened, ood_v) in [a_q, b_q, c_q, p_q, query.q_value].iter().zip(&proof.ood) {
            expect += coeff * (*opened - *ood_v);
            coeff *= gamma;
        }
        expect *= denom;

        // Walk the FRI layers down to the final polynomial.
        if query.fri.len() != folds {
            return Err(StarkError::Malformed { what: "fri step count" });
        }
        let mut idx = q;
        let mut domain = lde;
        for (layer, (step, beta)) in query.fri.iter().zip(&betas).enumerate() {
            let half = domain.size / 2;
            let i = idx % half;
            if !verify_path(proof.fri_roots[layer], i, hash_row(&[step.lo]), &step.lo_path) {
                return Err(StarkError::MerklePath { tree: "fri", query: round });
            }
            if !verify_path(
                proof.fri_roots[layer],
                i + half,
                hash_row(&[step.hi]),
                &step.hi_path,
            ) {
                return Err(StarkError::MerklePath { tree: "fri", query: round });
            }
            let at_position = if idx < half { step.lo } else { step.hi };
            if at_position != expect {
                if layer == 0 {
                    // Layer 0 *is* the DEEP composition; a mismatch here
                    // means the openings do not reproduce it.
                    return Err(StarkError::DeepMismatch { query: round });
                }
                return Err(StarkError::FriFold { layer, query: round });
            }
            expect = fold_pair(step.lo, step.hi, *beta, &domain, i);
            idx = i;
            domain = domain.fold();
        }
        if expect != eval_poly(&proof.final_coeffs, domain.element(idx)) {
            return Err(StarkError::FriFinal { query: round });
        }
    }
    Ok(())
}
