//! The transparent prover: trace LDE → Merkle commit → quotient → DEEP →
//! FRI → queries.
//!
//! The pipeline is deliberately randomness-free: every challenge comes
//! from the Fiat-Shamir transcript and every parallel loop uses the
//! pool's deterministic decomposition, so the proof bytes are a pure
//! function of `(circuit, witness, params)` — the property the
//! thread-determinism suite byte-compares and serve's duplicate-detection
//! relies on.

use zkperf_circuit::R1cs;
use zkperf_ff::{batch_inverse, Field, Goldilocks};
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::air::{build_trace, eval_poly, public_interpolant, public_vanishing};
use crate::error::StarkError;
use crate::fri::{deep_denominators, fri_commit, LayerDomain};
use crate::merkle::MerkleTree;
use crate::params::StarkParams;
use crate::proof::{FriStep, QueryOpening, StarkProof};
use crate::transcript::Transcript;

type F = Goldilocks;

/// Transcript domain separator for this protocol version.
pub(crate) const TRANSCRIPT_LABEL: u64 = 0x7a6b_5354_4152_4b31;

/// Parallelization grain for pointwise column arithmetic.
const GRAIN: usize = 256;

/// Draws the DEEP evaluation point: resamples until `z` lies outside both
/// the trace domain and the LDE coset, so every denominator the protocol
/// divides by is non-zero. Prover and verifier run the identical loop.
pub(crate) fn draw_deep_point(
    transcript: &mut Transcript,
    n: usize,
    lde: &LayerDomain,
) -> F {
    loop {
        let z = transcript.challenge();
        let in_trace_domain = z.pow_u64(n as u64).is_one();
        let shifted = z * lde.shift.inverse().expect("shift is non-zero");
        let in_lde_coset = shifted.pow_u64(lde.size as u64).is_one();
        if !in_trace_domain && !in_lde_coset && !z.is_zero() {
            return z;
        }
    }
}

/// Evaluates `Z_H(x) = xⁿ − 1` on the whole LDE coset.
///
/// `xⁿ = sⁿ·ω^{jn}` cycles with period `blowup`, so only `blowup`
/// distinct values exist; they are computed (and inverted) once.
pub(crate) fn vanishing_on_lde(n: usize, blowup: usize, lde: &LayerDomain) -> (Vec<F>, Vec<F>) {
    let s_n = lde.shift.pow_u64(n as u64);
    let omega_n = lde.omega.pow_u64(n as u64);
    let mut values = Vec::with_capacity(blowup);
    let mut acc = s_n;
    for _ in 0..blowup {
        values.push(acc - F::one());
        acc *= omega_n;
    }
    let mut inverses = values.clone();
    batch_inverse(&mut inverses);
    (values, inverses)
}

/// Runs the low-degree extension of one column: interpolate over `H`,
/// evaluate over the LDE coset. Returns `(coefficients, lde_values)`.
fn extend(
    column: &[F],
    dom_h: &Radix2Domain<F>,
    dom_lde: &Radix2Domain<F>,
) -> (Vec<F>, Vec<F>) {
    let mut coeffs = column.to_vec();
    dom_h.ifft_in_place(&mut coeffs);
    let mut lde = coeffs.clone();
    lde.resize(dom_lde.size(), F::zero());
    dom_lde.coset_fft_in_place(&mut lde);
    (coeffs, lde)
}

fn cancelled() -> Result<(), StarkError> {
    if pool::cancellation_pending() {
        Err(StarkError::Cancelled)
    } else {
        Ok(())
    }
}

/// Produces a transparent proof that `witness` satisfies `r1cs` with the
/// public prefix it carries.
///
/// # Errors
///
/// - [`StarkError::WitnessLength`] when the witness does not match the
///   circuit's wires;
/// - [`StarkError::DomainTooLarge`] when `n · blowup` exceeds the
///   field's 2-adic subgroup;
/// - [`StarkError::Cancelled`] when the ambient
///   [`zkperf_pool::CancelToken`] fires between phases.
///
/// An unsatisfying witness is not an error: the proof is produced and
/// verification rejects it, matching the pairing backends.
pub fn prove(
    r1cs: &R1cs<F>,
    witness: &[F],
    params: &StarkParams,
) -> Result<StarkProof, StarkError> {
    cancelled()?;
    let cols = build_trace(r1cs, witness)?;
    let (n, k) = (cols.layout.n, cols.layout.k);
    let n_ext = n
        .checked_mul(params.blowup)
        .ok_or(StarkError::DomainTooLarge { needed: usize::MAX })?;
    let dom_h = Radix2Domain::<F>::new(n).ok_or(StarkError::DomainTooLarge { needed: n })?;
    let dom_lde =
        Radix2Domain::<F>::new(n_ext).ok_or(StarkError::DomainTooLarge { needed: n_ext })?;
    let lde = LayerDomain {
        shift: dom_lde.coset_shift(),
        omega: dom_lde.group_gen(),
        size: n_ext,
    };
    let public = &witness[..k];

    // Commit the trace over the LDE coset.
    cancelled()?;
    let ((a_coeffs, a_lde), (b_coeffs, b_lde), (c_coeffs, c_lde), (p_coeffs, p_lde)) = {
        let _g = trace::region_profile("fft");
        (
            extend(&cols.a, &dom_h, &dom_lde),
            extend(&cols.b, &dom_h, &dom_lde),
            extend(&cols.c, &dom_h, &dom_lde),
            extend(&cols.p, &dom_h, &dom_lde),
        )
    };
    drop(cols);
    let trace_tree = MerkleTree::from_rows(n_ext, |i| {
        vec![a_lde[i], b_lde[i], c_lde[i], p_lde[i]]
    });

    let mut t = Transcript::new(TRANSCRIPT_LABEL);
    t.absorb_u64(n as u64);
    t.absorb_u64(k as u64);
    t.absorb_u64(params.blowup as u64);
    t.absorb_u64(params.num_queries as u64);
    t.absorb_slice(public);
    t.absorb(trace_tree.root());
    let alpha = t.challenge();

    // The combined quotient on the LDE coset.
    cancelled()?;
    let q_lde = {
        let _g = trace::region_profile("quotient");
        let (_, zh_inv) = vanishing_on_lde(n, params.blowup, &lde);
        let zpub = public_vanishing(&dom_h, k);
        let ipub = public_interpolant(&dom_h, public);
        let mut zpub_inv = vec![F::zero(); n_ext];
        pool::parallel_chunks_mut(&mut zpub_inv, GRAIN, |ci, chunk| {
            let start = ci * GRAIN;
            let mut x = lde.shift * lde.omega.pow_u64(start as u64);
            for slot in chunk.iter_mut() {
                *slot = eval_poly(&zpub, x);
                x *= lde.omega;
            }
        });
        batch_inverse(&mut zpub_inv);
        let mut q = vec![F::zero(); n_ext];
        pool::parallel_chunks_mut(&mut q, GRAIN, |ci, chunk| {
            let start = ci * GRAIN;
            let mut x = lde.shift * lde.omega.pow_u64(start as u64);
            for (j, slot) in chunk.iter_mut().enumerate() {
                let i = start + j;
                let gate = (a_lde[i] * b_lde[i] - c_lde[i]) * zh_inv[i % params.blowup];
                let boundary = alpha * (p_lde[i] - eval_poly(&ipub, x)) * zpub_inv[i];
                *slot = gate + boundary;
                x *= lde.omega;
            }
        });
        q
    };
    let q_tree = MerkleTree::from_rows(n_ext, |i| vec![q_lde[i]]);
    t.absorb(q_tree.root());

    // Out-of-domain evaluations at the DEEP point.
    cancelled()?;
    let z = draw_deep_point(&mut t, n, &lde);
    let ood = {
        let q_coeffs = {
            let _g = trace::region_profile("fft");
            let mut coeffs = q_lde.clone();
            dom_lde.coset_ifft_in_place(&mut coeffs);
            coeffs
        };
        [
            eval_poly(&a_coeffs, z),
            eval_poly(&b_coeffs, z),
            eval_poly(&c_coeffs, z),
            eval_poly(&p_coeffs, z),
            eval_poly(&q_coeffs, z),
        ]
    };
    // The coefficient forms are not read again; FRI's layers and trees
    // are still to be allocated on top of what stays live.
    drop((a_coeffs, b_coeffs, c_coeffs, p_coeffs));
    t.absorb_slice(&ood);
    let gamma = t.challenge();

    // DEEP composition: F(x) = Σ γⁱ·(colᵢ(x) − colᵢ(z))/(x − z).
    cancelled()?;
    let deep = {
        let _g = trace::region_profile("deep");
        let denoms = deep_denominators(&lde, z);
        let columns: [&[F]; 5] = [&a_lde, &b_lde, &c_lde, &p_lde, &q_lde];
        let mut f = vec![F::zero(); n_ext];
        pool::parallel_chunks_mut(&mut f, GRAIN, |ci, chunk| {
            let start = ci * GRAIN;
            for (j, slot) in chunk.iter_mut().enumerate() {
                let i = start + j;
                let mut acc = F::zero();
                let mut coeff = F::one();
                for (col, ood_v) in columns.iter().zip(&ood) {
                    acc += coeff * (col[i] - *ood_v);
                    coeff *= gamma;
                }
                *slot = acc * denoms[i];
            }
        });
        f
    };

    // FRI commit phase plus the query openings.
    cancelled()?;
    let fri = fri_commit(deep, n, lde, &mut t);
    let indices: Vec<usize> = (0..params.num_queries)
        .map(|_| t.challenge_index(n_ext))
        .collect();
    let mut queries = vec![
        QueryOpening {
            index: 0,
            trace_row: [F::zero(); 4],
            trace_path: Vec::new(),
            q_value: F::zero(),
            q_path: Vec::new(),
            fri: Vec::new(),
        };
        indices.len()
    ];
    pool::parallel_for_each_mut(&mut queries, |qi, slot| {
        let q = indices[qi];
        let mut idx = q;
        let fri_steps: Vec<FriStep> = fri
            .layers
            .iter()
            .map(|layer| {
                let half = layer.values.len() / 2;
                let i = idx % half;
                let step = FriStep {
                    lo: layer.values[i],
                    hi: layer.values[i + half],
                    lo_path: layer.tree.open(i),
                    hi_path: layer.tree.open(i + half),
                };
                idx = i;
                step
            })
            .collect();
        *slot = QueryOpening {
            index: q as u64,
            trace_row: [a_lde[q], b_lde[q], c_lde[q], p_lde[q]],
            trace_path: trace_tree.open(q),
            q_value: q_lde[q],
            q_path: q_tree.open(q),
            fri: fri_steps,
        };
    });

    Ok(StarkProof {
        n: n as u64,
        k: k as u64,
        blowup: params.blowup as u64,
        num_queries: params.num_queries as u64,
        trace_root: trace_tree.root(),
        q_root: q_tree.root(),
        ood,
        fri_roots: fri.layers.iter().map(|l| l.tree.root()).collect(),
        final_coeffs: fri.final_coeffs,
        queries,
    })
}
