//! The FRI low-degree test: commit/fold on the prover, the reusable fold
//! primitive, and the layer geometry both sides must agree on.
//!
//! Layer 0 is the DEEP composition evaluated on the LDE coset `s·⟨ω⟩`.
//! Each fold halves the domain (`x ↦ x²`, so layer `l` lives on
//! `s^{2^l}·⟨ω^{2^l}⟩`) and halves the degree bound: writing the layer
//! polynomial as `f(x) = e(x²) + x·o(x²)`, the folded polynomial is
//! `e + β·o`, evaluated pointwise from the `(x, −x)` value pair as
//!
//! ```text
//! f'(x²) = (f(x) + f(−x))/2 + β·(f(x) − f(−x))/(2x).
//! ```
//!
//! Folding stops at degree bound [`FINAL_POLY_MAX_DEGREE`]; the surviving
//! polynomial is shipped as coefficients and spot-checked at every query.

use zkperf_ff::{batch_inverse, Field, Goldilocks};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::merkle::MerkleTree;
use crate::params::FINAL_POLY_MAX_DEGREE;
use crate::transcript::Transcript;

type F = Goldilocks;

/// Parallelization grain for folds.
const GRAIN: usize = 256;

/// `2⁻¹ = (p + 1)/2`, the constant of the fold formula.
fn two_inv() -> F {
    F::from_u64(zkperf_ff::goldilocks::MODULUS.div_ceil(2))
}

/// The multiplicative geometry of one FRI layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerDomain {
    /// Coset shift `s^{2^l}`.
    pub shift: F,
    /// Subgroup generator `ω^{2^l}`.
    pub omega: F,
    /// Layer size `N / 2^l`.
    pub size: usize,
}

impl LayerDomain {
    /// The `i`-th point `shift·ωⁱ`.
    pub fn element(&self, i: usize) -> F {
        self.shift * self.omega.pow_u64(i as u64)
    }

    /// The geometry after one fold: points squared, size halved.
    pub fn fold(&self) -> LayerDomain {
        LayerDomain {
            shift: self.shift.square(),
            omega: self.omega.square(),
            size: self.size / 2,
        }
    }
}

/// Number of folds for an initial degree bound `n`: halve until the bound
/// is `≤ FINAL_POLY_MAX_DEGREE`.
pub fn num_folds(n: usize) -> usize {
    let mut bound = n.max(1);
    let mut folds = 0;
    while bound > FINAL_POLY_MAX_DEGREE {
        bound /= 2;
        folds += 1;
    }
    folds
}

/// Degree bound of the final polynomial for an initial bound `n`.
pub fn final_degree_bound(n: usize) -> usize {
    n.max(1) >> num_folds(n)
}

/// One committed FRI layer on the prover side.
#[derive(Debug, Clone)]
pub struct FriLayer {
    /// The layer codeword.
    pub values: Vec<F>,
    /// Its Merkle commitment (leaf `i` commits `values[i]`).
    pub tree: MerkleTree,
    /// The layer's evaluation domain.
    pub domain: LayerDomain,
}

/// The prover's full FRI state: committed layers plus the final
/// polynomial in coefficient form.
#[derive(Debug, Clone)]
pub struct FriProver {
    /// Committed layers, `layers[0]` being the DEEP composition itself.
    pub layers: Vec<FriLayer>,
    /// Per-fold challenges `β_l` (one per layer, drawn after absorbing
    /// that layer's root).
    pub betas: Vec<F>,
    /// Coefficients of the final polynomial (length
    /// [`final_degree_bound`] of the initial bound).
    pub final_coeffs: Vec<F>,
}

/// Folds one codeword by two with challenge `beta`.
///
/// Exposed for the differential oracle (`fuzz_lite --only stark_fri`) and
/// the `fri_fold_2e18` bench kernel; the chunk decomposition depends only
/// on the length, so the output is thread-count invariant.
pub fn fold_layer(values: &[F], beta: F, domain: &LayerDomain) -> Vec<F> {
    let half = values.len() / 2;
    debug_assert_eq!(values.len(), domain.size);
    debug_assert!(half > 0, "cannot fold a single point");
    let two_inv = two_inv();
    let shift_inv = domain.shift.inverse().expect("shift is non-zero");
    let omega_inv = domain.omega.inverse().expect("omega is non-zero");
    let mut out = vec![F::zero(); half];
    pool::parallel_chunks_mut(&mut out, GRAIN, |ci, chunk| {
        let start = ci * GRAIN;
        // x_i⁻¹ = s⁻¹·ω⁻ⁱ, advanced incrementally within the chunk.
        let mut x_inv = shift_inv * omega_inv.pow_u64(start as u64);
        for (j, slot) in chunk.iter_mut().enumerate() {
            let i = start + j;
            let lo = values[i];
            let hi = values[i + half];
            *slot = two_inv * (lo + hi + beta * (lo - hi) * x_inv);
            x_inv *= omega_inv;
        }
    });
    out
}

/// Runs the commit phase: commits layer 0, then alternates
/// absorb-root / draw-β / fold until the degree bound reaches the final
/// threshold, and closes with the coefficients of the last codeword.
///
/// `initial_bound` is the degree bound of `values` (the trace length
/// `n`); `domain0` is the LDE coset the codeword lives on.
pub fn fri_commit(
    values: Vec<F>,
    initial_bound: usize,
    domain0: LayerDomain,
    transcript: &mut Transcript,
) -> FriProver {
    let _g = trace::region_profile("fri");
    let folds = num_folds(initial_bound);
    let mut layers = Vec::with_capacity(folds);
    let mut betas = Vec::with_capacity(folds);
    let mut current = values;
    let mut domain = domain0;
    for _ in 0..folds {
        let tree = MerkleTree::from_rows(current.len(), |i| vec![current[i]]);
        transcript.absorb(tree.root());
        let beta = transcript.challenge();
        betas.push(beta);
        let next = fold_layer(&current, beta, &domain);
        layers.push(FriLayer {
            values: current,
            tree,
            domain,
        });
        current = next;
        domain = domain.fold();
    }
    // When the initial bound is already at the threshold there are no
    // committed layers at all: the codeword is sent as coefficients and
    // the verifier checks it pointwise against its own DEEP composition.
    let final_coeffs =
        codeword_coefficients(&current, domain, final_degree_bound(initial_bound));
    transcript.absorb_slice(&final_coeffs);
    FriProver {
        layers,
        betas,
        final_coeffs,
    }
}

/// Interpolates a codeword on `shift·⟨ω⟩` and returns its first `keep`
/// coefficients (the rest are zero for any honest codeword).
///
/// Works on any coset: IFFT on the subgroup yields `g(x) = f(shift·x)`,
/// then coefficient `i` is unscaled by `shift⁻ⁱ`.
fn codeword_coefficients(values: &[F], domain: LayerDomain, keep: usize) -> Vec<F> {
    let fft = zkperf_poly::Radix2Domain::<F>::new(values.len())
        .expect("layer sizes stay inside the 2-adic subgroup");
    debug_assert_eq!(fft.group_gen(), domain.omega, "canonical 2-adic roots agree");
    let mut coeffs = values.to_vec();
    fft.ifft_in_place(&mut coeffs);
    let shift_inv = domain.shift.inverse().expect("shift is non-zero");
    let mut scale = F::one();
    for c in coeffs.iter_mut() {
        *c *= scale;
        scale *= shift_inv;
    }
    coeffs.truncate(keep.max(1).min(values.len()));
    coeffs
}

/// Verifier-side fold of one opened `(lo, hi)` pair at pair-index `i` of
/// `domain`.
pub fn fold_pair(lo: F, hi: F, beta: F, domain: &LayerDomain, i: usize) -> F {
    let x_inv = domain
        .element(i)
        .inverse()
        .expect("domain points are non-zero");
    two_inv() * (lo + hi + beta * (lo - hi) * x_inv)
}

/// Inverts `x_j − z` for every point of `domain` (the DEEP denominator),
/// in one batched pass.
pub fn deep_denominators(domain: &LayerDomain, z: F) -> Vec<F> {
    let mut denoms = vec![F::zero(); domain.size];
    pool::parallel_chunks_mut(&mut denoms, GRAIN, |ci, chunk| {
        let start = ci * GRAIN;
        let mut x = domain.shift * domain.omega.pow_u64(start as u64);
        for slot in chunk.iter_mut() {
            *slot = x - z;
            x *= domain.omega;
        }
    });
    batch_inverse(&mut denoms);
    denoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::test_rng;
    use zkperf_poly::Radix2Domain;

    fn lde_domain(size: usize) -> (Radix2Domain<F>, LayerDomain) {
        let d = Radix2Domain::<F>::new(size).unwrap();
        let layer = LayerDomain {
            shift: d.coset_shift(),
            omega: d.group_gen(),
            size: d.size(),
        };
        (d, layer)
    }

    #[test]
    fn fold_matches_even_odd_decomposition() {
        let mut rng = test_rng();
        let (fft, layer) = lde_domain(64);
        let coeffs: Vec<F> = (0..32).map(|_| F::random(&mut rng)).collect();
        let beta = F::random(&mut rng);
        let mut values = coeffs.clone();
        values.resize(64, F::zero());
        fft.coset_fft_in_place(&mut values);
        let folded = fold_layer(&values, beta, &layer);
        // e + β·o evaluated on the squared domain.
        let even: Vec<F> = coeffs.iter().copied().step_by(2).collect();
        let odd: Vec<F> = coeffs.iter().copied().skip(1).step_by(2).collect();
        let next = layer.fold();
        for (i, got) in folded.iter().enumerate() {
            let y = next.element(i);
            let want = crate::air::eval_poly(&even, y) + beta * crate::air::eval_poly(&odd, y);
            assert_eq!(*got, want, "fold diverges at {i}");
        }
    }

    #[test]
    fn commit_phase_reaches_the_final_bound() {
        let mut rng = test_rng();
        let (fft, layer) = lde_domain(256);
        let n = 64; // degree bound; blowup 4
        let coeffs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let mut values = coeffs.clone();
        values.resize(256, F::zero());
        fft.coset_fft_in_place(&mut values);
        let mut t = Transcript::new(0xf21);
        let fri = fri_commit(values, n, layer, &mut t);
        assert_eq!(fri.layers.len(), num_folds(n));
        assert_eq!(fri.final_coeffs.len(), FINAL_POLY_MAX_DEGREE);
        // An honest codeword's final polynomial really is low-degree: the
        // last fold of the committed layers evaluates to it everywhere.
        let last = fri.layers.last().unwrap();
        let final_vals = fold_layer(&last.values, *fri.betas.last().unwrap(), &last.domain);
        let final_domain = last.domain.fold();
        for (i, v) in final_vals.iter().enumerate() {
            assert_eq!(
                *v,
                crate::air::eval_poly(&fri.final_coeffs, final_domain.element(i))
            );
        }
    }

    #[test]
    fn tiny_bounds_need_no_folds() {
        assert_eq!(num_folds(1), 0);
        assert_eq!(num_folds(8), 0);
        assert_eq!(num_folds(16), 1);
        assert_eq!(final_degree_bound(1), 1);
        assert_eq!(final_degree_bound(16), 8);
        assert_eq!(final_degree_bound(1 << 14), 8);
    }

    #[test]
    fn deep_denominators_match_direct_inverses() {
        let mut rng = test_rng();
        let (_, layer) = lde_domain(32);
        let z = F::random(&mut rng);
        let denoms = deep_denominators(&layer, z);
        for (i, d) in denoms.iter().enumerate() {
            assert_eq!(*d, (layer.element(i) - z).inverse().unwrap());
        }
    }
}
