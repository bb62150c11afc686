//! Slow, obviously-correct reference implementations.
//!
//! Each optimized kernel in the workspace is pinned against one of these
//! in `oracles`. The references deliberately share *no* code with the
//! fast paths: field arithmetic goes through [`BigUint`] schoolbook
//! operations, scalar multiplication is plain double-and-add, and
//! polynomial evaluation is the O(n²) definition — so a bug in the
//! optimized Montgomery/window/butterfly machinery cannot cancel itself
//! out on both sides of a comparison.

pub mod pairing;

use zkperf_circuit::poseidon::poseidon_hash2;
use zkperf_ec::{Affine, CurveParams, Projective};
use zkperf_ff::{BigUint, Field, Goldilocks, PrimeField};
use zkperf_poly::Radix2Domain;

/// `a · b mod p` via canonical [`BigUint`] schoolbook multiplication.
pub fn mul_mod_biguint<F: PrimeField>(a: F, b: F) -> F {
    let product = &a.to_biguint() * &b.to_biguint();
    F::from_biguint(&product.rem(&F::modulus()))
}

/// `a + b mod p` via canonical [`BigUint`] arithmetic.
pub fn add_mod_biguint<F: PrimeField>(a: F, b: F) -> F {
    let sum = &a.to_biguint() + &b.to_biguint();
    F::from_biguint(&sum.rem(&F::modulus()))
}

/// `a − b mod p` via canonical [`BigUint`] arithmetic (lift by `p` first).
pub fn sub_mod_biguint<F: PrimeField>(a: F, b: F) -> F {
    let lifted = &a.to_biguint() + &F::modulus();
    let diff = lifted
        .checked_sub(&b.to_biguint())
        .expect("a + p >= b for canonical a, b");
    F::from_biguint(&diff.rem(&F::modulus()))
}

/// `scalar · base` by textbook double-and-add over the canonical scalar
/// bits — no windows, no signed digits, no tables.
pub fn scalar_mul_double_and_add<C: CurveParams>(
    base: &Affine<C>,
    scalar: &C::Scalar,
) -> Projective<C> {
    let exp = scalar.to_biguint();
    let mut acc = Projective::<C>::identity();
    for i in (0..exp.bits()).rev() {
        acc = acc.double();
        if exp.bit(i) {
            acc = acc.add_mixed(base);
        }
    }
    acc
}

/// `Σ scalarsᵢ · basesᵢ` at double-and-add cost, truncating to the
/// shorter slice exactly like the optimized kernel's documented contract.
pub fn msm_double_and_add<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[C::Scalar],
) -> Projective<C> {
    let n = bases.len().min(scalars.len());
    let mut acc = Projective::<C>::identity();
    for i in 0..n {
        acc += scalar_mul_double_and_add(&bases[i], &scalars[i]);
    }
    acc
}

/// `Pᵢ ← k·Pᵢ` one point at a time: a [`Projective::mul_windowed`] per
/// point and one batch normalisation. What a ceremony contribution ran
/// before `zkperf_ec::scale_points` walked a chunk of points through one
/// shared double/add chain, and the oracle for it.
pub fn scale_points_reference<C: CurveParams>(points: &mut [Affine<C>], k: &C::Scalar) {
    let exp = k.to_biguint();
    let scaled: Vec<Projective<C>> = points
        .iter()
        .map(|p| p.to_projective().mul_windowed(&exp))
        .collect();
    points.copy_from_slice(&Projective::batch_to_affine(&scaled));
}

/// Evaluates the polynomial with coefficient vector `coeffs` at every
/// domain point by Horner's rule — the O(n²) DFT definition the NTT must
/// agree with. Domain points are walked as an independent `ω` power run
/// (never through the domain's cached twiddle tables, which are
/// themselves under test).
pub fn dft_reference<F: PrimeField>(domain: &Radix2Domain<F>, coeffs: &[F]) -> Vec<F> {
    let omega = domain.group_gen();
    let mut out = Vec::with_capacity(domain.size());
    let mut x = F::one();
    for _ in 0..domain.size() {
        out.push(horner(coeffs, x));
        x *= omega;
    }
    out
}

/// [`dft_reference`] over the coset `g·H`: evaluates at `g·ω^i`.
pub fn coset_dft_reference<F: PrimeField>(domain: &Radix2Domain<F>, coeffs: &[F]) -> Vec<F> {
    let omega = domain.group_gen();
    let mut out = Vec::with_capacity(domain.size());
    let mut x = domain.coset_shift();
    for _ in 0..domain.size() {
        out.push(horner(coeffs, x));
        x *= omega;
    }
    out
}

/// Horner evaluation of `coeffs` (low-to-high) at `x`.
pub fn horner<F: Field>(coeffs: &[F], x: F) -> F {
    let mut acc = F::zero();
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Compresses one Merkle leaf row exactly as the STARK commitment layer
/// defines it — a zero-initialized [`poseidon_hash2`] chain — but written
/// as an explicit fold over the generic permutation, sharing neither
/// `zkperf_stark::merkle` nor the Goldilocks kernel it hashes with.
pub fn merkle_row_digest_reference(row: &[Goldilocks]) -> Goldilocks {
    row.iter()
        .fold(Goldilocks::zero(), |acc, v| poseidon_hash2(acc, *v))
}

/// The Merkle root over a power-of-two leaf-digest slice by recursive
/// halving — a shared-nothing re-derivation of the tree the parallel
/// level-by-level builder in `zkperf_stark::merkle` commits to.
///
/// # Panics
///
/// Panics on an empty slice; callers supply domain-sized (power-of-two)
/// leaf sets.
pub fn merkle_root_reference(digests: &[Goldilocks]) -> Goldilocks {
    match digests.len() {
        0 => panic!("reference Merkle root of zero leaves"),
        1 => digests[0],
        n => {
            let (lo, hi) = digests.split_at(n / 2);
            poseidon_hash2(merkle_root_reference(lo), merkle_root_reference(hi))
        }
    }
}

/// `base^exp mod p` on canonical integers (square-and-multiply over
/// [`BigUint`]), for pinning [`Field::pow`] and Fermat inversion.
pub fn pow_mod_biguint<F: PrimeField>(base: F, exp: &BigUint) -> F {
    let p = F::modulus();
    let mut acc = BigUint::one();
    let b = base.to_biguint();
    for i in (0..exp.bits()).rev() {
        acc = (&acc * &acc).rem(&p);
        if exp.bit(i) {
            acc = (&acc * &b).rem(&p);
        }
    }
    F::from_biguint(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ec::bn254::{G1Affine, G1Projective};
    use zkperf_ff::bn254::Fr;

    #[test]
    fn references_agree_with_each_other_on_small_values() {
        // Self-consistency of the reference layer itself, on values small
        // enough to verify by inspection.
        let a = Fr::from_u64(6);
        let b = Fr::from_u64(7);
        assert_eq!(mul_mod_biguint(a, b), Fr::from_u64(42));
        assert_eq!(add_mod_biguint(a, b), Fr::from_u64(13));
        assert_eq!(sub_mod_biguint(b, a), Fr::from_u64(1));
        // 6 − 7 wraps to p − 1.
        assert_eq!(sub_mod_biguint(a, b), -Fr::one());
    }

    #[test]
    fn double_and_add_small_multiples() {
        let g = G1Affine::generator();
        assert!(scalar_mul_double_and_add(&g, &Fr::zero()).is_identity());
        assert_eq!(scalar_mul_double_and_add(&g, &Fr::one()).to_affine(), g);
        let five = scalar_mul_double_and_add(&g, &Fr::from_u64(5));
        let mut acc = G1Projective::identity();
        for _ in 0..5 {
            acc = acc.add_mixed(&g);
        }
        assert_eq!(five, acc);
    }

    #[test]
    fn horner_matches_manual_expansion() {
        // 3 + 2x + x² at x = 5 → 3 + 10 + 25 = 38.
        let coeffs = [Fr::from_u64(3), Fr::from_u64(2), Fr::from_u64(1)];
        assert_eq!(horner(&coeffs, Fr::from_u64(5)), Fr::from_u64(38));
        assert_eq!(horner(&[], Fr::from_u64(5)), Fr::zero());
    }

    #[test]
    fn merkle_reference_matches_a_hand_built_tree() {
        type G = Goldilocks;
        let leaves: Vec<G> = (0..4).map(G::from_u64).collect();
        let l = poseidon_hash2(leaves[0], leaves[1]);
        let r = poseidon_hash2(leaves[2], leaves[3]);
        assert_eq!(merkle_root_reference(&leaves), poseidon_hash2(l, r));
        assert_eq!(merkle_root_reference(&leaves[..1]), leaves[0]);
        // The row digest is the zero-seeded sponge chain.
        assert_eq!(merkle_row_digest_reference(&[]), G::zero());
        assert_eq!(
            merkle_row_digest_reference(&leaves[..2]),
            poseidon_hash2(poseidon_hash2(G::zero(), leaves[0]), leaves[1])
        );
    }

    #[test]
    fn pow_mod_matches_small_cases() {
        let b = Fr::from_u64(3);
        assert_eq!(pow_mod_biguint(b, &BigUint::from_u64(4)), Fr::from_u64(81));
        assert!(pow_mod_biguint(b, &BigUint::zero()).is_one());
    }
}
