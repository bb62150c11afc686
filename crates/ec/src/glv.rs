//! GLV scalar decomposition for curves with a fast cube-root-of-unity
//! endomorphism (`j = 0` short-Weierstrass curves: BN254 and BLS12-381 G1).
//!
//! When `q ≡ 1 (mod 3)` the curve `y² = x³ + b` admits the endomorphism
//! `φ(x, y) = (β·x, y)` with `β` a primitive cube root of unity in the base
//! field; on the prime-order subgroup `φ` acts as multiplication by an
//! eigenvalue `λ` — a cube root of unity in the scalar field. Any scalar
//! `k` then splits as `k ≡ k₁ + k₂·λ (mod r)` with `|k₁|, |k₂| ≈ √r`, so
//! `k·P = k₁·P + k₂·φ(P)` replaces one 254-bit multiplication with two
//! ~128-bit ones sharing a doubling chain — and Pippenger over `2n`
//! half-width scalars does roughly half the bucket-window passes of `n`
//! full-width ones.
//!
//! Everything here is **derived at runtime** rather than transcribed:
//! `β` and `λ` come from exponentiating small non-residues by `(p−1)/3`,
//! the short lattice basis from the extended Euclidean algorithm on
//! `(r, λ)` stopped at the first remainder below `√r` (Gallant–Lambert–
//! Vanstone), and the Babai-rounding constants from one slow division.
//! [`derive`] then *proves* the parameters on the curve itself — the
//! endomorphism is checked against `λ·G`, and the decomposition is
//! replayed against independent `BigUint` arithmetic on boundary scalars
//! (0, 1, λ±1, r−1, the basis magnitudes) — and returns `None` on any
//! mismatch, so callers fall back to the plain path instead of silently
//! computing garbage.
//!
//! The per-scalar [`GlvParams::decompose`] is allocation-free: Babai
//! rounding runs as a Barrett-style multiply-shift against precomputed
//! `⌊2³⁸⁴·|bⱼ|/r⌋`, and the residuals accumulate in fixed-width
//! two's-complement limbs.

use zkperf_ff::arith::{geq, sub_noborrow};
use zkperf_ff::{BigUint, Field, PrimeField};

use crate::curve::{Affine, CurveParams, Projective};

/// Limbs in a decomposed half-width scalar magnitude (192 bits of room for
/// a ≈130-bit value).
pub const HALF_LIMBS: usize = 3;

/// Limbs of the full scalar this module supports (both suites use 4).
const K_LIMBS: usize = 4;

/// Limbs in the Barrett constants `⌊2^(64·SHIFT_LIMBS)·|bⱼ|/r⌋`.
const G_LIMBS: usize = 5;

/// The Barrett shift, in limbs: `k·g` keeps `384 − 254 − 130 ≈ 0` slack
/// bits *above* the true quotient, so truncation is off by at most a few
/// units — absorbed by the `+2` bit slack in [`GlvParams::half_bits`].
const SHIFT_LIMBS: usize = 6;

/// A signed magnitude: `neg == true` means the value is `−limbs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignedHalf {
    /// Little-endian magnitude.
    pub limbs: [u64; HALF_LIMBS],
    /// Sign flag (ignored when the magnitude is zero).
    pub neg: bool,
}

impl SignedHalf {
    /// `−self`; zero keeps a clear sign flag.
    pub fn negated(self) -> Self {
        SignedHalf {
            limbs: self.limbs,
            neg: !self.neg && self.limbs != [0; HALF_LIMBS],
        }
    }
}

/// The two half-width components of a decomposed scalar:
/// `k ≡ k1 + k2·λ (mod r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecomposedScalar {
    /// Component multiplying `P`.
    pub k1: SignedHalf,
    /// Component multiplying `φ(P)`.
    pub k2: SignedHalf,
}

/// Derived GLV parameters for one curve; see [`derive`].
#[derive(Debug, Clone)]
pub struct GlvParams<C: CurveParams> {
    /// Cube root of unity in the base field: `φ(x, y) = (β·x, y)`.
    beta: C::Base,
    /// The eigenvalue of `φ` on the subgroup, as an integer `< r`.
    lambda: BigUint,
    /// Short lattice basis `v₁ = (a1, b1)`, `v₂ = (a2, b2)` of
    /// `{(x, y) : x + y·λ ≡ 0 (mod r)}`, as signed magnitudes.
    a1: SignedHalf,
    b1: SignedHalf,
    a2: SignedHalf,
    b2: SignedHalf,
    /// `⌊2³⁸⁴·|b2|/r⌋` — Babai rounding constant for `c1`.
    g1: [u64; G_LIMBS],
    /// `⌊2³⁸⁴·|b1|/r⌋` — Babai rounding constant for `c2`.
    g2: [u64; G_LIMBS],
    /// The group order `r`.
    r: [u64; K_LIMBS],
    /// `(r − 1)/2`: canonical scalars above it are the negatives of the
    /// ones at or below it.
    r_half: [u64; K_LIMBS],
    /// Upper bound on the bit length of `|k1|`, `|k2|`.
    half_bits: usize,
}

impl<C: CurveParams> GlvParams<C> {
    /// The endomorphism eigenvalue `λ` as an integer.
    pub fn lambda(&self) -> &BigUint {
        &self.lambda
    }

    /// Bit-length bound for the decomposed components; windowed kernels
    /// size their digit loops by this instead of the modulus width.
    pub fn half_bits(&self) -> usize {
        self.half_bits
    }

    /// Applies the endomorphism `φ(x, y) = (β·x, y)`; identity maps to
    /// identity. One base-field multiplication.
    pub fn endo(&self, p: &Affine<C>) -> Affine<C> {
        if p.infinity {
            return *p;
        }
        Affine {
            x: self.beta * p.x,
            y: p.y,
            infinity: false,
        }
    }

    /// Splits a canonical scalar into `(k1, k2)` with
    /// `k ≡ k1 + k2·λ (mod r)` and both magnitudes below
    /// `2^half_bits`. Allocation-free.
    pub fn decompose(&self, scalar: &C::Scalar) -> DecomposedScalar {
        let mut k = [0u64; K_LIMBS];
        scalar.write_canonical_limbs(&mut k);
        self.decompose_limbs(&k)
    }

    /// [`Self::decompose`] over raw canonical limbs (`k < r`).
    ///
    /// The map is odd, `decompose(r − k) = −decompose(k)`: truncated Babai
    /// rounding alone sends a small negative scalar (`r − 1`, the `q_O` of
    /// every PLONK multiplication gate) to two full-width halves where its
    /// negation is `(1, 0)`, so the upper half of `[0, r)` decomposes its
    /// negation and flips both signs.
    pub fn decompose_limbs(&self, k: &[u64; K_LIMBS]) -> DecomposedScalar {
        if !geq(&self.r_half, k) {
            let d = self.decompose_lower_half(&sub_noborrow(&self.r, k));
            return DecomposedScalar {
                k1: d.k1.negated(),
                k2: d.k2.negated(),
            };
        }
        self.decompose_lower_half(k)
    }

    /// The decomposition proper, for `k ≤ (r − 1)/2`.
    fn decompose_lower_half(&self, k: &[u64; K_LIMBS]) -> DecomposedScalar {
        // Babai rounding (truncated): c1 ≈ k·b2/r, c2 ≈ −k·b1/r, so that
        // (k, 0) − c1·v1 − c2·v2 is a short lattice-offset vector.
        let m1 = mul_shift(k, &self.g1);
        let m2 = mul_shift(k, &self.g2);
        let c1 = SignedHalf {
            limbs: m1,
            neg: self.b2.neg,
        };
        let c2 = SignedHalf {
            limbs: m2,
            neg: !self.b1.neg,
        };

        // k1 = k − c1·a1 − c2·a2, in 320-bit two's complement.
        let mut acc1 = [0u64; G_LIMBS];
        acc1[..K_LIMBS].copy_from_slice(k);
        acc_sub_product(&mut acc1, &c1, &self.a1);
        acc_sub_product(&mut acc1, &c2, &self.a2);
        // k2 = −(c1·b1 + c2·b2).
        let mut acc2 = [0u64; G_LIMBS];
        acc_sub_product(&mut acc2, &c1, &self.b1);
        acc_sub_product(&mut acc2, &c2, &self.b2);

        let k1 = to_signed_half(&acc1, self.half_bits);
        let k2 = to_signed_half(&acc2, self.half_bits);
        DecomposedScalar { k1, k2 }
    }
}

// ---- fixed-width limb arithmetic (no allocation) ----

/// `⌊(k · g) / 2^(64·SHIFT_LIMBS)⌋`, truncated to `HALF_LIMBS` limbs.
fn mul_shift(k: &[u64; K_LIMBS], g: &[u64; G_LIMBS]) -> [u64; HALF_LIMBS] {
    let mut prod = [0u64; K_LIMBS + G_LIMBS];
    for (i, &ki) in k.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &gj) in g.iter().enumerate() {
            let t = prod[i + j] as u128 + ki as u128 * gj as u128 + carry;
            prod[i + j] = t as u64;
            carry = t >> 64;
        }
        prod[i + G_LIMBS] = carry as u64;
    }
    // True quotient < 2^131 ≪ 2^192, so limbs past SHIFT_LIMBS+2 are zero.
    [
        prod[SHIFT_LIMBS],
        prod[SHIFT_LIMBS + 1],
        prod[SHIFT_LIMBS + 2],
    ]
}

/// `acc −= c · v` where `c`, `v` are signed magnitudes and `acc` is
/// two's-complement over `G_LIMBS` limbs.
fn acc_sub_product(acc: &mut [u64; G_LIMBS], c: &SignedHalf, v: &SignedHalf) {
    // |c|·|v|: ≈130 + ≈130 bits < 320, fits the accumulator width.
    let mut prod = [0u64; G_LIMBS];
    for (i, &ci) in c.limbs.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &vj) in v.limbs.iter().enumerate() {
            if i + j >= G_LIMBS {
                break;
            }
            let t = prod[i + j] as u128 + ci as u128 * vj as u128 + carry;
            prod[i + j] = t as u64;
            carry = t >> 64;
        }
        if i + HALF_LIMBS < G_LIMBS {
            prod[i + HALF_LIMBS] = carry as u64;
        }
    }
    let negative_product = c.neg != v.neg;
    if negative_product {
        // acc −= (−|cv|)  ⇔  acc += |cv|
        let mut carry = 0u128;
        for (a, &p) in acc.iter_mut().zip(prod.iter()) {
            let t = *a as u128 + p as u128 + carry;
            *a = t as u64;
            carry = t >> 64;
        }
    } else {
        let mut borrow = 0i128;
        for (a, &p) in acc.iter_mut().zip(prod.iter()) {
            let t = *a as i128 - p as i128 + borrow;
            *a = t as u64;
            borrow = if t < 0 { -1 } else { 0 };
        }
    }
}

/// Reads a two's-complement accumulator back into sign + magnitude.
///
/// # Panics
///
/// Panics if the magnitude exceeds `2^max_bits` — mathematically excluded
/// by the lattice bound (and re-proven by the [`derive`] self-test), so a
/// trip here means parameter corruption, not bad input.
fn to_signed_half(acc: &[u64; G_LIMBS], max_bits: usize) -> SignedHalf {
    let neg = acc[G_LIMBS - 1] >> 63 == 1;
    let mut mag = [0u64; G_LIMBS];
    if neg {
        // Two's-complement negate.
        let mut carry = 1u128;
        for (m, &a) in mag.iter_mut().zip(acc.iter()) {
            let t = (!a) as u128 + carry;
            *m = t as u64;
            carry = t >> 64;
        }
    } else {
        mag.copy_from_slice(acc);
    }
    assert!(
        mag[HALF_LIMBS] == 0
            && mag[HALF_LIMBS + 1] == 0
            && bits_of(&mag[..HALF_LIMBS]) <= max_bits,
        "GLV component exceeds the lattice bound"
    );
    SignedHalf {
        limbs: [mag[0], mag[1], mag[2]],
        neg,
    }
}

fn bits_of(limbs: &[u64]) -> usize {
    for (i, &l) in limbs.iter().enumerate().rev() {
        if l != 0 {
            return i * 64 + (64 - l.leading_zeros() as usize);
        }
    }
    0
}

// ---- one-time derivation ----

/// A signed `BigUint`, used only during derivation.
#[derive(Debug, Clone)]
struct SignedBig {
    mag: BigUint,
    neg: bool,
}

impl SignedBig {
    fn positive(mag: BigUint) -> Self {
        SignedBig { mag, neg: false }
    }

    fn negated(&self) -> Self {
        SignedBig {
            mag: self.mag.clone(),
            neg: !self.neg && !self.mag.is_zero(),
        }
    }

    /// `self − other·q` for the Euclid recurrence; relies on the invariant
    /// that consecutive `t` coefficients have opposite signs, so the
    /// magnitudes always add.
    fn euclid_step(&self, other: &Self, q: &BigUint) -> Self {
        debug_assert!(
            self.mag.is_zero() || other.mag.is_zero() || self.neg != other.neg
        );
        SignedBig {
            mag: &self.mag + &(&other.mag * q),
            neg: !other.neg,
        }
    }
}

/// `v` as `N` little-endian limbs (`v < 2^(64·N)`).
fn fixed_limbs<const N: usize>(v: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out.copy_from_slice(&v.to_limbs(N));
    out
}

/// Finds a primitive cube root of unity in `F` (`p ≡ 1 mod 3` required):
/// the first small base whose `(p−1)/3` power is non-trivial.
fn cube_root_of_unity<F: PrimeField>() -> Option<F> {
    let p_minus_1 = F::modulus().checked_sub(&BigUint::one())?;
    let (exp, rem) = p_minus_1.divrem_u64(3);
    if rem != 0 {
        return None;
    }
    for base in 2u64..40 {
        let w = F::from_u64(base).pow(&exp);
        if !w.is_one() && !w.is_zero() {
            return Some(w);
        }
    }
    None
}

/// Derives and verifies the GLV parameters for `C`, or returns `None` when
/// the curve does not support the endomorphism (or any self-check fails).
///
/// Expensive (a few scalar multiplications and one slow division); call
/// once per process and cache, as the `bn254`/`bls12_381` modules do.
pub fn derive<C>() -> Option<GlvParams<C>>
where
    C: CurveParams,
    C::Base: PrimeField,
{
    if C::Scalar::NUM_LIMBS != K_LIMBS {
        return None;
    }
    let r = C::Scalar::modulus();
    let lambda_f = cube_root_of_unity::<C::Scalar>()?;
    let beta_f = cube_root_of_unity::<C::Base>()?;

    // Match the eigenvalue to the endomorphism on the generator: φ acts as
    // one of the two primitive cube roots; β likewise has two candidates.
    let g = Affine::<C>::generator();
    let g_proj = g.to_projective();
    let mut chosen = None;
    'outer: for lam in [lambda_f, lambda_f.square()] {
        let lam_int = lam.to_biguint();
        let expect = g_proj.mul_bigint(&lam_int).to_affine();
        for beta in [beta_f, beta_f.square()] {
            let phi_g = Affine::<C> {
                x: beta * g.x,
                y: g.y,
                infinity: false,
            };
            if phi_g == expect {
                chosen = Some((beta, lam_int));
                break 'outer;
            }
        }
    }
    let (beta, lambda) = chosen?;

    // Extended Euclid on (r, λ): remainders rᵢ = sᵢ·r + tᵢ·λ, so each
    // (rᵢ, −tᵢ) lies in the lattice {(x, y) : x + y·λ ≡ 0 (mod r)}.
    // Stop at the first remainder below √r; GLV takes its row and the
    // shorter neighbour as the reduced basis.
    let mut rows: Vec<(BigUint, SignedBig)> = vec![
        (r.clone(), SignedBig::positive(BigUint::zero())),
        (lambda.clone(), SignedBig::positive(BigUint::one())),
    ];
    let below_sqrt = |v: &BigUint| (v * v) < r;
    while !below_sqrt(&rows[rows.len() - 1].0) {
        let (r_prev, t_prev) = rows[rows.len() - 2].clone();
        let (r_cur, t_cur) = rows[rows.len() - 1].clone();
        let (q, r_next) = r_prev.divrem(&r_cur);
        if r_next.is_zero() {
            return None; // λ | r would be degenerate
        }
        let t_next = t_prev.euclid_step(&t_cur, &q);
        rows.push((r_next, t_next));
    }
    // One extra row so the short one has both neighbours.
    {
        let (r_prev, t_prev) = rows[rows.len() - 2].clone();
        let (r_cur, t_cur) = rows[rows.len() - 1].clone();
        let (q, r_next) = r_prev.divrem(&r_cur);
        let t_next = t_prev.euclid_step(&t_cur, &q);
        rows.push((r_next, t_next));
    }
    let m = rows.len() - 2; // rows[m].0 is the first remainder < √r
    let v1 = (
        SignedBig::positive(rows[m].0.clone()),
        rows[m].1.negated(),
    );
    let norm = |v: &(SignedBig, SignedBig)| &(&v.0.mag * &v.0.mag) + &(&v.1.mag * &v.1.mag);
    let cand_a = (
        SignedBig::positive(rows[m - 1].0.clone()),
        rows[m - 1].1.negated(),
    );
    let cand_b = (
        SignedBig::positive(rows[m + 1].0.clone()),
        rows[m + 1].1.negated(),
    );
    let mut v2 = if norm(&cand_a) < norm(&cand_b) {
        cand_a
    } else {
        cand_b
    };

    // det(v1, v2) = a1·b2 − a2·b1 must be ±r; normalize to +r so the Babai
    // quotients carry the signs of b2/−b1 directly.
    let signed_mul = |x: &SignedBig, y: &SignedBig| SignedBig {
        mag: &x.mag * &y.mag,
        neg: x.neg != y.neg && !x.mag.is_zero() && !y.mag.is_zero(),
    };
    let det_pos_part = signed_mul(&v1.0, &v2.1);
    let det_neg_part = signed_mul(&v1.1, &v2.0);
    // det = det_pos_part − det_neg_part, as a signed value.
    let det = match (det_pos_part.neg, det_neg_part.neg) {
        (false, false) => match det_pos_part.mag.checked_sub(&det_neg_part.mag) {
            Some(mag) => SignedBig::positive(mag),
            None => SignedBig {
                mag: det_neg_part
                    .mag
                    .checked_sub(&det_pos_part.mag)
                    .expect("one order must hold"),
                neg: true,
            },
        },
        (true, true) => match det_neg_part.mag.checked_sub(&det_pos_part.mag) {
            Some(mag) => SignedBig::positive(mag),
            None => SignedBig {
                mag: det_pos_part
                    .mag
                    .checked_sub(&det_neg_part.mag)
                    .expect("one order must hold"),
                neg: true,
            },
        },
        (false, true) => SignedBig::positive(&det_pos_part.mag + &det_neg_part.mag),
        (true, false) => SignedBig {
            mag: &det_pos_part.mag + &det_neg_part.mag,
            neg: true,
        },
    };
    if det.mag != r {
        return None;
    }
    if det.neg {
        v2 = (v2.0.negated(), v2.1.negated());
    }

    let (a1, b1) = v1;
    let (a2, b2) = v2;
    let half_bits = [&a1, &b1, &a2, &b2]
        .iter()
        .map(|v| v.mag.bits())
        .max()
        .unwrap_or(0)
        + 2;
    if half_bits > HALF_LIMBS * 64 {
        return None;
    }

    // Babai constants: one slow division each, paid once per process.
    let barrett = |b: &SignedBig| -> Option<[u64; G_LIMBS]> {
        let (q, _) = b.mag.shl(64 * SHIFT_LIMBS).divrem(&r);
        if q.bits() > G_LIMBS * 64 {
            return None;
        }
        Some(fixed_limbs(&q))
    };
    let to_half = |v: &SignedBig| -> SignedHalf {
        SignedHalf {
            limbs: fixed_limbs(&v.mag),
            neg: v.neg && !v.mag.is_zero(),
        }
    };
    let params = GlvParams {
        beta,
        lambda: lambda.clone(),
        a1: to_half(&a1),
        b1: to_half(&b1),
        a2: to_half(&a2),
        b2: to_half(&b2),
        g1: barrett(&b2)?,
        g2: barrett(&b1)?,
        r: fixed_limbs(&r),
        r_half: fixed_limbs(&r.shr(1)),
        half_bits,
    };

    // Self-test: replay the fixed-limb decomposition against independent
    // BigUint arithmetic on the scalars most likely to expose an
    // off-by-one — 0, 1, the eigenvalue and its neighbours, r−1, and the
    // basis magnitudes themselves (the lattice boundaries).
    let lambda_elem = C::Scalar::from_biguint(&lambda);
    let mut probes = vec![
        C::Scalar::zero(),
        C::Scalar::one(),
        C::Scalar::from_u64(2),
        lambda_elem - C::Scalar::one(),
        lambda_elem,
        lambda_elem + C::Scalar::one(),
        -C::Scalar::one(), // r − 1
        C::Scalar::from_biguint(&a1.mag),
        C::Scalar::from_biguint(&b1.mag),
        C::Scalar::from_biguint(&a2.mag),
        C::Scalar::from_biguint(&b2.mag),
    ];
    // A few full-width pseudo-random probes, deterministic by construction.
    let mut x = C::Scalar::from_u64(0x9e37_79b9_7f4a_7c15);
    for _ in 0..6 {
        x = x.square() + C::Scalar::from_u64(1);
        probes.push(x);
    }
    for k in &probes {
        if !decomposition_holds::<C>(&params, k) {
            return None;
        }
    }
    Some(params)
}

/// Checks `k1 + λ·k2 ≡ k (mod r)` and the width bound, via `BigUint`.
fn decomposition_holds<C: CurveParams>(params: &GlvParams<C>, k: &C::Scalar) -> bool {
    let d = params.decompose(k);
    let r = C::Scalar::modulus();
    let to_big = |s: &SignedHalf| BigUint::from_limbs(&s.limbs);
    if to_big(&d.k1).bits() > params.half_bits || to_big(&d.k2).bits() > params.half_bits {
        return false;
    }
    // (±k1 ± λ·k2) mod r, folding signs through r − x.
    let fold = |mag: BigUint, neg: bool| -> BigUint {
        let m = mag.rem(&r);
        if neg && !m.is_zero() {
            r.checked_sub(&m).expect("m < r")
        } else {
            m
        }
    };
    let term1 = fold(to_big(&d.k1), d.k1.neg);
    let term2 = fold(&to_big(&d.k2) * params.lambda(), d.k2.neg);
    (&term1 + &term2).rem(&r) == k.to_biguint()
}

/// `k·P` via the decomposition: interleaved double-and-add over
/// `(k1, k2)` — the reference the windowed kernels are tested against,
/// and itself a check that `φ` really acts as `λ`.
pub fn mul_glv_reference<C: CurveParams>(
    params: &GlvParams<C>,
    p: &Projective<C>,
    k: &C::Scalar,
) -> Projective<C> {
    let d = params.decompose(k);
    let p_aff = p.to_affine();
    let apply = |s: &SignedHalf, point: &Affine<C>| -> Projective<C> {
        let base = if s.neg { point.neg() } else { *point };
        let mag = BigUint::from_limbs(&s.limbs);
        base.to_projective().mul_bigint(&mag)
    };
    apply(&d.k1, &p_aff) + apply(&d.k2, &params.endo(&p_aff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::G1Params;
    use zkperf_ff::bn254::Fr;

    fn params() -> GlvParams<G1Params> {
        derive::<G1Params>().expect("BN254 G1 supports GLV")
    }

    #[test]
    fn derivation_succeeds_for_both_g1_groups() {
        assert!(derive::<G1Params>().is_some());
        assert!(derive::<crate::bls12_381::G1Params>().is_some());
    }

    #[test]
    fn half_bits_are_near_sqrt_r() {
        let p = params();
        assert!(p.half_bits() <= 140, "BN254 components are ≈127 bits");
        assert!(p.half_bits() >= 120);
    }

    #[test]
    fn decompose_random_scalars_recompose_mod_r() {
        let p = params();
        let mut rng = zkperf_ff::test_rng();
        for _ in 0..200 {
            let k = Fr::random(&mut rng);
            assert!(decomposition_holds::<G1Params>(&p, &k), "k = {k}");
        }
    }

    #[test]
    fn reference_glv_mul_matches_double_and_add() {
        let p = params();
        let mut rng = zkperf_ff::test_rng();
        let point = Projective::<G1Params>::random(&mut rng);
        for k in [
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            Fr::from_biguint(p.lambda()),
            Fr::random(&mut rng),
        ] {
            assert_eq!(
                mul_glv_reference(&p, &point, &k),
                point * k,
                "k = {k}"
            );
        }
    }

    #[test]
    fn endo_is_the_eigenvalue_map() {
        let p = params();
        let mut rng = zkperf_ff::test_rng();
        let q = Projective::<G1Params>::random(&mut rng).to_affine();
        let lhs = p.endo(&q).to_projective();
        let rhs = q.to_projective().mul_bigint(p.lambda());
        assert_eq!(lhs, rhs);
        assert!(p.endo(&Affine::identity()).infinity);
    }
}
