//! The fast pairing engine: twisted-curve Miller loops with precomputed
//! line coefficients.
//!
//! A textbook Miller loop maps G2 onto the full curve `E(Fq12)` and runs
//! there in affine coordinates — one `Fq12` inversion per step (that form
//! lives in `zkperf-testkit::reference` as the oracle). This module keeps
//! G2 on the sextic twist over `Fq2` and uses homogeneous projective
//! coordinates, so a doubling step costs a handful of `Fq2`
//! multiplications and no inversion at all. Line evaluations populate only
//! three of the six `Fq2` tower slots and are folded into the accumulator
//! with the sparse `mul_by_014` / `mul_by_034` kernels from `zkperf-ff`.
//!
//! The line *coefficients* depend only on Q, so for a fixed G2 point the
//! whole sequence is precomputed once into a [`G2Prepared`] and every
//! subsequent pairing against that point pays just the sparse
//! multiplications — the production trick behind prepared verifying keys.
//!
//! This is the only pairing engine in the crate, traced or not. Its `Gt`
//! outputs are bit-identical to that reference's — the Miller values
//! differ by subfield factors that the final exponentiation kills, and the
//! testkit `pairing_*` oracles pin the post-exponentiation equality
//! differentially.

use zkperf_ff::{CubicExt, CubicExtParams, Field, QuadExt, QuadExtParams};
use zkperf_trace as trace;

use crate::curve::{Affine, CurveParams};

/// Which sextic twist the curve uses; decides which tower slots a line
/// evaluation populates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwistType {
    /// Divisive twist (`y² = x³ + b/ξ`, BN254): lines are `034`-sparse.
    D,
    /// Multiplicative twist (`y² = x³ + b·ξ`, BLS12-381): lines are
    /// `014`-sparse.
    M,
}

// The twisted engine is the only one left, so this is constant. It stays
// because `benchmark/src/env.rs` records it as provenance and `benchmark/`
// must build unmodified beside a code change; the benchmark-only follow-up
// of ROADMAP item 5 drops the field and then this function.
#[doc(hidden)]
pub fn fast_pairing_enabled() -> bool {
    true
}

/// A G2 point with its full Miller-loop line-coefficient sequence
/// precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct G2Prepared<C: CurveParams> {
    /// The original affine point (identity checks).
    pub q: Affine<C>,
    /// Line-coefficient triples in loop order; empty for the identity,
    /// which pairs to one without walking any line.
    pub coeffs: Vec<[C::Base; 3]>,
}

/// A twist point in homogeneous projective coordinates `(X : Y : Z)`
/// representing the affine point `(X/Z, Y/Z)`.
struct HomProjective<F: Field> {
    x: F,
    y: F,
    z: F,
}

/// Doubles `r` and returns the tangent-line coefficients (projective
/// formulas of Aranha et al.; `coeff_b` is the twist's `b'`).
fn doubling_step<F: Field>(
    r: &mut HomProjective<F>,
    coeff_b: F,
    two_inv: F,
    twist: TwistType,
) -> [F; 3] {
    let a = r.x * r.y * two_inv;
    let b = r.y.square();
    let c = r.z.square();
    let e = coeff_b * (c.double() + c);
    let f = e.double() + e;
    let g = (b + f) * two_inv;
    let h = (r.y + r.z).square() - (b + c);
    let i = e - b;
    let j = r.x.square();
    let e2 = e.square();
    r.x = a * (b - f);
    r.y = g.square() - (e2.double() + e2);
    r.z = b * h;
    match twist {
        TwistType::M => [i, j.double() + j, -h],
        TwistType::D => [-h, j.double() + j, i],
    }
}

/// Adds the affine point `(qx, qy)` into `r` and returns the chord-line
/// coefficients.
fn addition_step<F: Field>(
    r: &mut HomProjective<F>,
    qx: F,
    qy: F,
    twist: TwistType,
) -> [F; 3] {
    let theta = r.y - qy * r.z;
    let lambda = r.x - qx * r.z;
    let c = theta.square();
    let d = lambda.square();
    let e = lambda * d;
    let f = r.z * c;
    let g = r.x * d;
    let h = e + f - g.double();
    r.x = lambda * h;
    r.y = theta * (g - h) - e * r.y;
    r.z *= e;
    let j = theta * qx - lambda * qy;
    match twist {
        TwistType::M => [j, -theta, lambda],
        TwistType::D => [lambda, -theta, j],
    }
}

/// The non-adjacent form of `n`, least-significant digit first; the top
/// digit of a positive `n` is always `1`.
pub(crate) fn naf_digits(mut n: u128) -> Vec<i8> {
    let mut digits = Vec::new();
    while n > 0 {
        if n & 1 == 1 {
            let d: i8 = if n & 3 == 3 { -1 } else { 1 };
            digits.push(d);
            if d == 1 {
                n -= 1;
            } else {
                n += 1;
            }
        } else {
            digits.push(0);
        }
        n >>= 1;
    }
    digits
}

/// Plain binary digits of `n`, least-significant first (for loop counts
/// that are already low-weight, like the BLS parameter).
pub(crate) fn bit_digits(n: u128) -> Vec<i8> {
    let mut digits = Vec::new();
    let mut m = n;
    while m > 0 {
        digits.push((m & 1) as i8);
        m >>= 1;
    }
    digits
}

/// Collects the line-coefficient sequence for the Miller loop over
/// `digits` starting from `q`, followed by one addition step per entry of
/// `corrections` (the Frobenius adjustment points of the BN-style loop).
pub(crate) fn prepare_coeffs<C: CurveParams>(
    q: &Affine<C>,
    twist: TwistType,
    digits: &[i8],
    corrections: &[(C::Base, C::Base)],
) -> Vec<[C::Base; 3]> {
    let _g = trace::region_profile("miller_loop");
    let two_inv = C::Base::from_u64(2)
        .inverse()
        .expect("field characteristic is odd");
    // Loop-invariant: for the divisive twist this is `b/ξ`, whose
    // computation costs a base-field inversion.
    let coeff_b = C::coeff_b();
    let mut r = HomProjective {
        x: q.x,
        y: q.y,
        z: C::Base::one(),
    };
    let neg_qy = -q.y;
    let mut coeffs = Vec::with_capacity(digits.len() + digits.len() / 4 + corrections.len());
    for &digit in digits[..digits.len() - 1].iter().rev() {
        coeffs.push(doubling_step(&mut r, coeff_b, two_inv, twist));
        match digit {
            1 => coeffs.push(addition_step(&mut r, q.x, q.y, twist)),
            -1 => coeffs.push(addition_step(&mut r, q.x, neg_qy, twist)),
            _ => {}
        }
    }
    for &(cx, cy) in corrections {
        coeffs.push(addition_step(&mut r, cx, cy, twist));
    }
    coeffs
}

/// Folds one line into the Miller accumulator, scaling by the G1
/// coordinates (`px`, `py`) per the twist's sparsity pattern.
fn ell<PF2, P6, P12>(
    f: QuadExt<P12>,
    c: &[QuadExt<PF2>; 3],
    px: PF2::Base,
    py: PF2::Base,
    twist: TwistType,
) -> QuadExt<P12>
where
    PF2: QuadExtParams,
    P6: CubicExtParams<Base = QuadExt<PF2>>,
    P12: QuadExtParams<Base = CubicExt<P6>>,
{
    match twist {
        TwistType::M => f.mul_by_014(c[0], c[1].mul_by_base(px), c[2].mul_by_base(py)),
        TwistType::D => f.mul_by_034(c[0].mul_by_base(py), c[1].mul_by_base(px), c[2]),
    }
}

/// Evaluates a precomputed line sequence at the G1 point `(px, py)`: the
/// Miller loop over `digits` consuming one (doubling) or two
/// (doubling + addition) coefficient triples per digit, then `extra`
/// trailing correction lines.
pub(crate) fn eval_lines<PF2, P6, P12>(
    coeffs: &[[QuadExt<PF2>; 3]],
    digits: &[i8],
    extra: usize,
    px: PF2::Base,
    py: PF2::Base,
    twist: TwistType,
) -> QuadExt<P12>
where
    PF2: QuadExtParams,
    P6: CubicExtParams<Base = QuadExt<PF2>>,
    P12: QuadExtParams<Base = CubicExt<P6>>,
{
    let _g = trace::region_profile("miller_loop");
    let mut f = QuadExt::<P12>::one();
    let mut it = coeffs.iter();
    for &digit in digits[..digits.len() - 1].iter().rev() {
        f = f.square();
        f = ell(f, it.next().expect("doubling line present"), px, py, twist);
        if digit != 0 {
            f = ell(f, it.next().expect("addition line present"), px, py, twist);
        }
    }
    for _ in 0..extra {
        f = ell(f, it.next().expect("correction line present"), px, py, twist);
    }
    debug_assert!(it.next().is_none(), "coefficient stream fully consumed");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naf_digits_recompose_and_are_sparse() {
        for n in [1u128, 2, 3, 7, 0xd201_0000_0001_0000, 29793968203157093288] {
            let digits = naf_digits(n);
            let mut acc: i128 = 0;
            for &d in digits.iter().rev() {
                acc = 2 * acc + i128::from(d);
            }
            assert_eq!(acc, n as i128);
            assert_eq!(*digits.last().unwrap(), 1, "top NAF digit is 1");
            // Non-adjacency: no two consecutive nonzero digits.
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "NAF property violated for {n}");
            }
        }
    }

    #[test]
    fn bit_digits_recompose() {
        let digits = bit_digits(0b1011_0100);
        let mut acc = 0u128;
        for &d in digits.iter().rev() {
            acc = 2 * acc + d as u128;
        }
        assert_eq!(acc, 0b1011_0100);
    }
}
