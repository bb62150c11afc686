//! The untwisted reference pairing.
//!
//! Instead of sparse line-coefficient formulas on the twist, the Miller
//! loop here runs on the *untwisted* curve `E(F_q¹²)` in affine
//! coordinates: G2 points are mapped through the twist isomorphism once,
//! and every subsequent step is plain chord-and-tangent geometry over the
//! tower arithmetic — one `Fq12` inversion per step — followed by a final
//! exponentiation that is one square-and-multiply with the exact exponent
//! `(q¹² − 1)/r`. It shares no line formula, loop recoding or addition
//! chain with `zkperf_ec::pairing_fast`, which is what makes it the oracle
//! for it.

use zkperf_ff::{BigUint, Field, Frobenius, QuadExt, QuadExtParams};

/// An affine point on the untwisted curve over the full extension field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtPoint<F> {
    /// x-coordinate.
    pub x: F,
    /// y-coordinate.
    pub y: F,
    /// Marker for the point at infinity.
    pub infinity: bool,
}

impl<F: Field + Frobenius> ExtPoint<F> {
    /// The point at infinity.
    pub fn identity() -> Self {
        ExtPoint {
            x: F::zero(),
            y: F::zero(),
            infinity: true,
        }
    }

    /// Coordinate-wise Frobenius (the map π of ate pairings).
    pub fn frobenius(&self, power: usize) -> Self {
        ExtPoint {
            x: self.x.frobenius(power),
            y: self.y.frobenius(power),
            infinity: self.infinity,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        ExtPoint {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }
}

/// Evaluates the line through `a` and `b` (tangent when `a == b`) at the
/// point `(xp, yp)`, returning `(line_value, a + b)`.
///
/// All special cases are handled: either input at infinity contributes a
/// constant line, and `b == −a` yields the vertical line `x − a.x`.
pub fn line_and_add<F: Field + Frobenius>(
    a: &ExtPoint<F>,
    b: &ExtPoint<F>,
    xp: F,
    yp: F,
) -> (F, ExtPoint<F>) {
    if a.infinity {
        return (F::one(), *b);
    }
    if b.infinity {
        return (F::one(), *a);
    }
    let lambda = if a.x == b.x {
        if a.y == b.y && !a.y.is_zero() {
            // Tangent: λ = 3x² / 2y.
            let x2 = a.x.square();
            (x2.double() + x2) * a.y.double().inverse().expect("y != 0")
        } else {
            // Vertical line through a and −a.
            return (xp - a.x, ExtPoint::identity());
        }
    } else {
        (b.y - a.y) * (b.x - a.x).inverse().expect("distinct x")
    };
    let line = (yp - a.y) - lambda * (xp - a.x);
    let x3 = lambda.square() - a.x - b.x;
    let y3 = lambda * (a.x - x3) - a.y;
    (
        line,
        ExtPoint {
            x: x3,
            y: y3,
            infinity: false,
        },
    )
}

/// The core Miller loop `f_{s,Q}(P)` over the bits of `s` (MSB first),
/// returning the accumulated function value and the final point `[s]Q`.
pub fn miller_loop<F: Field + Frobenius>(
    q: &ExtPoint<F>,
    xp: F,
    yp: F,
    s: &BigUint,
) -> (F, ExtPoint<F>) {
    let mut f = F::one();
    let mut t = *q;
    debug_assert!(s.bits() >= 2, "loop count must exceed 1");
    for i in (0..s.bits() - 1).rev() {
        f = f.square();
        let (l, t2) = line_and_add(&t, &t, xp, yp);
        f *= l;
        t = t2;
        if s.bit(i) {
            let (l, t3) = line_and_add(&t, q, xp, yp);
            f *= l;
            t = t3;
        }
    }
    (f, t)
}

/// The final exponentiation `f^((q¹² − 1)/r)`, split into the cheap
/// "easy part" (Frobenius and one inversion) and the "hard part", which is
/// performed as a plain square-and-multiply with the exact exponent
/// `(q⁴ − q² + 1)/r` computed in big-integer arithmetic.
pub fn final_exponentiation<P>(f: QuadExt<P>, hard_exponent: &BigUint) -> QuadExt<P>
where
    P: QuadExtParams,
    QuadExt<P>: Frobenius,
{
    // Easy part: f^(q⁶ − 1) then ^(q² + 1). Conjugation is the q⁶-power
    // Frobenius on a quadratic-over-sextic tower.
    let f1 = f.conjugate() * f.inverse().expect("pairing value non-zero");
    let f2 = f1.frobenius(2) * f1;
    // Hard part.
    f2.pow(hard_exponent)
}

/// Computes the hard-part exponent `(q⁴ − q² + 1)/r`, asserting exactness.
pub fn hard_exponent(q: &BigUint, r: &BigUint) -> BigUint {
    let q2 = q * q;
    let q4 = &q2 * &q2;
    let num = &q4.checked_sub(&q2).expect("q4 >= q2") + &BigUint::one();
    let (quot, rem) = num.divrem(r);
    assert!(rem.is_zero(), "(q^4 - q^2 + 1) must be divisible by r");
    quot
}

/// The reference optimal-ate pairing on BN254.
pub mod bn254 {
    use zkperf_ec::bn254::{G1Affine, G2Affine, Gt};
    use zkperf_ff::bn254::{Fq, Fq12, Fq2, Fq6, Fr, BN_X};
    use zkperf_ff::{BigUint, Field, PrimeField};

    use super::{final_exponentiation, hard_exponent, line_and_add, miller_loop, ExtPoint};

    /// Embeds a base-field element into the top of the tower.
    pub fn embed_fq(x: Fq) -> Fq12 {
        Fq12::from_base(Fq6::from_base(Fq2::from_base(x)))
    }

    /// Maps a G2 point through the D-twist isomorphism onto `E(Fq12)`:
    /// `(x', y') ↦ (x'·w², y'·w³)` where `w⁶ = ξ`.
    pub fn untwist(q: &G2Affine) -> ExtPoint<Fq12> {
        if q.infinity {
            return ExtPoint::identity();
        }
        let w2 = Fq12::new(Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero()), Fq6::zero());
        let w3 = Fq12::new(Fq6::zero(), Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero()));
        ExtPoint {
            x: Fq12::from_base(Fq6::from_base(q.x)) * w2,
            y: Fq12::from_base(Fq6::from_base(q.y)) * w3,
            infinity: false,
        }
    }

    /// The optimal-ate Miller loop `f_{6x+2,Q}(P)` with the two Frobenius
    /// correction lines.
    pub fn miller(p: &G1Affine, q: &G2Affine) -> Fq12 {
        if p.infinity || q.infinity {
            return Fq12::one();
        }
        let (xp, yp) = (embed_fq(p.x), embed_fq(p.y));
        let q12 = untwist(q);
        let s = &BigUint::from_u64(BN_X).mul_u64(6) + &BigUint::from_u64(2);
        let (mut f, mut t) = miller_loop(&q12, xp, yp, &s);
        // Correction steps with Q1 = π(Q) and Q2 = π²(Q).
        let q1 = q12.frobenius(1);
        let q2 = q12.frobenius(2);
        let (l, t1) = line_and_add(&t, &q1, xp, yp);
        f *= l;
        t = t1;
        let (l, _) = line_and_add(&t, &q2.neg(), xp, yp);
        f *= l;
        f
    }

    /// The hard-part exponent `(q⁴ − q² + 1)/r` (recomputed per call).
    pub fn pairing_hard_exponent() -> BigUint {
        hard_exponent(&Fq::modulus(), &Fr::modulus())
    }

    /// The full reference pairing `e(P, Q)`.
    pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
        final_exponentiation(miller(p, q), &pairing_hard_exponent())
    }
}

/// The reference optimal-ate pairing on BLS12-381.
pub mod bls12_381 {
    use zkperf_ec::bls12_381::{G1Affine, G2Affine, Gt};
    use zkperf_ff::bls12_381::{Fq, Fq12, Fq2, Fq6, Fr, BLS_X, BLS_X_IS_NEGATIVE};
    use zkperf_ff::{BigUint, Field, PrimeField};

    use super::{final_exponentiation, hard_exponent, miller_loop, ExtPoint};

    /// Embeds a base-field element into the top of the tower.
    pub fn embed_fq(x: Fq) -> Fq12 {
        Fq12::from_base(Fq6::from_base(Fq2::from_base(x)))
    }

    /// Maps a G2 point through the M-twist isomorphism onto `E(Fq12)`:
    /// `(x', y') ↦ (x'·w⁻², y'·w⁻³)` where `w⁶ = ξ`.
    pub fn untwist(q: &G2Affine) -> ExtPoint<Fq12> {
        if q.infinity {
            return ExtPoint::identity();
        }
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        let winv = w.inverse().expect("w != 0");
        let winv2 = winv.square();
        let winv3 = winv2 * winv;
        ExtPoint {
            x: Fq12::from_base(Fq6::from_base(q.x)) * winv2,
            y: Fq12::from_base(Fq6::from_base(q.y)) * winv3,
            infinity: false,
        }
    }

    /// The BLS Miller loop `f_{|x|,Q}(P)`, conjugated because the BLS
    /// parameter is negative.
    pub fn miller(p: &G1Affine, q: &G2Affine) -> Fq12 {
        if p.infinity || q.infinity {
            return Fq12::one();
        }
        let (xp, yp) = (embed_fq(p.x), embed_fq(p.y));
        let q12 = untwist(q);
        let s = BigUint::from_u64(BLS_X);
        let (f, _) = miller_loop(&q12, xp, yp, &s);
        if BLS_X_IS_NEGATIVE {
            f.conjugate()
        } else {
            f
        }
    }

    /// The hard-part exponent `(q⁴ − q² + 1)/r`.
    pub fn pairing_hard_exponent() -> BigUint {
        hard_exponent(&Fq::modulus(), &Fr::modulus())
    }

    /// The full reference pairing `e(P, Q)`.
    pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
        final_exponentiation(miller(p, q), &pairing_hard_exponent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::bn254::Fq12;
    use zkperf_ff::PrimeField;

    fn pt(x: Fq12, y: Fq12) -> ExtPoint<Fq12> {
        ExtPoint {
            x,
            y,
            infinity: false,
        }
    }

    #[test]
    fn line_through_infinity_is_constant() {
        let a = ExtPoint::<Fq12>::identity();
        let b = pt(Fq12::from_u64(2), Fq12::from_u64(3));
        let (l, sum) = line_and_add(&a, &b, Fq12::from_u64(7), Fq12::from_u64(9));
        assert!(l.is_one());
        assert_eq!(sum, b);
        let (l2, sum2) = line_and_add(&b, &a, Fq12::from_u64(7), Fq12::from_u64(9));
        assert!(l2.is_one());
        assert_eq!(sum2, b);
    }

    #[test]
    fn vertical_line_between_point_and_negation() {
        let a = pt(Fq12::from_u64(2), Fq12::from_u64(3));
        let (l, sum) = line_and_add(&a, &a.neg(), Fq12::from_u64(7), Fq12::from_u64(1));
        assert!(sum.infinity);
        assert_eq!(l, Fq12::from_u64(5)); // 7 − 2
    }

    #[test]
    fn hard_exponent_is_exact_for_bn254() {
        let q = zkperf_ff::bn254::Fq::modulus();
        let r = zkperf_ff::bn254::Fr::modulus();
        let h = hard_exponent(&q, &r);
        // Sanity: multiplying back recovers q⁴ − q² + 1.
        let q2 = &q * &q;
        let expect = &(&q2 * &q2).checked_sub(&q2).unwrap() + &BigUint::one();
        assert_eq!(&h * &r, expect);
    }

    #[test]
    fn ext_point_frobenius_and_neg() {
        let mut rng = zkperf_ff::test_rng();
        let x = Fq12::random(&mut rng);
        let y = Fq12::random(&mut rng);
        let p = pt(x, y);
        assert_eq!(p.neg().neg(), p);
        let f = p.frobenius(1);
        assert_eq!(f.x, x.frobenius(1));
        assert_eq!(f.y, y.frobenius(1));
    }

    #[test]
    fn bn254_untwisted_generator_is_on_e_fq12() {
        use zkperf_ff::bn254::Fq;
        let g2 = zkperf_ec::bn254::G2Affine::generator();
        let q = bn254::untwist(&g2);
        let b = bn254::embed_fq(Fq::from_u64(3));
        assert_eq!(q.y.square(), q.x.square() * q.x + b);
        // The untwist carries the twist's Frobenius endomorphism
        // ψ(Q) = [q]Q to the coordinate-wise π on E(Fq12).
        let psi = g2.to_projective().mul_bigint(&Fq::modulus()).to_affine();
        assert_eq!(bn254::untwist(&psi), q.frobenius(1));
    }

    #[test]
    fn bls12_381_untwisted_generator_is_on_e_fq12() {
        use zkperf_ff::bls12_381::Fq;
        let q = bls12_381::untwist(&zkperf_ec::bls12_381::G2Affine::generator());
        let b = bls12_381::embed_fq(Fq::from_u64(4));
        assert_eq!(q.y.square(), q.x.square() * q.x + b);
    }
}
