//! BN254 (alt_bn128) groups and optimal-ate pairing.

use std::sync::OnceLock;

use zkperf_ff::bn254::{Fq, Fq12, Fq12Params, Fq2, Fq2Params, Fq6Params, Fr, BN_X};
use zkperf_ff::{BigUint, Field, Frobenius, PrimeField};
use zkperf_trace as trace;

use crate::curve::{Affine, CurveParams, Projective};
use crate::pairing_fast::{self, G2Prepared, TwistType};

/// Marker for the BN254 G1 group (`y² = x³ + 3` over `Fq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "bn254::G1";
    fn coeff_b() -> Fq {
        Fq::from_u64(3)
    }
    fn generator_xy() -> (Fq, Fq) {
        (Fq::from_u64(1), Fq::from_u64(2))
    }
    fn glv_params() -> Option<&'static crate::glv::GlvParams<Self>> {
        static CELL: std::sync::OnceLock<Option<crate::glv::GlvParams<G1Params>>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(crate::glv::derive::<G1Params>).as_ref()
    }
}

/// BN254 G1 in affine coordinates.
pub type G1Affine = Affine<G1Params>;
/// BN254 G1 in Jacobian coordinates.
pub type G1Projective = Projective<G1Params>;

/// Marker for the BN254 G2 group, the sextic D-twist
/// `y² = x³ + 3/(9 + u)` over `Fq2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "bn254::G2";
    fn coeff_b() -> Fq2 {
        Fq2::from_base(Fq::from_u64(3)) * zkperf_ff::bn254::xi().inverse().expect("xi != 0")
    }
    fn generator_xy() -> (Fq2, Fq2) {
        // The EIP-197 G2 generator.
        let fq = |s: &str| Fq::from_str_radix(s, 10).expect("valid literal");
        (
            Fq2::new(
                fq("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
                fq("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
            ),
            Fq2::new(
                fq("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
                fq("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
            ),
        )
    }
}

/// BN254 G2 in affine coordinates.
pub type G2Affine = Affine<G2Params>;
/// BN254 G2 in Jacobian coordinates.
pub type G2Projective = Projective<G2Params>;

/// Target-group values (the order-`r` subgroup of `Fq12*`).
pub type Gt = Fq12;

/// NAF digits of the optimal-ate loop count `6x + 2`, least-significant
/// first (the value exceeds 64 bits, hence the `u128` arithmetic).
fn ate_digits() -> &'static [i8] {
    static CELL: OnceLock<Vec<i8>> = OnceLock::new();
    CELL.get_or_init(|| pairing_fast::naf_digits(6 * BN_X as u128 + 2))
}

/// The twist-Frobenius scalars `(ξ^((q−1)/3), ξ^((q−1)/2))` applied to the
/// coordinates of ψ(Q).
fn twist_frob_coeffs() -> &'static (Fq2, Fq2) {
    static CELL: OnceLock<(Fq2, Fq2)> = OnceLock::new();
    CELL.get_or_init(|| {
        let qm1 = Fq::modulus()
            .checked_sub(&BigUint::one())
            .expect("q >= 1");
        let exp = |d: u64| {
            let (e, rem) = qm1.divrem_u64(d);
            assert_eq!(rem, 0, "q - 1 not divisible by {d}");
            e
        };
        let xi = zkperf_ff::bn254::xi();
        (xi.pow(&exp(3)), xi.pow(&exp(2)))
    })
}

/// The image of the q-power Frobenius endomorphism on the twist,
/// ψ⁻¹ ∘ π ∘ ψ.
fn mul_by_char(q: &G2Affine) -> G2Affine {
    let (cx, cy) = *twist_frob_coeffs();
    G2Affine::new_unchecked(q.x.frobenius(1) * cx, q.y.frobenius(1) * cy)
}

/// The full line-coefficient sequence of `q`: the `6x + 2` NAF loop plus
/// the two Frobenius correction additions with `π(Q)` and `−π²(Q)`.
fn ate_coeffs(q: &G2Affine) -> Vec<[Fq2; 3]> {
    let q1 = mul_by_char(q);
    let q2 = mul_by_char(&q1);
    let corrections = [(q1.x, q1.y), (q2.x, -q2.y)];
    pairing_fast::prepare_coeffs::<G2Params>(q, TwistType::D, ate_digits(), &corrections)
}

fn eval_prepared(p: &G1Affine, coeffs: &[[Fq2; 3]]) -> Fq12 {
    pairing_fast::eval_lines::<Fq2Params, Fq6Params, Fq12Params>(
        coeffs,
        ate_digits(),
        2,
        p.x,
        p.y,
        TwistType::D,
    )
}

/// Precomputes the Miller-loop line coefficients of a fixed G2 point so
/// that pairings against it reduce to sparse multiplications.
pub fn prepare_g2(q: &G2Affine) -> G2Prepared<G2Params> {
    let coeffs = if q.infinity { Vec::new() } else { ate_coeffs(q) };
    G2Prepared { q: *q, coeffs }
}

/// Final exponentiation `f^((q¹² − 1)/r)` via the Frobenius decomposition
/// of the hard part and cyclotomic x-power chains — three exponentiations
/// by the BN parameter instead of a full 2790-bit square-and-multiply.
/// Agrees bit-for-bit with the plain exponentiation (the `pairing_bn254`
/// oracle in `zkperf-testkit`).
pub fn final_exponentiation_fast(f: Fq12) -> Gt {
    let _g = trace::region_profile("final_exp");
    // Easy part: f^(q⁶−1)(q²+1).
    let f1 = f.conjugate() * f.inverse().expect("pairing value non-zero");
    let r = f1.frobenius(2) * f1;
    // Hard part: (q⁴ − q² + 1)/r written in base q with x-polynomial
    // digits d = −λ₀ − λ₁·q + (6x²+1)·q² + q³ where
    // λ₀ = 36x³+30x²+18x+2 and λ₁ = 36x³+18x²+12x−1 (exactness is pinned
    // against the reference exponentiation by the testkit oracle).
    let rx = r.cyclotomic_pow_u64(BN_X);
    let r3x = rx.cyclotomic_square() * rx;
    let r6x = r3x.cyclotomic_square();
    let r6x2 = r6x.cyclotomic_pow_u64(BN_X);
    let r12x2 = r6x2.cyclotomic_square();
    let r12x3 = r12x2.cyclotomic_pow_u64(BN_X);
    let r36x3 = r12x3.cyclotomic_square() * r12x3;
    let r18x2 = r6x2 * r12x2;
    let r12x = r6x.cyclotomic_square();
    let r18x = r12x * r6x;
    let lam1 = r36x3 * r18x2 * r12x * r.conjugate();
    let lam0 = r36x3 * r18x2 * r12x2 * r18x * r.cyclotomic_square();
    lam0.conjugate()
        * lam1.conjugate().frobenius(1)
        * (r6x2 * r).frobenius(2)
        * r.frobenius(3)
}

/// The full optimal-ate pairing `e(P, Q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.infinity || q.infinity {
        return Fq12::one();
    }
    final_exponentiation_fast(eval_prepared(p, &ate_coeffs(q)))
}

/// `e(P₁,Q₁)·…·e(Pₙ,Qₙ)` with a single shared final exponentiation.
///
/// Mirrors the MSM length contract: when the slices have different
/// lengths, the longer one is truncated to the shorter and the extra
/// entries are ignored.
pub fn multi_pairing(ps: &[G1Affine], qs: &[G2Affine]) -> Gt {
    let mut f = Fq12::one();
    for (p, q) in ps.iter().zip(qs) {
        if p.infinity || q.infinity {
            continue;
        }
        f *= eval_prepared(p, &ate_coeffs(q));
    }
    final_exponentiation_fast(f)
}

/// [`multi_pairing`] over points prepared with [`prepare_g2`], skipping
/// the per-pairing line computation entirely. Follows the same truncation
/// contract for mismatched lengths.
pub fn multi_pairing_prepared(ps: &[G1Affine], qs: &[&G2Prepared<G2Params>]) -> Gt {
    let mut f = Fq12::one();
    for (p, prep) in ps.iter().zip(qs) {
        if p.infinity || prep.q.infinity {
            continue;
        }
        f *= eval_prepared(p, &prep.coeffs);
    }
    final_exponentiation_fast(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_on_curve_and_in_subgroup() {
        let g1 = G1Affine::generator();
        assert!(g1.is_on_curve());
        assert!(g1.is_in_subgroup());
        let g2 = G2Affine::generator();
        assert!(g2.is_on_curve());
        assert!(g2.is_in_subgroup());
    }

    #[test]
    fn pairing_is_non_degenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert!(!e.is_one());
        assert!(!e.is_zero());
        // e has order dividing r.
        assert!(e.pow(&Fr::modulus()).is_one());
    }

    #[test]
    fn pairing_of_identity_is_one() {
        assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_one());
        assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_one());
    }

    #[test]
    fn pairing_is_bilinear() {
        let (a, b) = (Fr::from_u64(127), Fr::from_u64(911));
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let lhs = pairing(&(g1 * a).to_affine(), &(g2 * b).to_affine());
        let rhs = pairing(&G1Affine::generator(), &G2Affine::generator())
            .pow(&(a * b).to_biguint());
        assert_eq!(lhs, rhs);
        // And via moving the scalar across slots.
        let mid = pairing(&(g1 * (a * b)).to_affine(), &G2Affine::generator());
        assert_eq!(lhs, mid);
    }

    #[test]
    fn multi_pairing_matches_product_of_pairings() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(3)).to_affine();
        let p2 = (g1 * Fr::from_u64(5)).to_affine();
        let q1 = (g2 * Fr::from_u64(7)).to_affine();
        let q2 = (g2 * Fr::from_u64(11)).to_affine();
        let combined = multi_pairing(&[p1, p2], &[q1, q2]);
        assert_eq!(combined, pairing(&p1, &q1) * pairing(&p2, &q2));
    }

    #[test]
    fn multi_pairing_truncates_mismatched_lengths() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(13)).to_affine();
        let p2 = (g1 * Fr::from_u64(17)).to_affine();
        let q1 = (g2 * Fr::from_u64(19)).to_affine();
        // Extra G1 entries beyond the shorter G2 slice are ignored.
        assert_eq!(multi_pairing(&[p1, p2], &[q1]), pairing(&p1, &q1));
        assert_eq!(multi_pairing(&[p1], &[q1, q1]), pairing(&p1, &q1));
        assert!(multi_pairing(&[p1], &[]).is_one());
    }

    #[test]
    fn mul_by_char_is_the_frobenius_endomorphism_on_the_twist() {
        let q = G2Affine::generator();
        let q1 = mul_by_char(&q);
        assert!(q1.is_on_curve());
        // G2 is the q-eigenspace of the Frobenius on E[r]: ψ(Q) = [q]Q.
        assert_eq!(q1, q.to_projective().mul_bigint(&Fq::modulus()).to_affine());
    }

    #[test]
    fn prepared_multi_pairing_matches_unprepared() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let ps = [
            (g1 * Fr::from_u64(23)).to_affine(),
            (g1 * Fr::from_u64(29)).to_affine(),
        ];
        let qs = [
            (g2 * Fr::from_u64(31)).to_affine(),
            (g2 * Fr::from_u64(37)).to_affine(),
        ];
        let prepared: Vec<_> = qs.iter().map(prepare_g2).collect();
        let refs: Vec<_> = prepared.iter().collect();
        assert_eq!(multi_pairing_prepared(&ps, &refs), multi_pairing(&ps, &qs));
        // Truncation contract holds on the prepared path as well.
        assert_eq!(
            multi_pairing_prepared(&ps, &refs[..1]),
            pairing(&ps[0], &qs[0])
        );
    }
}
