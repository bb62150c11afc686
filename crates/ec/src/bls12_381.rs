//! BLS12-381 groups and optimal-ate pairing.

use std::sync::OnceLock;

use zkperf_ff::bls12_381::{
    Fq, Fq12, Fq12Params, Fq2, Fq2Params, Fq6Params, Fr, BLS_X, BLS_X_IS_NEGATIVE,
};
use zkperf_ff::{Field, Frobenius, PrimeField};
use zkperf_trace as trace;

use crate::curve::{Affine, CurveParams, Projective};
use crate::pairing_fast::{self, G2Prepared, TwistType};

/// Marker for the BLS12-381 G1 group (`y² = x³ + 4` over `Fq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "bls12_381::G1";
    fn coeff_b() -> Fq {
        Fq::from_u64(4)
    }
    fn generator_xy() -> (Fq, Fq) {
        let fq = |s: &str| Fq::from_str_radix(s, 16).expect("valid literal");
        (
            fq("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
            fq("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
        )
    }
    fn glv_params() -> Option<&'static crate::glv::GlvParams<Self>> {
        static CELL: std::sync::OnceLock<Option<crate::glv::GlvParams<G1Params>>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(crate::glv::derive::<G1Params>).as_ref()
    }
}

/// BLS12-381 G1 in affine coordinates.
pub type G1Affine = Affine<G1Params>;
/// BLS12-381 G1 in Jacobian coordinates.
pub type G1Projective = Projective<G1Params>;

/// Marker for the BLS12-381 G2 group, the sextic M-twist
/// `y² = x³ + 4(1 + u)` over `Fq2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fq2;
    type Scalar = Fr;
    const NAME: &'static str = "bls12_381::G2";
    fn coeff_b() -> Fq2 {
        zkperf_ff::bls12_381::xi().mul_by_base(Fq::from_u64(4))
    }
    fn generator_xy() -> (Fq2, Fq2) {
        let fq = |s: &str| Fq::from_str_radix(s, 16).expect("valid literal");
        (
            Fq2::new(
                fq("024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"),
                fq("13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"),
            ),
            Fq2::new(
                fq("0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"),
                fq("0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"),
            ),
        )
    }
}

/// BLS12-381 G2 in affine coordinates.
pub type G2Affine = Affine<G2Params>;
/// BLS12-381 G2 in Jacobian coordinates.
pub type G2Projective = Projective<G2Params>;

/// Target-group values (the order-`r` subgroup of `Fq12*`).
pub type Gt = Fq12;

/// Binary digits of `|x|`, least-significant first — the BLS parameter is
/// already low-weight, so plain bits beat a NAF recoding here.
fn ate_digits() -> &'static [i8] {
    static CELL: OnceLock<Vec<i8>> = OnceLock::new();
    CELL.get_or_init(|| pairing_fast::bit_digits(BLS_X as u128))
}

/// The line-coefficient sequence of `q` for the `|x|` Miller loop (no
/// correction lines on BLS curves).
fn ate_coeffs(q: &G2Affine) -> Vec<[Fq2; 3]> {
    pairing_fast::prepare_coeffs::<G2Params>(q, TwistType::M, ate_digits(), &[])
}

fn eval_prepared(p: &G1Affine, coeffs: &[[Fq2; 3]]) -> Fq12 {
    let f = pairing_fast::eval_lines::<Fq2Params, Fq6Params, Fq12Params>(
        coeffs,
        ate_digits(),
        0,
        p.x,
        p.y,
        TwistType::M,
    );
    if BLS_X_IS_NEGATIVE {
        f.conjugate()
    } else {
        f
    }
}

/// Precomputes the Miller-loop line coefficients of a fixed G2 point so
/// that pairings against it reduce to sparse multiplications.
pub fn prepare_g2(q: &G2Affine) -> G2Prepared<G2Params> {
    let coeffs = if q.infinity { Vec::new() } else { ate_coeffs(q) };
    G2Prepared { q: *q, coeffs }
}

/// `g^x` for the (negative) BLS parameter, on cyclotomic elements.
fn pow_x(g: &Fq12) -> Fq12 {
    let t = g.cyclotomic_pow_u64(BLS_X);
    if BLS_X_IS_NEGATIVE {
        t.conjugate()
    } else {
        t
    }
}

/// Final exponentiation `f^((q¹² − 1)/r)` via the BLS addition chain with
/// cyclotomic x-power exponentiations. Agrees bit-for-bit with the plain
/// exponentiation (the `pairing_bls12_381` oracle in `zkperf-testkit`).
pub fn final_exponentiation_fast(f: Fq12) -> Gt {
    let _g = trace::region_profile("final_exp");
    // Easy part: f^(q⁶−1)(q²+1).
    let f1 = f.conjugate() * f.inverse().expect("pairing value non-zero");
    let r = f1.frobenius(2) * f1;
    // Hard part: (q⁴ − q² + 1)/r = m·(x+q)·(x²+q²−1) + 1 with
    // m = (x−1)²/3 — exact for the BLS parameter (x ≡ 1 mod 3), and
    // pinned against the reference exponentiation by the testkit oracle. The
    // parameter is negative, so powers of x−1 = −(|x|+1) conjugate after
    // raising to |x|+1.
    let rxm1 = r.cyclotomic_pow_u64(BLS_X + 1).conjugate();
    let a = rxm1.cyclotomic_pow_u64((BLS_X + 1) / 3).conjugate();
    let b = pow_x(&a) * a.frobenius(1);
    let c = pow_x(&pow_x(&b)) * b.frobenius(2) * b.conjugate();
    c * r
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
    use zkperf_ff::BigUint;

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
    fn g1_cofactor_is_nontrivial() {
        // Unlike BN254, BLS12-381 G1 has cofactor > 1: a random curve point
        // obtained by subgroup scaling is always in the subgroup, but the
        // curve order is h·r with h ≠ 1 — spot-check h·r ≠ r via the curve
        // equation count proxy: (r+1)·G = G for subgroup points.
        let g = G1Projective::generator();
        let r_plus_1 = &Fr::modulus() + &BigUint::one();
        assert_eq!(g.mul_bigint(&r_plus_1), g);
    }

    #[test]
    fn pairing_is_non_degenerate_and_order_r() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert!(!e.is_one());
        assert!(e.pow(&Fr::modulus()).is_one());
    }

    #[test]
    fn pairing_is_bilinear() {
        let (a, b) = (Fr::from_u64(6), Fr::from_u64(35));
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let lhs = pairing(&(g1 * a).to_affine(), &(g2 * b).to_affine());
        let rhs = pairing(&(g1 * (a * b)).to_affine(), &G2Affine::generator());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn multi_pairing_matches_product() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(2)).to_affine();
        let q1 = (g2 * Fr::from_u64(9)).to_affine();
        let p2 = (g1 * Fr::from_u64(4)).to_affine();
        let q2 = G2Affine::generator();
        assert_eq!(
            multi_pairing(&[p1, p2], &[q1, q2]),
            pairing(&p1, &q1) * pairing(&p2, &q2)
        );
    }

    #[test]
    fn multi_pairing_truncates_mismatched_lengths() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let p1 = (g1 * Fr::from_u64(8)).to_affine();
        let p2 = (g1 * Fr::from_u64(10)).to_affine();
        let q1 = (g2 * Fr::from_u64(12)).to_affine();
        assert_eq!(multi_pairing(&[p1, p2], &[q1]), pairing(&p1, &q1));
        assert_eq!(multi_pairing(&[p1], &[q1, q1]), pairing(&p1, &q1));
        assert!(multi_pairing(&[], &[q1]).is_one());
    }

    #[test]
    fn bls_parameter_supports_the_cube_root_chain() {
        // The final-exp chain divides (|x|+1) by 3; that must be exact.
        assert_eq!((BLS_X + 1) % 3, 0);
    }

    #[test]
    fn prepared_multi_pairing_matches_unprepared() {
        let g1 = G1Projective::generator();
        let g2 = G2Projective::generator();
        let ps = [
            (g1 * Fr::from_u64(14)).to_affine(),
            (g1 * Fr::from_u64(15)).to_affine(),
        ];
        let qs = [
            (g2 * Fr::from_u64(16)).to_affine(),
            (g2 * Fr::from_u64(17)).to_affine(),
        ];
        let prepared: Vec<_> = qs.iter().map(prepare_g2).collect();
        let refs: Vec<_> = prepared.iter().collect();
        assert_eq!(multi_pairing_prepared(&ps, &refs), multi_pairing(&ps, &qs));
    }
}
