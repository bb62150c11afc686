//! The BN254 (alt_bn128 / BN128) field family: `Fq`, `Fr`, and the
//! `Fq2 → Fq6 → Fq12` pairing tower with ξ = 9 + u.
//!
//! This is one of the two curves the paper benchmarks (it calls it BN128,
//! the name used by circom/snarkjs).

use crate::cubic::{CubicExt, CubicExtParams};
use crate::fp::{Fp, FpParams};
use crate::lanes::{LaneModulus, Lanes};
use crate::quad::{QuadExt, QuadExtParams};
use crate::traits::Field;

/// Parameters of the BN254 base field `F_q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FqParams;

impl FpParams<4> for FqParams {
    // q = 21888242871839275222246405745257275088696311157297823662689037894645226208583
    const MODULUS: [u64; 4] = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const GENERATOR: u64 = 3;
    const NAME: &'static str = "bn254::Fq";
    fn lanes() -> Option<Lanes<Fq>> {
        Lanes::get()
    }
}

/// q < 2²⁵⁴, so a lane product is below `q²/2²⁵⁶ + q < 1.25·q` before its
/// one subtraction.
impl LaneModulus for FqParams {}

/// The BN254 base field (coordinates of curve points).
pub type Fq = Fp<FqParams, 4>;

/// Parameters of the BN254 scalar field `F_r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrParams;

impl FpParams<4> for FrParams {
    // r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
    const MODULUS: [u64; 4] = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ];
    const GENERATOR: u64 = 5;
    const NAME: &'static str = "bn254::Fr";
    fn lanes() -> Option<Lanes<Fr>> {
        Lanes::get()
    }
}

/// r < 2²⁵⁴, as q: a lane product is below `1.25·r` before its one
/// subtraction.
impl LaneModulus for FrParams {}

/// The BN254 scalar field (circuit values, witnesses, exponents).
pub type Fr = Fp<FrParams, 4>;

/// Tower parameters for `Fq2 = Fq[u]/(u² + 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq2Params;

impl QuadExtParams for Fq2Params {
    type Base = Fq;
    const NAME: &'static str = "bn254::Fq2";
    fn non_residue() -> Fq {
        -Fq::one()
    }
}

/// The quadratic extension of the BN254 base field (G2 coordinates).
pub type Fq2 = QuadExt<Fq2Params>;

/// The sextic twist constant ξ = 9 + u used throughout the tower.
pub fn xi() -> Fq2 {
    Fq2::new(Fq::from_u64(9), Fq::one())
}

/// Tower parameters for `Fq6 = Fq2[v]/(v³ − ξ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq6Params;

impl CubicExtParams for Fq6Params {
    type Base = Fq2;
    const NAME: &'static str = "bn254::Fq6";
    fn non_residue() -> Fq2 {
        xi()
    }
}

/// The sextic extension of the BN254 base field.
pub type Fq6 = CubicExt<Fq6Params>;

/// Tower parameters for `Fq12 = Fq6[w]/(w² − v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq12Params;

impl QuadExtParams for Fq12Params {
    type Base = Fq6;
    const NAME: &'static str = "bn254::Fq12";
    fn non_residue() -> Fq6 {
        Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero())
    }
}

/// The degree-12 extension where pairing values live.
pub type Fq12 = QuadExt<Fq12Params>;

/// The BN parameter `x₀ = 4965661367192848881`; the curve is constructed so
/// that `q` and `r` are polynomials in `x₀`, and the optimal-ate Miller loop
/// runs over `6·x₀ + 2`.
pub const BN_X: u64 = 4965661367192848881;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Frobenius, PrimeField};
    use crate::BigUint;

    #[test]
    fn moduli_match_published_decimal_values() {
        assert_eq!(
            Fq::modulus().to_string(),
            "21888242871839275222246405745257275088696311157297823662689037894645226208583"
        );
        assert_eq!(
            Fr::modulus().to_string(),
            "21888242871839275222246405745257275088548364400416034343698204186575808495617"
        );
    }

    #[test]
    fn q_and_r_are_polynomials_in_x() {
        // q(x) = 36x⁴ + 36x³ + 24x² + 6x + 1, r(x) = 36x⁴ + 36x³ + 18x² + 6x + 1
        let x = BigUint::from_u64(BN_X);
        let x2 = &x * &x;
        let x3 = &x2 * &x;
        let x4 = &x3 * &x;
        let term = |c: u64, p: &BigUint| p.mul_u64(c);
        let q = &(&(&term(36, &x4) + &term(36, &x3)) + &term(24, &x2))
            + &(&term(6, &x) + &BigUint::one());
        let r = &(&(&term(36, &x4) + &term(36, &x3)) + &term(18, &x2))
            + &(&term(6, &x) + &BigUint::one());
        assert_eq!(q, Fq::modulus());
        assert_eq!(r, Fr::modulus());
    }

    #[test]
    fn fr_two_adicity_is_28() {
        assert_eq!(Fr::two_adicity(), 28);
        let root = Fr::two_adic_root_of_unity();
        let mut acc = root;
        for _ in 0..27 {
            acc = acc.square();
        }
        assert_eq!(acc, -Fr::one());
        assert!(acc.square().is_one());
    }

    #[test]
    fn fq2_is_a_field() {
        let mut rng = crate::test_rng();
        for _ in 0..20 {
            let a = Fq2::random(&mut rng);
            let b = Fq2::random(&mut rng);
            let c = Fq2::random(&mut rng);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert!((a * a.inverse().unwrap()).is_one());
            }
        }
        // u² = −1
        let u = Fq2::new(Fq::zero(), Fq::one());
        assert_eq!(u.square(), Fq2::from_base(-Fq::one()));
    }

    #[test]
    fn fq6_and_fq12_field_laws() {
        let mut rng = crate::test_rng();
        for _ in 0..10 {
            let a = Fq6::random(&mut rng);
            let b = Fq6::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert!((a * a.inverse().unwrap()).is_one());
            }
            let f = Fq12::random(&mut rng);
            let g = Fq12::random(&mut rng);
            assert_eq!(f * g, g * f);
            assert_eq!(f.square(), f * f);
            if !f.is_zero() {
                assert!((f * f.inverse().unwrap()).is_one());
            }
        }
        // v³ = ξ in Fq6.
        let v = Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero());
        assert_eq!(v * v * v, Fq6::from_base(xi()));
        // w² = v in Fq12.
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        assert_eq!(w.square(), Fq12::from_base(Fq12Params::non_residue()));
    }

    #[test]
    fn frobenius_matches_pow_p() {
        let mut rng = crate::test_rng();
        let a = Fq2::random(&mut rng);
        assert_eq!(a.frobenius(1), a.pow(&Fq::modulus()));
        // Frobenius on Fq2 with β = −1 is conjugation.
        assert_eq!(a.frobenius(1), a.conjugate());
        // frobenius² = identity on Fq2.
        assert_eq!(a.frobenius(1).frobenius(1), a);
        let b = Fq6::random(&mut rng);
        assert_eq!(b.frobenius(1), b.pow(&Fq::modulus()));
        let c = Fq12::random(&mut rng);
        assert_eq!(c.frobenius(1), c.pow(&Fq::modulus()));
    }

    #[test]
    fn fq12_conjugate_is_frobenius_6() {
        let mut rng = crate::test_rng();
        let a = Fq12::random(&mut rng);
        let mut f = a;
        for _ in 0..6 {
            f = f.frobenius(1);
        }
        assert_eq!(f, a.conjugate());
    }
}
