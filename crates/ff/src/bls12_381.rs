//! The BLS12-381 field family: `Fq`, `Fr`, and the `Fq2 → Fq6 → Fq12`
//! pairing tower with ξ = 1 + u.
//!
//! The second curve benchmarked by the paper (Zcash's curve since Sapling).

use crate::cubic::{CubicExt, CubicExtParams};
use crate::fp::{Fp, FpParams};
use crate::lanes::{LaneModulus, Lanes};
use crate::quad::{QuadExt, QuadExtParams};
use crate::traits::Field;

/// Parameters of the BLS12-381 base field `F_q` (381 bits, 6 limbs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FqParams;

impl FpParams<6> for FqParams {
    // q = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624
    //     1eabfffeb153ffffb9feffffffffaaab
    const MODULUS: [u64; 6] = [
        0xb9feffffffffaaab,
        0x1eabfffeb153ffff,
        0x6730d2a0f6b0f624,
        0x64774b84f38512bf,
        0x4b1ba7b6434bacd7,
        0x1a0111ea397fe69a,
    ];
    const GENERATOR: u64 = 2;
    const NAME: &'static str = "bls12_381::Fq";
}

/// The BLS12-381 base field (coordinates of curve points).
pub type Fq = Fp<FqParams, 6>;

/// Parameters of the BLS12-381 scalar field `F_r` (255 bits, 4 limbs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrParams;

impl FpParams<4> for FrParams {
    // r = 0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001
    const MODULUS: [u64; 4] = [
        0xffffffff00000001,
        0x53bda402fffe5bfe,
        0x3339d80809a1d805,
        0x73eda753299d7d48,
    ];
    const GENERATOR: u64 = 7;
    const NAME: &'static str = "bls12_381::Fr";
    fn lanes() -> Option<Lanes<Fr>> {
        Lanes::get()
    }
}

/// The 255-bit case: r = 0x73ed…0001 < 0.46·2²⁵⁶, so a lane product is
/// below `r·(0.46 + 1) < 1.46·r` before its one subtraction, still under
/// `2r`; limbs and columns are as for any modulus. (The base field `Fq`
/// has six limbs and no lane kernel.)
impl LaneModulus for FrParams {}

/// The BLS12-381 scalar field (circuit values, witnesses, exponents).
pub type Fr = Fp<FrParams, 4>;

/// Tower parameters for `Fq2 = Fq[u]/(u² + 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq2Params;

impl QuadExtParams for Fq2Params {
    type Base = Fq;
    const NAME: &'static str = "bls12_381::Fq2";
    fn non_residue() -> Fq {
        -Fq::one()
    }
}

/// The quadratic extension of the BLS12-381 base field (G2 coordinates).
pub type Fq2 = QuadExt<Fq2Params>;

/// The sextic twist constant ξ = 1 + u used throughout the tower.
pub fn xi() -> Fq2 {
    Fq2::new(Fq::one(), Fq::one())
}

/// Tower parameters for `Fq6 = Fq2[v]/(v³ − ξ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq6Params;

impl CubicExtParams for Fq6Params {
    type Base = Fq2;
    const NAME: &'static str = "bls12_381::Fq6";
    fn non_residue() -> Fq2 {
        xi()
    }
}

/// The sextic extension of the BLS12-381 base field.
pub type Fq6 = CubicExt<Fq6Params>;

/// Tower parameters for `Fq12 = Fq6[w]/(w² − v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fq12Params;

impl QuadExtParams for Fq12Params {
    type Base = Fq6;
    const NAME: &'static str = "bls12_381::Fq12";
    fn non_residue() -> Fq6 {
        Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero())
    }
}

/// The degree-12 extension where pairing values live.
pub type Fq12 = QuadExt<Fq12Params>;

/// Absolute value of the (negative) BLS parameter `x = −0xd201000000010000`.
pub const BLS_X: u64 = 0xd201_0000_0001_0000;

/// The BLS parameter is negative, which flips a conjugation in the pairing.
pub const BLS_X_IS_NEGATIVE: bool = true;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Frobenius, PrimeField};
    use crate::BigUint;

    #[test]
    fn moduli_match_published_values() {
        assert_eq!(
            format!("{:x}", Fq::modulus()),
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624\
             1eabfffeb153ffffb9feffffffffaaab"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            format!("{:x}", Fr::modulus()),
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
        );
        assert_eq!(Fq::modulus().bits(), 381);
        assert_eq!(Fr::modulus().bits(), 255);
    }

    #[test]
    fn q_and_r_derive_from_bls_parameter() {
        // r(x) = x⁴ − x² + 1;  q(x) = (x−1)²·r(x)/3 + x, with x = −BLS_X.
        // Using |x| keeps everything positive: even powers are unaffected,
        // and the two odd occurrences (x in q, and (x−1)² = (|x|+1)²) adjust.
        let x = BigUint::from_u64(BLS_X);
        let x2 = &x * &x;
        let x4 = &x2 * &x2;
        let r = &x4.checked_sub(&x2).unwrap() + &BigUint::one();
        assert_eq!(r, Fr::modulus());
        // (x − 1)² with x negative is (|x| + 1)².
        let xp1 = &x + &BigUint::one();
        let num = &(&xp1 * &xp1) * &r;
        let (third, rem) = num.divrem_u64(3);
        assert_eq!(rem, 0);
        // q = (x−1)²r/3 + x  with x = −|x|  ⇒  q = third − |x|.
        let q = third.checked_sub(&x).unwrap();
        assert_eq!(q, Fq::modulus());
    }

    #[test]
    fn fr_two_adicity_is_32() {
        assert_eq!(Fr::two_adicity(), 32);
        let root = Fr::two_adic_root_of_unity();
        let mut acc = root;
        for _ in 0..31 {
            acc = acc.square();
        }
        assert_eq!(acc, -Fr::one());
    }

    #[test]
    fn tower_field_laws() {
        let mut rng = crate::test_rng();
        for _ in 0..10 {
            let a = Fq2::random(&mut rng);
            if !a.is_zero() {
                assert!((a * a.inverse().unwrap()).is_one());
            }
            let b = Fq6::random(&mut rng);
            if !b.is_zero() {
                assert!((b * b.inverse().unwrap()).is_one());
            }
            let c = Fq12::random(&mut rng);
            if !c.is_zero() {
                assert!((c * c.inverse().unwrap()).is_one());
            }
            assert_eq!((a + a) * b.c0, a.double() * b.c0);
        }
        let v = Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero());
        assert_eq!(v * v * v, Fq6::from_base(xi()));
    }

    #[test]
    fn frobenius_matches_pow_p() {
        let mut rng = crate::test_rng();
        let a = Fq2::random(&mut rng);
        assert_eq!(a.frobenius(1), a.pow(&Fq::modulus()));
        let c = Fq12::random(&mut rng);
        assert_eq!(c.frobenius(1), c.pow(&Fq::modulus()));
        assert_eq!(c.frobenius(2), c.frobenius(1).frobenius(1));
    }

    #[test]
    fn six_limb_montgomery_matches_biguint_reference() {
        let mut rng = crate::test_rng();
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            let b = Fq::random(&mut rng);
            let expect = (&a.to_biguint() * &b.to_biguint()).rem(&Fq::modulus());
            assert_eq!((a * b).to_biguint(), expect);
            let sum = (&a.to_biguint() + &b.to_biguint()).rem(&Fq::modulus());
            assert_eq!((a + b).to_biguint(), sum);
        }
    }
}
