//! Generic Montgomery-form prime field over `N` 64-bit limbs.

use std::fmt;
use std::marker::PhantomData;

use rand::Rng;
use zkperf_trace::{self as trace, OpCost};

use crate::arith::{
    geq, is_zero, mac, mont_inv64, pow2_mod, reduce_once, select, sub_borrow, sub_noborrow,
};
use crate::bigint::BigUint;
use crate::traits::{Field, PrimeField};

/// Branch-site ids used for the conditional-reduction branches, so the
/// branch-prediction model sees distinct static sites per operation kind.
mod sites {
    pub const MUL_REDUCE: u64 = 0x1001;
    pub const ADD_REDUCE: u64 = 0x1002;
    pub const SUB_BORROW: u64 = 0x1003;
    pub const SQR_REDUCE: u64 = 0x1004;
}

/// Compile-time parameters of a prime field: just the modulus and a small
/// candidate generator; every other constant is derived.
///
/// Implementors are zero-sized marker types (see the `bn254` / `bls12_381`
/// modules for the four fields of the suite).
pub trait FpParams<const N: usize>:
    Copy + Clone + fmt::Debug + PartialEq + Eq + std::hash::Hash + Send + Sync + 'static
{
    /// The modulus `p`, little-endian limbs. Must be odd, with the top bit
    /// of the top limb clear.
    const MODULUS: [u64; N];
    /// A small candidate multiplicative generator used to derive 2-adic
    /// roots of unity (verified at runtime, with fallback search).
    const GENERATOR: u64;
    /// Human-readable field name for `Debug` output.
    const NAME: &'static str;

    /// The field's eight-lane kernel ([`crate::lanes`]), if this process
    /// runs one: `None` unless the modulus is a
    /// [`LaneModulus`](crate::lanes::LaneModulus) whose field overrides
    /// this with [`Lanes::get`](crate::lanes::Lanes::get).
    fn lanes() -> Option<crate::lanes::Lanes<Fp<Self, N>>> {
        None
    }
}

/// An element of the prime field defined by `P`, stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use zkperf_ff::{Field, PrimeField, bn254::Fr};
/// let a = Fr::from_u64(3);
/// let b = a.inverse().unwrap();
/// assert!((a * b).is_one());
/// ```
///
/// `repr(transparent)`: an element is laid out exactly as its `[u64; N]`
/// Montgomery limbs, which lets [`crate::lanes`] load eight of them as
/// four 64-byte vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Fp<P, const N: usize> {
    limbs: [u64; N],
    _params: PhantomData<P>,
}

impl<P: FpParams<N>, const N: usize> Fp<P, N> {
    /// `-p⁻¹ mod 2⁶⁴`, derived from the modulus.
    pub const INV: u64 = mont_inv64(P::MODULUS[0]);
    /// The Montgomery radix `R = 2^(64N) mod p`.
    pub const R: [u64; N] = pow2_mod(64 * N, &P::MODULUS);
    /// `R² mod p`, used to convert into Montgomery form.
    pub const R2: [u64; N] = pow2_mod(128 * N, &P::MODULUS);

    pub(crate) const fn from_raw(limbs: [u64; N]) -> Self {
        Fp {
            limbs,
            _params: PhantomData,
        }
    }

    /// CIOS Montgomery multiplication; returns `a·b·R⁻¹ mod p`.
    ///
    /// Uses the fused "no-carry" CIOS variant: because the modulus leaves
    /// its top limb bit clear (with room to spare — see the compile-time
    /// check below), the running accumulator never exceeds `2p − 1` and
    /// stays within `N` limbs, so the multiply and reduce passes interleave
    /// with two independent carry chains and no overflow columns. That
    /// removes two wide adds per outer iteration versus textbook CIOS and
    /// gives the compiler two parallel `mac` chains to schedule.
    pub(crate) fn mont_mul(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        // No-carry CIOS soundness: requires p[N-1] ≤ (2^64 − 1)/2 − 1 so
        // the two per-iteration carries sum without overflow.
        const { assert!(P::MODULUS[N - 1] < u64::MAX / 2) };
        let mut t = [0u64; N];
        for &b_i in b.iter() {
            let (lo, mut carry_mul) = mac(t[0], a[0], b_i, 0);
            let m = lo.wrapping_mul(Self::INV);
            let (_, mut carry_red) = mac(lo, m, P::MODULUS[0], 0);
            for j in 1..N {
                let (mid, c1) = mac(t[j], a[j], b_i, carry_mul);
                carry_mul = c1;
                let (out, c2) = mac(mid, m, P::MODULUS[j], carry_red);
                t[j - 1] = out;
                carry_red = c2;
            }
            // Cannot overflow: both carries are bounded by the top modulus
            // limb headroom established above.
            t[N - 1] = carry_mul + carry_red;
        }
        // The accumulator is < 2p; one branchless subtraction finishes.
        let (out, _) = reduce_once(&t, 0, &P::MODULUS);
        out
    }

    /// Dedicated Montgomery squaring; returns `a²·R⁻¹ mod p`.
    ///
    /// The textbook squaring shortcut — compute each off-diagonal product
    /// `aᵢ·aⱼ (i < j)` once and double — needs the full `2N`-limb product
    /// materialized before a separated reduction pass, and at these limb
    /// counts the extra stores and the doubling pass measure *slower* than
    /// the fused no-carry multiply (34ns vs 20ns per BN254 op on the
    /// reference box). So the dedicated entry point keeps the distinct
    /// trace cost model but runs the fused kernel with both operands equal.
    fn mont_sqr(a: &[u64; N]) -> [u64; N] {
        Self::mont_mul(a, a)
    }

    #[inline]
    fn trace_binop(a: &Self, b: &Self, out: &Self, cost: OpCost, site: u64, taken: bool) {
        if trace::is_active() {
            let bytes = (N * 8) as u32;
            trace::load(a as *const Self as usize, bytes);
            trace::load(b as *const Self as usize, bytes);
            trace::compute(cost.compute);
            trace::control(cost.control);
            trace::data_move(cost.data);
            trace::store(out as *const Self as usize, bytes);
            trace::branch(site, taken);
        }
    }

    /// `v mod p` for the `2N`-limb `v = lo + 2^(64N)·hi` given as
    /// `[lo, hi]`: the element [`from_biguint`](PrimeField::from_biguint)
    /// makes of `v`, without allocating. A session records what
    /// `BigUint::divrem` records of `v mod p` — the `bigint` region and, per
    /// quotient bit, `2 +` the significant limbs of its running remainder
    /// in compute µops and one control µop — so a traced stage that draws
    /// (Groth16's `r, s`, a setup's toxic waste) records the same stream as
    /// a reduction through `from_biguint`.
    ///
    /// The division runs bit-serially on `N` limbs: before quotient bit
    /// `i`, divrem's remainder `v mod p·2^(i+1)` is `a·2^(i+1)` plus the
    /// bits of `v` below `i + 1`, with `a = ⌊v/2^(i+1)⌋ mod p`, and the
    /// next `a` is `2a + bitᵢ(v)`, less `p` once.
    fn from_wide(wide: [[u64; N]; 2]) -> Self {
        let _g = trace::region_profile("bigint");
        let v = wide.as_flattened();
        let (p_bits, v_bits) = (bit_len(&P::MODULUS), bit_len(v));
        let mut a = wide[0];
        let below_p = v_bits < p_bits || (v_bits == p_bits && !geq(&a, &P::MODULUS));
        if !below_p {
            let shift = v_bits - p_bits;
            // ⌊v/2^(shift+1)⌋ has p_bits − 1 bits: below p.
            a = std::array::from_fn(|k| bits_at(v, 64 * k + shift + 1));
            for i in (0..=shift).rev() {
                let rem_bits = if is_zero(&a) {
                    bit_len_below(v, i + 1)
                } else {
                    i + 1 + bit_len(&a)
                };
                trace::compute(2 + rem_bits.div_ceil(64) as u32);
                trace::control(1);
                // 2a + bitᵢ(v) < 2p < 2^(64N): p's top bit is clear.
                let mut carry = v[i / 64] >> (i % 64) & 1;
                for limb in a.iter_mut() {
                    (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
                }
                a = reduce_once(&a, 0, &P::MODULUS).0;
            }
        }
        Self::from_raw(Self::mont_mul(&a, &Self::R2))
    }

    /// Raw Montgomery limbs (for serialization and tests).
    pub fn to_montgomery_limbs(&self) -> [u64; N] {
        self.limbs
    }

    /// The element whose Montgomery limbs are `limbs`, or `None` unless
    /// they are below the modulus: the inverse of
    /// [`to_montgomery_limbs`](Self::to_montgomery_limbs), for tests that
    /// aim at a limb pattern of the representation itself.
    pub fn from_montgomery_limbs(limbs: [u64; N]) -> Option<Self> {
        let (_, borrow) = sub_borrow(&limbs, &P::MODULUS);
        (borrow == 1).then_some(Self::from_raw(limbs))
    }
}

/// Significant bits of the little-endian `a` (0 for zero).
fn bit_len(a: &[u64]) -> usize {
    a.iter()
        .rposition(|&l| l != 0)
        .map_or(0, |top| 64 * top + 64 - a[top].leading_zeros() as usize)
}

/// Significant bits of `a mod 2^n`, for `n ≥ 1`.
fn bit_len_below(a: &[u64], n: usize) -> usize {
    (0..n.div_ceil(64))
        .rev()
        .map(|k| (k, a[k] & u64::MAX >> (64 - (n - 64 * k).min(64))))
        .find(|&(_, limb)| limb != 0)
        .map_or(0, |(k, limb)| 64 * k + 64 - limb.leading_zeros() as usize)
}

/// The 64 bits of `a` from bit `at` up, zeros past its top.
fn bits_at(a: &[u64], at: usize) -> u64 {
    let limb = |k: usize| a.get(k).copied().unwrap_or(0);
    let (k, off) = (at / 64, at % 64);
    if off == 0 {
        limb(k)
    } else {
        limb(k) >> off | limb(k + 1) << (64 - off)
    }
}

impl<P: FpParams<N>, const N: usize> Field for Fp<P, N> {
    fn zero() -> Self {
        Self::from_raw([0u64; N])
    }

    fn one() -> Self {
        Self::from_raw(Self::R)
    }

    fn is_zero(&self) -> bool {
        is_zero(&self.limbs)
    }

    fn square(&self) -> Self {
        let out = Self::from_raw(Self::mont_sqr(&self.limbs));
        Self::trace_binop(
            self,
            self,
            &out,
            OpCost::mont_sqr(N as u32),
            sites::SQR_REDUCE,
            out.limbs[0] & 3 == 0,
        );
        out
    }

    fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let _g = trace::region_profile("field_inverse");
        // Fermat: a^(p-2).
        let exp = Self::modulus()
            .checked_sub(&BigUint::from_u64(2))
            .expect("modulus >= 2");
        Some(self.pow(&exp))
    }

    fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = v;
        // v may exceed p only when N == 1; normalize via Montgomery round trip.
        Self::from_raw(Self::mont_mul(&limbs, &Self::R2))
    }

    fn characteristic() -> BigUint {
        BigUint::from_limbs(&P::MODULUS)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Sample 2N limbs and reduce: statistical distance < 2^-64N.
        let mut wide = [[0u64; N]; 2];
        wide.as_flattened_mut()
            .iter_mut()
            .for_each(|limb| *limb = rng.gen());
        Self::from_wide(wide)
    }
}

impl<P: FpParams<N>, const N: usize> PrimeField for Fp<P, N> {
    const NUM_LIMBS: usize = N;

    fn modulus() -> BigUint {
        BigUint::from_limbs(&P::MODULUS)
    }

    fn to_biguint(&self) -> BigUint {
        let mut one = [0u64; N];
        one[0] = 1;
        BigUint::from_limbs(&Self::mont_mul(&self.limbs, &one))
    }

    fn from_biguint(v: &BigUint) -> Self {
        let reduced = v.rem(&Self::modulus());
        let mut limbs = [0u64; N];
        limbs.copy_from_slice(&reduced.to_limbs(N));
        Self::from_raw(Self::mont_mul(&limbs, &Self::R2))
    }

    fn write_canonical_limbs(&self, out: &mut [u64]) {
        let mut one = [0u64; N];
        one[0] = 1;
        out[..N].copy_from_slice(&Self::mont_mul(&self.limbs, &one));
    }

    fn lanes() -> Option<crate::lanes::Lanes<Self>> {
        P::lanes()
    }

    fn two_adic_root_of_unity() -> Self {
        let s = Self::two_adicity();
        let p_minus_1 = Self::modulus()
            .checked_sub(&BigUint::one())
            .expect("modulus >= 2");
        let t = p_minus_1.shr(s as usize);
        let mut candidate = P::GENERATOR;
        loop {
            let root = Self::from_u64(candidate).pow(&t);
            // root has order dividing 2^s; it has *exact* order 2^s iff
            // root^(2^(s-1)) = -1 (≠ 1).
            let mut probe = root;
            for _ in 0..s.saturating_sub(1) {
                probe = probe.square();
            }
            if !probe.is_one() && !probe.is_zero() {
                return root;
            }
            candidate += 1;
        }
    }
}

impl<P: FpParams<N>, const N: usize> crate::traits::Frobenius for Fp<P, N> {
    /// The Frobenius endomorphism is the identity on the prime field.
    fn frobenius(&self, _power: usize) -> Self {
        *self
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::Add for Fp<P, N> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let (sum, carry) = crate::arith::add_carry(&self.limbs, &rhs.limbs);
        let (limbs, reduced) = reduce_once(&sum, carry, &P::MODULUS);
        let out = Self::from_raw(limbs);
        Self::trace_binop(
            &self,
            &rhs,
            &out,
            OpCost::mod_add(N as u32),
            sites::ADD_REDUCE,
            reduced == 1,
        );
        out
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::Sub for Fp<P, N> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        // Subtract, then add the modulus back iff the subtraction wrapped —
        // both legs computed, the winner mask-selected (see `select`).
        let (diff, borrow) = sub_borrow(&self.limbs, &rhs.limbs);
        let (lifted, _) = crate::arith::add_carry(&diff, &P::MODULUS);
        let out = Self::from_raw(select(borrow, &lifted, &diff));
        Self::trace_binop(
            &self,
            &rhs,
            &out,
            OpCost::mod_add(N as u32),
            sites::SUB_BORROW,
            borrow == 1,
        );
        out
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::Mul for Fp<P, N> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let out = Self::from_raw(Self::mont_mul(&self.limbs, &rhs.limbs));
        Self::trace_binop(
            &self,
            &rhs,
            &out,
            OpCost::mont_mul(N as u32),
            sites::MUL_REDUCE,
            // The final reduction branch is data-dependent but biased;
            // expose low result bits as its proxy (~25% taken).
            out.limbs[0] & 3 == 0,
        );
        out
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::Neg for Fp<P, N> {
    type Output = Self;
    fn neg(self) -> Self {
        if self.is_zero() {
            self
        } else {
            Self::from_raw(sub_noborrow(&P::MODULUS, &self.limbs))
        }
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::AddAssign for Fp<P, N> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::SubAssign for Fp<P, N> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FpParams<N>, const N: usize> std::ops::MulAssign for Fp<P, N> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FpParams<N>, const N: usize> std::iter::Sum for Fp<P, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<P: FpParams<N>, const N: usize> std::iter::Product for Fp<P, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::one(), |a, b| a * b)
    }
}

impl<P: FpParams<N>, const N: usize> Default for Fp<P, N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<P: FpParams<N>, const N: usize> PartialOrd for Fp<P, N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: FpParams<N>, const N: usize> Ord for Fp<P, N> {
    /// Orders by canonical (non-Montgomery) integer value.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_biguint().cmp(&other.to_biguint())
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Debug for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x{:x})", P::NAME, self.to_biguint())
    }
}

impl<P: FpParams<N>, const N: usize> fmt::Display for Fp<P, N> {
    /// Canonical (non-Montgomery) value in decimal.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_biguint())
    }
}

impl<P: FpParams<N>, const N: usize> From<u64> for Fp<P, N> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny one-limb field (p = 2^61 − 1, a Mersenne prime) exercising the
    /// generic machinery at a size where results can be checked by hand.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct M61;
    impl FpParams<1> for M61 {
        const MODULUS: [u64; 1] = [(1u64 << 61) - 1];
        const GENERATOR: u64 = 3;
        const NAME: &'static str = "M61";
    }
    type F = Fp<M61, 1>;

    const P: u128 = (1u128 << 61) - 1;

    #[test]
    fn constants_are_derived_correctly() {
        assert_eq!(F::INV, mont_inv64(M61::MODULUS[0]));
        assert_eq!(F::R[0] as u128, (1u128 << 64) % P);
        assert_eq!(F::R2[0] as u128, ((1u128 << 64) % P).pow(2) % P);
    }

    #[test]
    fn add_sub_mul_match_u128_reference() {
        let vals = [0u64, 1, 2, 12345, (1 << 61) - 2, 998877665544332211];
        for &a in &vals {
            for &b in &vals {
                let (fa, fb) = (F::from_u64(a), F::from_u64(b));
                assert_eq!(
                    (fa + fb).to_biguint(),
                    BigUint::from_u64(((a as u128 + b as u128) % P) as u64),
                    "{a} + {b}"
                );
                assert_eq!(
                    (fa * fb).to_biguint(),
                    BigUint::from_u64(((a as u128 * b as u128) % P) as u64),
                    "{a} * {b}"
                );
                let expect_sub = ((a as u128 + P) - b as u128) % P;
                assert_eq!(
                    (fa - fb).to_biguint(),
                    BigUint::from_u64(expect_sub as u64),
                    "{a} - {b}"
                );
            }
        }
    }

    #[test]
    fn dedicated_square_matches_mul() {
        // One-limb field, exhaustive-ish small cases plus wrap-around.
        for v in [0u64, 1, 2, 3, 12345, (1 << 61) - 2, (1 << 60) + 17] {
            let a = F::from_u64(v);
            assert_eq!(a.square(), a * a, "square({v})");
        }
        // Four-limb field, random cases.
        type Fr = crate::bn254::Fr;
        type Fq381 = crate::bls12_381::Fq;
        let mut rng = crate::test_rng();
        for _ in 0..64 {
            let a = Fr::random(&mut rng);
            assert_eq!(a.square(), a * a);
            let b = Fq381::random(&mut rng);
            assert_eq!(b.square(), b * b);
        }
        assert_eq!(Fr::zero().square(), Fr::zero());
        assert_eq!((-Fr::one()).square(), Fr::one());
    }

    #[test]
    fn neg_and_double() {
        let a = F::from_u64(7);
        assert!((a + (-a)).is_zero());
        assert_eq!(a.double(), a + a);
        assert_eq!((-F::zero()), F::zero());
    }

    #[test]
    fn inverse_and_pow() {
        for v in [1u64, 2, 3, 997, (1 << 61) - 2] {
            let a = F::from_u64(v);
            let inv = a.inverse().unwrap();
            assert!((a * inv).is_one(), "inverse of {v}");
        }
        assert!(F::zero().inverse().is_none());
        let a = F::from_u64(5);
        assert_eq!(a.pow(&BigUint::from_u64(3)), a * a * a);
        assert!(a.pow(&BigUint::zero()).is_one());
    }

    #[test]
    fn two_adic_root_has_exact_order() {
        // p − 1 = 2 · (2^60 − 1): two-adicity 1, root must be −1.
        assert_eq!(F::two_adicity(), 1);
        let root = F::two_adic_root_of_unity();
        assert_eq!(root, -F::one());
        assert!(root.square().is_one());
    }

    /// The order-3 root's self-test, on every field of the suite: ζ ≠ 1,
    /// ζ³ = 1, and the cached value is the derived one.
    #[test]
    fn each_field_has_a_self_tested_cube_root_of_unity() {
        fn check<G: PrimeField>() {
            let zeta = G::cube_root_of_unity().expect("3 divides p − 1");
            assert!(!zeta.is_one(), "{zeta:?}");
            assert!((zeta.square() * zeta).is_one(), "{zeta:?}");
            assert_eq!(G::cube_root_of_unity(), Some(zeta));
            assert_eq!(crate::traits::derive_cube_root::<G>(), Some(zeta));
        }
        check::<crate::bn254::Fr>();
        check::<crate::bn254::Fq>();
        check::<crate::bls12_381::Fr>();
        check::<crate::bls12_381::Fq>();
        check::<crate::Goldilocks>();
        check::<F>();

        // p = 11: p − 1 = 10, so no element of order 3.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct P11;
        impl FpParams<1> for P11 {
            const MODULUS: [u64; 1] = [11];
            const GENERATOR: u64 = 2;
            const NAME: &'static str = "P11";
        }
        assert_eq!(Fp::<P11, 1>::cube_root_of_unity(), None);
    }

    #[test]
    fn biguint_roundtrip_and_reduction() {
        let big = BigUint::from_str_radix("123456789012345678901234567890123456789", 10).unwrap();
        let f = F::from_biguint(&big);
        assert_eq!(f.to_biguint(), big.rem(&F::modulus()));
        assert_eq!(F::from_biguint(&f.to_biguint()), f);
    }

    #[test]
    fn display_and_debug() {
        let f = F::from_u64(42);
        assert_eq!(f.to_string(), "42");
        assert_eq!(format!("{f:?}"), "M61(0x2a)");
    }

    #[test]
    fn ordering_is_by_canonical_value() {
        assert!(F::from_u64(3) < F::from_u64(5));
        assert!(F::from_u64(5) > F::from_u64(3));
        // -1 = p − 1 is the largest element.
        assert!(-F::one() > F::from_u64(1_000_000));
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs: Vec<F> = (1..=5).map(F::from_u64).collect();
        assert_eq!(xs.iter().copied().sum::<F>(), F::from_u64(15));
        assert_eq!(xs.iter().copied().product::<F>(), F::from_u64(120));
    }

    #[test]
    fn tracing_counts_field_ops() {
        let session = zkperf_trace::Session::begin();
        let a = F::from_u64(3);
        let b = F::from_u64(4);
        let _ = a * b;
        let report = session.finish();
        assert!(report.counts.compute_uops > 0);
        assert!(report.counts.loads >= 2);
        assert!(report.counts.stores >= 1);
    }

    /// `random` makes of its 2N drawn limbs the element `from_biguint`
    /// makes of them, and reports the same `bigint` work to a session: on
    /// three edge inputs one by one, and on 10⁴ seeded draws per modulus
    /// (elements one by one, traces in total).
    #[test]
    fn random_reduces_like_from_biguint() {
        use rand::SeedableRng;
        use zkperf_trace::{OpCounts, Session};

        fn traced<T>(f: impl FnOnce() -> T) -> (T, OpCounts, Option<(u64, OpCounts)>) {
            let session = Session::begin();
            let out = f();
            let report = session.finish();
            let bigint = report.region("bigint").map(|r| (r.calls, r.counts));
            (out, report.counts, bigint)
        }
        fn check<P: FpParams<N>, const N: usize>() {
            let through_biguint =
                |limbs: &[u64]| Fp::<P, N>::from_biguint(&BigUint::from_limbs(limbs));
            // All zeros, all ones, and p·2^(64N) + 5, whose running
            // remainder is 5 once the quotient bits of p are done.
            let mut five = [0; N];
            five[0] = 5;
            for wide in [[[0; N]; 2], [[u64::MAX; N]; 2], [five, P::MODULUS]] {
                let got = traced(|| Fp::<P, N>::from_wide(wide));
                let want = traced(|| through_biguint(wide.as_flattened()));
                assert_eq!(got, want, "{} from {wide:x?}", P::NAME);
            }
            const DRAWS: usize = 10_000;
            let seed = 0x0dd_5eed;
            let (got, got_counts, got_bigint) = traced(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                (0..DRAWS)
                    .map(|_| Fp::<P, N>::random(&mut rng))
                    .collect::<Vec<_>>()
            });
            let (want, want_counts, want_bigint) = traced(|| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                (0..DRAWS)
                    .map(|_| through_biguint(&(0..2 * N).map(|_| rng.gen()).collect::<Vec<u64>>()))
                    .collect::<Vec<_>>()
            });
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{} draw {i}", P::NAME);
            }
            assert_eq!(got_counts, want_counts, "{}", P::NAME);
            assert_eq!(got_bigint, want_bigint, "{}", P::NAME);
            assert_eq!(got_bigint.map(|(calls, _)| calls), Some(DRAWS as u64));
        }
        check::<crate::bn254::FqParams, 4>();
        check::<crate::bn254::FrParams, 4>();
        check::<crate::bls12_381::FqParams, 6>();
        check::<crate::bls12_381::FrParams, 4>();
        check::<M61, 1>();
    }
}
