//! Core algebraic traits implemented by the prime fields and their towers.

use std::fmt::{Debug, Display};
use std::hash::Hash;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::bigint::{BigUint, ParseBigIntError};

/// A finite field element.
///
/// Implemented by the prime fields ([`crate::Fp`]) and every extension level
/// of the pairing towers. All operations are by value; elements are small
/// `Copy` types.
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// `true` iff this is the additive identity.
    fn is_zero(&self) -> bool;

    /// `true` iff this is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// `2·self`.
    fn double(&self) -> Self {
        *self + *self
    }

    /// `self²`.
    fn square(&self) -> Self {
        *self * *self
    }

    /// Multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// `self^exp` by left-to-right square-and-multiply.
    fn pow(&self, exp: &BigUint) -> Self {
        let mut acc = Self::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc *= *self;
            }
        }
        acc
    }

    /// Embeds a small integer.
    fn from_u64(v: u64) -> Self;

    /// The characteristic `p` of the field (for extensions, of the base
    /// prime field).
    fn characteristic() -> BigUint;

    /// A uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// A prime field `F_p`, with access to the canonical integer representation
/// and the 2-adic structure needed by the radix-2 NTT.
pub trait PrimeField: Field + PartialOrd + Ord {
    /// Number of 64-bit limbs in the internal representation.
    const NUM_LIMBS: usize;

    /// The modulus `p`.
    fn modulus() -> BigUint;

    /// The canonical representative in `[0, p)`.
    fn to_biguint(&self) -> BigUint;

    /// Reduces an arbitrary integer modulo `p`.
    fn from_biguint(v: &BigUint) -> Self;

    /// Writes the canonical (non-Montgomery) representation into
    /// `out[..NUM_LIMBS]`, little-endian.
    ///
    /// Equivalent to `to_biguint().to_limbs(NUM_LIMBS)` but without the
    /// intermediate heap allocations, so hot paths (MSM digit extraction,
    /// fixed-base windowing) can fill preallocated flat buffers.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`NUM_LIMBS`](Self::NUM_LIMBS).
    fn write_canonical_limbs(&self, out: &mut [u64]) {
        let limbs = self.to_biguint().to_limbs(Self::NUM_LIMBS);
        out[..Self::NUM_LIMBS].copy_from_slice(&limbs);
    }

    /// Bit length of the modulus (254 for BN254, 255 for BLS12-381 `Fr`).
    ///
    /// Scalars are strictly below `p`, so window decompositions past this
    /// many bits are always zero — Pippenger loops use it to skip the empty
    /// top windows of the limb space.
    fn modulus_bits() -> u32 {
        Self::modulus().bits() as u32
    }

    /// Parses a decimal (radix 10) or hexadecimal (radix 16) literal and
    /// reduces it modulo `p`.
    ///
    /// # Errors
    ///
    /// Propagates [`ParseBigIntError`] from the underlying integer parse.
    fn from_str_radix(s: &str, radix: u32) -> Result<Self, ParseBigIntError> {
        Ok(Self::from_biguint(&BigUint::from_str_radix(s, radix)?))
    }

    /// The exponent `s` of the largest power of two dividing `p − 1`.
    fn two_adicity() -> u32 {
        let p_minus_1 = Self::modulus()
            .checked_sub(&BigUint::one())
            .expect("modulus >= 2");
        p_minus_1.trailing_zeros() as u32
    }

    /// An element of exact multiplicative order `2^two_adicity()`.
    ///
    /// Derived at runtime from a small candidate generator by exponentiation
    /// and verified, so no large root constant has to be transcribed.
    fn two_adic_root_of_unity() -> Self;

    /// A square root of `self`, if one exists (Tonelli-Shanks, using the
    /// field's 2-adic structure; works for any odd-characteristic field).
    fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        let s = Self::two_adicity();
        let p_minus_1 = Self::modulus()
            .checked_sub(&BigUint::one())
            .expect("modulus >= 2");
        let q = p_minus_1.shr(s as usize); // odd part
        let (half_q1, rem) = (&q + &BigUint::one()).divrem_u64(2);
        debug_assert_eq!(rem, 0, "q is odd");
        let mut x = self.pow(&half_q1); // a^((q+1)/2)
        let mut t = self.pow(&q);
        let mut z = Self::two_adic_root_of_unity();
        let mut m = s;
        while !t.is_one() {
            // Least i with t^(2^i) = 1.
            let mut i = 0u32;
            let mut probe = t;
            while !probe.is_one() {
                probe = probe.square();
                i += 1;
                if i == m {
                    return None; // non-residue
                }
            }
            let mut b = z;
            for _ in 0..(m - i - 1) {
                b = b.square();
            }
            x *= b;
            z = b.square();
            t *= z;
            m = i;
        }
        debug_assert_eq!(x.square(), *self);
        Some(x)
    }

    /// An element of exact order `2^k`, or `None` if `k` exceeds the field's
    /// two-adicity.
    fn root_of_unity_pow2(k: u32) -> Option<Self> {
        let s = Self::two_adicity();
        if k > s {
            return None;
        }
        let mut root = Self::two_adic_root_of_unity();
        for _ in 0..(s - k) {
            root = root.square();
        }
        Some(root)
    }

    /// A fixed element of exact order 3 (of the two), or `None` when
    /// `3 ∤ p − 1`.
    ///
    /// Derived once per field and process — `b^((p−1)/3)` for the first
    /// base `b` from 2 up where that power is not 1 — and cached only
    /// after its self-test (`ζ ≠ 1`, `ζ³ = 1`) passes; a failed self-test
    /// caches `None`. Every field of the suite has one: the GLV
    /// endomorphisms and the `3·2^k` evaluation domains both read it.
    fn cube_root_of_unity() -> Option<Self> {
        cached_cube_root::<Self>()
    }

    /// The field's eight-lane kernel, if it has one and this process runs
    /// it (`zkperf_ff::lanes`); `None` by default. Generic code asks once
    /// per loop and keeps its scalar body for `None`.
    fn lanes() -> Option<crate::lanes::Lanes<Self>> {
        None
    }
}

/// [`PrimeField::cube_root_of_unity`], once per field type: a `static` in a
/// generic function is shared by every instantiation, so the roots are
/// kept by `TypeId`. Two first callers may both derive the root; they
/// store the same value. Nothing panics under either lock, so a poisoned
/// map is still whole.
fn cached_cube_root<F: PrimeField>() -> Option<F> {
    use std::any::{Any, TypeId};
    use std::collections::HashMap;
    use std::sync::{OnceLock, PoisonError, RwLock};
    type Roots = RwLock<HashMap<TypeId, Box<dyn Any + Send + Sync>>>;
    static ROOTS: OnceLock<Roots> = OnceLock::new();
    let roots = ROOTS.get_or_init(Roots::default);
    let key = TypeId::of::<F>();
    let cached = roots
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .and_then(|root| root.downcast_ref::<Option<F>>().copied());
    if let Some(root) = cached {
        return root;
    }
    let root = derive_cube_root::<F>();
    roots
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, Box::new(root));
    root
}

/// The derivation and self-test behind [`PrimeField::cube_root_of_unity`].
pub(crate) fn derive_cube_root<F: PrimeField>() -> Option<F> {
    let p_minus_1 = F::modulus().checked_sub(&BigUint::one())?;
    let (exp, rem) = p_minus_1.divrem_u64(3);
    if rem != 0 {
        return None;
    }
    let root = (2u64..64)
        .map(|base| F::from_u64(base).pow(&exp))
        .find(|w| !w.is_one() && !w.is_zero())?;
    (!root.is_one() && (root.square() * root).is_one()).then_some(root)
}

/// A field with an absolute Frobenius endomorphism `x ↦ x^p`, applied in
/// O(multiplications) rather than by full exponentiation.
pub trait Frobenius: Field {
    /// `self^(p^power)` where `p` is the characteristic.
    fn frobenius(&self, power: usize) -> Self;
}
