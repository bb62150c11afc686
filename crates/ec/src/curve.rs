//! Generic short-Weierstrass curve groups `y² = x³ + b` (the `a = 0` family,
//! which covers both BN254 and BLS12-381) in Jacobian coordinates.

use std::fmt;

use rand::Rng;
use zkperf_trace as trace;

use zkperf_ff::{BigUint, Field, PrimeField};

/// Compile-time description of a curve (or twist) group.
///
/// Implementors are zero-sized markers; see the `bn254` / `bls12_381`
/// modules for the four groups of the suite.
pub trait CurveParams:
    Copy + Clone + fmt::Debug + PartialEq + Eq + std::hash::Hash + Send + Sync + 'static
{
    /// Field the coordinates live in (`Fq` for G1, `Fq2` for G2).
    type Base: Field;
    /// The scalar field of the (prime-order subgroup of the) group.
    type Scalar: PrimeField;
    /// Display name.
    const NAME: &'static str;
    /// The constant term `b` of `y² = x³ + b`.
    fn coeff_b() -> Self::Base;
    /// Affine coordinates of the standard subgroup generator.
    fn generator_xy() -> (Self::Base, Self::Base);
    /// GLV endomorphism parameters, for groups whose base field carries a
    /// cube root of unity (BN254 / BLS12-381 G1). `None` (the default)
    /// keeps every scalar kernel on the generic path.
    ///
    /// Implementations derive the parameters once per process via
    /// [`crate::glv::derive`] and must return `None` rather than
    /// unverified constants.
    fn glv_params() -> Option<&'static crate::glv::GlvParams<Self>> {
        None
    }
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine<C: CurveParams> {
    /// x-coordinate (meaningless when `infinity`).
    pub x: C::Base,
    /// y-coordinate (meaningless when `infinity`).
    pub y: C::Base,
    /// Marker for the group identity.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` representing the
/// affine point `(X/Z², Y/Z³)`; `Z = 0` is the identity.
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
}

impl<C: CurveParams> Affine<C> {
    /// Constructs from affine coordinates without checking curve membership;
    /// use [`is_on_curve`](Self::is_on_curve) to validate untrusted data.
    pub fn new_unchecked(x: C::Base, y: C::Base) -> Self {
        Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// The group identity.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::zero(),
            y: C::Base::one(),
            infinity: true,
        }
    }

    /// The standard subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// `true` iff the point satisfies the curve equation (identity counts).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + C::coeff_b()
    }

    /// `true` iff multiplying by the subgroup order gives the identity.
    ///
    /// O(log r) group operations; intended for validating untrusted inputs
    /// and tests, not hot paths.
    pub fn is_in_subgroup(&self) -> bool {
        self.to_projective().mul_bigint(&order_scalar_minus_zero::<C>()).is_identity()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
            }
        }
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        Affine {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }
}

fn order_scalar_minus_zero<C: CurveParams>() -> BigUint {
    C::Scalar::modulus()
}

impl<C: CurveParams> Projective<C> {
    /// The group identity.
    pub fn identity() -> Self {
        Projective {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
        }
    }

    /// The standard subgroup generator.
    pub fn generator() -> Self {
        Affine::<C>::generator().to_projective()
    }

    /// `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`dbl-2009-l` for `a = 0`).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let r = s2 - s1;
        let hh = h.square();
        let hhh = h * hh;
        let v = u1 * hh;
        let x3 = r.square() - hhh - v.double();
        let y3 = r * (v - x3) - s1 * hhh;
        let z3 = self.z * other.z * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (`Z₂ = 1`), the MSM workhorse.
    pub fn add_mixed(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let r = s2 - self.y;
        let hh = h.square();
        let hhh = h * hh;
        let v = self.x * hh;
        let x3 = r.square() - hhh - v.double();
        let y3 = r * (v - x3) - self.y * hhh;
        let z3 = self.z * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let zinv = self.z.inverse().expect("non-identity has z != 0");
        let zinv2 = zinv.square();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
            infinity: false,
        }
    }

    /// Batch conversion to affine using Montgomery's simultaneous-inversion
    /// trick: one inversion plus 3 multiplications per point.
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = C::Base::one();
        for p in points {
            prefix.push(acc);
            if !p.is_identity() {
                acc *= p.z;
            }
        }
        let mut inv = acc.inverse().unwrap_or_else(C::Base::one);
        let mut out = vec![Affine::identity(); points.len()];
        for i in (0..points.len()).rev() {
            let p = &points[i];
            if p.is_identity() {
                continue;
            }
            let zinv = prefix[i] * inv;
            inv *= p.z;
            let zinv2 = zinv.square();
            out[i] = Affine {
                x: p.x * zinv2,
                y: p.y * zinv2 * zinv,
                infinity: false,
            };
        }
        out
    }

    /// Scalar multiplication by an arbitrary-width integer (double-and-add).
    pub fn mul_bigint(&self, exp: &BigUint) -> Self {
        let _g = trace::region_profile("scalar_mul");
        let mut acc = Self::identity();
        for i in (0..exp.bits()).rev() {
            acc = acc.double();
            trace::branch(0x2001, exp.bit(i));
            if exp.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Scalar multiplication with a fixed 4-bit window: ~w× fewer
    /// additions than double-and-add at the cost of a 15-entry table.
    /// Used by ceremony contributions for the δ updates; the key sections
    /// they re-scale go through [`crate::scale_points`].
    ///
    /// When the group exposes [`CurveParams::glv_params`] and the exponent
    /// is a canonical scalar (`exp < r`), the multiplication runs as a
    /// Straus double-scalar pass over the GLV half-width components —
    /// half the doubling chain for the same table cost. The GLV route
    /// assumes the point lies in the prime-order subgroup (the standing
    /// invariant of points carrying `Scalar = Fr`); out-of-range exponents
    /// fall back to the generic window loop.
    pub fn mul_windowed(&self, exp: &BigUint) -> Self {
        const W: usize = 4;
        if exp.is_zero() {
            return Self::identity();
        }
        if let Some(glv) = C::glv_params() {
            if exp < &C::Scalar::modulus() {
                return self.mul_windowed_glv(glv, exp);
            }
        }
        let _g = trace::region_profile("scalar_mul");
        // table[d] = d · P for d in 1..16
        let mut table = [Self::identity(); (1 << W) - 1];
        let mut acc = *self;
        for slot in table.iter_mut() {
            *slot = acc;
            acc = acc.add(self);
        }
        let digits = exp.bits().div_ceil(W);
        let mut out = Self::identity();
        for d in (0..digits).rev() {
            for _ in 0..W {
                out = out.double();
            }
            let mut digit = 0usize;
            for b in 0..W {
                if exp.bit(d * W + b) {
                    digit |= 1 << b;
                }
            }
            trace::branch(0x2002, digit != 0);
            if digit != 0 {
                out = out.add(&table[digit - 1]);
            }
        }
        out
    }

    /// Straus simultaneous multiplication over the GLV split
    /// `k = k1 + k2·λ`: one shared ~⌈half_bits⌉-deep doubling chain with
    /// two 4-bit window tables (for `±P` and `±φ(P)`).
    fn mul_windowed_glv(&self, glv: &crate::glv::GlvParams<C>, exp: &BigUint) -> Self {
        const W: usize = 4;
        let _g = trace::region_profile("scalar_mul");
        let d = glv.decompose(&C::Scalar::from_biguint(exp));
        // A point lifted from affine (`z = 1`) is already normalised.
        let p_aff = if self.z.is_one() {
            Affine::new_unchecked(self.x, self.y)
        } else {
            self.to_affine()
        };
        let endo_aff = glv.endo(&p_aff);
        let base1 = if d.k1.neg { p_aff.neg() } else { p_aff }.to_projective();
        let base2 = if d.k2.neg { endo_aff.neg() } else { endo_aff }.to_projective();
        // table[t][digit - 1] = digit · base_t for digit in 1..16.
        let mut tables = [[Self::identity(); (1 << W) - 1]; 2];
        for (table, base) in tables.iter_mut().zip([base1, base2]) {
            let mut acc = base;
            for slot in table.iter_mut() {
                *slot = acc;
                acc = acc.add(&base);
            }
        }
        let extract = |limbs: &[u64; crate::glv::HALF_LIMBS], lo: usize| -> usize {
            let (limb, off) = (lo / 64, lo % 64);
            if limb >= limbs.len() {
                return 0;
            }
            let mut v = limbs[limb] >> off;
            if off + W > 64 && limb + 1 < limbs.len() {
                v |= limbs[limb + 1] << (64 - off);
            }
            (v as usize) & ((1 << W) - 1)
        };
        let digits = glv.half_bits().div_ceil(W);
        let mut out = Self::identity();
        for pos in (0..digits).rev() {
            for _ in 0..W {
                out = out.double();
            }
            for (table, limbs) in tables.iter().zip([&d.k1.limbs, &d.k2.limbs]) {
                let digit = extract(limbs, pos * W);
                trace::branch(0x2002, digit != 0);
                if digit != 0 {
                    out = out.add(&table[digit - 1]);
                }
            }
        }
        out
    }

    /// A uniformly random subgroup element (`generator × random scalar`).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generator() * C::Scalar::random(rng)
    }
}

impl<C: CurveParams> std::ops::Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}

impl<C: CurveParams> std::ops::AddAssign for Projective<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<C: CurveParams> std::ops::Sub for Projective<C> {
    type Output = Self;
    // Group subtraction genuinely is add-the-negation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Self) -> Self {
        self + rhs.neg()
    }
}

impl<C: CurveParams> std::ops::Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective::neg(&self)
    }
}

/// Scalar multiplication by a scalar-field element.
impl<C: CurveParams> std::ops::Mul<C::Scalar> for Projective<C> {
    type Output = Self;
    fn mul(self, s: C::Scalar) -> Self {
        self.mul_bigint(&s.to_biguint())
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    /// Equality of the represented affine points (coordinate classes).
    fn eq(&self, other: &Self) -> bool {
        if self.is_identity() || other.is_identity() {
            return self.is_identity() == other.is_identity();
        }
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³), cross-multiplied.
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1
            && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}

impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Default for Projective<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> fmt::Debug for Projective<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            write!(f, "{}(infinity)", C::NAME)
        } else {
            let a = self.to_affine();
            write!(f, "{}({:?}, {:?})", C::NAME, a.x, a.y)
        }
    }
}

impl<C: CurveParams> fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}(infinity)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> Default for Affine<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: CurveParams> From<Affine<C>> for Projective<C> {
    fn from(a: Affine<C>) -> Self {
        a.to_projective()
    }
}

impl<C: CurveParams> From<Projective<C>> for Affine<C> {
    fn from(p: Projective<C>) -> Self {
        p.to_affine()
    }
}

#[cfg(test)]
mod tests {
    use crate::bn254::{G1Projective, G2Projective};
    use zkperf_ff::{BigUint, Field, PrimeField};

    #[test]
    fn windowed_mul_matches_double_and_add() {
        type Fr = zkperf_ff::bn254::Fr;
        let g = G1Projective::generator();
        let mut rng = zkperf_ff::test_rng();
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(15),
            BigUint::from_u64(16),
            Fr::random(&mut rng).to_biguint(),
        ] {
            assert_eq!(g.mul_windowed(&e), g.mul_bigint(&e), "exp {e}");
        }
        let h = G2Projective::generator();
        let e = Fr::random(&mut rng).to_biguint();
        assert_eq!(h.mul_windowed(&e), h.mul_bigint(&e));
    }

    #[test]
    fn projective_equality_ignores_z_scaling() {
        let g = G1Projective::generator();
        let doubled_rep = g + g - g; // same point, different (X:Y:Z)
        assert_eq!(doubled_rep, g);
        assert_ne!(g.double(), g);
        assert_eq!(
            G1Projective::identity(),
            G1Projective::identity().double()
        );
    }
}
