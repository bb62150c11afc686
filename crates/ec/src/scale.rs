//! Shared-scalar point scaling: `Pᵢ ← k·Pᵢ` for every point of a slice.
//!
//! A phase-2 ceremony contribution multiplies whole key sections by *one*
//! scalar. Because the scalar is shared, every point walks the identical
//! double/add chain, so the chain runs in lock step across a chunk of
//! points: each step is one affine doubling or addition per lane, and all
//! lanes of the step share a single Montgomery batch inversion
//! ([`zkperf_ff::batch_inverse_with_scratch`]) — the batched-affine shape
//! of [`crate::BatchAdder`], applied along the scalar instead of along a
//! bucket.
//!
//! The scalar is decomposed once per call: the GLV split `k = k₁ + k₂·λ`
//! when the group has [`CurveParams::glv_params`], otherwise one
//! full-width stream (G2) through the same loop.
//! Each stream is recoded once to width-4 wNAF, so a point costs about
//! `half_bits` batched doublings plus `2·half_bits/5` batched additions
//! against its odd-multiple table `{P, 3P, 5P, 7P}` — ≈ 1 400 base-field
//! multiplications on the G1 groups, against ≈ 3 900 for a Jacobian
//! [`crate::Projective::mul_windowed`] and its final inversion.
//!
//! Results are affine, and an affine point is the canonical form of its
//! group element, so the output is byte-identical to a per-point
//! [`crate::Projective::mul_windowed`] loop (the reference of the
//! `zkperf-testkit` oracles) at any chunking and any thread count.

use zkperf_ff::{batch_inverse_with_scratch, Field, PrimeField};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::curve::{Affine, CurveParams};

/// wNAF window width: digits are odd and below `2^(W−1)` in magnitude.
const W: u32 = 4;

/// Odd multiples kept per point: `P, 3P, …, (2^(W−1) − 1)·P`.
const TABLE_ROWS: usize = 1 << (W - 2);

/// Points that move through the chain in lock step, sharing each batch
/// inversion. The one field inversion per step costs ≈ 600 multiplications,
/// so the per-lane share falls as the chunk grows, while the scratch a
/// worker holds (≈ 550 B per lane on BN254 G1) and the smallest input that
/// still splits across workers grow with it. Measured on BN254 G1 at one
/// thread: 68 µs per point at 128 lanes, 57 at 256, 52 at 512, 48 at 1024,
/// 49 at 2048. 512 keeps a worker's scratch at ≈ 280 KiB and a 2^10-point
/// query at two chunks.
pub const SCALE_CHUNK: usize = 512;

/// Multiplies every point of `points` by the same scalar `k`, in place.
///
/// Chunks of [`SCALE_CHUNK`] points fan out over the pool; the chunk
/// boundaries depend only on `points.len()`. Identity lanes come back as
/// the canonical [`Affine::identity`], whatever coordinates they carried
/// in. Like [`crate::Projective::mul_windowed`], the GLV route assumes the points
/// lie in the prime-order subgroup.
pub fn scale_points<C: CurveParams>(points: &mut [Affine<C>], k: &C::Scalar) {
    let _g = trace::region_profile("scalar_mul");
    let glv = C::glv_params();
    let streams: Vec<DigitStream> = match glv {
        Some(glv) => {
            let d = glv.decompose(k);
            [(d.k1, false), (d.k2, true)]
                .into_iter()
                .map(|(half, endo)| DigitStream {
                    digits: wnaf(&half.limbs, half.neg),
                    endo,
                })
                .collect()
        }
        None => {
            let mut limbs = vec![0u64; C::Scalar::NUM_LIMBS];
            k.write_canonical_limbs(&mut limbs);
            vec![DigitStream {
                digits: wnaf(&limbs, false),
                endo: false,
            }]
        }
    };
    pool::parallel_chunks_mut(points, SCALE_CHUNK, |_, chunk| {
        scale_chunk(chunk, &streams, glv);
    });
}

/// One recoded scalar component; `endo` streams multiply `φ(P)`.
struct DigitStream {
    /// Width-[`W`] wNAF digits, least significant first.
    digits: Vec<i8>,
    endo: bool,
}

/// Width-[`W`] non-adjacent form of the little-endian integer `limbs`,
/// least-significant digit first: every non-zero digit is odd, below
/// `2^(W−1)` in magnitude and followed by at least `W − 1` zeros.
/// `negate` flips every digit, recoding `−limbs`.
fn wnaf(limbs: &[u64], negate: bool) -> Vec<i8> {
    const MASK: u64 = (1 << W) - 1;
    // One spare limb: rounding a digit up can carry out of the top.
    let mut n = limbs.to_vec();
    n.push(0);
    let mut digits = Vec::with_capacity(64 * limbs.len() + 1);
    while n.iter().any(|&l| l != 0) {
        let mut digit = 0i8;
        if n[0] & 1 == 1 {
            let low = n[0] & MASK;
            n[0] &= !MASK;
            digit = low as i8;
            if low > MASK / 2 {
                // Take the negative residue and carry 2^W upwards.
                digit -= 1 << W;
                let mut carry = 1 << W;
                for limb in n.iter_mut() {
                    let (sum, overflow) = limb.overflowing_add(carry);
                    *limb = sum;
                    carry = u64::from(overflow);
                }
            }
        }
        digits.push(if negate { -digit } else { digit });
        for i in 0..n.len() {
            let high = n.get(i + 1).map_or(0, |next| next << 63);
            n[i] = n[i] >> 1 | high;
        }
    }
    digits
}

/// Runs one chunk through the shared double/add chain.
fn scale_chunk<C: CurveParams>(
    chunk: &mut [Affine<C>],
    streams: &[DigitStream],
    glv: Option<&crate::glv::GlvParams<C>>,
) {
    let n = chunk.len();
    let mut lanes = Lanes::<C>::default();

    // table[row·n + i] = (2·row + 1)·Pᵢ.
    let mut table = vec![Affine::<C>::identity(); TABLE_ROWS * n];
    table[..n].copy_from_slice(chunk);
    let mut acc = chunk.to_vec();
    lanes.double(&mut acc);
    for row in 1..TABLE_ROWS {
        let (built, rest) = table.split_at_mut(row * n);
        rest[..n].copy_from_slice(&built[(row - 1) * n..]);
        lanes.add(&mut rest[..n], |i| acc[i]);
    }
    // φ(x, y) = (β·x, y): the endomorphism table shares the y-coordinates
    // and infinity flags of `table`.
    let endo_x: Vec<C::Base> = match glv {
        Some(glv) => table.iter().map(|p| glv.endo(p).x).collect(),
        None => Vec::new(),
    };

    acc.fill(Affine::identity());
    let top = streams.iter().map(|s| s.digits.len()).max().unwrap_or(0);
    for pos in (0..top).rev() {
        lanes.double(&mut acc);
        for stream in streams {
            let digit = stream.digits.get(pos).copied().unwrap_or(0);
            if digit == 0 {
                continue;
            }
            let row = usize::from(digit.unsigned_abs() / 2) * n;
            lanes.add(&mut acc, |i| {
                let mut q = table[row + i];
                if stream.endo {
                    q.x = endo_x[row + i];
                }
                if digit < 0 {
                    q.y = -q.y;
                }
                q
            });
        }
    }
    chunk.copy_from_slice(&acc);
}

/// How one lane of a batched addition resolves once the shared inversion
/// lands.
#[derive(Clone, Copy)]
enum LaneKind {
    /// Chord addition; denominator `x₂ − x₁`.
    Add,
    /// Equal points: tangent doubling; denominator `2·y₁`.
    Double,
    /// The addend is the identity: the lane keeps its value.
    Keep,
    /// The lane is the identity: it takes the addend.
    Take,
    /// Inverse points (or a 2-torsion point added to itself): the sum is
    /// the identity.
    Cancel,
}

/// Scratch for lock-step affine operations over the lanes of a chunk.
struct Lanes<C: CurveParams> {
    denoms: Vec<C::Base>,
    inv_scratch: Vec<C::Base>,
    kinds: Vec<LaneKind>,
}

impl<C: CurveParams> Default for Lanes<C> {
    fn default() -> Self {
        Lanes {
            denoms: Vec::new(),
            inv_scratch: Vec::new(),
            kinds: Vec::new(),
        }
    }
}

impl<C: CurveParams> Lanes<C> {
    /// `acc[i] ← 2·acc[i]` for every lane.
    fn double(&mut self, acc: &mut [Affine<C>]) {
        // Identity and 2-torsion lanes queue a zero, which the batch
        // inversion leaves in place.
        self.denoms.clear();
        self.denoms.extend(acc.iter().map(|p| {
            if p.infinity {
                C::Base::zero()
            } else {
                p.y.double()
            }
        }));
        batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);
        for (p, inv) in acc.iter_mut().zip(&self.denoms) {
            if p.infinity {
                continue;
            }
            *p = if inv.is_zero() {
                Affine::identity()
            } else {
                tangent(p, inv)
            };
        }
    }

    /// `acc[i] ← acc[i] + addend(i)` for every lane; `addend` is called
    /// once per pass and must return the same point both times.
    fn add(&mut self, acc: &mut [Affine<C>], addend: impl Fn(usize) -> Affine<C>) {
        self.denoms.clear();
        self.kinds.clear();
        for (i, p) in acc.iter().enumerate() {
            let q = addend(i);
            // An identity addend is tested first, so its coordinates
            // (possibly stale in the input) are never copied into a lane.
            let (kind, denom) = if q.infinity {
                (LaneKind::Keep, C::Base::zero())
            } else if p.infinity {
                (LaneKind::Take, C::Base::zero())
            } else if p.x != q.x {
                (LaneKind::Add, q.x - p.x)
            } else if p.y == q.y && !p.y.is_zero() {
                (LaneKind::Double, p.y.double())
            } else {
                (LaneKind::Cancel, C::Base::zero())
            };
            self.kinds.push(kind);
            self.denoms.push(denom);
        }
        batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);
        for (i, p) in acc.iter_mut().enumerate() {
            let inv = &self.denoms[i];
            match self.kinds[i] {
                LaneKind::Keep => {}
                LaneKind::Take => *p = addend(i),
                LaneKind::Cancel => *p = Affine::identity(),
                LaneKind::Double => *p = tangent(p, inv),
                LaneKind::Add => {
                    let q = addend(i);
                    let lambda = (q.y - p.y) * *inv;
                    let x3 = lambda.square() - p.x - q.x;
                    let y3 = lambda * (p.x - x3) - p.y;
                    *p = Affine::new_unchecked(x3, y3);
                }
            }
        }
    }
}

/// `2·p` for a finite `p` with `y ≠ 0`, given `inv = 1/(2y)`.
fn tangent<C: CurveParams>(p: &Affine<C>, inv: &C::Base) -> Affine<C> {
    let xx = p.x.square();
    let lambda = (xx.double() + xx) * *inv;
    let x3 = lambda.square() - p.x.double();
    let y3 = lambda * (p.x - x3) - p.y;
    Affine::new_unchecked(x3, y3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Affine, G1Projective};
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::BigUint;

    #[test]
    fn wnaf_recomposes_with_sparse_odd_digits() {
        let mut rng = zkperf_ff::test_rng();
        let mut cases = vec![vec![0u64], vec![1], vec![7], vec![8], vec![u64::MAX; 3]];
        let mut limbs = [0u64; 4];
        Fr::random(&mut rng).write_canonical_limbs(&mut limbs);
        cases.push(limbs.to_vec());
        for limbs in cases {
            let digits = wnaf(&limbs, false);
            // Horner recomposition, tracking the sign separately.
            let mut acc = BigUint::zero();
            for &d in digits.iter().rev() {
                acc = acc.shl(1);
                acc = if d >= 0 {
                    &acc + &BigUint::from_u64(d as u64)
                } else {
                    acc.checked_sub(&BigUint::from_u64(u64::from(d.unsigned_abs())))
                        .expect("prefixes of a wNAF of n >= 0 are non-negative")
                };
            }
            assert_eq!(acc, BigUint::from_limbs(&limbs));
            for (i, &d) in digits.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (W - 1));
                    let gap = &digits[i + 1..digits.len().min(i + W as usize)];
                    assert!(gap.iter().all(|&g| g == 0), "digits too dense at {i}");
                }
            }
            let negated = wnaf(&limbs, true);
            assert!(digits.iter().zip(&negated).all(|(a, b)| *a == -*b));
        }
    }

    #[test]
    fn identity_equal_and_inverse_lanes_stay_canonical() {
        let mut rng = zkperf_ff::test_rng();
        let p = G1Projective::random(&mut rng).to_affine();
        // An identity carrying stale coordinates must not leak them.
        let stale = G1Affine {
            infinity: true,
            ..p
        };
        let points = [p, p, p.neg(), stale, G1Affine::identity()];
        for k in [
            Fr::zero(),
            Fr::from_u64(2),
            Fr::from_u64(3),
            Fr::random(&mut rng),
        ] {
            let mut scaled = points;
            scale_points(&mut scaled, &k);
            let scale = |q: &G1Affine| q.to_projective().mul_bigint(&k.to_biguint()).to_affine();
            assert_eq!(scaled[..3], [scale(&p), scale(&p), scale(&p.neg())]);
            assert_eq!(scaled[3..], [G1Affine::identity(); 2]);
        }
    }
}
