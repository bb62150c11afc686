//! Batched affine point addition via shared Montgomery inversion.
//!
//! A single affine chord/tangent addition costs one field inversion, which
//! is why curve kernels normally work in Jacobian coordinates (~11 field
//! multiplications per mixed addition, no inversion). But when many
//! independent additions are performed at once, one batched inversion
//! ([`zkperf_ff::batch_inverse_with_scratch`]) amortizes to ~3
//! multiplications per addition, making the affine formulas (~6
//! multiplications total) cheaper than Jacobian ones. Pippenger bucket
//! accumulation and fixed-base multi-exponentiation both present exactly
//! this shape: thousands of independent additions per round.
//!
//! [`BatchAdder::reduce_segments`] reduces contiguous segments of a point
//! buffer to their sums by repeatedly pairing adjacent points — a balanced
//! tree reduction — with one batch inversion per round across *all*
//! segments, so the inversion batch stays large even when individual
//! segments are short.
//!
//! On BN254 G1, where the host has AVX-512 IFMA, the two `Fq`-bound steps
//! of a round — the shared inversion and the chord additions of its `Add`
//! pairs — run eight elements at a time in [`zkperf_ff::lanes`]
//! ([`CurveParams::finish_round_in_lanes`]). Classification, tangent
//! doublings and identity or cancelling pairs stay scalar. The scalar body
//! is every other group's, the fallback on hosts without IFMA and the
//! reference the lanes are pinned to; both write the same bits (DESIGN.md
//! §17).

use zkperf_ff::bn254::Fq;
use zkperf_ff::lanes::{Chords, Lanes};
use zkperf_ff::{batch_inverse_with_scratch, Field};

use crate::bn254::G1Params;
use crate::curve::{Affine, CurveParams};

/// How a queued pair resolves once the shared inversion lands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PairKind {
    /// Generic chord addition; denominator is `x₂ − x₁`.
    Add,
    /// Tangent doubling (equal points); denominator is `2·y₁`.
    Double,
    /// No inversion needed: an operand was the identity, or the pair
    /// cancelled (`x₁ = x₂`, `y₁ = −y₂`). Result is stored directly.
    Fixed,
}

/// Reusable scratch state for rounds of batched affine additions.
///
/// Construct once and reuse across windows/chunks so the internal buffers
/// amortize their allocations.
#[derive(Debug)]
pub struct BatchAdder<C: CurveParams> {
    denoms: Vec<C::Base>,
    inv_scratch: Vec<C::Base>,
    kinds: Vec<PairKind>,
    /// Results of `Fixed` pairs only, consumed in queue order during the
    /// apply pass — the overwhelmingly common `Add` pairs never touch it.
    fixed: Vec<Affine<C>>,
}

impl<C: CurveParams> Default for BatchAdder<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: CurveParams> BatchAdder<C> {
    /// Creates an adder with empty scratch buffers.
    pub fn new() -> Self {
        BatchAdder {
            denoms: Vec::new(),
            inv_scratch: Vec::new(),
            kinds: Vec::new(),
            fixed: Vec::new(),
        }
    }

    /// Reduces each segment of `points` to the sum of its elements.
    ///
    /// `segs` holds `(start, len)` descriptors of disjoint contiguous
    /// segments. On return each descriptor's `len` is `0` (empty segment)
    /// or `1`, and in the latter case `points[start]` is the segment sum
    /// (possibly the identity). Points outside the described segments are
    /// left unspecified — the buffer is scratch space.
    ///
    /// Handles every affine edge case: identity operands, equal points
    /// (tangent doubling) and inverse points (cancellation to identity).
    pub fn reduce_segments(&mut self, points: &mut [Affine<C>], segs: &mut [(usize, usize)]) {
        while self.classify_round(points, segs) {
            if !C::finish_round_in_lanes(self, points, segs) {
                self.finish_round(points, segs);
            }
        }
    }

    /// Queues this round's pairs — adjacent points of every segment — with
    /// their kinds and denominators; `false` once every segment is down to
    /// 0 or 1 points.
    fn classify_round(&mut self, points: &[Affine<C>], segs: &[(usize, usize)]) -> bool {
        self.denoms.clear();
        self.kinds.clear();
        self.fixed.clear();
        for &(start, len) in segs {
            for k in 0..len / 2 {
                self.classify(&points[start + 2 * k], &points[start + 2 * k + 1]);
            }
        }
        !self.kinds.is_empty()
    }

    /// The scalar body of a classified round: one shared inversion, then
    /// every pair in queue order.
    fn finish_round(&mut self, points: &mut [Affine<C>], segs: &mut [(usize, usize)]) {
        batch_inverse_with_scratch(&mut self.denoms, &mut self.inv_scratch);
        self.resolve_pairs(points, segs, |points, dst, p, q, inv| {
            points[dst] = chord(p, q, inv);
        });
    }

    /// Resolves the classified pairs in queue order once the inversion has
    /// landed: pair `k` of a segment writes its sum to `start + k`, an odd
    /// trailing point moves down behind the sums, and the segment shrinks.
    /// `Add` pairs go to `add`, which may defer its write: `start + k` lies
    /// below every point a later pair of the round reads, and no later
    /// pair writes there.
    fn resolve_pairs(
        &self,
        points: &mut [Affine<C>],
        segs: &mut [(usize, usize)],
        mut add: impl FnMut(&mut [Affine<C>], usize, &Affine<C>, &Affine<C>, C::Base),
    ) {
        let mut pair = 0usize;
        let mut fixed_cursor = 0usize;
        for (start, len) in segs.iter_mut() {
            let pairs = *len / 2;
            for k in 0..pairs {
                let p = points[*start + 2 * k];
                let q = points[*start + 2 * k + 1];
                let inv = self.denoms[pair];
                let dst = *start + k;
                match self.kinds[pair] {
                    PairKind::Add => add(points, dst, &p, &q, inv),
                    PairKind::Double => {
                        let xx = p.x.square();
                        let lambda = (xx.double() + xx) * inv;
                        let x3 = lambda.square() - p.x.double();
                        let y3 = lambda * (p.x - x3) - p.y;
                        points[dst] = Affine::new_unchecked(x3, y3);
                    }
                    PairKind::Fixed => {
                        points[dst] = self.fixed[fixed_cursor];
                        fixed_cursor += 1;
                    }
                }
                pair += 1;
            }
            // An odd trailing point survives into the next round.
            if *len % 2 == 1 {
                points[*start + pairs] = points[*start + *len - 1];
            }
            *len = pairs + *len % 2;
        }
    }

    /// Queues `p + q`: records the pair kind and its inversion denominator
    /// (zero for `Fixed` pairs, which the batch inversion skips and whose
    /// precomputed result is pushed to the side queue).
    fn classify(&mut self, p: &Affine<C>, q: &Affine<C>) {
        let (kind, denom) = if p.infinity {
            self.fixed.push(*q);
            (PairKind::Fixed, C::Base::zero())
        } else if q.infinity {
            self.fixed.push(*p);
            (PairKind::Fixed, C::Base::zero())
        } else if p.x == q.x {
            if p.y == q.y && !p.y.is_zero() {
                (PairKind::Double, p.y.double())
            } else {
                // Inverse points (or a 2-torsion degenerate): sum is identity.
                self.fixed.push(Affine::identity());
                (PairKind::Fixed, C::Base::zero())
            }
        } else {
            (PairKind::Add, q.x - p.x)
        };
        self.kinds.push(kind);
        self.denoms.push(denom);
    }
}

impl BatchAdder<G1Params> {
    /// The lane body of a classified BN254 G1 round: the shared inversion
    /// in lanes, and the `Add` pairs eight at a time — coordinates gathered
    /// as each pair comes up, sums written back once eight are queued and
    /// at the end of the round.
    pub(crate) fn finish_round_lanes(
        &mut self,
        lanes: Lanes<Fq>,
        points: &mut [Affine<G1Params>],
        segs: &mut [(usize, usize)],
    ) {
        lanes.batch_inverse(&mut self.denoms, &mut self.inv_scratch);
        let mut chords = Chords::default();
        let mut dsts = [0usize; 8];
        let mut queued = 0;
        self.resolve_pairs(points, segs, |points, dst, p, q, inv| {
            chords.x1[queued] = p.x;
            chords.y1[queued] = p.y;
            chords.x2[queued] = q.x;
            chords.y2[queued] = q.y;
            chords.inv[queued] = inv;
            dsts[queued] = dst;
            queued += 1;
            if queued == dsts.len() {
                write_chords(lanes, &chords, &dsts, points);
                queued = 0;
            }
        });
        write_chords(lanes, &chords, &dsts[..queued], points);
    }
}

/// Adds `chords` in lanes and writes sum `i` to `points[dsts[i]]`; lanes
/// past `dsts.len()` hold an earlier batch's operands, and their sums are
/// dropped.
fn write_chords(
    lanes: Lanes<Fq>,
    chords: &Chords<Fq>,
    dsts: &[usize],
    points: &mut [Affine<G1Params>],
) {
    if dsts.is_empty() {
        return;
    }
    let (x3, y3) = lanes.add_chords(chords);
    for ((&dst, x), y) in dsts.iter().zip(x3).zip(y3) {
        points[dst] = Affine::new_unchecked(x, y);
    }
}

/// The chord sum `p + q` of two affine points with `p.x ≠ q.x`, given
/// `inv = (q.x − p.x)⁻¹`.
#[inline(always)]
fn chord<C: CurveParams>(p: &Affine<C>, q: &Affine<C>, inv: C::Base) -> Affine<C> {
    let lambda = (q.y - p.y) * inv;
    let x3 = lambda.square() - p.x - q.x;
    let y3 = lambda * (p.x - x3) - p.y;
    Affine::new_unchecked(x3, y3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Affine, G1Projective};

    fn reference_sum(points: &[G1Affine]) -> G1Projective {
        points
            .iter()
            .fold(G1Projective::identity(), |acc, p| acc.add_mixed(p))
    }

    #[test]
    fn reduces_random_segments() {
        let mut rng = zkperf_ff::test_rng();
        let points: Vec<G1Affine> = (0..64)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        // Segments of varying lengths, including 0 and 1.
        let mut segs = vec![(0usize, 0usize), (0, 1), (1, 2), (3, 7), (10, 54)];
        let expect: Vec<G1Projective> = segs
            .iter()
            .map(|&(s, l)| reference_sum(&points[s..s + l]))
            .collect();
        let mut buf = points.clone();
        let mut adder = BatchAdder::new();
        adder.reduce_segments(&mut buf, &mut segs);
        for (i, (&(start, len), want)) in segs.iter().zip(&expect).enumerate() {
            let got = if len == 0 {
                G1Projective::identity()
            } else {
                buf[start].to_projective()
            };
            assert_eq!(got, *want, "segment {i}");
        }
    }

    /// The scalar body — the fallback of a host without IFMA — forced on
    /// where the lanes would run, against the reference sums over identity,
    /// tangent and cancelling pairs and segments of 0–17 points. The
    /// testkit oracle `batch_add_lanes` pins the two bodies bit for bit.
    #[test]
    fn scalar_body_sums_every_pair_kind() {
        let mut rng = zkperf_ff::test_rng();
        let p = G1Projective::random(&mut rng).to_affine();
        let points: Vec<G1Affine> = (0..160)
            .map(|i| match i % 13 {
                2 => G1Affine::identity(),
                5 | 6 => p,
                9 => p.neg(),
                _ => G1Projective::random(&mut rng).to_affine(),
            })
            .collect();
        let mut segs = Vec::new();
        let mut start = 0;
        for len in (0..18).cycle() {
            if start + len > points.len() {
                break;
            }
            segs.push((start, len));
            start += len;
        }
        let expect: Vec<G1Projective> = segs
            .iter()
            .map(|&(s, l)| reference_sum(&points[s..s + l]))
            .collect();
        let mut buf = points;
        zkperf_ff::lanes::with_scalar_body(|| BatchAdder::new().reduce_segments(&mut buf, &mut segs));
        for (i, (&(start, len), want)) in segs.iter().zip(&expect).enumerate() {
            let got = if len == 0 {
                G1Projective::identity()
            } else {
                buf[start].to_projective()
            };
            assert_eq!(got, *want, "segment {i}");
        }
    }

    #[test]
    fn handles_identity_duplicates_and_inverses() {
        let mut rng = zkperf_ff::test_rng();
        let p = G1Projective::random(&mut rng).to_affine();
        let q = G1Projective::random(&mut rng).to_affine();
        let mut buf = vec![
            p,
            p, // forces the tangent-doubling path
            G1Affine::identity(),
            q,
            q.neg(), // cancellation to identity
            G1Affine::identity(),
        ];
        let mut segs = vec![(0usize, buf.len())];
        let expect = reference_sum(&buf);
        let mut adder = BatchAdder::new();
        adder.reduce_segments(&mut buf, &mut segs);
        assert_eq!(segs[0].1, 1);
        assert_eq!(buf[segs[0].0].to_projective(), expect);
    }

    #[test]
    fn all_identity_segment_sums_to_identity() {
        let mut buf = vec![G1Affine::identity(); 5];
        let mut segs = vec![(0usize, 5usize)];
        let mut adder = BatchAdder::<crate::bn254::G1Params>::new();
        adder.reduce_segments(&mut buf, &mut segs);
        assert_eq!(segs[0].1, 1);
        assert!(buf[0].infinity);
    }
}
