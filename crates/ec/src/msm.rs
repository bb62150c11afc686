//! Multi-scalar multiplication (Pippenger's bucket method).
//!
//! MSM dominates both the `setup` and `proving` stages of Groth16; its
//! bucket accumulation produces the scattered memory traffic that the
//! paper's memory analysis attributes to the proving stage.
//!
//! The fast path layers four classic optimizations on the textbook bucket
//! method:
//!
//! * **GLV decomposition.** On curves with the cube-root endomorphism
//!   ([`CurveParams::glv_params`]), every 254-bit scalar splits into two
//!   signed ~128-bit halves and Pippenger runs over `2n` half-width
//!   scalars — roughly half the window passes for one extra field
//!   multiplication per point (`φ(x, y) = (β·x, y)`).
//! * **Signed-digit windows.** Each `c`-bit window digit is recoded into
//!   `[−(2^(c−1)−1), 2^(c−1)]` with a carry into the next window; negative
//!   digits add the negated base point. This halves the bucket count (and
//!   the per-window bucket reduction) for the same window width.
//! * **Batch-affine bucket accumulation.** Points are counting-sorted into
//!   per-bucket segments and summed with [`crate::batch_add::BatchAdder`]:
//!   shared-inversion affine additions at ~6 field multiplications each
//!   instead of ~11 for a Jacobian mixed addition.
//! * **Cache-aware window choice.** The width comes from the shared
//!   Pippenger cost model ([`crate::tuning`]) parameterized by the host's
//!   measured L2/LLC geometry, so the live bucket array stays in cache;
//!   `ZKPERF_MSM_WINDOW` pins it for reproducing fixed configurations.
//!
//! Scalars are written once into one flat limb buffer
//! ([`PrimeField::write_canonical_limbs`] or the GLV half-magnitudes), and
//! windows past the scalar bit length are never visited.
//!
//! There is one driver, [`msm_stream`]: it fixes the window geometry from
//! the total size, folds the per-chunk window sums of whatever chunks the
//! caller lends it, and combines the windows once. [`msm`] over a resident
//! slice is its one-chunk call.
//!
//! [`msm_naive`] keeps the unoptimized reference semantics; the
//! property-test suite cross-checks the two on both curves.

use zkperf_ff::PrimeField;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::batch_add::BatchAdder;
use crate::curve::{Affine, CurveParams, Projective};
use crate::glv::{GlvParams, HALF_LIMBS};
use crate::tuning;

/// Smallest MSM worth fanning out across the pool; below this the
/// per-window task overhead exceeds the bucket work.
const PAR_MIN_MSM: usize = 1 << 10;

/// Chooses the Pippenger window width (in bits) for `n` terms of
/// `scalar_bits`-bit (possibly GLV-halved) scalars, via the shared
/// cache-aware cost model.
pub(crate) fn window_bits<C: CurveParams>(n: usize, scalar_bits: usize) -> usize {
    tuning::window_bits(n, scalar_bits, std::mem::size_of::<Affine<C>>())
}

/// Reference implementation: independent double-and-add per term.
///
/// Semantically identical to [`msm`] (same slice-length and identity/zero
/// conventions) but with none of the windowed machinery; exists so the
/// optimized kernel has something honest to be checked against.
pub fn msm_naive<C: CurveParams>(bases: &[Affine<C>], scalars: &[C::Scalar]) -> Projective<C> {
    let n = bases.len().min(scalars.len());
    let mut acc = Projective::identity();
    for i in 0..n {
        acc += bases[i].to_projective() * scalars[i];
    }
    acc
}

/// Computes `Σ scalarsᵢ · basesᵢ`.
///
/// Scalars and bases beyond the shorter of the two slices are ignored.
/// Identity bases and zero scalars are handled (skipped) correctly.
/// Bases are assumed to lie in the prime-order subgroup — the standing
/// invariant of points whose scalar type is the subgroup order (and a
/// correctness requirement of the GLV route on cofactor > 1 curves).
///
/// # Examples
///
/// ```
/// use zkperf_ec::bn254::{G1Affine, G1Projective};
/// use zkperf_ec::msm;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// let g = G1Affine::generator();
/// let bases = vec![g; 3];
/// let scalars = vec![Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
/// let expect = G1Projective::generator() * Fr::from_u64(6);
/// assert_eq!(msm(&bases, &scalars), expect);
/// ```
pub fn msm<C: CurveParams>(bases: &[Affine<C>], scalars: &[C::Scalar]) -> Projective<C> {
    let n = bases.len().min(scalars.len());
    if n < 8 {
        // Naive double-and-add is faster at tiny sizes (and yields the
        // identity for n = 0).
        let _g = trace::region_profile("msm");
        return msm_naive(&bases[..n], &scalars[..n]);
    }
    // A resident slice is the one-chunk stream. Folding its window sums
    // into the all-identity accumulator returns them unchanged, so this is
    // the plain Pippenger result down to the projective representative.
    let one_chunk = std::iter::once(Ok::<_, std::convert::Infallible>(&bases[..n]));
    match msm_stream(n, one_chunk, scalars) {
        Ok(sum) => sum,
        Err(never) => match never {},
    }
}

/// Computes `Σ scalarsᵢ · basesᵢ` with the base points arriving as a
/// sequence of chunks — one for a resident slice ([`msm`]), many for a key
/// streamed off disk or held to a memory budget. `total` is the number of
/// points the iterator will yield in aggregate (the window width is chosen
/// once from the *total* problem size, not per chunk).
///
/// Each chunk runs the signed-digit/GLV Pippenger kernel (through
/// `zkperf-pool` when the chunk clears the parallel gate) producing
/// per-window partial sums, which are folded into a running per-window
/// accumulator; one final window combine finishes the job. Scalars are
/// consumed positionally: chunk `k` pairs with the next `chunk.len()`
/// scalars.
///
/// Determinism contract: for a fixed chunk sequence the result is
/// bit-identical (including the projective representative) at any thread
/// count, because the per-chunk kernels are and the fold order is the
/// chunk order. Across *different* chunkings the result is the same group
/// element and therefore identical after affine normalization
/// (`to_affine`), which is the form every serialized artifact uses; only
/// the internal projective representative may differ, since bucket sums
/// associate differently.
///
/// The first chunk error aborts the fold and is returned as-is. Points
/// yielded beyond `total` (or beyond the scalar count) are ignored.
pub fn msm_stream<C, T, E, I>(
    total: usize,
    chunks: I,
    scalars: &[C::Scalar],
) -> Result<Projective<C>, E>
where
    C: CurveParams,
    T: AsRef<[Affine<C>]>,
    I: IntoIterator<Item = Result<T, E>>,
{
    let _g = trace::region_profile("msm");
    let n = total.min(scalars.len());
    if n == 0 {
        return Ok(Projective::identity());
    }
    // Instrumented runs skip the GLV route: the characterization suite
    // pins the plain op stream, and the one-time parameter derivation must
    // never land inside a traced region, where its field ops would skew
    // exactly one measurement.
    let glv = if trace::is_active() { None } else { C::glv_params() };
    // Window geometry fixed once from the total problem size.
    let (total_bits, c) = match glv {
        Some(g) => {
            let bits = g.half_bits();
            (bits, window_bits::<C>(2 * n, bits))
        }
        None => {
            let bits = C::Scalar::modulus_bits() as usize;
            (bits, window_bits::<C>(n, bits))
        }
    };
    let num_windows = (total_bits + 1).div_ceil(c);
    let mut acc = vec![Projective::identity(); num_windows];

    let mut offset = 0usize;
    for chunk in chunks {
        let chunk = chunk?;
        if offset >= n {
            break;
        }
        let pts = chunk.as_ref();
        let take = pts.len().min(n - offset);
        if take == 0 {
            continue;
        }
        let pts = &pts[..take];
        let scs = &scalars[offset..offset + take];
        let sums = match glv {
            Some(g) => glv_window_sums(pts, scs, g, total_bits, c),
            None => plain_window_sums(pts, scs, total_bits, c),
        };
        for (a, s) in acc.iter_mut().zip(sums) {
            *a += s;
        }
        offset += take;
    }
    Ok(combine_windows(acc, c))
}

/// Per-chunk window sums for the non-GLV route: canonical-limb recoding of
/// `scalars` followed by the Pippenger bucket body at the caller-fixed
/// window width `c`.
fn plain_window_sums<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[C::Scalar],
    total_bits: usize,
    c: usize,
) -> Vec<Projective<C>> {
    let n = bases.len();
    // Instrumented runs stay on the serial body so the characterization
    // suite sees the same op stream; the parallel variant computes
    // identical values (same decomposition, same reduction order).
    let use_pool = !trace::is_active() && pool::current_threads() > 1 && n >= PAR_MIN_MSM;
    let num_limbs = C::Scalar::NUM_LIMBS;
    let mut limbs = vec![0u64; n * num_limbs];
    if use_pool {
        const LIMB_GRAIN: usize = 1024;
        pool::parallel_chunks_mut(&mut limbs, num_limbs * LIMB_GRAIN, |ci, chunk| {
            let base = ci * LIMB_GRAIN;
            for (j, row) in chunk.chunks_mut(num_limbs).enumerate() {
                scalars[base + j].write_canonical_limbs(row);
            }
        });
    } else {
        for (i, s) in scalars[..n].iter().enumerate() {
            s.write_canonical_limbs(&mut limbs[i * num_limbs..(i + 1) * num_limbs]);
        }
    }
    if use_pool {
        pippenger_parallel(bases, &limbs, num_limbs, total_bits, c)
    } else {
        pippenger_serial(bases, &limbs, num_limbs, total_bits, c)
    }
}

/// Per-chunk window sums for the GLV route: decomposes the chunk's scalars
/// into signed half-width components, builds the `[±P_i | ±φ(P_i)]`
/// 2n-point problem — signs folded into the points (`−k·P = k·(−P)`), so
/// the bucket machinery never sees them — and runs the Pippenger bucket
/// body at the caller-fixed window width `c`.
fn glv_window_sums<C: CurveParams>(
    bases: &[Affine<C>],
    scalars: &[C::Scalar],
    glv: &GlvParams<C>,
    total_bits: usize,
    c: usize,
) -> Vec<Projective<C>> {
    let n = bases.len();
    let use_pool = !trace::is_active() && pool::current_threads() > 1 && n >= PAR_MIN_MSM;
    const GLV_GRAIN: usize = 512;

    // Decompose every scalar once; the splits are pure per-index functions
    // of the inputs, so the parallel fill is bit-identical to a serial one.
    let mut decomposed = vec![crate::glv::DecomposedScalar::default(); n];
    if use_pool {
        pool::parallel_fill(&mut decomposed, GLV_GRAIN, |i| glv.decompose(&scalars[i]));
    } else {
        for (d, s) in decomposed.iter_mut().zip(scalars) {
            *d = glv.decompose(s);
        }
    }

    // 2n-point problem: [±P_i | ±φ(P_i)] with the component signs folded
    // into the points, and one flat half-magnitude row per point.
    let mut points = vec![Affine::identity(); 2 * n];
    let mut limbs = vec![0u64; 2 * n * HALF_LIMBS];
    {
        let (p1, p2) = points.split_at_mut(n);
        let (l1, l2) = limbs.split_at_mut(n * HALF_LIMBS);
        let fill_half = |ps: &mut [Affine<C>], ls: &mut [u64], second: bool| {
            let point_at = |i: usize| {
                let d = &decomposed[i];
                if second {
                    let endo = glv.endo(&bases[i]);
                    if d.k2.neg {
                        endo.neg()
                    } else {
                        endo
                    }
                } else if d.k1.neg {
                    bases[i].neg()
                } else {
                    bases[i]
                }
            };
            let limbs_at = |i: usize| {
                let d = &decomposed[i];
                if second {
                    d.k2.limbs
                } else {
                    d.k1.limbs
                }
            };
            if use_pool {
                pool::parallel_fill(ps, GLV_GRAIN, point_at);
                pool::parallel_chunks_mut(ls, HALF_LIMBS * GLV_GRAIN, |ci, chunk| {
                    let base = ci * GLV_GRAIN;
                    for (j, row) in chunk.chunks_mut(HALF_LIMBS).enumerate() {
                        row.copy_from_slice(&limbs_at(base + j));
                    }
                });
            } else {
                for (i, p) in ps.iter_mut().enumerate() {
                    *p = point_at(i);
                }
                for (i, row) in ls.chunks_mut(HALF_LIMBS).enumerate() {
                    row.copy_from_slice(&limbs_at(i));
                }
            }
        };
        fill_half(p1, l1, false);
        fill_half(p2, l2, true);
    }

    if use_pool {
        pippenger_parallel(&points, &limbs, HALF_LIMBS, total_bits, c)
    } else {
        pippenger_serial(&points, &limbs, HALF_LIMBS, total_bits, c)
    }
}

/// The serial Pippenger body over a prepared point array and flat unsigned
/// limb buffer (`stride` limbs per point, digits meaningful up to
/// `total_bits`). Returns the per-window bucket sums, which [`msm_stream`]
/// folds into its accumulator.
fn pippenger_serial<C: CurveParams>(
    points: &[Affine<C>],
    limbs: &[u64],
    stride: usize,
    total_bits: usize,
    c: usize,
) -> Vec<Projective<C>> {
    let n = points.len();
    // Magnitudes stay below 2^total_bits; the +1 leaves room for the final
    // signed carry.
    let num_windows = (total_bits + 1).div_ceil(c);
    let half = 1usize << (c - 1); // signed digits: buckets 1..=2^(c-1)

    let mut carries = vec![0u8; n];
    let mut digits = vec![0i32; n];
    let mut counts = vec![0u32; half];
    let mut segs: Vec<(usize, usize)> = Vec::with_capacity(half);
    let mut sorted: Vec<Affine<C>> = vec![Affine::identity(); n];
    let mut adder = BatchAdder::new();

    let mut window_sums = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        // Signed-digit extraction with carry propagation from the previous
        // window: raw ∈ [0, 2^c]; anything above 2^(c-1) wraps negative.
        counts.fill(0);
        for i in 0..n {
            let window = &limbs[i * stride..(i + 1) * stride];
            let raw = extract_bits(window, w * c, c) + carries[i] as usize;
            let digit = if raw > half {
                carries[i] = 1;
                raw as i64 - (1i64 << c)
            } else {
                carries[i] = 0;
                raw as i64
            };
            let digit = if points[i].infinity { 0 } else { digit as i32 };
            digits[i] = digit;
            trace::branch(0x3001, digit != 0);
            if digit != 0 {
                counts[digit.unsigned_abs() as usize - 1] += 1;
            }
        }

        // Counting sort into per-bucket segments of the flat scratch buffer.
        segs.clear();
        let mut start = 0usize;
        for &count in counts.iter() {
            segs.push((start, 0));
            start += count as usize;
        }
        for i in 0..n {
            let d = digits[i];
            if d == 0 {
                continue;
            }
            let (seg_start, seg_len) = &mut segs[d.unsigned_abs() as usize - 1];
            // Scattered write into the bucket segment: the address stream
            // the memory analysis cares about.
            sorted[*seg_start + *seg_len] = if d < 0 { points[i].neg() } else { points[i] };
            *seg_len += 1;
        }

        // Each bucket collapses to its sum via shared-inversion affine adds.
        adder.reduce_segments(&mut sorted, &mut segs);

        // Running-sum reduction: Σ j·bucket[j] with 2·#buckets additions.
        let mut running = Projective::identity();
        let mut sum = Projective::identity();
        for &(seg_start, seg_len) in segs.iter().rev() {
            if seg_len > 0 {
                running = running.add_mixed(&sorted[seg_start]);
            }
            sum += running;
        }
        window_sums.push(sum);
    }

    window_sums
}

/// Window-parallel Pippenger: the same bucket method as
/// [`pippenger_serial`], decomposed into one independent task per window.
///
/// Three phases:
///
/// 1. signed-digit recoding, chunked over *points* (each row's carry chain
///    is local, so rows recode independently);
/// 2. bucket accumulation, one task per *window*, each writing its
///    index-addressed `window_sums` slot with private scratch buffers
///    (the caller finishes with the serial top-down window combine).
///
/// The decomposition depends only on `n`, and every task writes only
/// index-addressed slots, so the result is bit-identical to the serial
/// body at any thread count.
fn pippenger_parallel<C: CurveParams>(
    points: &[Affine<C>],
    limbs: &[u64],
    stride: usize,
    total_bits: usize,
    c: usize,
) -> Vec<Projective<C>> {
    let n = points.len();
    let num_windows = (total_bits + 1).div_ceil(c);
    let half = 1usize << (c - 1);

    // Phase 1: digits laid out row-major (`digits[i·W + w]`) so each
    // point's recoding — including its cross-window carry chain — lands in
    // one contiguous row and rows chunk cleanly.
    const DIGIT_GRAIN: usize = 512;
    let mut digits = vec![0i32; n * num_windows];
    pool::parallel_chunks_mut(&mut digits, num_windows * DIGIT_GRAIN, |ci, rows| {
        let base = ci * DIGIT_GRAIN;
        for (j, row) in rows.chunks_mut(num_windows).enumerate() {
            let i = base + j;
            if points[i].infinity {
                continue; // row stays zero, matching the serial force-to-0
            }
            let window = &limbs[i * stride..(i + 1) * stride];
            let mut carry = 0usize;
            for (w, d) in row.iter_mut().enumerate() {
                let raw = extract_bits(window, w * c, c) + carry;
                *d = if raw > half {
                    carry = 1;
                    (raw as i64 - (1i64 << c)) as i32
                } else {
                    carry = 0;
                    raw as i32
                };
            }
        }
    });

    // Phase 2: per-window bucket accumulation, mirroring the serial body's
    // counting sort and running-sum reduction exactly (same scan order ⇒
    // same segment contents ⇒ same field operations).
    let mut window_sums = vec![Projective::identity(); num_windows];
    pool::parallel_fill(&mut window_sums, 1, |w| {
        let mut counts = vec![0u32; half];
        for i in 0..n {
            let d = digits[i * num_windows + w];
            if d != 0 {
                counts[d.unsigned_abs() as usize - 1] += 1;
            }
        }
        let mut segs: Vec<(usize, usize)> = Vec::with_capacity(half);
        let mut start = 0usize;
        for &count in counts.iter() {
            segs.push((start, 0));
            start += count as usize;
        }
        let mut sorted: Vec<Affine<C>> = vec![Affine::identity(); start];
        for i in 0..n {
            let d = digits[i * num_windows + w];
            if d == 0 {
                continue;
            }
            let (seg_start, seg_len) = &mut segs[d.unsigned_abs() as usize - 1];
            sorted[*seg_start + *seg_len] = if d < 0 { points[i].neg() } else { points[i] };
            *seg_len += 1;
        }
        let mut adder = BatchAdder::new();
        adder.reduce_segments(&mut sorted, &mut segs);
        let mut running = Projective::identity();
        let mut sum = Projective::identity();
        for &(seg_start, seg_len) in segs.iter().rev() {
            if seg_len > 0 {
                running = running.add_mixed(&sorted[seg_start]);
            }
            sum += running;
        }
        sum
    });

    window_sums
}

/// Combines per-window sums from the top down: `acc = acc·2^c + window`.
fn combine_windows<C: CurveParams>(window_sums: Vec<Projective<C>>, c: usize) -> Projective<C> {
    let mut acc = Projective::identity();
    for sum in window_sums.into_iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += sum;
    }
    acc
}

/// Extracts `count` bits starting at bit `lo` from little-endian limbs.
fn extract_bits(limbs: &[u64], lo: usize, count: usize) -> usize {
    debug_assert!(count < 64);
    let limb = lo / 64;
    let off = lo % 64;
    if limb >= limbs.len() {
        return 0;
    }
    let mut v = limbs[limb] >> off;
    if off + count > 64 && limb + 1 < limbs.len() {
        v |= limbs[limb + 1] << (64 - off);
    }
    (v as usize) & ((1 << count) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Affine, G1Projective};
    use crate::FixedBaseTable;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn extract_bits_crosses_limb_boundaries() {
        let limbs = [0xffff_ffff_ffff_ffff, 0x1];
        assert_eq!(extract_bits(&limbs, 0, 4), 0xf);
        assert_eq!(extract_bits(&limbs, 60, 8), 0b0001_1111);
        assert_eq!(extract_bits(&limbs, 64, 4), 1);
        assert_eq!(extract_bits(&limbs, 128, 4), 0);
    }

    #[test]
    fn msm_empty_and_tiny() {
        assert!(msm::<crate::bn254::G1Params>(&[], &[]).is_identity());
        let g = G1Affine::generator();
        let s = [Fr::from_u64(5)];
        assert_eq!(msm(&[g], &s), G1Projective::generator() * Fr::from_u64(5));
    }

    #[test]
    fn msm_matches_naive_at_crossover_sizes() {
        let mut rng = zkperf_ff::test_rng();
        for n in [7usize, 8, 33, 100, 300] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars), "n = {n}");
        }
    }

    #[test]
    fn msm_handles_zero_scalars_and_identity_bases() {
        let mut rng = zkperf_ff::test_rng();
        let mut bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..20).map(|_| Fr::random(&mut rng)).collect();
        scalars[3] = Fr::zero();
        scalars[11] = Fr::zero();
        bases[5] = G1Affine::identity();
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    #[test]
    fn parallel_msm_is_bit_identical_to_serial() {
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let mut rng = zkperf_ff::test_rng();
        let n = PAR_MIN_MSM + 37; // past the parallel gate, odd tail
        let table = FixedBaseTable::new(&G1Projective::generator());
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[5] = Fr::zero();
        scalars[n - 1] = -Fr::one();
        let mut bases = table.mul_batch(&scalars);
        bases[9] = G1Affine::identity();

        pool::set_threads(1);
        let serial = msm(&bases, &scalars);
        pool::set_threads(4);
        let par4 = msm(&bases, &scalars);
        pool::set_threads(2);
        let par2 = msm(&bases, &scalars);
        pool::set_threads(1);
        // Affine equality is exact limb equality — bit-identity, not just
        // projective-class equality.
        assert_eq!(serial.to_affine(), par4.to_affine());
        assert_eq!(serial.to_affine(), par2.to_affine());
    }

    #[test]
    fn msm_all_zero_scalars_is_identity() {
        let mut rng = zkperf_ff::test_rng();
        for n in [1usize, 7, 8, 64] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| G1Projective::random(&mut rng).to_affine())
                .collect();
            let scalars = vec![Fr::zero(); n];
            assert!(msm(&bases, &scalars).is_identity(), "n = {n}");
            assert!(msm_naive(&bases, &scalars).is_identity(), "n = {n}");
        }
    }

    #[test]
    fn msm_mismatched_lengths_truncate_to_shorter_side() {
        // Documented contract: both kernels operate on the common prefix.
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..12).map(|_| Fr::random(&mut rng)).collect();
        let expect = msm(&bases[..12], &scalars);
        assert_eq!(msm(&bases, &scalars), expect);
        assert_eq!(msm_naive(&bases, &scalars), expect);
        let expect = msm(&bases, &scalars[..5]);
        assert_eq!(expect, msm(&bases[..5], &scalars[..5]));
        // Degenerate: one side empty.
        assert!(msm(&bases, &[]).is_identity());
        assert!(msm::<crate::bn254::G1Params>(&[], &scalars).is_identity());
    }

    #[test]
    fn msm_straddles_small_size_breakpoints() {
        // The naive path ends at n = 8 and the window model shifts width
        // with n; check sizes bracketing the old heuristic's breakpoints.
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..257)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..257).map(|_| Fr::random(&mut rng)).collect();
        for n in [1usize, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257] {
            assert_eq!(
                msm(&bases[..n], &scalars[..n]),
                msm_naive(&bases[..n], &scalars[..n]),
                "n = {n}"
            );
        }
    }

    #[test]
    fn msm_handles_extreme_and_duplicate_scalars() {
        // -1 (all top windows saturated) exercises the signed-digit carry
        // chain through the final window; duplicate bases exercise the
        // tangent-doubling path of the batch adder.
        let mut rng = zkperf_ff::test_rng();
        let p = G1Projective::random(&mut rng).to_affine();
        let bases = vec![p; 16];
        let mut scalars = vec![-Fr::one(); 16];
        scalars[7] = Fr::one();
        scalars[8] = Fr::from_u64(u64::MAX);
        assert_eq!(msm(&bases, &scalars), msm_naive(&bases, &scalars));
    }

    /// msm_stream over a resident slice split at `chunk`, compared in
    /// affine form (the bit-identity level the streaming contract claims).
    fn stream_of(bases: &[G1Affine], scalars: &[Fr], chunk: usize) -> G1Affine {
        msm_stream(
            bases.len(),
            bases.chunks(chunk).map(Ok::<_, std::convert::Infallible>),
            scalars,
        )
        .unwrap()
        .to_affine()
    }

    #[test]
    fn msm_stream_matches_in_memory_at_any_chunking() {
        let mut rng = zkperf_ff::test_rng();
        let n = 333;
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[1] = -Fr::one();
        // `msm` is the one-chunk case of the same fold, so the expected
        // value comes from the independent reference.
        let expect = msm_naive(&bases, &scalars).to_affine();
        assert_eq!(msm(&bases, &scalars).to_affine(), expect);
        for chunk in [1usize, 7, 64, 100, n - 1, n, n + 50, usize::MAX] {
            assert_eq!(stream_of(&bases, &scalars, chunk), expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn msm_stream_empty_and_error_paths() {
        let empty: Vec<G1Affine> = Vec::new();
        let ok: Result<Projective<crate::bn254::G1Params>, ()> =
            msm_stream(0, std::iter::empty::<Result<Vec<G1Affine>, ()>>(), &[]);
        assert!(ok.unwrap().is_identity());
        // Zero scalars: the iterator must not be required to succeed.
        let ok: Result<Projective<crate::bn254::G1Params>, ()> =
            msm_stream(4, std::iter::once(Err::<Vec<G1Affine>, ()>(())), &[]);
        assert!(ok.unwrap().is_identity());
        let _ = empty;
        // A failing chunk aborts the fold with the error.
        let g = G1Affine::generator();
        let s = vec![Fr::one(); 4];
        let chunks: Vec<Result<Vec<G1Affine>, &str>> =
            vec![Ok(vec![g, g]), Err("checksum"), Ok(vec![g, g])];
        assert_eq!(msm_stream(4, chunks, &s).unwrap_err(), "checksum");
    }

    #[test]
    fn msm_stream_truncates_like_msm() {
        let mut rng = zkperf_ff::test_rng();
        let bases: Vec<G1Affine> = (0..20)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..12).map(|_| Fr::random(&mut rng)).collect();
        // total > scalars: the scalar count wins, extra points ignored.
        let expect = msm_naive(&bases, &scalars).to_affine();
        assert_eq!(stream_of(&bases, &scalars, 5), expect);
        // total < yielded points: total wins.
        let expect = msm_naive(&bases[..10], &scalars).to_affine();
        let got = msm_stream(
            10,
            bases.chunks(3).map(Ok::<_, std::convert::Infallible>),
            &scalars,
        )
        .unwrap()
        .to_affine();
        assert_eq!(got, expect);
    }

    #[test]
    fn msm_stream_is_thread_invariant_at_fixed_chunking() {
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let mut rng = zkperf_ff::test_rng();
        let n = PAR_MIN_MSM + 11; // chunks straddle the parallel gate
        let table = FixedBaseTable::new(&G1Projective::generator());
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let bases = table.mul_batch(&scalars);
        let chunk = PAR_MIN_MSM / 2 + 3;

        pool::set_threads(1);
        let serial = stream_of(&bases, &scalars, chunk);
        pool::set_threads(4);
        let par = stream_of(&bases, &scalars, chunk);
        pool::set_threads(1);
        assert_eq!(serial, par);
        assert_eq!(serial, msm_naive(&bases, &scalars).to_affine());
    }

    #[test]
    fn glv_msm_matches_plain_pippenger() {
        // Run the same inputs through the GLV front end and the plain
        // full-width body; both must agree with the naive reference.
        let mut rng = zkperf_ff::test_rng();
        let n = 64;
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[1] = -Fr::one();
        let glv = crate::bn254::G1Params::glv_params().expect("BN254 G1 has GLV");
        let half_bits = glv.half_bits();
        let c = window_bits::<crate::bn254::G1Params>(2 * n, half_bits);
        let via_glv = combine_windows(glv_window_sums(&bases, &scalars, glv, half_bits, c), c);
        let full_bits = Fr::modulus_bits() as usize;
        let c = window_bits::<crate::bn254::G1Params>(n, full_bits);
        let plain = combine_windows(plain_window_sums(&bases, &scalars, full_bits, c), c);
        let naive = msm_naive(&bases, &scalars);
        assert_eq!(via_glv, naive);
        assert_eq!(plain, naive);
    }
}
