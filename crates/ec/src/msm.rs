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
//!   measured L2/LLC geometry, so the live bucket array stays in cache.
//!
//! Scalars are written once into one flat limb buffer
//! ([`PrimeField::write_canonical_limbs`] or the GLV half-magnitudes), and
//! windows past the scalar bit length are never visited.
//!
//! There is one driver, [`msm_stream`]: it fixes the window geometry from
//! the total size, folds the per-chunk window sums of whatever chunks the
//! caller lends it, and combines the windows once. [`msm`] over a resident
//! slice is its one-chunk call. Under it there is one bucket body, written
//! against the `zkperf-pool` primitives: whether it runs on workers or
//! inline on the caller is the pool's decision (its size, the job's chunk
//! count, an open `pool::SerialScope`), never this module's, and nothing
//! here asks whether a trace session is recording.
//!
//! [`msm_naive`] keeps the unoptimized reference semantics; the
//! property-test suite cross-checks the two on both curves.

use std::sync::{Mutex, PoisonError};

use zkperf_ff::PrimeField;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::batch_add::BatchAdder;
use crate::curve::{Affine, CurveParams, Projective};
use crate::glv::{GlvParams, HALF_LIMBS};
use crate::tuning;

/// Fewest points worth one pool task per window. Below this the
/// per-window task overhead exceeds the bucket work, so all windows fill
/// in a single chunk, which the pool runs inline.
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
/// Each chunk runs the signed-digit/GLV Pippenger kernel producing
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
    let glv = C::glv_params();
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
    const LIMB_GRAIN: usize = 1024;
    let num_limbs = C::Scalar::NUM_LIMBS;
    let mut limbs = vec![0u64; bases.len() * num_limbs];
    pool::parallel_chunks_mut(&mut limbs, num_limbs * LIMB_GRAIN, |ci, chunk| {
        let base = ci * LIMB_GRAIN;
        for (j, row) in chunk.chunks_mut(num_limbs).enumerate() {
            scalars[base + j].write_canonical_limbs(row);
        }
    });
    pippenger(bases, &limbs, num_limbs, total_bits, c)
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
    const GLV_GRAIN: usize = 512;

    // 2n-point problem: [±P_i | ±φ(P_i)] with the component signs folded
    // into the points, and one flat half-magnitude row per point. Every
    // slot is a pure function of its index, so chunks fill independently.
    let mut points = vec![Affine::identity(); 2 * n];
    let mut limbs = vec![0u64; 2 * n * HALF_LIMBS];
    let (p1, p2) = points.split_at_mut(n);
    let (l1, l2) = limbs.split_at_mut(n * HALF_LIMBS);
    let mut views: Vec<_> = p1
        .chunks_mut(GLV_GRAIN)
        .zip(p2.chunks_mut(GLV_GRAIN))
        .zip(l1.chunks_mut(GLV_GRAIN * HALF_LIMBS))
        .zip(l2.chunks_mut(GLV_GRAIN * HALF_LIMBS))
        .collect();
    pool::parallel_for_each_mut(&mut views, |ci, (((p1, p2), l1), l2)| {
        let rows = l1.chunks_mut(HALF_LIMBS).zip(l2.chunks_mut(HALF_LIMBS));
        for (j, (row1, row2)) in rows.enumerate() {
            let i = ci * GLV_GRAIN + j;
            let d = glv.decompose(&scalars[i]);
            let endo = glv.endo(&bases[i]);
            p1[j] = if d.k1.neg { bases[i].neg() } else { bases[i] };
            p2[j] = if d.k2.neg { endo.neg() } else { endo };
            row1.copy_from_slice(&d.k1.limbs);
            row2.copy_from_slice(&d.k2.limbs);
        }
    });

    pippenger(&points, &limbs, HALF_LIMBS, total_bits, c)
}

/// The Pippenger body over a prepared point array and flat unsigned limb
/// buffer (`stride` limbs per point, digits meaningful up to `total_bits`).
/// Returns the per-window bucket sums, which [`msm_stream`] folds into its
/// accumulator.
///
/// Two phases, both written against the pool:
///
/// 1. signed-digit recoding, chunked over *points* (each row's carry chain
///    is local, so rows recode independently);
/// 2. bucket accumulation, one task per *window* from [`PAR_MIN_MSM`]
///    points up, each writing its index-addressed `window_sums` slot (the
///    caller finishes with the top-down window combine).
///
/// The decomposition depends only on `n`, every task writes only
/// index-addressed slots, and each window's counting sort and running-sum
/// reduction scan the points in index order, so the sums are bit-identical
/// at any thread count.
fn pippenger<C: CurveParams>(
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

    // Phase 1: digits laid out row-major (`digits[i·W + w]`) so each
    // point's recoding — including its cross-window carry chain — lands in
    // one contiguous row and rows chunk cleanly. raw ∈ [0, 2^c]; anything
    // above 2^(c-1) wraps negative and carries into the next window.
    const DIGIT_GRAIN: usize = 512;
    let mut digits = vec![0i32; n * num_windows];
    pool::parallel_chunks_mut(&mut digits, num_windows * DIGIT_GRAIN, |ci, rows| {
        let base = ci * DIGIT_GRAIN;
        for (j, row) in rows.chunks_mut(num_windows).enumerate() {
            let i = base + j;
            if points[i].infinity {
                continue; // the identity contributes to no bucket
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

    // Phase 2: per-window bucket accumulation. The scratch buffers are
    // reused across the windows of one task and handed on to the next, so
    // a run allocates one set per thread that ever holds a task — on one
    // thread, one set — and not one per window (32 MB of `sorted` each at
    // 2^18 points).
    let spare = Mutex::new(Vec::new());
    let take_spare = || spare.lock().unwrap_or_else(PoisonError::into_inner);
    let window_grain = if n < PAR_MIN_MSM { num_windows } else { 1 };
    let mut window_sums = vec![Projective::identity(); num_windows];
    pool::parallel_chunks_mut(&mut window_sums, window_grain, |ci, sums| {
        let (mut counts, mut segs, mut sorted, mut adder) =
            take_spare().pop().unwrap_or_else(|| {
                let sorted = vec![Affine::identity(); n];
                (vec![0u32; half], Vec::with_capacity(half), sorted, BatchAdder::new())
            });
        for (j, sum) in sums.iter_mut().enumerate() {
            let w = ci * window_grain + j;
            counts.fill(0);
            for i in 0..n {
                let d = digits[i * num_windows + w];
                trace::branch(0x3001, d != 0);
                if d != 0 {
                    counts[d.unsigned_abs() as usize - 1] += 1;
                }
            }

            // Counting sort into per-bucket segments of the flat scratch
            // buffer.
            segs.clear();
            let mut start = 0usize;
            for &count in counts.iter() {
                segs.push((start, 0));
                start += count as usize;
            }
            for i in 0..n {
                let d = digits[i * num_windows + w];
                if d == 0 {
                    continue;
                }
                let (seg_start, seg_len) = &mut segs[d.unsigned_abs() as usize - 1];
                // Scattered write into the bucket segment: the address
                // stream the memory analysis cares about.
                sorted[*seg_start + *seg_len] = if d < 0 { points[i].neg() } else { points[i] };
                *seg_len += 1;
            }

            // Each bucket collapses to its sum via shared-inversion affine
            // adds.
            adder.reduce_segments(&mut sorted, &mut segs);

            // Running-sum reduction: Σ j·bucket[j] with 2·#buckets
            // additions.
            let mut running = Projective::identity();
            for &(seg_start, seg_len) in segs.iter().rev() {
                if seg_len > 0 {
                    running = running.add_mixed(&sorted[seg_start]);
                }
                *sum += running;
            }
        }
        take_spare().push((counts, segs, sorted, adder));
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
pub(crate) fn extract_bits(limbs: &[u64], lo: usize, count: usize) -> usize {
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
        let n = PAR_MIN_MSM + 37; // one task per window, odd tail
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
        let n = PAR_MIN_MSM + 11; // chunks straddle the per-window grain
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
