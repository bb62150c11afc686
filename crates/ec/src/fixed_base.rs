//! Windowed fixed-base multi-exponentiation.
//!
//! The Groth16 `setup` stage multiplies one generator by tens of thousands
//! of scalars; a per-window lookup table turns each 256-bit multiplication
//! into a handful of additions. This is the same optimization snarkjs uses
//! and is why setup is table-building + streaming adds rather than
//! doublings.
//!
//! The batch path ([`FixedBaseTable::mul_batch`]) goes further: instead of
//! accumulating each scalar's window entries in Jacobian coordinates, it
//! gathers the table hits for a chunk of scalars into one flat buffer and
//! collapses every scalar's segment with [`crate::batch_add::BatchAdder`] —
//! shared-inversion affine additions, with results landing directly in
//! affine form (no trailing `batch_to_affine` pass). One window table,
//! built once per base, serves every batch; Groth16 setup reuses a single
//! table across all six of its tau-power query vectors.

use zkperf_ff::PrimeField;
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::batch_add::BatchAdder;
use crate::curve::{Affine, CurveParams, Projective};
use crate::msm::extract_bits;

/// Precomputed window tables for one base point.
///
/// Scalars are recoded into signed `c`-bit digits (as in [`crate::msm`]),
/// so each window row only stores the positive multiples `1·B .. 2^(c−1)·B`
/// — half the table of an unsigned window for the same width — and negative
/// digits negate the looked-up point on the fly.
///
/// # Examples
///
/// ```
/// use zkperf_ec::bn254::{G1Affine, G1Projective};
/// use zkperf_ec::FixedBaseTable;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// let table = FixedBaseTable::new(&G1Projective::generator());
/// let s = Fr::from_u64(123456789);
/// assert_eq!(table.mul(&s), G1Projective::generator() * s);
/// ```
#[derive(Debug, Clone)]
pub struct FixedBaseTable<C: CurveParams> {
    /// `table[k][j-1] = j · 2^(c·k) · base` in affine form, `j ∈ [1, 2^(c−1)]`.
    windows: Vec<Vec<Affine<C>>>,
    window_bits: usize,
}

/// Scalars per [`FixedBaseTable::mul_batch`] gather chunk; bounds the flat
/// gather buffer at `CHUNK · num_windows` points while keeping each batch
/// inversion large enough to amortize.
const BATCH_CHUNK: usize = 2048;

impl<C: CurveParams> FixedBaseTable<C> {
    /// Default window width (bits); 8 balances table size (~8K points for a
    /// 256-bit scalar) against additions per multiplication.
    pub const DEFAULT_WINDOW_BITS: usize = 8;

    /// Builds the table for `base` with the default window width.
    pub fn new(base: &Projective<C>) -> Self {
        Self::with_window_bits(base, Self::DEFAULT_WINDOW_BITS)
    }

    /// Builds a table sized for multiplying `base` by roughly
    /// `expected_scalars` scalars: wider windows (bigger tables, fewer
    /// additions per scalar) as the batch grows, so table construction
    /// stays amortized.
    pub fn for_batch(base: &Projective<C>, expected_scalars: usize) -> Self {
        Self::with_window_bits(base, Self::optimal_window_bits(expected_scalars))
    }

    /// Window width for a batch of `n` scalars, from the same cache-aware
    /// Pippenger cost model the bucket MSM uses ([`crate::tuning`]): the
    /// table rows play the role of the bucket array, so the width that
    /// keeps MSM's live set cache-resident keeps the lookup stream
    /// resident here too, and the two kernels can no longer drift apart.
    pub fn optimal_window_bits(n: usize) -> usize {
        crate::tuning::window_bits(
            n,
            C::Scalar::modulus_bits() as usize,
            std::mem::size_of::<Affine<C>>(),
        )
        .clamp(1, 14)
    }

    /// Builds the table with an explicit window width in `1..=15`.
    ///
    /// Rows are grown as a doubling tree — entries `m+1·B .. 2m·B` come
    /// from adding the `m·B` anchor to entries `1·B .. m·B`, which are
    /// independent additions batched across every window row at once via
    /// [`BatchAdder`] — so construction runs at shared-inversion affine
    /// cost and lands directly in affine form.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is outside `1..=15`.
    pub fn with_window_bits(base: &Projective<C>, window_bits: usize) -> Self {
        assert!((1..=15).contains(&window_bits), "window bits out of range");
        let _g = trace::region_profile("fixed_base_table");
        // Scalars are canonical, so the table only needs to cover the
        // modulus bit length; +1 leaves room for the final signed carry.
        let scalar_bits = C::Scalar::modulus_bits() as usize;
        let num_windows = (scalar_bits + 1).div_ceil(window_bits);
        let half = 1usize << (window_bits - 1);
        // Window anchors 2^(c·k) · base, converted to affine in one batch.
        let mut window_base = *base;
        let mut anchors = Vec::with_capacity(num_windows);
        for _ in 0..num_windows {
            anchors.push(window_base);
            for _ in 0..window_bits {
                window_base = window_base.double();
            }
        }
        let anchors = Projective::batch_to_affine(&anchors);
        let mut windows: Vec<Vec<Affine<C>>> = anchors
            .iter()
            .map(|b| {
                trace::alloc(half * std::mem::size_of::<Affine<C>>());
                let mut row = Vec::with_capacity(half);
                row.push(*b);
                row
            })
            .collect();
        let mut adder = BatchAdder::new();
        let mut buf: Vec<Affine<C>> = Vec::new();
        let mut segs: Vec<(usize, usize)> = Vec::new();
        let mut m = 1usize;
        while m < half {
            let step = m.min(half - m);
            buf.clear();
            segs.clear();
            for row in &windows {
                let anchor = row[m - 1];
                for &small in row.iter().take(step) {
                    segs.push((buf.len(), 2));
                    buf.push(anchor);
                    buf.push(small);
                }
            }
            adder.reduce_segments(&mut buf, &mut segs);
            let mut cursor = 0usize;
            for row in &mut windows {
                for _ in 0..step {
                    row.push(buf[segs[cursor].0]);
                    cursor += 1;
                }
            }
            m += step;
        }
        FixedBaseTable {
            windows,
            window_bits,
        }
    }

    /// Computes `scalar · base` using one table lookup and mixed addition
    /// per nonzero signed window digit.
    pub fn mul(&self, scalar: &C::Scalar) -> Projective<C> {
        let mut limbs = [0u64; 8];
        debug_assert!(C::Scalar::NUM_LIMBS <= limbs.len());
        scalar.write_canonical_limbs(&mut limbs[..C::Scalar::NUM_LIMBS]);
        let limbs = &limbs[..C::Scalar::NUM_LIMBS];
        let half = 1i64 << (self.window_bits - 1);
        let mut acc = Projective::identity();
        let mut carry = 0usize;
        for (k, row) in self.windows.iter().enumerate() {
            let raw = extract_bits(limbs, k * self.window_bits, self.window_bits) + carry;
            let digit = if raw as i64 > half {
                carry = 1;
                raw as i64 - (1i64 << self.window_bits)
            } else {
                carry = 0;
                raw as i64
            };
            trace::branch(0x3101, digit != 0);
            if digit > 0 {
                acc = acc.add_mixed(&row[digit as usize - 1]);
            } else if digit < 0 {
                acc = acc.add_mixed(&row[(-digit) as usize - 1].neg());
            }
        }
        acc
    }

    /// Multiplies every scalar in `scalars`, returning affine results.
    ///
    /// Works in chunks of [`BATCH_CHUNK`] scalars ([`Self::mul_chunk`]),
    /// one pool task each. Chunks are fully independent (private gather
    /// buffers, disjoint `out` ranges) and each output slot holds what its
    /// chunk computed, so results are bit-identical at any thread count.
    pub fn mul_batch(&self, scalars: &[C::Scalar]) -> Vec<Affine<C>> {
        let _g = trace::region_profile("fixed_base_msm");
        let mut out = vec![Affine::identity(); scalars.len()];
        pool::parallel_chunks_mut(&mut out, BATCH_CHUNK, |chunk_idx, out_chunk| {
            self.mul_chunk(&scalars[chunk_idx * BATCH_CHUNK..][..out_chunk.len()], out_chunk);
        });
        out
    }

    /// One gather chunk of [`Self::mul_batch`]: each scalar's nonzero
    /// window entries are gathered into a contiguous segment of a flat
    /// buffer, then all segments are collapsed with one [`BatchAdder`]
    /// tree reduction (a handful of batch inversions, shared across every
    /// scalar in the chunk). `out` arrives filled with the identity.
    fn mul_chunk(&self, scalars: &[C::Scalar], out: &mut [Affine<C>]) {
        // Grown on demand: Groth16's sparse queries are mostly zero scalars,
        // which gather nothing.
        let mut gathered: Vec<Affine<C>> = Vec::new();
        let mut segs: Vec<(usize, usize)> = Vec::with_capacity(scalars.len());
        let mut limbs = vec![0u64; C::Scalar::NUM_LIMBS];
        let half = 1i64 << (self.window_bits - 1);
        for s in scalars {
            s.write_canonical_limbs(&mut limbs);
            let start = gathered.len();
            let mut carry = 0usize;
            for (k, row) in self.windows.iter().enumerate() {
                let raw = extract_bits(&limbs, k * self.window_bits, self.window_bits) + carry;
                let digit = if raw as i64 > half {
                    carry = 1;
                    raw as i64 - (1i64 << self.window_bits)
                } else {
                    carry = 0;
                    raw as i64
                };
                trace::branch(0x3101, digit != 0);
                if digit > 0 {
                    gathered.push(row[digit as usize - 1]);
                } else if digit < 0 {
                    gathered.push(row[(-digit) as usize - 1].neg());
                }
            }
            segs.push((start, gathered.len() - start));
        }
        BatchAdder::new().reduce_segments(&mut gathered, &mut segs);
        for (slot, &(start, len)) in out.iter_mut().zip(&segs) {
            if len > 0 {
                *slot = gathered[start];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Params, G1Projective};
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn matches_double_and_add_for_various_scalars() {
        let g = G1Projective::generator();
        let table = FixedBaseTable::<G1Params>::new(&g);
        let mut rng = zkperf_ff::test_rng();
        for s in [
            Fr::zero(),
            Fr::one(),
            Fr::from_u64(255),
            Fr::from_u64(256),
            -Fr::one(), // largest canonical scalar
            Fr::random(&mut rng),
        ] {
            assert_eq!(table.mul(&s), g * s, "scalar {s}");
        }
    }

    #[test]
    fn odd_window_widths_work() {
        let g = G1Projective::generator();
        let mut rng = zkperf_ff::test_rng();
        let s = Fr::random(&mut rng);
        for bits in [1usize, 3, 5, 13] {
            let table = FixedBaseTable::<G1Params>::with_window_bits(&g, bits);
            assert_eq!(table.mul(&s), g * s, "window {bits}");
        }
    }

    #[test]
    fn batch_matches_individual() {
        let g = G1Projective::generator();
        let table = FixedBaseTable::<G1Params>::new(&g);
        let mut rng = zkperf_ff::test_rng();
        let mut scalars: Vec<Fr> = (0..40).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[17] = -Fr::one();
        let batch = table.mul_batch(&scalars);
        for (s, b) in scalars.iter().zip(&batch) {
            assert_eq!(b.to_projective(), g * *s);
        }
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let _lock = crate::TEST_POOL_LOCK.lock().unwrap();
        let g = G1Projective::generator();
        let table = FixedBaseTable::<G1Params>::new(&g);
        let mut rng = zkperf_ff::test_rng();
        // Three chunks, with an odd tail and edge scalars.
        let n = BATCH_CHUNK * 2 + 173;
        let mut scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        scalars[0] = Fr::zero();
        scalars[BATCH_CHUNK] = -Fr::one();

        zkperf_pool::set_threads(1);
        let serial = table.mul_batch(&scalars);
        zkperf_pool::set_threads(4);
        let parallel = table.mul_batch(&scalars);
        zkperf_pool::set_threads(1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batch_on_identity_base_is_all_identity() {
        let table = FixedBaseTable::<G1Params>::new(&G1Projective::identity());
        let scalars = vec![Fr::from_u64(7); 5];
        for p in table.mul_batch(&scalars) {
            assert!(p.infinity);
        }
    }

    #[test]
    fn optimal_window_bits_is_monotone_and_clamped() {
        let mut prev = 0;
        for log2 in 5..24 {
            let bits = FixedBaseTable::<G1Params>::optimal_window_bits(1 << log2);
            assert!(bits >= prev, "monotone");
            assert!((1..=14).contains(&bits));
            prev = bits;
        }
        assert!(FixedBaseTable::<G1Params>::optimal_window_bits(1 << 40) <= 14);
    }

    #[test]
    fn fixed_base_and_msm_share_the_window_model() {
        // Satellite requirement: both kernels must resolve the same width
        // from the same (n, scalar_bits, cache) inputs — one cost model,
        // not two drifting heuristics.
        use zkperf_ff::PrimeField;
        let scalar_bits = Fr::modulus_bits() as usize;
        for log2 in [0usize, 4, 8, 10, 12, 14, 16, 18, 20] {
            let n = 1usize << log2;
            assert_eq!(
                FixedBaseTable::<G1Params>::optimal_window_bits(n),
                crate::msm::window_bits::<G1Params>(n, scalar_bits),
                "n = {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window bits")]
    fn rejects_zero_window() {
        let _ = FixedBaseTable::<G1Params>::with_window_bits(&G1Projective::generator(), 0);
    }
}
