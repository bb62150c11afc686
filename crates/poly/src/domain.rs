//! Radix-2 multiplicative evaluation domains and the in-place NTT.
//!
//! There is one butterfly network, [`Radix2Domain`]'s `transform`, written
//! against the `zkperf-pool` primitives with a decomposition fixed by
//! `task_elems`: it is the flat transform and the row kernel of the
//! four-step layout, and its `control`/`data_move` hooks (with the
//! `memcpy` hook of the four-step transposes) are what a trace session
//! records. Whether a pass fans out or runs inline on the caller is the
//! pool's decision — its size, a one-task job, an open `SerialScope` — and
//! never this module's; flat versus four-step depends on the domain size
//! and the memory budget only.

use zkperf_ff::{batch_inverse, BigUint, PrimeField};
use zkperf_pool as pool;
use zkperf_trace as trace;

/// Elements per pool task for a buffer of `n` elements: coarse enough to
/// amortize task dispatch, fine enough that a 2^12-point domain already
/// splits into four tasks. Smaller buffers finish before a fan-out would
/// pay for itself and are one task, which the pool runs inline. A pure
/// function of `n` — never of the thread count — per the
/// deterministic-decomposition rule.
fn task_elems(n: usize) -> usize {
    if n < 1 << 12 {
        n
    } else {
        (n / 8).clamp(1 << 10, 1 << 13)
    }
}

/// Largest `log₂(size)` for which the domain precomputes its twiddle
/// tables at construction. Domains at or above [`FOUR_STEP_MIN_LOG`] run
/// the blocked four-step layout, whose row transforms read the cached
/// tables of the two √n-sized sub-domains instead — precomputing a
/// full-size table there would only burn memory. Domains between the two
/// thresholds do not exist (the caps are adjacent); a large transform
/// spilled to the flat pass by a memory budget runs it with incremental
/// twiddles.
const MAX_CACHED_TWIDDLE_LOG: u32 = 17;

/// Smallest `log₂(size)` routed through the cache-blocked four-step NTT.
/// Below this the strided butterfly passes stay close enough to cache for
/// the flat radix-2 transform with cached twiddles to win; above it the
/// late passes stride across the whole buffer and thrash, so decomposing
/// into √n×√n row transforms — each cache-resident — is faster despite
/// three extra transposes.
const FOUR_STEP_MIN_LOG: u32 = 18;

/// Smallest `log₂(size)` at which a memory budget can spill the four-step
/// transform back to the flat in-place pass. Below this the scratch is a
/// few megabytes at most and never worth giving up the blocked layout.
const SPILL_MIN_LOG: u32 = 20;

/// Whether a domain of `size = 2^log_size` elements of `elem_bytes` each
/// should abandon the four-step layout under `budget`.
///
/// The four-step transform buys its cache locality with a full-size
/// scratch buffer (`size · elem_bytes`, allocated per transform). Under
/// `ZKPERF_MEM_BUDGET`, once that scratch would claim more than a quarter
/// of the budget on a domain of 2^20 points or larger, the transform
/// takes the flat in-place radix-2 pass with incremental twiddles instead
/// — O(1) scratch, and bit-identical output (the four-step path is pinned
/// to the flat one by the characterization oracles).
fn spill_to_flat(log_size: u32, size: usize, elem_bytes: usize, budget: Option<u64>) -> bool {
    if log_size < SPILL_MIN_LOG {
        return false;
    }
    match budget {
        Some(budget) => (size as u64).saturating_mul(elem_bytes as u64) > budget / 4,
        None => false,
    }
}

/// A multiplicative subgroup of size `2^log_size` with its NTT machinery.
///
/// Groth16 uses one domain per circuit: polynomials are interpolated over
/// the domain, and the quotient `h = (a·b − c)/z` is computed on a coset so
/// the vanishing polynomial `z` is invertible at every evaluation point.
///
/// # Examples
///
/// ```
/// use zkperf_poly::Radix2Domain;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// let domain = Radix2Domain::<Fr>::new(4).unwrap();
/// let mut values: Vec<Fr> = (0..4).map(Fr::from_u64).collect();
/// let coeffs = values.clone();
/// domain.fft_in_place(&mut values);
/// domain.ifft_in_place(&mut values);
/// assert_eq!(values, coeffs);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Radix2Domain<F: PrimeField> {
    size: usize,
    log_size: u32,
    omega: F,
    omega_inv: F,
    size_inv: F,
    coset_shift: F,
    coset_shift_inv: F,
    /// `ω^(2^j)` for `j = 0..log_size`: the square chain behind
    /// [`element`](Self::element)'s allocation-free exponentiation.
    omega_pow2: Vec<F>,
    /// Bit-reversal-friendly forward twiddles `ω^j` for `j < size/2`, or
    /// empty above [`MAX_CACHED_TWIDDLE_LOG`].
    twiddles: Vec<F>,
    /// Inverse twiddles `ω^{−j}` for `j < size/2`, or empty when uncached.
    inv_twiddles: Vec<F>,
    /// The `(n1, n2)` sub-domains (`n1·n2 = size`, `n1 ≤ n2`) backing the
    /// four-step transform; present only for `log_size ≥ FOUR_STEP_MIN_LOG`.
    four_step: Option<Box<(Radix2Domain<F>, Radix2Domain<F>)>>,
}

impl<F: PrimeField> Radix2Domain<F> {
    /// Builds the smallest domain of size `≥ min_size`.
    ///
    /// Returns `None` when the required size exceeds the field's two-adic
    /// subgroup (`2^28` for BN254, `2^32` for BLS12-381).
    pub fn new(min_size: usize) -> Option<Self> {
        let size = min_size.max(1).next_power_of_two();
        let log_size = size.trailing_zeros();
        let omega = F::root_of_unity_pow2(log_size)?;
        let omega_inv = omega.inverse().expect("root of unity is non-zero");
        let size_inv = F::from_u64(size as u64)
            .inverse()
            .expect("domain size < p");
        // Pick a small coset shift outside the subgroup, i.e. one at which
        // the vanishing polynomial x^size − 1 does not vanish.
        let mut shift_candidate = 5u64;
        let coset_shift = loop {
            let g = F::from_u64(shift_candidate);
            if g.pow(&BigUint::from_u64(size as u64)) != F::one() || size == 1 {
                break g;
            }
            shift_candidate += 2;
        };
        let coset_shift_inv = coset_shift.inverse().expect("shift non-zero");
        let mut omega_pow2 = Vec::with_capacity(log_size as usize);
        let mut w = omega;
        for _ in 0..log_size {
            omega_pow2.push(w);
            w = w.square();
        }
        let (twiddles, inv_twiddles) = if (1..=MAX_CACHED_TWIDDLE_LOG).contains(&log_size) {
            (
                Self::power_table(omega, size / 2),
                Self::power_table(omega_inv, size / 2),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let four_step = if log_size >= FOUR_STEP_MIN_LOG {
            let log1 = log_size / 2;
            let sub1 = Self::new(1usize << log1)?;
            let sub2 = Self::new(1usize << (log_size - log1))?;
            Some(Box::new((sub1, sub2)))
        } else {
            None
        };
        Some(Radix2Domain {
            size,
            log_size,
            omega,
            omega_inv,
            size_inv,
            coset_shift,
            coset_shift_inv,
            omega_pow2,
            twiddles,
            inv_twiddles,
            four_step,
        })
    }

    /// `[1, g, g², …, g^(len−1)]` by incremental multiplication.
    fn power_table(g: F, len: usize) -> Vec<F> {
        let mut table = Vec::with_capacity(len);
        let mut acc = F::one();
        for _ in 0..len {
            table.push(acc);
            acc *= g;
        }
        table
    }

    /// Number of evaluation points.
    pub fn size(&self) -> usize {
        self.size
    }

    /// `log₂` of the size.
    pub fn log_size(&self) -> u32 {
        self.log_size
    }

    /// The domain generator ω of order `size`.
    pub fn group_gen(&self) -> F {
        self.omega
    }

    /// The coset shift `g` used by [`coset_fft_in_place`](Self::coset_fft_in_place).
    pub fn coset_shift(&self) -> F {
        self.coset_shift
    }

    /// The `i`-th domain element `ω^i`.
    ///
    /// Served from the cached twiddle table when present (`ω^(n/2) = −1`
    /// folds the upper half), otherwise assembled from the `ω^(2^j)`
    /// square chain — either way, no big-integer exponentiation.
    pub fn element(&self, i: usize) -> F {
        let i = i % self.size;
        if i == 0 {
            return F::one();
        }
        let half = self.size / 2;
        if !self.twiddles.is_empty() {
            return if i < half {
                self.twiddles[i]
            } else {
                -self.twiddles[i - half]
            };
        }
        let mut acc = F::one();
        let mut rem = i;
        let mut bit = 0usize;
        while rem != 0 {
            if rem & 1 == 1 {
                acc *= self.omega_pow2[bit];
            }
            rem >>= 1;
            bit += 1;
        }
        acc
    }

    /// Evaluates the vanishing polynomial `z(x) = x^size − 1` at `x` with
    /// `log₂(size)` squarings.
    pub fn eval_vanishing(&self, x: F) -> F {
        let mut acc = x;
        for _ in 0..self.log_size {
            acc = acc.square();
        }
        acc - F::one()
    }

    /// In-place NTT: coefficients → evaluations over the domain.
    ///
    /// Domains of `2^18` points and up run the cache-blocked four-step
    /// layout; smaller ones the flat radix-2 passes. Both compute the
    /// exact same field elements, so the choice is invisible to callers.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn fft_in_place(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        if self.use_four_step() {
            self.four_step_any_size(values, false);
        } else {
            self.transform(values, false);
        }
    }

    /// In-place inverse NTT: evaluations → coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn ifft_in_place(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        if self.use_four_step() {
            self.four_step_any_size(values, true);
        } else {
            self.transform(values, true);
        }
        self.scale_by_size_inv(values);
    }

    /// True when transforms should take the blocked four-step path: only
    /// on domains large enough to have sub-domains, unless a memory budget
    /// spills them back to the flat pass.
    fn use_four_step(&self) -> bool {
        self.four_step.is_some()
            && !spill_to_flat(self.log_size, self.size, std::mem::size_of::<F>(), pool::mem::budget())
    }

    /// The final `1/n` scaling of an inverse transform.
    fn scale_by_size_inv(&self, values: &mut [F]) {
        pool::parallel_chunks_mut(values, task_elems(self.size), |_, chunk| {
            for v in chunk.iter_mut() {
                *v *= self.size_inv;
            }
        });
    }

    /// NTT over the coset `g·H`: scales by powers of `g`, then transforms.
    pub fn coset_fft_in_place(&self, values: &mut [F]) {
        Self::distribute_powers(values, self.coset_shift);
        self.fft_in_place(values);
    }

    /// Inverse NTT over the coset `g·H`.
    pub fn coset_ifft_in_place(&self, values: &mut [F]) {
        self.ifft_in_place(values);
        Self::distribute_powers(values, self.coset_shift_inv);
    }

    fn distribute_powers(values: &mut [F], g: F) {
        // Each chunk seeds its own power run with one exponentiation; the
        // products are the exact field values of a single running prefix.
        let grain = task_elems(values.len());
        pool::parallel_chunks_mut(values, grain, |ci, chunk| {
            let mut pow = g.pow(&BigUint::from_u64((ci * grain) as u64));
            for v in chunk.iter_mut() {
                *v *= pow;
                pow *= g;
            }
        });
    }

    /// Iterative decimation-in-time NTT: a bit-reversal permutation
    /// followed by log n butterfly passes, each pass's independent work
    /// handed to the pool. Also the row kernel of the four-step path:
    /// rows under 2^12 points (domains under 2^23) are one task per pass,
    /// so a row transform stays on the thread that owns the row.
    ///
    /// A cached twiddle table holds `ω^j` (`ω^{−j}` for the inverse) for
    /// `j < n/2` and each butterfly reads its twiddle with a strided lookup
    /// — one multiplication per butterfly instead of two. Domains past the
    /// cache cap have an empty table and fall back to incremental twiddle
    /// updates.
    ///
    /// Early passes (many small blocks) group whole blocks into tasks;
    /// late passes (few blocks larger than a task) split each block's
    /// butterfly range at `half`, pairing lower/upper sub-slices so every
    /// task owns disjoint data. Both decompositions depend only on `n`,
    /// and every butterfly computes the same field values however the
    /// pass is cut (cached twiddles are shared lookups; uncached chunks
    /// seed their twiddle run with one exponentiation), so the output is
    /// bit-identical at any thread count.
    fn transform(&self, values: &mut [F], inverse: bool) {
        let (twiddles, omega) = if inverse {
            (&self.inv_twiddles[..], self.omega_inv)
        } else {
            (&self.twiddles[..], self.omega)
        };
        assert_eq!(
            values.len(),
            self.size,
            "buffer length must equal the domain size"
        );
        let n = self.size;
        if n == 1 {
            return;
        }
        // Bit-reversal stays on the caller: the transpositions cross chunk
        // boundaries and the pass is a small slice of total work.
        let shift = usize::BITS - self.log_size;
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                values.swap(i, j);
                trace::data_move(2);
            }
        }
        let grain = task_elems(n);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            // w_len = ω^(n/len), used only on the uncached-twiddle path.
            let w_len = if twiddles.is_empty() {
                let mut w = omega;
                let mut k = stride;
                while k > 1 {
                    w = w.square();
                    k /= 2;
                }
                w
            } else {
                F::one()
            };
            if len <= grain {
                // Many small blocks: group whole blocks per task.
                pool::parallel_chunks_mut(values, grain, |_, span| {
                    Self::block_pass(span, len, stride, twiddles, w_len);
                });
            } else {
                // Few large blocks: split each block's butterfly range.
                for block in values.chunks_mut(len) {
                    let (lo, hi) = block.split_at_mut(half);
                    let mut pairs: Vec<(&mut [F], &mut [F])> = lo
                        .chunks_mut(grain)
                        .zip(hi.chunks_mut(grain))
                        .collect();
                    pool::parallel_for_each_mut(&mut pairs, |pi, (lc, hc)| {
                        let k0 = pi * grain;
                        let w0 = if twiddles.is_empty() {
                            omega.pow(&BigUint::from_u64((stride * k0) as u64))
                        } else {
                            F::one()
                        };
                        Self::butterflies(lc, hc, k0, stride, twiddles, w0, w_len);
                    });
                }
            }
            len *= 2;
        }
    }

    /// Early-pass task: the butterflies of every whole `len`-point block
    /// in `span`. Kept out of line: inlined into the pool's task loop the
    /// butterfly loop spills registers and a one-thread transform runs
    /// ~15 % slower.
    #[inline(never)]
    fn block_pass(span: &mut [F], len: usize, stride: usize, twiddles: &[F], w_len: F) {
        for block in span.chunks_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            Self::butterflies(lo, hi, 0, stride, twiddles, F::one(), w_len);
        }
    }

    /// One run of butterflies pairing `lo[k] ↔ hi[k]` for the butterfly
    /// indices `k0..k0+lo.len()` of a pass with twiddle stride `stride`.
    /// With cached `twiddles` each butterfly looks its factor up; without,
    /// the factor starts at `w0 = w_len^k0` and advances incrementally.
    #[inline(always)]
    fn butterflies(
        lo: &mut [F],
        hi: &mut [F],
        k0: usize,
        stride: usize,
        twiddles: &[F],
        w0: F,
        w_len: F,
    ) {
        if !twiddles.is_empty() {
            for (k, (u_slot, t_slot)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let t = *t_slot * twiddles[(k0 + k) * stride];
                let u = *u_slot;
                *u_slot = u + t;
                *t_slot = u - t;
                trace::control(1);
            }
        } else {
            let mut w = w0;
            for (u_slot, t_slot) in lo.iter_mut().zip(hi.iter_mut()) {
                let t = *t_slot * w;
                let u = *u_slot;
                *u_slot = u + t;
                *t_slot = u - t;
                w *= w_len;
                trace::control(1);
            }
        }
    }

    /// Dispatches to the four-step body, building throwaway sub-domains
    /// when the forced entry points are used below [`FOUR_STEP_MIN_LOG`].
    fn four_step_any_size(&self, values: &mut [F], inverse: bool) {
        if self.log_size < 2 {
            // No n1·n2 split exists below four points; the flat transform
            // is the same computation.
            return self.transform(values, inverse);
        }
        match self.four_step.as_deref() {
            Some((sub1, sub2)) => self.four_step_with(values, sub1, sub2, inverse),
            None => {
                let log1 = self.log_size / 2;
                let sub1 = Self::new(1usize << log1).expect("sub-domain of a valid domain");
                let sub2 = Self::new(1usize << (self.log_size - log1))
                    .expect("sub-domain of a valid domain");
                self.four_step_with(values, &sub1, &sub2, inverse);
            }
        }
    }

    /// Cache-blocked four-step (Bailey) NTT.
    ///
    /// Writing indices as `j = j1 + n1·j2` and `k = k2 + n2·k1` turns the
    /// size-`n` DFT into `n1` row DFTs of length `n2`, a twiddle by
    /// `ω^(j1·k2)`, and `n2` row DFTs of length `n1`:
    ///
    /// `X[k2 + n2·k1] = Σ_{j1} ω^(j1·k2) (ω^{n2})^{j1·k1}
    ///                  Σ_{j2} x[j1 + n1·j2] (ω^{n1})^{j2·k2}`
    ///
    /// Each row is contiguous and cache-resident, so the only passes that
    /// touch the full buffer are three tiled transposes. `ω^{n1}` and
    /// `ω^{n2}` are exactly the sub-domains' generators (both come from
    /// the same two-adic square chain), and field arithmetic is exact, so
    /// the output is bit-identical to the flat radix-2 transform — at any
    /// thread count, since every task owns an index-addressed slice and
    /// per-row twiddle seeds are computed by exponentiation, never carried
    /// across rows.
    fn four_step_with(&self, values: &mut [F], sub1: &Self, sub2: &Self, inverse: bool) {
        assert_eq!(
            values.len(),
            self.size,
            "buffer length must equal the domain size"
        );
        let n = self.size;
        let (n1, n2) = (sub1.size, sub2.size);
        debug_assert_eq!(n1 * n2, n);
        let omega = if inverse { self.omega_inv } else { self.omega };
        let mut scratch = vec![F::zero(); n];

        // Step 1: gather the n1 decimated sequences x[j1], x[j1+n1], …
        // into contiguous rows: scratch[j1·n2 + j2] = values[j2·n1 + j1].
        Self::transpose_into(values, &mut scratch, n2, n1);

        // Steps 2–3: length-n2 NTT on every row, then the inter-pass
        // twiddle ω^(j1·k2), advanced incrementally from the per-row seed
        // ω^j1 (row j1 = 0 needs no multiply, nor does column k2 = 0).
        let rows_per_task = (task_elems(n) / n2).max(1);
        pool::parallel_chunks_mut(&mut scratch, rows_per_task * n2, |ci, span| {
            for (r, row) in span.chunks_mut(n2).enumerate() {
                let j1 = ci * rows_per_task + r;
                sub2.transform(row, inverse);
                if j1 > 0 {
                    let w_step = omega.pow(&BigUint::from_u64(j1 as u64));
                    let mut w = w_step;
                    for v in row.iter_mut().skip(1) {
                        *v *= w;
                        w *= w_step;
                    }
                }
            }
        });

        // Step 4: transpose so each k2 column becomes a contiguous row:
        // values[k2·n1 + j1] = scratch[j1·n2 + k2].
        Self::transpose_into(&scratch, values, n1, n2);

        // Step 5: length-n1 NTT on every row.
        let rows_per_task = (task_elems(n) / n1).max(1);
        pool::parallel_chunks_mut(values, rows_per_task * n1, |_, span| {
            for row in span.chunks_mut(n1) {
                sub1.transform(row, inverse);
            }
        });

        // Step 6: the result of row k2 holds X[k2 + n2·k1] at slot k1 —
        // one last transpose into natural order, then copy back.
        Self::transpose_into(values, &mut scratch, n2, n1);
        let grain = task_elems(n);
        pool::parallel_chunks_mut(values, grain, |ci, chunk| {
            chunk.copy_from_slice(&scratch[ci * grain..ci * grain + chunk.len()]);
        });
    }

    /// Tiled out-of-place transpose: reads `src` as a row-major
    /// `src_rows × src_cols` matrix and writes its transpose into `dst`.
    /// 16×16-element tiles keep the strided reads within a handful of
    /// cache lines while the writes stream; tasks own disjoint bands of
    /// destination rows, so the decomposition is deterministic.
    fn transpose_into(src: &[F], dst: &mut [F], src_rows: usize, src_cols: usize) {
        debug_assert_eq!(src.len(), src_rows * src_cols);
        debug_assert_eq!(dst.len(), src.len());
        const TILE: usize = 16;
        pool::parallel_chunks_mut(dst, TILE * src_rows, |ci, band| {
            let c0 = ci * TILE;
            trace::memcpy(
                band.as_ptr() as usize,
                &src[c0] as *const F as usize,
                std::mem::size_of_val(band),
            );
            for r0 in (0..src_rows).step_by(TILE) {
                let r_hi = (r0 + TILE).min(src_rows);
                for (dc, drow) in band.chunks_mut(src_rows).enumerate() {
                    let c = c0 + dc;
                    for r in r0..r_hi {
                        drow[r] = src[r * src_cols + c];
                    }
                }
            }
        });
    }

    /// In-place NTT through the flat radix-2 passes regardless of domain
    /// size.
    ///
    /// Reference leg for the four-step crossover tests; production callers
    /// should use [`fft_in_place`](Self::fft_in_place), which picks the
    /// faster layout automatically.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn fft_in_place_radix2(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.transform(values, false);
    }

    /// Inverse counterpart of [`fft_in_place_radix2`](Self::fft_in_place_radix2).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn ifft_in_place_radix2(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.transform(values, true);
        self.scale_by_size_inv(values);
    }

    /// In-place NTT through the cache-blocked four-step layout regardless
    /// of domain size (domains below four points fall back to the flat
    /// transform — no row/column split exists).
    ///
    /// Lets tests and oracles exercise the blocked path at sizes small
    /// enough to cross-check cheaply; production callers should use
    /// [`fft_in_place`](Self::fft_in_place).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn fft_in_place_four_step(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.four_step_any_size(values, false);
    }

    /// Inverse counterpart of [`fft_in_place_four_step`](Self::fft_in_place_four_step).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn ifft_in_place_four_step(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.four_step_any_size(values, true);
        self.scale_by_size_inv(values);
    }

    /// Evaluates all Lagrange basis polynomials of the domain at `x`,
    /// returning `Lᵢ(x)` for `i = 0..size`.
    ///
    /// Used by the Groth16 setup to evaluate the QAP matrices at τ.
    pub fn lagrange_coefficients_at(&self, x: F) -> Vec<F> {
        // L_i(x) = (z(x) / size) · ω^i / (x − ω^i); if x is in the domain the
        // vector is an indicator.
        let z = self.eval_vanishing(x);
        let mut out = Vec::with_capacity(self.size);
        if z.is_zero() {
            let mut elem = F::one();
            for _ in 0..self.size {
                out.push(if elem == x { F::one() } else { F::zero() });
                elem *= self.omega;
            }
            return out;
        }
        // out[i] starts as x − ω^i; one shared batch inversion replaces
        // `size` independent field inversions.
        let mut elem = F::one();
        for _ in 0..self.size {
            out.push(x - elem);
            elem *= self.omega;
        }
        batch_inverse(&mut out);
        // num walks zn·ω^i incrementally alongside the inverted denominators.
        let mut num = z * self.size_inv;
        for v in out.iter_mut() {
            *v *= num;
            num *= self.omega;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    fn naive_evals(coeffs: &[Fr], domain: &Radix2Domain<Fr>) -> Vec<Fr> {
        (0..domain.size())
            .map(|i| {
                let x = domain.element(i);
                let mut acc = Fr::zero();
                let mut xp = Fr::one();
                for &c in coeffs {
                    acc += c * xp;
                    xp *= x;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn sizes_round_up_to_powers_of_two() {
        assert_eq!(Radix2Domain::<Fr>::new(1).unwrap().size(), 1);
        assert_eq!(Radix2Domain::<Fr>::new(3).unwrap().size(), 4);
        assert_eq!(Radix2Domain::<Fr>::new(1025).unwrap().size(), 2048);
        // BN254 Fr supports at most 2^28.
        assert!(Radix2Domain::<Fr>::new(1 << 28).is_some());
        assert!(Radix2Domain::<Fr>::new((1 << 28) + 1).is_none());
    }

    #[test]
    fn omega_has_exact_order() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let w = d.group_gen();
        assert!(w.pow(&BigUint::from_u64(8)).is_one());
        assert!(!w.pow(&BigUint::from_u64(4)).is_one());
    }

    #[test]
    fn fft_matches_naive_evaluation() {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(16).unwrap();
        let coeffs: Vec<Fr> = (0..16).map(|_| Fr::random(&mut rng)).collect();
        let mut values = coeffs.clone();
        d.fft_in_place(&mut values);
        assert_eq!(values, naive_evals(&coeffs, &d));
    }

    #[test]
    fn fft_ifft_roundtrip_all_sizes() {
        let mut rng = zkperf_ff::test_rng();
        for log in 0..8 {
            let d = Radix2Domain::<Fr>::new(1 << log).unwrap();
            let coeffs: Vec<Fr> = (0..d.size()).map(|_| Fr::random(&mut rng)).collect();
            let mut buf = coeffs.clone();
            d.fft_in_place(&mut buf);
            d.ifft_in_place(&mut buf);
            assert_eq!(buf, coeffs, "size 2^{log}");
        }
    }

    #[test]
    fn size_zero_request_rounds_up_to_the_trivial_domain() {
        // new(0): next_power_of_two(0) = 1, so the trivial domain — the
        // degenerate boundary a caller hits with an empty constraint set.
        let d = Radix2Domain::<Fr>::new(0).unwrap();
        assert_eq!(d.size(), 1);
        assert_eq!(d.log_size(), 0);
    }

    #[test]
    fn trivial_domain_transforms_are_the_identity() {
        // On H = {1} every transform is the identity map and ω = 1; the
        // butterfly network is empty, so this exercises pure setup/teardown.
        let d = Radix2Domain::<Fr>::new(1).unwrap();
        assert!(d.group_gen().is_one());
        assert_eq!(d.element(0), Fr::one());
        let x = Fr::from_u64(7);
        let mut buf = vec![x];
        d.fft_in_place(&mut buf);
        assert_eq!(buf, vec![x]);
        d.ifft_in_place(&mut buf);
        assert_eq!(buf, vec![x]);
        d.coset_fft_in_place(&mut buf);
        d.coset_ifft_in_place(&mut buf);
        assert_eq!(buf, vec![x]);
        // Z_H(y) = y − 1 and the single Lagrange basis is the constant 1.
        assert!(d.eval_vanishing(Fr::one()).is_zero());
        assert_eq!(d.eval_vanishing(x), x - Fr::one());
        assert_eq!(d.lagrange_coefficients_at(x), vec![Fr::one()]);
    }

    #[test]
    fn two_point_domain_is_a_single_butterfly() {
        // Size 2: ω = −1 and the FFT is (a+b, a−b) — small enough to pin
        // against the closed form rather than another FFT.
        let d = Radix2Domain::<Fr>::new(2).unwrap();
        assert_eq!(d.group_gen(), -Fr::one());
        let (a, b) = (Fr::from_u64(3), Fr::from_u64(5));
        let mut buf = vec![a, b];
        d.fft_in_place(&mut buf);
        assert_eq!(buf, vec![a + b, a - b]);
        d.ifft_in_place(&mut buf);
        assert_eq!(buf, vec![a, b]);
    }

    #[test]
    fn all_zero_input_stays_zero_through_every_transform() {
        for log in [0u32, 1, 5] {
            let d = Radix2Domain::<Fr>::new(1 << log).unwrap();
            let zeros = vec![Fr::zero(); d.size()];
            let mut buf = zeros.clone();
            d.fft_in_place(&mut buf);
            assert_eq!(buf, zeros, "fft, size 2^{log}");
            d.coset_fft_in_place(&mut buf);
            assert_eq!(buf, zeros, "coset fft, size 2^{log}");
            d.ifft_in_place(&mut buf);
            assert_eq!(buf, zeros, "ifft, size 2^{log}");
        }
    }

    #[test]
    fn coset_roundtrip_and_distinctness() {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(32).unwrap();
        let coeffs: Vec<Fr> = (0..32).map(|_| Fr::random(&mut rng)).collect();
        let mut buf = coeffs.clone();
        d.coset_fft_in_place(&mut buf);
        let mut plain = coeffs.clone();
        d.fft_in_place(&mut plain);
        assert_ne!(buf, plain, "coset evaluations differ from subgroup ones");
        d.coset_ifft_in_place(&mut buf);
        assert_eq!(buf, coeffs);
    }

    #[test]
    fn vanishing_polynomial_vanishes_on_domain_only() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        for i in 0..8 {
            assert!(d.eval_vanishing(d.element(i)).is_zero());
        }
        assert!(!d.eval_vanishing(d.coset_shift()).is_zero());
    }

    #[test]
    fn lagrange_coefficients_interpolate() {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let evals: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let x = Fr::random(&mut rng);
        let lag = d.lagrange_coefficients_at(x);
        let via_lagrange: Fr = lag.iter().zip(&evals).map(|(l, e)| *l * *e).sum();
        // Reference: interpolate coefficients with IFFT then evaluate.
        let mut coeffs = evals.clone();
        d.ifft_in_place(&mut coeffs);
        let mut acc = Fr::zero();
        let mut xp = Fr::one();
        for c in &coeffs {
            acc += *c * xp;
            xp *= x;
        }
        assert_eq!(via_lagrange, acc);
    }

    #[test]
    fn lagrange_at_domain_point_is_indicator() {
        let d = Radix2Domain::<Fr>::new(4).unwrap();
        let lag = d.lagrange_coefficients_at(d.element(2));
        for (i, l) in lag.iter().enumerate() {
            if i == 2 {
                assert!(l.is_one());
            } else {
                assert!(l.is_zero());
            }
        }
    }

    #[test]
    fn parallel_transforms_are_bit_identical_to_serial() {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(1 << 12).unwrap();
        let coeffs: Vec<Fr> = (0..d.size()).map(|_| Fr::random(&mut rng)).collect();

        let run = |threads: usize| {
            zkperf_pool::set_threads(threads);
            let mut fwd = coeffs.clone();
            d.fft_in_place(&mut fwd);
            let mut coset = coeffs.clone();
            d.coset_fft_in_place(&mut coset);
            let mut round = fwd.clone();
            d.ifft_in_place(&mut round);
            zkperf_pool::set_threads(1);
            (fwd, coset, round)
        };
        let (fwd1, coset1, round1) = run(1);
        let (fwd4, coset4, round4) = run(4);
        assert_eq!(fwd1, fwd4);
        assert_eq!(coset1, coset4);
        assert_eq!(round1, round4);
        assert_eq!(round1, coeffs);
    }

    #[test]
    fn parallel_uncached_twiddle_path_matches_serial() {
        // Domains past the twiddle-cache cap exercise the pow-seeded
        // incremental twiddle path. Build a small domain and blank its
        // caches to reach that branch without a 2^21-point transform.
        let mut rng = zkperf_ff::test_rng();
        let mut d = Radix2Domain::<Fr>::new(1 << 12).unwrap();
        d.twiddles = Vec::new();
        d.inv_twiddles = Vec::new();
        let coeffs: Vec<Fr> = (0..d.size()).map(|_| Fr::random(&mut rng)).collect();

        zkperf_pool::set_threads(1);
        let mut serial = coeffs.clone();
        d.fft_in_place(&mut serial);
        zkperf_pool::set_threads(4);
        let mut parallel = coeffs.clone();
        d.fft_in_place(&mut parallel);
        let mut round = parallel.clone();
        d.ifft_in_place(&mut round);
        zkperf_pool::set_threads(1);
        assert_eq!(serial, parallel);
        assert_eq!(round, coeffs);
    }

    #[test]
    fn budget_spills_large_transforms_to_the_flat_pass() {
        // Below the spill floor the blocked layout is kept at any budget.
        assert!(!spill_to_flat(18, 1 << 18, 32, Some(1)));
        // Unbudgeted large domains keep it too.
        assert!(!spill_to_flat(20, 1 << 20, 32, None));
        // A 2^20 domain of 32-byte elements carries a 32 MiB scratch:
        // budgets under 128 MiB spill to the flat pass, larger ones don't.
        assert!(spill_to_flat(20, 1 << 20, 32, Some(64 << 20)));
        assert!(!spill_to_flat(20, 1 << 20, 32, Some(256 << 20)));
    }

    #[test]
    fn four_step_matches_radix2_at_forced_sizes() {
        // Below FOUR_STEP_MIN_LOG the blocked path is never chosen
        // automatically, but the forced entry points exercise the same
        // code with throwaway sub-domains — cheap cross-checks of the
        // index algebra at odd and even log sizes (n1 ≠ n2 and n1 = n2).
        let mut rng = zkperf_ff::test_rng();
        for log in [0u32, 1, 2, 3, 5, 6, 10] {
            let d = Radix2Domain::<Fr>::new(1 << log).unwrap();
            let coeffs: Vec<Fr> = (0..d.size()).map(|_| Fr::random(&mut rng)).collect();

            let mut flat = coeffs.clone();
            d.fft_in_place_radix2(&mut flat);
            let mut blocked = coeffs.clone();
            d.fft_in_place_four_step(&mut blocked);
            assert_eq!(flat, blocked, "forward, size 2^{log}");

            d.ifft_in_place_four_step(&mut blocked);
            assert_eq!(blocked, coeffs, "round-trip, size 2^{log}");

            let mut inv_flat = flat.clone();
            d.ifft_in_place_radix2(&mut inv_flat);
            let mut inv_blocked = flat;
            d.ifft_in_place_four_step(&mut inv_blocked);
            assert_eq!(inv_flat, inv_blocked, "inverse, size 2^{log}");
        }
    }

    #[test]
    fn a_trace_session_records_the_four_step_transposes() {
        let d = Radix2Domain::<Fr>::new(1 << 10).unwrap();
        let mut values = vec![Fr::one(); d.size()];
        // As `measure_stage` does: the session is this thread's alone.
        let _serial = pool::SerialScope::enter();
        let session = trace::Session::begin();
        d.fft_in_place_four_step(&mut values);
        // Three transposes, each moving the whole buffer band by band.
        let buffer = std::mem::size_of_val(values.as_slice()) as u64;
        assert_eq!(session.finish().counts.memcpy_bytes, 3 * buffer);
    }

    #[test]
    fn four_step_is_bit_identical_across_thread_counts() {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(1 << 10).unwrap();
        let coeffs: Vec<Fr> = (0..d.size()).map(|_| Fr::random(&mut rng)).collect();
        let run = |threads: usize| {
            zkperf_pool::set_threads(threads);
            let mut buf = coeffs.clone();
            d.fft_in_place_four_step(&mut buf);
            zkperf_pool::set_threads(1);
            buf
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn large_domains_carry_four_step_subdomains() {
        // 2^18 is the crossover: the domain skips the flat twiddle cache
        // and instead carries √n sub-domains whose generators are exact
        // powers of ω — ω^{n1} and ω^{n2} from the same square chain.
        let d = Radix2Domain::<Fr>::new(1 << FOUR_STEP_MIN_LOG).unwrap();
        assert!(d.twiddles.is_empty());
        let (sub1, sub2) = d.four_step.as_deref().expect("sub-domains present");
        assert_eq!(sub1.size() * sub2.size(), d.size());
        assert_eq!(sub1.omega, d.omega.pow(&BigUint::from_u64(sub2.size() as u64)));
        assert_eq!(sub2.omega, d.omega.pow(&BigUint::from_u64(sub1.size() as u64)));
        // Small domains keep the flat cached-twiddle layout.
        let small = Radix2Domain::<Fr>::new(1 << 10).unwrap();
        assert!(small.four_step.is_none());
        assert!(!small.twiddles.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn four_step_rejects_wrong_length() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let mut buf = vec![Fr::zero(); 4];
        d.fft_in_place_four_step(&mut buf);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn fft_rejects_wrong_length() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let mut buf = vec![Fr::zero(); 4];
        d.fft_in_place(&mut buf);
    }
}
