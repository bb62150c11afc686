//! Multiplicative evaluation domains of order `2^k` or `3·2^k`, and the
//! in-place NTT over them.
//!
//! There is one butterfly network and one layout, [`Radix2Domain`]'s
//! `transform`, written against the `zkperf-pool` primitives with a
//! decomposition fixed by `task_elems`: a digit-reversal permutation
//! (cache-tiled on `2^k` points), one radix-3 layer when the order is
//! `3·2^k`, then the radix-2 passes. It serves every order at every size,
//! with no size switch and no memory-budget check, and its
//! `control`/`data_move` hooks are what a trace session records. Whether a
//! pass fans out or runs inline on the caller is the pool's decision — its
//! size, a one-task job, an open `SerialScope` — and never this module's.
//! Where the field hands out an eight-lane kernel (`PrimeField::lanes`),
//! the radix-3 layer, the radix-2 passes and the scalings run in it; the
//! lanes report nothing to a trace session, and a traced cell runs the
//! scalar loops (`zkperf_ff::lanes::with_scalar_body`).

use zkperf_ff::lanes::{Lanes, Twiddles};
use zkperf_ff::{batch_inverse, BigUint, PrimeField};
use zkperf_pool as pool;
use zkperf_trace as trace;

/// Elements per pool task for a buffer of `n` elements: coarse enough to
/// amortize task dispatch, fine enough that a 2^12-point domain already
/// splits into four tasks. Smaller buffers finish before a fan-out would
/// pay for itself and are one task, which the pool runs inline. A multiple
/// of `n`'s odd factor (1 or 3), so a task holds whole butterfly blocks of
/// every early pass. A pure function of `n` — never of the thread count —
/// per the deterministic-decomposition rule.
fn task_elems(n: usize) -> usize {
    if n < 1 << 12 {
        n
    } else {
        let odd = n >> n.trailing_zeros();
        odd * (n / odd / 8).clamp(1 << 10, 1 << 13)
    }
}

/// Largest `k` for which a domain of order `2^k` or `3·2^k` precomputes
/// its twiddle tables at construction; past it the late passes advance
/// running powers of `w_len` instead (the early ones read a task-sized
/// table, see `transform`). A table is `n/2` elements per direction and
/// is built once per domain: kept up to 2^21 BN254 points, the tables took
/// 16, 57 and 126 ms to build at 2^18, 2^20 and 2^21, and the 2^21
/// transform itself ran slower with them (694 against 565 ms) — a strided
/// table lookup per butterfly misses cache once the table outgrows it,
/// where a running power costs one multiplication in registers.
const MAX_CACHED_TWIDDLE_LOG: u32 = 17;

/// Bytes in one tile of the `2^k` bit reversal: `2^q` runs of `2^q`
/// elements. Two tiles are swapped at a time, 16 KiB, within any L1 data
/// cache; it gives `q = 4` for 32-byte `Fr` and `q = 5` for Goldilocks.
const REVERSAL_TILE_BYTES: usize = 8 << 10;

/// `i`'s low `bits` bits in reverse order.
fn reverse_low_bits(i: usize, bits: u32) -> usize {
    i.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// The least domain order — an element of `{2^k, 3·2^k}` — that is at
/// least `min_size` (and at least 1), or `None` past `usize`.
fn least_order(min_size: usize) -> Option<usize> {
    let pow2 = min_size.max(1).checked_next_power_of_two()?;
    let three_quarters = pow2 / 4 * 3;
    Some(if three_quarters >= min_size.max(1) { three_quarters } else { pow2 })
}

/// A generator of the multiplicative subgroup of order `order` in `F`, or
/// `None` unless `order` is `2^k` or `3·2^k` with `k` within the field's
/// two-adicity.
///
/// The one root function of the suite: every [`Radix2Domain`] takes its
/// ω from here, and so does a verifier that only knows a domain's order.
/// With `ω₂` the generator of order `2^s` (`s` the two-adicity) and ζ
/// [`PrimeField::cube_root_of_unity`], the generator of order `3·2^k` is
/// `(ζ·ω₂)^(2^(s−k))`, so the roots of either form make one square chain:
/// the generator of order `2m` squares to that of order `m`.
pub fn root_of_unity<F: PrimeField>(order: usize) -> Option<F> {
    if order == 0 {
        return None;
    }
    let k = order.trailing_zeros();
    let pow2 = F::root_of_unity_pow2(k)?;
    match order >> k {
        1 => Some(pow2),
        3 => {
            // ζ^(2^j) is ζ for even j and ζ² for odd j.
            let zeta = F::cube_root_of_unity()?;
            let odd = (F::two_adicity() - k) % 2 == 1;
            Some(pow2 * if odd { zeta.square() } else { zeta })
        }
        _ => None,
    }
}

/// A multiplicative subgroup of order `2^k` or `3·2^k` with its NTT
/// machinery.
///
/// Groth16 uses one domain per circuit: polynomials are interpolated over
/// the domain, and the quotient `h = (a·b − c)/z` is computed on a coset so
/// the vanishing polynomial `z` is invertible at every evaluation point.
/// Groth16 and the STARK ask for orders `2^k` ([`new_power_of_two`]);
/// PLONK takes the least order of either form that holds its rows
/// ([`new`]), so a circuit just past a power of two pays for `3·2^k`
/// rows, not `2^(k+2)`.
///
/// [`new`]: Self::new
/// [`new_power_of_two`]: Self::new_power_of_two
///
/// # Examples
///
/// ```
/// use zkperf_poly::Radix2Domain;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// let domain = Radix2Domain::<Fr>::new(5).unwrap();
/// assert_eq!(domain.size(), 6);
/// let mut values: Vec<Fr> = (0..6).map(Fr::from_u64).collect();
/// let coeffs = values.clone();
/// domain.fft_in_place(&mut values);
/// domain.ifft_in_place(&mut values);
/// assert_eq!(values, coeffs);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Radix2Domain<F: PrimeField> {
    size: usize,
    /// `k` in `size = 2^k` or `size = 3·2^k`.
    two_adic_log: u32,
    /// Whether `size = 3·2^k`: the transform opens with a radix-3 layer.
    radix3: bool,
    omega: F,
    omega_inv: F,
    size_inv: F,
    coset_shift: F,
    coset_shift_inv: F,
    /// `ω^(2^j)` for every bit of an index below `size`: the square chain
    /// behind [`element`](Self::element)'s allocation-free exponentiation.
    omega_pow2: Vec<F>,
    /// `ω^(n/3)` and `ω^(−n/3)`, the radix-3 layer's forward and inverse
    /// cube roots (one on a `2^k` domain, which has no such layer).
    cube_roots: [F; 2],
    /// Bit-reversal-friendly forward twiddles `ω^j` for `j < size/2`, or
    /// empty past [`MAX_CACHED_TWIDDLE_LOG`].
    twiddles: Vec<F>,
    /// Inverse twiddles `ω^{−j}` for `j < size/2`, or empty when uncached.
    inv_twiddles: Vec<F>,
}

impl<F: PrimeField> Radix2Domain<F> {
    /// Builds the smallest domain of order `2^k` or `3·2^k` that holds
    /// `min_size` points.
    ///
    /// Returns `None` when that order exceeds the field's subgroups of
    /// either form (`2^28` and `3·2^28` for BN254, `2^32` and `3·2^32`
    /// for BLS12-381).
    pub fn new(min_size: usize) -> Option<Self> {
        Self::with_order(least_order(min_size)?)
    }

    /// Builds the smallest domain of order `2^k` that holds `min_size`
    /// points, or `None` past the field's two-adic subgroup: what Groth16's
    /// key format and the STARK's FRI folding require.
    pub fn new_power_of_two(min_size: usize) -> Option<Self> {
        Self::with_order(min_size.max(1).checked_next_power_of_two()?)
    }

    fn with_order(size: usize) -> Option<Self> {
        let omega = root_of_unity::<F>(size)?;
        let two_adic_log = size.trailing_zeros();
        let radix3 = size >> two_adic_log == 3;
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
        let index_bits = usize::BITS - (size - 1).leading_zeros();
        let mut omega_pow2 = Vec::with_capacity(index_bits as usize);
        let mut w = omega;
        for _ in 0..index_bits {
            omega_pow2.push(w);
            w = w.square();
        }
        let cube_roots = if radix3 {
            let c = omega.pow(&BigUint::from_u64((size / 3) as u64));
            [c, c.square()]
        } else {
            [F::one(); 2]
        };
        let (twiddles, inv_twiddles) = if size > 1 && two_adic_log <= MAX_CACHED_TWIDDLE_LOG {
            (
                Self::power_table(omega, size / 2),
                Self::power_table(omega_inv, size / 2),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Some(Radix2Domain {
            size,
            two_adic_log,
            radix3,
            omega,
            omega_inv,
            size_inv,
            coset_shift,
            coset_shift_inv,
            omega_pow2,
            cube_roots,
            twiddles,
            inv_twiddles,
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
    /// Served from the cached twiddle table when present (on an even order
    /// `ω^(n/2) = −1` folds the upper half), otherwise assembled from the
    /// `ω^(2^j)` square chain — either way, no big-integer exponentiation.
    pub fn element(&self, i: usize) -> F {
        let i = i % self.size;
        if i == 0 {
            return F::one();
        }
        let half = self.size / 2;
        if let Some(&w) = self.twiddles.get(i) {
            return w;
        }
        if self.size.is_multiple_of(2) && i >= half {
            if let Some(&w) = self.twiddles.get(i - half) {
                return -w;
            }
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

    /// Evaluates the vanishing polynomial `z(x) = x^size − 1` at `x`: one
    /// cube on a `3·2^k` domain, then `k` squarings.
    pub fn eval_vanishing(&self, x: F) -> F {
        let mut acc = if self.radix3 { x.square() * x } else { x };
        for _ in 0..self.two_adic_log {
            acc = acc.square();
        }
        acc - F::one()
    }

    /// In-place NTT: coefficients → evaluations over the domain.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn fft_in_place(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.transform(values, false);
    }

    /// In-place inverse NTT: evaluations → coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size`.
    pub fn ifft_in_place(&self, values: &mut [F]) {
        let _g = trace::region_profile("fft");
        self.transform(values, true);
        self.scale_by_size_inv(values);
    }

    /// The final `1/n` scaling of an inverse transform.
    fn scale_by_size_inv(&self, values: &mut [F]) {
        let (c, lanes) = (self.size_inv, F::lanes());
        pool::parallel_chunks_mut(values, task_elems(self.size), |_, chunk| match lanes {
            Some(lanes) => lanes.scale(chunk, c),
            None => chunk.iter_mut().for_each(|v| *v *= c),
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
        let (grain, lanes) = (task_elems(values.len()), F::lanes());
        pool::parallel_chunks_mut(values, grain, |ci, chunk| {
            let first = g.pow(&BigUint::from_u64((ci * grain) as u64));
            Self::mul_powers(chunk, first, g, lanes);
        });
    }

    /// `values[i] ← values[i]·first·stepⁱ`: eight at a time in the field's
    /// lanes when it has them, else one running power.
    fn mul_powers(values: &mut [F], first: F, step: F, lanes: Option<Lanes<F>>) {
        match lanes {
            Some(lanes) => lanes.mul_powers(values, first, step),
            None => {
                let mut pow = first;
                for v in values.iter_mut() {
                    *v *= pow;
                    pow *= step;
                }
            }
        }
    }

    /// Iterative decimation-in-time NTT: a digit-reversal permutation, one
    /// radix-3 layer on a `3·2^k` domain, then the radix-2 butterfly passes,
    /// each pass's independent work handed to the pool. The one transform
    /// body, at every order and size.
    ///
    /// On `n = 3·m` points (`m = 2^k`) the permutation puts
    /// `x[rev(b) + m·t]` in slot `3b + t` (`rev` reverses `k` bits), the
    /// radix-3 layer turns every three slots into their 3-point DFT under
    /// `ω^m`, and the radix-2 passes combine blocks of 6, 12, …, n points
    /// exactly as they combine blocks of 2, 4, …, n on `n = 2^k` points —
    /// the pass of length `len` still reads the twiddles `ω^((n/len)·j)`.
    ///
    /// A cached twiddle table holds `ω^j` (`ω^{−j}` for the inverse) for
    /// `j < n/2` and each butterfly reads its twiddle with a strided lookup
    /// — one multiplication per butterfly instead of two. Domains past the
    /// cache cap have no table: their early passes read one of `grain/2`
    /// twiddles built per transform, which holds every twiddle of a pass
    /// no longer than a task, and their late passes fall back to
    /// incremental twiddle updates.
    ///
    /// When the field hands out lanes (`PrimeField::lanes`), the radix-3
    /// layer and every radix-2 pass run eight butterflies per lane step —
    /// gathered twiddles from the table, or eight running powers advanced
    /// by `w_len⁸`; passes with half-blocks under eight pair eight consecutive
    /// butterflies across blocks. Only the digit reversal, and domains too
    /// small for a lane step (under 48 points), stay scalar. A butterfly's
    /// output is the same field element either way.
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
        let (twiddles, omega, cube_root) = if inverse {
            (&self.inv_twiddles[..], self.omega_inv, self.cube_roots[1])
        } else {
            (&self.twiddles[..], self.omega, self.cube_roots[0])
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
        // The permutation stays on the caller: its moves cross chunk
        // boundaries (on 3·2^k points ≈ 2.5 ms of a 98 304-point
        // transform, its largest serial part).
        self.digit_reverse(values);
        let (grain, lanes) = (task_elems(n), F::lanes());
        // ω^stride for a power-of-two stride, by squarings.
        let root = |stride: usize| {
            let mut w = omega;
            let mut k = stride;
            while k > 1 {
                w = w.square();
                k /= 2;
            }
            w
        };
        // Past the cache the early passes still read a table:
        // ω^((n/grain)·j) for j < grain/2 holds every twiddle of a pass of
        // length len ≤ grain at stride grain/len, built once per transform.
        let early;
        let (early_twiddles, early_n) = if twiddles.is_empty() {
            early = Self::power_table(root(n / grain), grain / 2);
            (&early[..], grain)
        } else {
            (twiddles, n)
        };
        let mut len = 2usize;
        if self.radix3 {
            pool::parallel_chunks_mut(values, grain, |_, span| {
                Self::radix3_pass(span, cube_root, lanes);
            });
            len = 6;
        }
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            if len <= grain {
                // Many small blocks: group whole blocks per task.
                let table_stride = early_n / len;
                pool::parallel_chunks_mut(values, grain, |_, span| {
                    Self::block_pass(span, len, table_stride, early_twiddles, lanes);
                });
            } else {
                // Few large blocks: split each block's butterfly range;
                // past the cache each task advances running powers of
                // w_len = ω^(n/len) from its own seed.
                let w_len = if twiddles.is_empty() {
                    root(stride)
                } else {
                    F::one()
                };
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
                        Self::run(lc, hc, k0, stride, twiddles, w0, w_len, lanes);
                    });
                }
            }
            len *= 2;
        }
    }

    /// The input permutation of [`transform`](Self::transform): bit
    /// reversal on `2^k` points, an involution done by swaps
    /// ([`bit_reverse`](Self::bit_reverse)); on `3·2^k` points slot
    /// `3b + t` takes `x[rev(b) + m·t]`, which is no involution, so each
    /// cycle of the permutation is rotated once, a bitmap marking the slots
    /// already placed.
    fn digit_reverse(&self, values: &mut [F]) {
        let n = self.size;
        let k = self.two_adic_log;
        if !self.radix3 {
            return Self::bit_reverse(values, k);
        }
        let rev = |i: usize| reverse_low_bits(i, k);
        let m = n / 3;
        let source = |slot: usize| rev(slot / 3) + m * (slot % 3);
        let mut placed = vec![0u64; n.div_ceil(64)];
        for start in 0..n {
            if placed[start / 64] >> (start % 64) & 1 == 1 {
                continue;
            }
            let first = values[start];
            let mut slot = start;
            loop {
                placed[slot / 64] |= 1 << (slot % 64);
                let from = source(slot);
                if from == start {
                    break;
                }
                values[slot] = values[from];
                trace::data_move(1);
                slot = from;
            }
            if slot != start {
                values[slot] = first;
                trace::data_move(1);
            }
        }
    }

    /// Bit reversal of `values` (`2^k` of them) in cache tiles. Writing an
    /// index as `a|b|c`, with `q` bits in `a` and `c`, its reverse is
    /// `rev(c)|rev(b)|rev(a)`: every swap pairs a slot of tile `b` with one
    /// of tile `rev(b)`, each tile `2^q` runs of `2^q` contiguous elements.
    /// So the tiles are taken a pair at a time — all pairs when
    /// `b < rev(b)`, only `i < j` when `b = rev(b)` — and both stay in L1,
    /// where a walk in index order misses cache on nearly every `j` once
    /// the buffer outgrows it. The tile side `q` follows from
    /// [`REVERSAL_TILE_BYTES`] and shrinks to `⌊k/2⌋` on small domains.
    /// It makes the index-order walk's swaps (`i < j` with `j = rev(i)`)
    /// in another order, so its result and its `data_move` count are the
    /// walk's.
    fn bit_reverse(values: &mut [F], k: u32) {
        assert_eq!(values.len(), 1 << k, "buffer length must be 2^k");
        let tile_elems = REVERSAL_TILE_BYTES.div_ceil(std::mem::size_of::<F>().max(1));
        let q = tile_elems
            .next_power_of_two()
            .trailing_zeros()
            .div_ceil(2)
            .min(k / 2);
        let mid = k - 2 * q;
        for b in 0..1usize << mid {
            let rb = reverse_low_bits(b, mid);
            if rb < b {
                continue;
            }
            for a in 0..1usize << q {
                let i_hi = a << (k - q) | b << q;
                let j_lo = rb << q | reverse_low_bits(a, q);
                for c in 0..1usize << q {
                    let (i, j) = (i_hi | c, reverse_low_bits(c, q) << (k - q) | j_lo);
                    if b < rb || i < j {
                        values.swap(i, j);
                        trace::data_move(2);
                    }
                }
            }
        }
    }

    /// The radix-3 layer: every three slots `(x₀, x₁, x₂)` of `span` become
    /// their DFT under the cube root `c`, with one multiplication — from
    /// `c² = −1 − c`, `y₁ = x₀ − x₂ + c(x₁ − x₂)` and
    /// `y₂ = x₀ − x₁ − c(x₁ − x₂)` — eight triples per lane step when the
    /// span holds whole runs of 24. Kept out of line like
    /// [`block_pass`](Self::block_pass).
    #[inline(never)]
    fn radix3_pass(span: &mut [F], c: F, lanes: Option<Lanes<F>>) {
        if let Some(lanes) = lanes.filter(|_| span.len().is_multiple_of(24)) {
            return lanes.radix3(span, c);
        }
        for block in span.chunks_exact_mut(3) {
            let (x0, x1, x2) = (block[0], block[1], block[2]);
            let m = c * (x1 - x2);
            block[0] = x0 + x1 + x2;
            block[1] = x0 - x2 + m;
            block[2] = x0 - x1 - m;
            trace::control(1);
        }
    }

    /// Early-pass task: the butterflies of every whole `len`-point block
    /// in `span`, each twiddle read from `twiddles` at `stride`, in lanes
    /// when the span has a shape they take ([`Lanes::takes_blocks`]: every
    /// pass of a span of 48 points or more, of 16 or more on a power of
    /// two). Kept out of line: inlined into the pool's task loop the
    /// butterfly loop spills registers and a one-thread transform runs
    /// ~15 % slower.
    #[inline(never)]
    fn block_pass(
        span: &mut [F],
        len: usize,
        stride: usize,
        twiddles: &[F],
        lanes: Option<Lanes<F>>,
    ) {
        match lanes.filter(|_| Lanes::<F>::takes_blocks(len, span.len())) {
            Some(lanes) => {
                let table = Twiddles::Table {
                    table: twiddles,
                    stride,
                    k0: 0,
                };
                lanes.blocks(span, len, table);
            }
            None => {
                for block in span.chunks_mut(len) {
                    let (lo, hi) = block.split_at_mut(len / 2);
                    Self::butterflies(lo, hi, 0, stride, twiddles, F::one(), F::one());
                }
            }
        }
    }

    /// Late-pass task: one run of butterflies (see
    /// [`butterflies`](Self::butterflies)), in lanes when its length is a
    /// multiple of eight.
    #[allow(clippy::too_many_arguments)]
    fn run(
        lo: &mut [F],
        hi: &mut [F],
        k0: usize,
        stride: usize,
        twiddles: &[F],
        w0: F,
        w_len: F,
        lanes: Option<Lanes<F>>,
    ) {
        match lanes.filter(|_| lo.len().is_multiple_of(8)) {
            Some(lanes) => {
                lanes.butterflies(lo, hi, Self::twiddles_from(twiddles, stride, k0, w0, w_len));
            }
            None => Self::butterflies(lo, hi, k0, stride, twiddles, w0, w_len),
        }
    }

    /// The lanes' view of a run's twiddles: the cached table, or the
    /// incremental powers when the domain has none.
    fn twiddles_from(twiddles: &[F], stride: usize, k0: usize, w0: F, w_len: F) -> Twiddles<'_, F> {
        if twiddles.is_empty() {
            Twiddles::Powers { w0, step: w_len }
        } else {
            Twiddles::Table { table: twiddles, stride, k0 }
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
    fn sizes_round_up_to_the_least_order_of_either_form() {
        assert_eq!(Radix2Domain::<Fr>::new(1).unwrap().size(), 1);
        assert_eq!(Radix2Domain::<Fr>::new(3).unwrap().size(), 3);
        assert_eq!(Radix2Domain::<Fr>::new(4).unwrap().size(), 4);
        assert_eq!(Radix2Domain::<Fr>::new(1025).unwrap().size(), 1536);
        assert_eq!(Radix2Domain::<Fr>::new((1 << 14) + 3).unwrap().size(), 24_576);
        // BN254 Fr holds subgroups of order up to 2^28 and 3·2^28.
        assert_eq!(Radix2Domain::<Fr>::new((1 << 28) + 1).unwrap().size(), 3 << 27);
        assert!(Radix2Domain::<Fr>::new(3 << 28).is_some());
        assert!(Radix2Domain::<Fr>::new((3 << 28) + 1).is_none());
        // Groth16 and the STARK ask for a power of two.
        assert_eq!(Radix2Domain::<Fr>::new_power_of_two(0).unwrap().size(), 1);
        assert_eq!(Radix2Domain::<Fr>::new_power_of_two(3).unwrap().size(), 4);
        assert_eq!(Radix2Domain::<Fr>::new_power_of_two(1025).unwrap().size(), 2048);
        assert!(Radix2Domain::<Fr>::new_power_of_two((1 << 28) + 1).is_none());
    }

    #[test]
    fn every_request_up_to_2e14_gets_the_least_order_that_holds_it() {
        // Goldilocks keeps 2^14 constructions cheap; the choice of order
        // does not depend on the field.
        use zkperf_ff::Goldilocks;
        let orders: Vec<usize> = (0..16).flat_map(|k| [1usize << k, 3 << k]).collect();
        for m in 1..=1usize << 14 {
            let least = orders.iter().copied().filter(|&o| o >= m).min().unwrap();
            assert_eq!(Radix2Domain::<Goldilocks>::new(m).unwrap().size(), least, "m = {m}");
        }
    }

    #[test]
    fn omega_has_exact_order() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let w = d.group_gen();
        assert!(w.pow(&BigUint::from_u64(8)).is_one());
        assert!(!w.pow(&BigUint::from_u64(4)).is_one());
    }

    #[test]
    fn omega_has_exact_order_at_three_times_a_power_of_two() {
        // Order exactly n = 3·2^k: ω^n = 1, and neither ω^(n/2) nor ω^(n/3)
        // is 1 (every proper divisor of n divides one of the two).
        fn check<G: PrimeField>() {
            for k in 0..=14u32 {
                let n = 3usize << k;
                let d = Radix2Domain::<G>::new(n).unwrap();
                assert_eq!(d.size(), n);
                let w = d.group_gen();
                let pow = |e: usize| w.pow(&BigUint::from_u64(e as u64));
                assert!(pow(n).is_one(), "ω^n, n = {n}");
                assert!(!pow(n / 3).is_one(), "ω^(n/3), n = {n}");
                if k > 0 {
                    assert!(!pow(n / 2).is_one(), "ω^(n/2), n = {n}");
                }
                assert_eq!(root_of_unity::<G>(n), Some(w));
            }
        }
        check::<Fr>();
        check::<zkperf_ff::bls12_381::Fr>();
        check::<zkperf_ff::Goldilocks>();
    }

    #[test]
    fn roots_of_either_form_make_one_square_chain() {
        // ω of order 2m squares to ω of order m, so the generator of a
        // 4n domain is a fourth root of the n domain's (PLONK reads
        // z(ωx) four coset slots on).
        for m in [1usize, 2, 3, 6, 12, 3 << 10, 1 << 10] {
            let (small, big) = (root_of_unity::<Fr>(m), root_of_unity::<Fr>(2 * m));
            assert_eq!(big.map(|w| w.square()), small, "m = {m}");
        }
        for bad in [0usize, 5, 7, 9, 10, 5 << 10, 9 << 4] {
            assert_eq!(root_of_unity::<Fr>(bad), None, "order {bad}");
        }
        assert_eq!(root_of_unity::<Fr>(3 << 29), None);
    }

    #[test]
    fn mixed_radix_transforms_match_naive_evaluation() {
        let mut rng = zkperf_ff::test_rng();
        for n in [3usize, 6, 12, 24, 48, 96, 3 << 8] {
            let d = Radix2Domain::<Fr>::new(n).unwrap();
            assert_eq!(d.size(), n);
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let mut values = coeffs.clone();
            d.fft_in_place(&mut values);
            assert_eq!(values, naive_evals(&coeffs, &d), "forward, n = {n}");
            d.ifft_in_place(&mut values);
            assert_eq!(values, coeffs, "round trip, n = {n}");
            d.coset_fft_in_place(&mut values);
            let g = d.coset_shift();
            let shifted: Vec<Fr> = (0..n).map(|i| d.element(i) * g).collect();
            let direct: Vec<Fr> = shifted
                .iter()
                .map(|&x| coeffs.iter().rev().fold(Fr::zero(), |acc, &c| acc * x + c))
                .collect();
            assert_eq!(values, direct, "coset forward, n = {n}");
            d.coset_ifft_in_place(&mut values);
            assert_eq!(values, coeffs, "coset round trip, n = {n}");
        }
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
        // new(0) holds at least one point, so the trivial domain — the
        // degenerate boundary a caller hits with an empty constraint set.
        let d = Radix2Domain::<Fr>::new(0).unwrap();
        assert_eq!(d.size(), 1);
        assert_eq!(d.two_adic_log, 0);
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
        for n in [8usize, 3, 12] {
            let d = Radix2Domain::<Fr>::new(n).unwrap();
            for i in 0..n {
                assert!(d.eval_vanishing(d.element(i)).is_zero());
            }
            let g = d.coset_shift();
            assert!(!d.eval_vanishing(g).is_zero());
            assert_eq!(d.eval_vanishing(g), g.pow(&BigUint::from_u64(n as u64)) - Fr::one());
        }
    }

    #[test]
    fn lagrange_coefficients_interpolate() {
        let mut rng = zkperf_ff::test_rng();
        for n in [8usize, 6, 12] {
            let d = Radix2Domain::<Fr>::new(n).unwrap();
            let evals: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
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
            assert_eq!(via_lagrange, acc, "n = {n}");
        }
    }

    #[test]
    fn lagrange_at_domain_point_is_indicator() {
        for n in [4usize, 6] {
            let d = Radix2Domain::<Fr>::new(n).unwrap();
            let lag = d.lagrange_coefficients_at(d.element(2));
            for (i, l) in lag.iter().enumerate() {
                if i == 2 {
                    assert!(l.is_one());
                } else {
                    assert!(l.is_zero());
                }
            }
        }
    }

    #[test]
    fn parallel_transforms_are_bit_identical_to_serial() {
        for n in [1usize << 12, 3 << 12] {
            parallel_transforms_match_serial_at(n);
        }
    }

    fn parallel_transforms_match_serial_at(n: usize) {
        let mut rng = zkperf_ff::test_rng();
        let d = Radix2Domain::<Fr>::new(n).unwrap();
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
        for n in [1usize << 12, 3 << 12] {
            let cached = Radix2Domain::<Fr>::new(n).unwrap();
            let mut d = cached.clone();
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
            assert_eq!(serial, parallel, "n = {n}");
            assert_eq!(round, coeffs, "n = {n}");
            let mut with_table = coeffs.clone();
            cached.fft_in_place(&mut with_table);
            assert_eq!(serial, with_table, "n = {n}");
            assert_eq!(d.element(n - 1), cached.element(n - 1), "n = {n}");
        }
    }

    #[test]
    fn scalar_bodies_match_the_lanes() {
        // On a host with AVX-512 IFMA the passes, scalings and power runs
        // take the lanes; `with_scalar_body` drives the scalar fallbacks
        // here, cached and uncached twiddles, on both curves' Fr and every
        // domain form.
        fn check<G: PrimeField>() {
            let mut rng = zkperf_ff::test_rng();
            for n in [1usize << 10, 3 << 9, 48] {
                let cached = Radix2Domain::<G>::new(n).unwrap();
                let mut uncached = cached.clone();
                uncached.twiddles = Vec::new();
                uncached.inv_twiddles = Vec::new();
                let coeffs: Vec<G> = (0..n).map(|_| G::random(&mut rng)).collect();
                for d in [&cached, &uncached] {
                    let run = || {
                        let (mut fwd, mut coset) = (coeffs.clone(), coeffs.clone());
                        d.fft_in_place(&mut fwd);
                        d.coset_fft_in_place(&mut coset);
                        let mut inv = fwd.clone();
                        d.coset_ifft_in_place(&mut inv);
                        (fwd, coset, inv)
                    };
                    let lanes = run();
                    assert_eq!(lanes, zkperf_ff::lanes::with_scalar_body(run), "n = {n}");
                }
            }
        }
        check::<Fr>();
        check::<zkperf_ff::bls12_381::Fr>();
    }

    #[test]
    fn tiled_bit_reversal_is_the_bit_reversal_permutation() {
        // Slot i must end up holding element rev(i) at every k, on both
        // tile sides in use (q = 5 for 8-byte Goldilocks, 4 for 32-byte
        // Fr; ⌊k/2⌋ below them), and make as many swaps as the walk in
        // index order: one per pair i < rev(i), two data moves each.
        fn check<G: PrimeField>() {
            for k in 0..=16u32 {
                let n = 1usize << k;
                let rev = |i: usize| i.reverse_bits().checked_shr(64 - k).unwrap_or(0);
                let mut values: Vec<G> = (0..n as u64).map(G::from_u64).collect();
                let session = trace::Session::begin();
                Radix2Domain::<G>::bit_reverse(&mut values, k);
                let moves = session.finish().counts.data_uops;
                let expected: Vec<G> = (0..n).map(|i| G::from_u64(rev(i) as u64)).collect();
                assert!(values == expected, "k = {k}, {} bytes", std::mem::size_of::<G>());
                let pairs = (0..n).filter(|&i| i < rev(i)).count() as u64;
                assert_eq!(moves, 2 * pairs, "k = {k}");
            }
        }
        assert_eq!(std::mem::size_of::<zkperf_ff::Goldilocks>(), 8);
        assert_eq!(std::mem::size_of::<Fr>(), 32);
        check::<zkperf_ff::Goldilocks>();
        check::<Fr>();
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn fft_rejects_wrong_length() {
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let mut buf = vec![Fr::zero(); 4];
        d.fft_in_place(&mut buf);
    }
}
