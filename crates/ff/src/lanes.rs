//! Eight-lane arithmetic on AVX-512 IFMA for the 4-limb Montgomery fields:
//! BN254 `Fq` under the batch-affine bucket add, BN254 `Fr` and BLS12-381
//! `Fr` under the NTT passes and PLONK's quotient rows.
//!
//! One kernel serves every modulus that implements [`LaneModulus`]; a
//! field hands it out through [`crate::PrimeField::lanes`], which is `None`
//! for every other field and on a host without the instructions. A lane
//! holds one element in five 52-bit limbs, so one
//! `vpmadd52luq`/`vpmadd52huq` pair forms the low and high halves of eight
//! 52 × 52-bit products. [`Lanes`] runs whole loops in lanes — the bucket
//! add's shared inversion ([`Lanes::batch_inverse`]) and chord additions
//! ([`Lanes::add_chords`]), runs of radix-2 butterflies
//! ([`Lanes::butterflies`], [`Lanes::blocks`]), the radix-3 layer
//! ([`Lanes::radix3`]) and scalings by a constant or
//! by a run of powers ([`Lanes::scale`], [`Lanes::mul_powers`]) — and hands
//! out [`Vector`]s, eight elements under `+`, `−` and `·`, for row loops
//! written in their caller's terms (PLONK's quotient).
//!
//! **The scalar kernel's bits.** A lane multiply computes what `Fp::mul`
//! computes, `a·b·2⁻²⁵⁶ mod p` in `[0, p)`: the 5 × 5-limb product, four
//! 52-bit Montgomery reduction steps and a fifth of 48 bits (`m` taken mod
//! 2⁴⁸), which divides by 2^(4·52 + 48) = 2²⁵⁶ — the scalar kernel's `R` —
//! then one conditional subtraction (the bound per modulus is on
//! [`LaneModulus`]). Limbs change layout at the load and the store only
//! (4 × 64 ↔ 5 × 52 bits and an 8 × 4 transpose), with no domain conversion
//! per operation. Canonical results and inverses are unique, so every
//! sum, transform, key and proof is the scalar body's, bit for bit.
//!
//! **Selection.** Once per process, by `is_x86_feature_detected!`
//! (`avx512f` and `avx512ifma`); `cfg(target_arch = "x86_64")` gates the
//! kernels, so other targets build the scalar bodies only. No environment
//! variable, Cargo feature or config field selects them;
//! [`with_scalar_body`] switches them off, process-wide, for a traced cell
//! and for tests that pin the two bodies to each other.
//!
//! **Tracing.** The lanes compute on raw words, past `Fp`'s trace hooks,
//! and report nothing: a session records the scalar work around a lane
//! kernel and none of the lanes' own. A traced cell
//! (`zkperf_core::measure_stage`) models snarkjs, whose wasm and JS have no
//! lanes, so it runs its whole stage inside [`with_scalar_body`]: every
//! kernel then takes its scalar body, once, through `Fp`'s hooks. The lanes
//! are observed by wall time, not by the op-stream simulator.
//!
//! This is the one module of `zkperf-ff` and `zkperf-ec` that may write
//! `unsafe` (`deny(unsafe_code)` at both crate roots, and a grep gate in
//! `scripts/check.sh`); every block names the check or bound that makes
//! it sound.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::arith::{mont_inv64, pow2_mod};
use crate::{Fp, FpParams};

const MASK52: u64 = (1 << 52) - 1;

/// 4 × 64 → 5 × 52 bits; the top limb keeps the 48 bits above 2²⁰⁸.
const fn split(a: [u64; 4]) -> [u64; 5] {
    [
        a[0] & MASK52,
        ((a[0] >> 52) | (a[1] << 12)) & MASK52,
        ((a[1] >> 40) | (a[2] << 24)) & MASK52,
        ((a[2] >> 28) | (a[3] << 36)) & MASK52,
        a[3] >> 16,
    ]
}

/// A 4-limb Montgomery modulus the lanes run, with the constants of the
/// 52-bit kernel. Implementing it is the claim that the kernel's bound
/// holds for this `p`, stated beside each implementation:
///
/// - every column of the 5 × 5 product and the five reduction steps takes
///   at most 20 halves below 2⁵² plus a carry, so stays below 2⁵⁷ — true of
///   any modulus, since every limb is below 2⁵²;
/// - the reduced sum `(a·b + m·p)/2²⁵⁶`, with `a, b < p` and `m < 2²⁵⁶`, is
///   below `p·(p/2²⁵⁶ + 1)`, which must stay below `2p` for the one final
///   subtraction to leave `[0, p)`. `Fp` already requires `p < 2²⁵⁵` (its
///   no-carry CIOS), and [`Lanes::get`] checks it again, so the result is
///   below `1.5·p`; the tighter figure per field is on each implementation.
pub trait LaneModulus: FpParams<4> {
    /// The modulus in 52-bit limbs.
    const P: [u64; 5] = split(Self::MODULUS);
    /// `−p⁻¹ mod 2⁵²`: the scalar kernel's `−p⁻¹ mod 2⁶⁴`, truncated.
    const PINV: u64 = mont_inv64(Self::MODULUS[0]) & MASK52;
    /// Montgomery one, `2²⁵⁶ mod p`, in 52-bit limbs.
    const R: [u64; 5] = split(pow2_mod(256, &Self::MODULUS));
}

/// The eight-lane kernels of the field `F`. [`Lanes::get`] (or `F::lanes()`)
/// hands one out only when this process runs them, so holding a `Lanes`
/// proves the host has AVX-512 IFMA.
pub struct Lanes<F: 'static>(&'static dyn Kernel<F>);

impl<F> Clone for Lanes<F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for Lanes<F> {}

impl<F> fmt::Debug for Lanes<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Lanes(avx512ifma)")
    }
}

/// The operands of eight affine chord additions: lane `i` adds
/// `(x1[i], y1[i]) + (x2[i], y2[i])`, with `inv[i] = (x2[i] − x1[i])⁻¹`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chords<F> {
    /// x of the first summands.
    pub x1: [F; 8],
    /// y of the first summands.
    pub y1: [F; 8],
    /// x of the second summands.
    pub x2: [F; 8],
    /// y of the second summands.
    pub y2: [F; 8],
    /// The inverted x differences.
    pub inv: [F; 8],
}

/// Where a run of butterflies takes its twiddle factors.
#[derive(Clone, Copy, Debug)]
pub enum Twiddles<'a, F> {
    /// Butterfly `k` of the run multiplies by `table[(k0 + k)·stride]`.
    Table {
        /// The cached powers of the domain generator.
        table: &'a [F],
        /// The pass's stride through `table`.
        stride: usize,
        /// The run's first butterfly index within its block.
        k0: usize,
    },
    /// Butterfly `k` of the run multiplies by `w0·stepᵏ`.
    Powers {
        /// The first butterfly's factor.
        w0: F,
        /// The ratio of consecutive factors.
        step: F,
    },
}

/// Eight elements of `F` in lane form, from [`Lanes::load`] or
/// [`Lanes::splat`]; `+`, `−` and `·` act lane by lane with the scalar
/// operators' results. Every operator is one call into the kernel, so a
/// row loop pays a call per operation and a transpose per load and store
/// only.
pub struct Vector<F: 'static> {
    kernel: &'static dyn Kernel<F>,
    limbs: Limbs,
}

impl<F> Clone for Vector<F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for Vector<F> {}

/// Eight elements limb-major: row `k` holds 52-bit limb `k` of lanes 0–7.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Limbs([[u64; 8]; 5]);

/// The kernel of one modulus behind a [`Lanes`]. Slices handed to the run
/// methods have been checked by the `Lanes` wrappers.
trait Kernel<F>: Sync {
    fn batch_inverse(&self, values: &mut [F], scratch: &mut Vec<F>);
    fn add_chords(&self, chords: &Chords<F>) -> ([F; 8], [F; 8]);
    fn butterflies(&self, lo: &mut [F], hi: &mut [F], twiddles: Twiddles<'_, F>);
    fn blocks(&self, span: &mut [F], len: usize, twiddles: Twiddles<'_, F>);
    fn radix3(&self, span: &mut [F], c: F);
    fn scale(&self, values: &mut [F], c: F);
    fn mul_powers(&self, values: &mut [F], first: F, step: F);
    fn load(&self, src: &[F]) -> Limbs;
    fn splat(&self, x: F) -> Limbs;
    fn store(&self, v: &Limbs, dst: &mut [F]);
    fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs;
    fn add(&self, a: &Limbs, b: &Limbs) -> Limbs;
    fn sub(&self, a: &Limbs, b: &Limbs) -> Limbs;
}

/// `lcm(8, h)` for `h ≥ 1`: the butterflies of one repeat of a block
/// pass's lane pattern.
fn lcm8(h: usize) -> usize {
    8 * h / (1usize << h.trailing_zeros().min(3))
}

/// Open [`with_scalar_body`] scopes, process-wide. It publishes no other
/// data, hence `Relaxed`.
static SCALAR_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Whether this process runs the kernels: an x86-64 host with `avx512f`
/// and `avx512ifma`, outside [`with_scalar_body`].
fn runs_lanes() -> bool {
    if SCALAR_SCOPES.load(Ordering::Relaxed) != 0 {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512ifma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

impl<M: LaneModulus> Lanes<Fp<M, 4>> {
    /// The kernels of `Fp<M, 4>`, if this process runs them: on an x86-64
    /// host with `avx512f` and `avx512ifma`, outside [`with_scalar_body`].
    pub fn get() -> Option<Self> {
        // The kernel's bound (trait docs): p < 2²⁵⁵ keeps a product below 2p
        // before its one subtraction.
        const { assert!(M::MODULUS[3] >> 63 == 0) };
        #[cfg(target_arch = "x86_64")]
        if runs_lanes() {
            return Some(Lanes(ifma::kernel::<M>(ifma::Host::checked())));
        }
        None
    }
}

impl<F: Copy> Lanes<F> {
    /// [`crate::batch_inverse_with_scratch`] in lanes, with the same
    /// results: every non-zero element of `values` inverted in place, zeros
    /// left as they are. Lane `i` runs the prefix-product chain of
    /// elements `i, 8 + i, 16 + i, …` (a zero, or a slot past the end,
    /// multiplies by one), the eight lane totals are inverted together, and
    /// the backward pass peels each element's inverse off its lane.
    /// `scratch` holds the prefix products, one slot per element as in the
    /// scalar body (rounded up to a multiple of eight).
    pub fn batch_inverse(self, values: &mut [F], scratch: &mut Vec<F>) {
        self.0.batch_inverse(values, scratch);
    }

    /// The eight chord sums of `chords`: lane `i` returns `(x3[i], y3[i])`
    /// with `λ = (y2 − y1)·inv`, `x3 = λ² − x1 − x2`,
    /// `y3 = λ·(x1 − x3) − y1` — the scalar formula's operations, in its
    /// order. Lanes the caller does not use may hold any elements.
    pub fn add_chords(self, chords: &Chords<F>) -> ([F; 8], [F; 8]) {
        self.0.add_chords(chords)
    }

    /// One run of radix-2 butterflies: `lo[k], hi[k]` become
    /// `lo[k] + w·hi[k], lo[k] − w·hi[k]` with `w` butterfly `k`'s factor
    /// from `twiddles`, eight butterflies per lane step. With
    /// [`Twiddles::Powers`] the eight factors advance by one lane multiply
    /// by `step⁸`.
    ///
    /// # Panics
    ///
    /// Unless `lo` and `hi` have one length, a multiple of eight.
    pub fn butterflies(self, lo: &mut [F], hi: &mut [F], twiddles: Twiddles<'_, F>) {
        assert!(
            lo.len() == hi.len() && lo.len().is_multiple_of(8),
            "a lane run pairs equal halves of a multiple of eight"
        );
        self.0.butterflies(lo, hi, twiddles);
    }

    /// The butterflies of every `len`-point block of `span`: each block's
    /// lower half against its upper half, every block's run starting at
    /// `twiddles` (so `k0` of a table is 0, `w0` of powers is one). Blocks
    /// whose half is no multiple of eight (halves 1–4, 6, 12) run eight
    /// consecutive butterflies per lane step across blocks.
    ///
    /// # Panics
    ///
    /// Unless [`Lanes::takes_blocks`]`(len, span.len())`.
    pub fn blocks(self, span: &mut [F], len: usize, twiddles: Twiddles<'_, F>) {
        assert!(
            Self::takes_blocks(len, span.len()),
            "lane blocks of {len} over {}",
            span.len()
        );
        self.0.blocks(span, len, twiddles);
    }

    /// Whether [`Lanes::blocks`] takes `len`-point blocks over a span of
    /// `span_len` elements: `len` even with a half that is a multiple of
    /// eight or one of 1–4, 6, 12, and the span whole runs of
    /// `2·lcm(8, len/2)` elements (whole blocks, and whole lane steps).
    pub fn takes_blocks(len: usize, span_len: usize) -> bool {
        let half = len / 2;
        len >= 2
            && len.is_multiple_of(2)
            && (half.is_multiple_of(8) || matches!(half, 1..=4 | 6 | 12))
            && span_len.is_multiple_of(2 * lcm8(half))
    }

    /// The radix-3 layer of a `3·2^k` transform: every three slots
    /// `(x₀, x₁, x₂)` of `span` become their DFT under the cube root `c`,
    /// eight triples per lane step, with the scalar layer's formula.
    ///
    /// # Panics
    ///
    /// Unless `span.len()` is a multiple of 24.
    pub fn radix3(self, span: &mut [F], c: F) {
        assert!(
            span.len().is_multiple_of(24),
            "lane triples come 8 at a time"
        );
        self.0.radix3(span, c);
    }

    /// `values[i] ← values[i]·c`.
    pub fn scale(self, values: &mut [F], c: F) {
        self.0.scale(values, c);
    }

    /// `values[i] ← values[i]·first·stepⁱ`, the eight running powers
    /// advanced by one lane multiply by `step⁸`.
    pub fn mul_powers(self, values: &mut [F], first: F, step: F) {
        self.0.mul_powers(values, first, step);
    }

    /// Lanes `0..src.len()` from `src`, the rest zero.
    ///
    /// # Panics
    ///
    /// If `src` holds more than eight elements.
    pub fn load(self, src: &[F]) -> Vector<F> {
        assert!(src.len() <= 8, "a vector holds eight elements");
        Vector {
            kernel: self.0,
            limbs: self.0.load(src),
        }
    }

    /// `x` in every lane.
    pub fn splat(self, x: F) -> Vector<F> {
        Vector {
            kernel: self.0,
            limbs: self.0.splat(x),
        }
    }
}

impl<F> Vector<F> {
    /// Writes lanes `0..dst.len()` to `dst`.
    ///
    /// # Panics
    ///
    /// If `dst` holds more than eight elements.
    pub fn store(&self, dst: &mut [F]) {
        assert!(dst.len() <= 8, "a vector holds eight elements");
        self.kernel.store(&self.limbs, dst);
    }
}

impl<F> std::ops::Add for Vector<F> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Vector {
            kernel: self.kernel,
            limbs: self.kernel.add(&self.limbs, &rhs.limbs),
        }
    }
}

impl<F> std::ops::Sub for Vector<F> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Vector {
            kernel: self.kernel,
            limbs: self.kernel.sub(&self.limbs, &rhs.limbs),
        }
    }
}

impl<F> std::ops::Mul for Vector<F> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Vector {
            kernel: self.kernel,
            limbs: self.kernel.mul(&self.limbs, &rhs.limbs),
        }
    }
}

/// The body the lane kernels run in this process: `"avx512ifma"` or
/// `"scalar"`. One feature check selects every kernel, so it is the body
/// of each entry of [`kernels`].
pub fn body() -> &'static str {
    if runs_lanes() {
        "avx512ifma"
    } else {
        "scalar"
    }
}

/// Each kernel with a lane body, named as reports print it, with the body
/// it runs in this process (one feature check selects them all). Reports
/// echo them, so a recorded number names the code that produced it.
pub fn kernels() -> [(&'static str, &'static str); 3] {
    ["G1 bucket add", "Fr transforms", "Fr quotient rows"].map(|kernel| (kernel, body()))
}

/// Runs `f` with the lanes switched off, so every kernel takes its scalar
/// body — the one a host without IFMA runs. The switch is process-wide, not
/// per thread: every kernel fetches [`Lanes::get`] (`F::lanes()`) per call,
/// so keys and domains built before the scope are covered too, and a caller
/// on another thread only runs slower meanwhile, since the bodies compute
/// the same bits. `zkperf_core::measure_stage` runs each traced stage in
/// it, so a session records the scalar op stream of the modeled toolchain;
/// tests that pin the two bodies to each other, or cover the fallback, call
/// it too. Scopes nest, and one closes when `f` returns or unwinds.
pub fn with_scalar_body<R>(f: impl FnOnce() -> R) -> R {
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            SCALAR_SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
    SCALAR_SCOPES.fetch_add(1, Ordering::Relaxed);
    let _scope = Scope;
    f()
}

/// Test support: the elements of `Fp<M, 4>` whose Montgomery limbs sit
/// where the kernel splits and reduces — 0, 1, p − 1, R, and every pattern
/// of 52-bit limbs at 0 or 2⁵² − 1 (the top limb one below p's when set).
/// All 36 are below p, for every [`LaneModulus`].
#[doc(hidden)]
pub fn limb_edges<M: LaneModulus>() -> Vec<Fp<M, 4>> {
    let p = M::MODULUS;
    let mut raw = vec![
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [p[0] - 1, p[1], p[2], p[3]],
        Fp::<M, 4>::R,
    ];
    for pattern in 0u32..32 {
        let l: [u64; 5] = std::array::from_fn(|k| match ((pattern >> k) & 1, k) {
            (0, _) => 0,
            (_, 4) => (p[3] >> 16) - 1,
            _ => MASK52,
        });
        raw.push([
            l[0] | (l[1] << 52),
            (l[1] >> 12) | (l[2] << 40),
            (l[2] >> 24) | (l[3] << 28),
            (l[3] >> 36) | (l[4] << 16),
        ]);
    }
    raw.into_iter()
        .filter_map(Fp::from_montgomery_limbs)
        .collect()
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use std::arch::x86_64::{
        __m256i, __m512i, __mmask8, _mm256_loadu_si256, _mm256_storeu_si256, _mm512_add_epi64,
        _mm512_and_si512, _mm512_castsi256_si512, _mm512_castsi512_si256, _mm512_cmpeq_epi64_mask,
        _mm512_extracti64x4_epi64, _mm512_inserti64x4, _mm512_load_si512, _mm512_loadu_si512,
        _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_or_si512,
        _mm512_permutex2var_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
        _mm512_slli_epi64, _mm512_srli_epi64, _mm512_store_si512, _mm512_storeu_si512,
        _mm512_sub_epi64,
    };
    use std::marker::PhantomData;

    use super::{Chords, Kernel, LaneModulus, Limbs, Twiddles, MASK52};
    use crate::{Field, Fp};

    type F<M> = Fp<M, 4>;

    /// What an [`Ifma`] kernel needs: made only by [`Host::checked`], which
    /// [`super::Lanes::get`] calls after the feature check.
    #[derive(Clone, Copy)]
    pub(super) struct Host(());

    impl Host {
        /// The proof that this process runs the kernels; call only once
        /// `super::runs_lanes()` has seen `avx512f` and `avx512ifma`.
        pub(super) fn checked() -> Host {
            Host(())
        }
    }

    /// The kernel of the modulus `M`.
    struct Ifma<M>(PhantomData<M>);

    impl<M: LaneModulus> Ifma<M> {
        const KERNEL: &'static Ifma<M> = &Ifma(PhantomData);
    }

    /// The kernel of `M`, for a process that runs the lanes.
    pub(super) fn kernel<M: LaneModulus>(_: Host) -> &'static dyn Kernel<F<M>> {
        Ifma::<M>::KERNEL
    }

    // SAFETY (every `unsafe` call below into a `target_feature` function):
    // an `Ifma` is reachable only through `kernel`, which takes a `Host`,
    // made only after `is_x86_feature_detected!` saw `avx512f` and
    // `avx512ifma` — the features those functions enable.
    impl<M: LaneModulus> Kernel<F<M>> for Ifma<M> {
        fn batch_inverse(&self, values: &mut [F<M>], scratch: &mut Vec<F<M>>) {
            // SAFETY: the host has the features (block comment above).
            unsafe { batch_inverse::<M>(values, scratch) }
        }
        fn add_chords(&self, chords: &Chords<F<M>>) -> ([F<M>; 8], [F<M>; 8]) {
            // SAFETY: as in `batch_inverse`.
            unsafe { add_chords::<M>(chords) }
        }
        fn butterflies(&self, lo: &mut [F<M>], hi: &mut [F<M>], tw: Twiddles<'_, F<M>>) {
            // SAFETY: as in `batch_inverse`.
            unsafe { butterflies::<M>(lo, hi, tw) }
        }
        fn blocks(&self, span: &mut [F<M>], len: usize, tw: Twiddles<'_, F<M>>) {
            // SAFETY: as in `batch_inverse`.
            unsafe { blocks::<M>(span, len, tw) }
        }
        fn radix3(&self, span: &mut [F<M>], c: F<M>) {
            // SAFETY: as in `batch_inverse`.
            unsafe { radix3::<M>(span, c) }
        }
        fn scale(&self, values: &mut [F<M>], c: F<M>) {
            // SAFETY: as in `batch_inverse`.
            unsafe { scale::<M>(values, c) }
        }
        fn mul_powers(&self, values: &mut [F<M>], first: F<M>, step: F<M>) {
            // SAFETY: as in `batch_inverse`.
            unsafe { mul_powers::<M>(values, first, step) }
        }
        fn load(&self, src: &[F<M>]) -> Limbs {
            // SAFETY: as in `batch_inverse`.
            unsafe { to_limbs(&load_chunk(src)) }
        }
        fn splat(&self, x: F<M>) -> Limbs {
            // SAFETY: as in `batch_inverse`.
            unsafe { to_limbs(&load(&[x; 8])) }
        }
        fn store(&self, v: &Limbs, dst: &mut [F<M>]) {
            // SAFETY: as in `batch_inverse`.
            unsafe { store_chunk(&from_limbs(v), dst) }
        }
        fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
            // SAFETY: as in `batch_inverse`.
            unsafe { limbs_mul::<M>(a, b) }
        }
        fn add(&self, a: &Limbs, b: &Limbs) -> Limbs {
            // SAFETY: as in `batch_inverse`.
            unsafe { limbs_add::<M>(a, b) }
        }
        fn sub(&self, a: &Limbs, b: &Limbs) -> Limbs {
            // SAFETY: as in `batch_inverse`.
            unsafe { limbs_sub::<M>(a, b) }
        }
    }

    /// Eight elements: limb `k` of lane `i` in lane `i` of `self.0[k]`,
    /// every limb below 2⁵², every value below `p`.
    #[derive(Clone, Copy)]
    struct V([__m512i; 5]);

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add_chords<M: LaneModulus>(c: &Chords<F<M>>) -> ([F<M>; 8], [F<M>; 8]) {
        let (x1, y1, x2, y2) = (load(&c.x1), load(&c.y1), load(&c.x2), load(&c.y2));
        let lambda = mul::<M>(&sub::<M>(&y2, &y1), &load(&c.inv));
        let x3 = sub::<M>(&sub::<M>(&mul::<M>(&lambda, &lambda), &x1), &x2);
        let y3 = sub::<M>(&mul::<M>(&lambda, &sub::<M>(&x1, &x3)), &y1);
        let mut out = ([F::<M>::zero(); 8], [F::<M>::zero(); 8]);
        store(&x3, &mut out.0);
        store(&y3, &mut out.1);
        out
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn batch_inverse<M: LaneModulus>(values: &mut [F<M>], scratch: &mut Vec<F<M>>) {
        let one = splat(M::R);
        scratch.clear();
        scratch.resize(values.len().div_ceil(8) * 8, F::<M>::zero());
        let (prefixes, _) = scratch.as_chunks_mut::<8>();
        let mut acc = one;
        for (chunk, prefix) in values.chunks(8).zip(prefixes.iter_mut()) {
            let v = load_chunk(chunk);
            store(&acc, prefix);
            acc = mul::<M>(&acc, &select(zeros(&v), &one, &v));
        }
        let mut totals = [F::<M>::zero(); 8];
        store(&acc, &mut totals);
        invert_totals(&mut totals);
        let mut suffix = load(&totals);
        for (chunk, prefix) in values.chunks_mut(8).zip(prefixes.iter()).rev() {
            let v = load_chunk(chunk);
            let zero = zeros(&v);
            let inv = mul::<M>(&load(prefix), &suffix);
            suffix = mul::<M>(&suffix, &select(zero, &one, &v));
            store_chunk(&select(zero, &v, &inv), chunk);
        }
    }

    /// Inverts eight non-zero elements in place — one Fermat inversion and
    /// 21 multiplications on raw limbs. This is the lanes' own
    /// bookkeeping: `Fp`'s operators would report it to a trace session.
    fn invert_totals<M: LaneModulus>(xs: &mut [F<M>; 8]) {
        let mut prefix = [[0u64; 4]; 8];
        let mut acc = F::<M>::R;
        for (slot, x) in prefix.iter_mut().zip(xs.iter()) {
            *slot = acc;
            acc = F::<M>::mont_mul(&acc, &x.to_montgomery_limbs());
        }
        // acc^(p − 2), square-and-multiply from the top bit down.
        let mut exp = M::MODULUS;
        exp[0] -= 2;
        let mut suffix = F::<M>::R;
        for bit in (0..256).rev() {
            suffix = F::<M>::mont_mul(&suffix, &suffix);
            if (exp[bit / 64] >> (bit % 64)) & 1 == 1 {
                suffix = F::<M>::mont_mul(&suffix, &acc);
            }
        }
        for (x, slot) in xs.iter_mut().zip(&prefix).rev() {
            let limbs = x.to_montgomery_limbs();
            *x = F::<M>::from_raw(F::<M>::mont_mul(slot, &suffix));
            suffix = F::<M>::mont_mul(&suffix, &limbs);
        }
    }

    /// `[w0, w0·s, …, w0·s⁷]` and `s⁸`, on raw limbs: the lanes' own
    /// bookkeeping, which a trace session does not see.
    fn powers<M: LaneModulus>(w0: F<M>, s: F<M>) -> ([F<M>; 8], F<M>) {
        let s = s.to_montgomery_limbs();
        let mut run = [w0; 8];
        for i in 1..8 {
            run[i] = F::<M>::from_raw(F::<M>::mont_mul(&run[i - 1].to_montgomery_limbs(), &s));
        }
        let s2 = F::<M>::mont_mul(&s, &s);
        let s4 = F::<M>::mont_mul(&s2, &s2);
        (run, F::<M>::from_raw(F::<M>::mont_mul(&s4, &s4)))
    }

    /// A run's twiddles in lane form: a table read per step, or eight
    /// running powers and the factor that advances them. Made once per call
    /// on the stack, where the size of the powers costs nothing and a box
    /// would cost an allocation per run.
    #[allow(clippy::large_enum_variant)]
    enum Run<'a, M> {
        Table {
            table: &'a [F<M>],
            stride: usize,
            k0: usize,
        },
        Powers {
            start: V,
            step8: V,
        },
    }

    impl<'a, M: LaneModulus> Run<'a, M> {
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn new(tw: Twiddles<'a, F<M>>) -> Self {
            match tw {
                Twiddles::Table { table, stride, k0 } => Run::Table { table, stride, k0 },
                Twiddles::Powers { w0, step } => {
                    let (run, step8) = powers(w0, step);
                    Run::Powers {
                        start: load(&run),
                        step8: load(&[step8; 8]),
                    }
                }
            }
        }
    }

    /// Eight butterflies: `lo ± w·hi`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn butterfly8<M: LaneModulus>(lo: &mut [F<M>; 8], hi: &mut [F<M>; 8], w: &V) {
        let u = load(lo);
        let t = mul::<M>(&load(hi), w);
        store(&add::<M>(&u, &t), lo);
        store(&sub::<M>(&u, &t), hi);
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn run<M: LaneModulus>(lo: &mut [F<M>], hi: &mut [F<M>], tw: &Run<'_, M>) {
        let (lo, _) = lo.as_chunks_mut::<8>();
        let (hi, _) = hi.as_chunks_mut::<8>();
        match *tw {
            Run::Table { table, stride, k0 } => {
                for (s, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let k = k0 + 8 * s;
                    let w = if stride == 1 {
                        load_chunk(&table[k..k + 8])
                    } else {
                        gather(table, k * stride, stride)
                    };
                    butterfly8::<M>(l, h, &w);
                }
            }
            Run::Powers { start, step8 } => {
                let mut w = start;
                for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                    butterfly8::<M>(l, h, &w);
                    w = mul::<M>(&w, &step8);
                }
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn butterflies<M: LaneModulus>(lo: &mut [F<M>], hi: &mut [F<M>], tw: Twiddles<'_, F<M>>) {
        run::<M>(lo, hi, &Run::new(tw));
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn blocks<M: LaneModulus>(span: &mut [F<M>], len: usize, tw: Twiddles<'_, F<M>>) {
        let half = len / 2;
        if !half.is_multiple_of(8) {
            return small_blocks::<M>(span, half, tw);
        }
        let tw = Run::new(tw);
        for block in span.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            run::<M>(lo, hi, &tw);
        }
    }

    /// Blocks whose half `h` (1, 2, 3, 4, 6 or 12) is no multiple of
    /// eight: butterfly `i` of the span pairs slots `(i / h)·2h + i mod h`
    /// and `h` further on, with factor `i mod h`. The eight lanes of a step
    /// are eight consecutive butterflies, loaded and stored at their slots;
    /// the pattern of slots and factors repeats every `lcm(8, h)/8` steps
    /// (one or three), so those steps' offsets and twiddle vectors are
    /// made once per call.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn small_blocks<M: LaneModulus>(span: &mut [F<M>], h: usize, tw: Twiddles<'_, F<M>>) {
        let steps = super::lcm8(h) / 8;
        let factor = |k: usize| match tw {
            Twiddles::Table { table, stride, k0 } => table[(k0 + k) * stride],
            Twiddles::Powers { w0, step } => (0..k).fold(w0, |w, _| {
                F::<M>::from_raw(F::<M>::mont_mul(
                    &w.to_montgomery_limbs(),
                    &step.to_montgomery_limbs(),
                ))
            }),
        };
        let mut offsets = [[0usize; 8]; 3];
        let mut factors = [splat(M::R); 3];
        for (j, (offs, w)) in offsets.iter_mut().zip(&mut factors).enumerate().take(steps) {
            let i = |l: usize| 8 * j + l;
            *offs = std::array::from_fn(|l| i(l) / h * 2 * h + i(l) % h);
            *w = load(&std::array::from_fn(|l| factor(i(l) % h)));
        }
        let his = offsets.map(|offs| offs.map(|o| o + h));
        for cycle in span.chunks_exact_mut(16 * steps) {
            for j in 0..steps {
                let u = load_at(cycle, &offsets[j]);
                let t = mul::<M>(&load_at(cycle, &his[j]), &factors[j]);
                store_at(&add::<M>(&u, &t), cycle, &offsets[j]);
                store_at(&sub::<M>(&u, &t), cycle, &his[j]);
            }
        }
    }

    /// The radix-3 layer on eight triples per step: lane `l` takes slots
    /// `3l, 3l + 1, 3l + 2` of a 24-element run, with the scalar layer's
    /// formula (`m = c·(x₁ − x₂)`, `y₀ = x₀ + x₁ + x₂`,
    /// `y₁ = x₀ − x₂ + m`, `y₂ = x₀ − x₁ − m`) in its order.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn radix3<M: LaneModulus>(span: &mut [F<M>], c: F<M>) {
        let c = load(&[c; 8]);
        let slots: [[usize; 8]; 3] = std::array::from_fn(|t| std::array::from_fn(|l| 3 * l + t));
        for run in span.chunks_exact_mut(24) {
            let [x0, x1, x2] = slots.map(|offs| load_at(run, &offs));
            let m = mul::<M>(&c, &sub::<M>(&x1, &x2));
            store_at(&add::<M>(&add::<M>(&x0, &x1), &x2), run, &slots[0]);
            store_at(&add::<M>(&sub::<M>(&x0, &x2), &m), run, &slots[1]);
            store_at(&sub::<M>(&sub::<M>(&x0, &x1), &m), run, &slots[2]);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn scale<M: LaneModulus>(values: &mut [F<M>], c: F<M>) {
        let c = load(&[c; 8]);
        for chunk in values.chunks_mut(8) {
            store_chunk(&mul::<M>(&load_chunk(chunk), &c), chunk);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_powers<M: LaneModulus>(values: &mut [F<M>], first: F<M>, step: F<M>) {
        let (run, step8) = powers(first, step);
        let (mut w, step8) = (load(&run), load(&[step8; 8]));
        for chunk in values.chunks_mut(8) {
            store_chunk(&mul::<M>(&load_chunk(chunk), &w), chunk);
            w = mul::<M>(&w, &step8);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn limbs_mul<M: LaneModulus>(a: &Limbs, b: &Limbs) -> Limbs {
        to_limbs(&mul::<M>(&from_limbs(a), &from_limbs(b)))
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn limbs_add<M: LaneModulus>(a: &Limbs, b: &Limbs) -> Limbs {
        to_limbs(&add::<M>(&from_limbs(a), &from_limbs(b)))
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn limbs_sub<M: LaneModulus>(a: &Limbs, b: &Limbs) -> Limbs {
        to_limbs(&sub::<M>(&from_limbs(a), &from_limbs(b)))
    }

    /// A limb-major vector into registers.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn from_limbs(l: &Limbs) -> V {
        // SAFETY: `Limbs` is `align(64)` and row `k` is 64 bytes at offset
        // 64·k, so each aligned load reads exactly one row.
        V(std::array::from_fn(|k| unsafe {
            _mm512_load_si512(l.0[k].as_ptr().cast::<__m512i>())
        }))
    }

    /// Registers into a limb-major vector.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn to_limbs(v: &V) -> Limbs {
        let mut out = Limbs([[0; 8]; 5]);
        for (row, &x) in out.0.iter_mut().zip(&v.0) {
            // SAFETY: as in `from_limbs`, each row is one aligned 64-byte
            // slot.
            unsafe { _mm512_store_si512(row.as_mut_ptr().cast::<__m512i>(), x) };
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(limbs: [u64; 5]) -> V {
        V(limbs.map(|l| _mm512_set1_epi64(l as i64)))
    }

    /// The vector `[i₀, …, i₇]`, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn vector(i: [i64; 8]) -> __m512i {
        _mm512_set_epi64(i[7], i[6], i[5], i[4], i[3], i[2], i[1], i[0])
    }

    /// `a[i]·b[i]·2⁻²⁵⁶ mod p` in every lane, as `Fp::mul`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul<M: LaneModulus>(a: &V, b: &V) -> V {
        let zero = _mm512_setzero_si512();
        let p = splat(M::P).0;
        let pinv = _mm512_set1_epi64(M::PINV as i64);
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        // Columns of weight 2^(52k); each stays below 2⁵⁷: at most ten
        // product halves and ten reduction halves below 2⁵² each.
        let mut t = [zero; 10];
        for (i, &ai) in a.0.iter().enumerate() {
            for (j, &bj) in b.0.iter().enumerate() {
                t[i + j] = _mm512_madd52lo_epu64(t[i + j], ai, bj);
                t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], ai, bj);
            }
        }
        // Four 52-bit steps, then one of 48: step k adds m·p·2^(52k) so that
        // column k becomes a multiple of 2⁵² (of 2⁴⁸ at k = 4).
        for k in 0..5 {
            let mut m = _mm512_madd52lo_epu64(zero, t[k], pinv);
            if k == 4 {
                m = _mm512_and_si512(m, _mm512_set1_epi64((1 << 48) - 1));
            }
            for (j, &pj) in p.iter().enumerate() {
                t[k + j] = _mm512_madd52lo_epu64(t[k + j], m, pj);
                t[k + j + 1] = _mm512_madd52hi_epu64(t[k + j + 1], m, pj);
            }
            if k < 4 {
                t[k + 1] = _mm512_add_epi64(t[k + 1], _mm512_srli_epi64::<52>(t[k]));
            }
        }
        // The sum is now a multiple of 2²⁵⁶. Carry columns 4–9 into 52-bit
        // limbs (column 4 keeps only its bits 48–51), then the result
        // `t[4..] / 2⁴⁸ < 2p` (the bound on `LaneModulus`) is each column
        // pair shifted down 48 bits.
        for k in 4..9 {
            t[k + 1] = _mm512_add_epi64(t[k + 1], _mm512_srli_epi64::<52>(t[k]));
            t[k] = _mm512_and_si512(t[k], mask52);
        }
        subtract_p_if_above::<M>([
            down48(t[4], t[5]),
            down48(t[5], t[6]),
            down48(t[6], t[7]),
            down48(t[7], t[8]),
            down48(t[8], t[9]),
        ])
    }

    /// Bits 48–99 of `lo + hi·2⁵²`, for `lo, hi < 2⁵²`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn down48(lo: __m512i, hi: __m512i) -> __m512i {
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        _mm512_or_si512(
            _mm512_srli_epi64::<48>(lo),
            _mm512_and_si512(_mm512_slli_epi64::<4>(hi), mask52),
        )
    }

    /// `r − p` where `r ≥ p`, else `r`, for `r < 2p` in 52-bit limbs.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn subtract_p_if_above<M: LaneModulus>(r: [__m512i; 5]) -> V {
        let (d, below) = sub_limbs(&r, &splat(M::P).0);
        V(blend(below, &r, &d))
    }

    /// `a[i] + b[i] mod p` in every lane, as `Fp::add`: the limb sum
    /// (below 2p, so within five limbs) less p where it reaches p.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add<M: LaneModulus>(a: &V, b: &V) -> V {
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        let mut s = [_mm512_setzero_si512(); 5];
        let mut carry = _mm512_setzero_si512();
        for ((sk, &ak), &bk) in s.iter_mut().zip(&a.0).zip(&b.0) {
            let sum = _mm512_add_epi64(_mm512_add_epi64(ak, bk), carry);
            carry = _mm512_srli_epi64::<52>(sum);
            *sk = _mm512_and_si512(sum, mask52);
        }
        subtract_p_if_above::<M>(s)
    }

    /// `a[i] − b[i] mod p` in every lane, as `Fp::sub`: both legs computed,
    /// the winner selected per lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub<M: LaneModulus>(a: &V, b: &V) -> V {
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        let (d, below) = sub_limbs(&a.0, &b.0);
        // Where a < b, d = a − b + 2²⁶⁰; adding p and dropping bit 260
        // leaves a − b + p.
        let mut lifted = d;
        let mut carry = _mm512_setzero_si512();
        for (limb, &pk) in lifted.iter_mut().zip(&splat(M::P).0) {
            let s = _mm512_add_epi64(_mm512_add_epi64(*limb, pk), carry);
            carry = _mm512_srli_epi64::<52>(s);
            *limb = _mm512_and_si512(s, mask52);
        }
        V(blend(below, &lifted, &d))
    }

    /// Limb-wise `a − b` with borrows, and the lanes where it borrowed out
    /// of the top limb (`a < b`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub_limbs(a: &[__m512i; 5], b: &[__m512i; 5]) -> ([__m512i; 5], __mmask8) {
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        let mut d = [_mm512_setzero_si512(); 5];
        let mut borrow = _mm512_setzero_si512();
        for ((dk, &ak), &bk) in d.iter_mut().zip(a).zip(b) {
            // Limbs are below 2⁵², so a negative difference sets bit 63.
            let diff = _mm512_sub_epi64(_mm512_sub_epi64(ak, bk), borrow);
            borrow = _mm512_srli_epi64::<63>(diff);
            *dk = _mm512_and_si512(diff, mask52);
        }
        (d, _mm512_cmpeq_epi64_mask(borrow, _mm512_set1_epi64(1)))
    }

    /// Per lane, `if_set` where `mask` has the lane's bit, else `otherwise`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn blend(mask: __mmask8, if_set: &[__m512i; 5], otherwise: &[__m512i; 5]) -> [__m512i; 5] {
        let mut out = *otherwise;
        for (o, &s) in out.iter_mut().zip(if_set) {
            *o = _mm512_mask_blend_epi64(mask, *o, s);
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn select(mask: __mmask8, if_set: &V, otherwise: &V) -> V {
        V(blend(mask, &if_set.0, &otherwise.0))
    }

    /// The lanes holding zero.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn zeros(v: &V) -> __mmask8 {
        let [v0, v1, v2, v3, v4] = v.0;
        let any = _mm512_or_si512(
            _mm512_or_si512(_mm512_or_si512(v0, v1), _mm512_or_si512(v2, v3)),
            v4,
        );
        _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512())
    }

    /// Lane `i` ← `src[i]`: four 64-byte loads, then [`transpose_in`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load<M: LaneModulus>(src: &[F<M>; 8]) -> V {
        let ptr = src.as_ptr().cast::<__m512i>();
        // SAFETY: `Fp` is `repr(transparent)` over `[u64; 4]`, so `src` is
        // 256 contiguous readable bytes; the four unaligned 64-byte loads
        // at offsets 0, 64, 128 and 192 stay inside it.
        unsafe {
            transpose_in([
                _mm512_loadu_si512(ptr),
                _mm512_loadu_si512(ptr.add(1)),
                _mm512_loadu_si512(ptr.add(2)),
                _mm512_loadu_si512(ptr.add(3)),
            ])
        }
    }

    /// Lane `i` ← `table[first + i·stride]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn gather<M: LaneModulus>(table: &[F<M>], first: usize, stride: usize) -> V {
        load_at(table, &std::array::from_fn(|i| first + i * stride))
    }

    /// Lane `i` ← `src[offsets[i]]`: each pair of elements from two 32-byte
    /// loads into one register, then [`transpose_in`] — no trip through a
    /// stack copy.
    ///
    /// # Panics
    ///
    /// If an offset is past `src`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load_at<M: LaneModulus>(src: &[F<M>], offsets: &[usize; 8]) -> V {
        assert!(
            offsets.iter().all(|&o| o < src.len()),
            "lane offset past the slice"
        );
        let ptr = src.as_ptr().cast::<__m256i>();
        let pair = |j: usize| {
            // SAFETY: the assert keeps both offsets inside `src`, and `Fp`
            // is 32 bytes (`repr(transparent)` over `[u64; 4]`): each
            // unaligned 32-byte load reads one element.
            unsafe {
                _mm512_inserti64x4::<1>(
                    _mm512_castsi256_si512(_mm256_loadu_si256(ptr.add(offsets[2 * j]))),
                    _mm256_loadu_si256(ptr.add(offsets[2 * j + 1])),
                )
            }
        };
        transpose_in([pair(0), pair(1), pair(2), pair(3)])
    }

    /// `dst[offsets[i]]` ← lane `i`: [`transpose_out`], then one 32-byte
    /// store per element.
    ///
    /// # Panics
    ///
    /// If an offset is past `dst`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store_at<M: LaneModulus>(v: &V, dst: &mut [F<M>], offsets: &[usize; 8]) {
        assert!(
            offsets.iter().all(|&o| o < dst.len()),
            "lane offset past the slice"
        );
        let ptr = dst.as_mut_ptr().cast::<__m256i>();
        for (j, pair) in transpose_out(v).into_iter().enumerate() {
            // SAFETY: the assert keeps both offsets inside `dst`, each
            // 32-byte store writes one element (`Fp` is `repr(transparent)`
            // over `[u64; 4]`), and every lane is below `p`, so each
            // element written is canonical.
            unsafe {
                _mm256_storeu_si256(ptr.add(offsets[2 * j]), _mm512_castsi512_si256(pair));
                _mm256_storeu_si256(
                    ptr.add(offsets[2 * j + 1]),
                    _mm512_extracti64x4_epi64::<1>(pair),
                );
            }
        }
    }

    /// Four registers of two elements each (elements `2j, 2j + 1` in `e[j]`)
    /// → one vector per 64-bit limb by an 8 × 4 transpose, then the 52-bit
    /// split.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn transpose_in([e0, e1, e2, e3]: [__m512i; 4]) -> V {
        // e_j holds elements 2j and 2j + 1: pair their limbs up across
        // two registers, then gather limb k of all eight into one.
        let front = vector([0, 1, 4, 5, 8, 9, 12, 13]);
        let back = vector([2, 3, 6, 7, 10, 11, 14, 15]);
        let x0 = _mm512_permutex2var_epi64(e0, front, e1);
        let x1 = _mm512_permutex2var_epi64(e0, back, e1);
        let y0 = _mm512_permutex2var_epi64(e2, front, e3);
        let y1 = _mm512_permutex2var_epi64(e2, back, e3);
        let even = vector([0, 2, 4, 6, 8, 10, 12, 14]);
        let odd = vector([1, 3, 5, 7, 9, 11, 13, 15]);
        let l0 = _mm512_permutex2var_epi64(x0, even, y0);
        let l1 = _mm512_permutex2var_epi64(x0, odd, y0);
        let l2 = _mm512_permutex2var_epi64(x1, even, y1);
        let l3 = _mm512_permutex2var_epi64(x1, odd, y1);
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        V([
            _mm512_and_si512(l0, mask52),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<52>(l0), _mm512_slli_epi64::<12>(l1)),
                mask52,
            ),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<40>(l1), _mm512_slli_epi64::<24>(l2)),
                mask52,
            ),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<28>(l2), _mm512_slli_epi64::<36>(l3)),
                mask52,
            ),
            _mm512_srli_epi64::<16>(l3),
        ])
    }

    /// `dst[i]` ← lane `i`: [`transpose_out`], four 64-byte stores.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store<M: LaneModulus>(v: &V, dst: &mut [F<M>; 8]) {
        let ptr = dst.as_mut_ptr().cast::<__m512i>();
        for (k, e) in transpose_out(v).into_iter().enumerate() {
            // SAFETY: `dst` is 256 contiguous writable bytes (`Fp` is
            // `repr(transparent)` over `[u64; 4]`) and `k < 4`, so the
            // 64-byte store at offset 64·k stays inside it. Every lane is
            // below `p`, so each element written is canonical.
            unsafe { _mm512_storeu_si512(ptr.add(k), e) };
        }
    }

    /// The inverse of [`transpose_in`]: the 64-bit limbs rejoined and
    /// transposed back, elements `2j, 2j + 1` in register `j`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn transpose_out(v: &V) -> [__m512i; 4] {
        let [v0, v1, v2, v3, v4] = v.0;
        let l0 = _mm512_or_si512(v0, _mm512_slli_epi64::<52>(v1));
        let l1 = _mm512_or_si512(_mm512_srli_epi64::<12>(v1), _mm512_slli_epi64::<40>(v2));
        let l2 = _mm512_or_si512(_mm512_srli_epi64::<24>(v2), _mm512_slli_epi64::<28>(v3));
        let l3 = _mm512_or_si512(_mm512_srli_epi64::<36>(v3), _mm512_slli_epi64::<16>(v4));
        let front = vector([0, 8, 1, 9, 2, 10, 3, 11]);
        let back = vector([4, 12, 5, 13, 6, 14, 7, 15]);
        let x0 = _mm512_permutex2var_epi64(l0, front, l1);
        let y0 = _mm512_permutex2var_epi64(l0, back, l1);
        let x1 = _mm512_permutex2var_epi64(l2, front, l3);
        let y1 = _mm512_permutex2var_epi64(l2, back, l3);
        let first = vector([0, 1, 8, 9, 2, 3, 10, 11]);
        let second = vector([4, 5, 12, 13, 6, 7, 14, 15]);
        [
            _mm512_permutex2var_epi64(x0, first, x1),
            _mm512_permutex2var_epi64(x0, second, x1),
            _mm512_permutex2var_epi64(y0, first, y1),
            _mm512_permutex2var_epi64(y0, second, y1),
        ]
    }

    /// [`load`] of up to eight elements; missing lanes read zero.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load_chunk<M: LaneModulus>(chunk: &[F<M>]) -> V {
        match <&[F<M>; 8]>::try_from(chunk) {
            Ok(full) => load(full),
            Err(_) => {
                let mut padded = [F::<M>::from_raw([0; 4]); 8];
                padded[..chunk.len()].copy_from_slice(chunk);
                load(&padded)
            }
        }
    }

    /// [`store`] of the first `chunk.len() ≤ 8` lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store_chunk<M: LaneModulus>(v: &V, chunk: &mut [F<M>]) {
        match <&mut [F<M>; 8]>::try_from(&mut *chunk) {
            Ok(full) => store(v, full),
            Err(_) => {
                let mut padded = [F::<M>::from_raw([0; 4]); 8];
                store(v, &mut padded);
                let n = chunk.len();
                chunk.copy_from_slice(&padded[..n]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{Fq, FqParams, FrParams};
    use crate::{Field, PrimeField};

    fn scalar_chord(c: &Chords<Fq>, i: usize) -> (Fq, Fq) {
        let lambda = (c.y2[i] - c.y1[i]) * c.inv[i];
        let x3 = lambda.square() - c.x1[i] - c.x2[i];
        (x3, lambda * (c.x1[i] - x3) - c.y1[i])
    }

    #[test]
    fn chords_match_the_scalar_formula_on_limb_edges() {
        let Some(lanes) = Lanes::<Fq>::get() else {
            return; // no IFMA here: the scalar body is all there is
        };
        let edges = limb_edges::<FqParams>();
        assert_eq!(edges.len(), 36, "every edge pattern is below p");
        let mut rng = crate::test_rng();
        let mut pick = |k: usize| {
            if k.is_multiple_of(3) {
                Fq::random(&mut rng)
            } else {
                edges[k * 7 % edges.len()]
            }
        };
        for round in 0..64 {
            let mut c = Chords::default();
            for i in 0..8 {
                let k = round * 8 + i;
                c.x1[i] = pick(k);
                c.y1[i] = pick(k + 1);
                c.x2[i] = pick(k + 2);
                c.y2[i] = pick(k + 4);
                c.inv[i] = pick(k + 5);
            }
            let (x3, y3) = lanes.add_chords(&c);
            for i in 0..8 {
                assert_eq!(
                    (x3[i], y3[i]),
                    scalar_chord(&c, i),
                    "round {round}, lane {i}"
                );
            }
        }
        // Every product of two edges, in every lane: with x1 = y1 = x2 = 0
        // the chord is x3 = (y2·inv)², y3 = −(y2·inv)³.
        for (a, &y2) in edges.iter().enumerate() {
            let mut c = Chords::default();
            for i in 0..8 {
                c.y2[i] = y2;
                c.inv[i] = edges[(a + i) % edges.len()];
            }
            let (x3, y3) = lanes.add_chords(&c);
            for i in 0..8 {
                assert_eq!((x3[i], y3[i]), scalar_chord(&c, i), "edge {a}, lane {i}");
            }
        }
    }

    #[test]
    fn batch_inverse_matches_the_scalar_body() {
        let Some(lanes) = Lanes::<Fq>::get() else {
            return;
        };
        let edges = limb_edges::<FqParams>();
        let mut scratch = Vec::new();
        for n in 0..=27 {
            let values: Vec<Fq> = (0..n)
                .map(|i| {
                    if i % 5 == 2 {
                        Fq::zero()
                    } else {
                        edges[(3 * i + 1) % edges.len()]
                    }
                })
                .collect();
            let mut expect = values.clone();
            crate::batch_inverse(&mut expect);
            let mut got = values;
            lanes.batch_inverse(&mut got, &mut scratch);
            assert_eq!(got, expect, "n = {n}");
            assert_eq!(
                scratch.len(),
                n.div_ceil(8) * 8,
                "one prefix slot per element"
            );
        }
    }

    /// Every lane operation against the scalar operators on every pair of
    /// limb edges, for each modulus with a lane kernel.
    fn vector_ops_match_the_scalar_operators<M: LaneModulus>() {
        let Some(lanes) = Lanes::<Fp<M, 4>>::get() else {
            return;
        };
        let edges = limb_edges::<M>();
        assert_eq!(
            edges.len(),
            36,
            "{}: every edge pattern is below p",
            M::NAME
        );
        for (i, &a) in edges.iter().enumerate() {
            let b: [Fp<M, 4>; 8] = std::array::from_fn(|k| edges[(i + 5 * k) % edges.len()]);
            let (va, vb) = (lanes.splat(a), lanes.load(&b));
            for (op, got, expect) in [
                ("·", va * vb, b.map(|b| a * b)),
                ("+", va + vb, b.map(|b| a + b)),
                ("−", va - vb, b.map(|b| a - b)),
                ("− (swapped)", vb - va, b.map(|b| b - a)),
            ] {
                let mut out = [Fp::zero(); 8];
                got.store(&mut out);
                assert_eq!(out, expect, "{}: edge {i} {op}", M::NAME);
            }
        }
        // A short load reads zero past its end, a short store writes only
        // its prefix.
        let v = lanes.load(&edges[..3]);
        let mut out = [Fp::one(); 5];
        v.store(&mut out[..4]);
        assert_eq!(out, [edges[0], edges[1], edges[2], Fp::zero(), Fp::one()]);
    }

    #[test]
    fn vector_ops_match_on_every_lane_modulus() {
        vector_ops_match_the_scalar_operators::<FqParams>();
        vector_ops_match_the_scalar_operators::<FrParams>();
        vector_ops_match_the_scalar_operators::<crate::bls12_381::FrParams>();
    }

    /// Butterfly runs, block passes, scalings and power runs against the
    /// scalar loops they replace, on limb edges and random elements.
    fn runs_match_the_scalar_loops<M: LaneModulus>() {
        let Some(lanes) = Lanes::<Fp<M, 4>>::get() else {
            return;
        };
        let mut rng = crate::test_rng();
        let edges = limb_edges::<M>();
        let values: Vec<Fp<M, 4>> = (0..96)
            .map(|i| {
                if i % 2 == 0 {
                    edges[i % edges.len()]
                } else {
                    Fp::<M, 4>::random(&mut rng)
                }
            })
            .collect();
        let table: Vec<Fp<M, 4>> = (0..256).map(|_| Fp::<M, 4>::random(&mut rng)).collect();
        let (w0, step) = (Fp::<M, 4>::random(&mut rng), edges[7]);
        let scalar_run =
            |lo: &mut [Fp<M, 4>], hi: &mut [Fp<M, 4>], factor: &dyn Fn(usize) -> Fp<M, 4>| {
                for (k, (u, t)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let t_w = *t * factor(k);
                    (*u, *t) = (*u + t_w, *u - t_w);
                }
            };
        let pow = |k: usize| (0..k).fold(w0, |acc, _| acc * step);
        for (stride, k0) in [(1usize, 0usize), (1, 16), (3, 8), (5, 0)] {
            let (mut got, mut expect) = (values.clone(), values.clone());
            let (lo, hi) = got.split_at_mut(48);
            lanes.butterflies(
                lo,
                &mut hi[..48],
                Twiddles::Table {
                    table: &table,
                    stride,
                    k0,
                },
            );
            let (lo, hi) = expect.split_at_mut(48);
            scalar_run(lo, hi, &|k| table[(k0 + k) * stride]);
            assert_eq!(
                got,
                expect,
                "{}: table run, stride {stride}, k0 {k0}",
                M::NAME
            );
        }
        let (mut got, mut expect) = (values.clone(), values.clone());
        let (lo, hi) = got.split_at_mut(48);
        lanes.butterflies(lo, hi, Twiddles::Powers { w0, step });
        let (lo, hi) = expect.split_at_mut(48);
        scalar_run(lo, hi, &pow);
        assert_eq!(got, expect, "{}: powers run", M::NAME);
        for len in [2usize, 4, 6, 8, 12, 16, 24, 32, 48, 96] {
            assert!(Lanes::<Fp<M, 4>>::takes_blocks(len, 96), "blocks of {len}");
            for tw in [
                Twiddles::Table {
                    table: &table,
                    stride: 2,
                    k0: 0,
                },
                Twiddles::Powers {
                    w0: Fp::<M, 4>::one(),
                    step,
                },
            ] {
                let (mut got, mut expect) = (values.clone(), values.clone());
                lanes.blocks(&mut got, len, tw);
                for block in expect.chunks_mut(len) {
                    let (lo, hi) = block.split_at_mut(len / 2);
                    match tw {
                        Twiddles::Table { .. } => scalar_run(lo, hi, &|k| table[2 * k]),
                        Twiddles::Powers { .. } => {
                            scalar_run(lo, hi, &|k| (0..k).fold(Fp::<M, 4>::one(), |a, _| a * step))
                        }
                    }
                }
                assert_eq!(got, expect, "{}: blocks of {len}, {tw:?}", M::NAME);
            }
        }
        let c = edges[11];
        let mut got = values.clone();
        lanes.radix3(&mut got, c);
        let mut expect = values.clone();
        for t in expect.chunks_exact_mut(3) {
            let (x0, x1, x2) = (t[0], t[1], t[2]);
            let m = c * (x1 - x2);
            t.copy_from_slice(&[x0 + x1 + x2, x0 - x2 + m, x0 - x1 - m]);
        }
        assert_eq!(got, expect, "{}: radix-3 layer", M::NAME);
        for n in [0usize, 1, 7, 8, 9, 61] {
            let mut got = values[..n].to_vec();
            lanes.scale(&mut got, step);
            let expect: Vec<Fp<M, 4>> = values[..n].iter().map(|&v| v * step).collect();
            assert_eq!(got, expect, "{}: scale, n = {n}", M::NAME);
            let mut got = values[..n].to_vec();
            lanes.mul_powers(&mut got, w0, step);
            let expect: Vec<Fp<M, 4>> = values[..n]
                .iter()
                .enumerate()
                .map(|(k, &v)| v * pow(k))
                .collect();
            assert_eq!(got, expect, "{}: powers, n = {n}", M::NAME);
        }
    }

    #[test]
    fn runs_match_on_every_lane_modulus() {
        runs_match_the_scalar_loops::<FqParams>();
        runs_match_the_scalar_loops::<FrParams>();
        runs_match_the_scalar_loops::<crate::bls12_381::FrParams>();
    }

    #[test]
    fn block_shapes_the_lanes_take() {
        type L = Lanes<Fq>;
        // Halves that are multiples of eight need whole blocks only.
        assert!(L::takes_blocks(16, 32) && L::takes_blocks(48, 96) && !L::takes_blocks(16, 40));
        // Halves 1, 2, 4 repeat every 16 elements; 3, 6, 12 every 48.
        assert!(L::takes_blocks(2, 16) && L::takes_blocks(8, 16) && !L::takes_blocks(4, 8));
        assert!(L::takes_blocks(6, 48) && L::takes_blocks(24, 48) && !L::takes_blocks(6, 24));
        // Odd lengths, halves outside the list, and empty blocks never.
        assert!(!L::takes_blocks(3, 48) && !L::takes_blocks(10, 160) && !L::takes_blocks(0, 16));
    }

    #[test]
    fn with_scalar_body_hands_out_no_kernel() {
        with_scalar_body(|| {
            assert!(Lanes::<Fq>::get().is_none());
            assert!(crate::bn254::Fr::lanes().is_none());
            assert_eq!(body(), "scalar");
            assert!(kernels().iter().all(|&(_, body)| body == "scalar"));
        });
    }
}
