//! The backend's hash: `circuit::poseidon::poseidon_permute::<Goldilocks>`
//! re-implemented on raw `u64` words.
//!
//! One function, two implementations pinned equal. The generic
//! permutation in `zkperf-circuit` owns the round constants and the MDS
//! matrix, serves BN254/BLS12-381 witness generation and the gadget, and
//! is the oracle; this module computes the same `t = 3`, `x⁵`, 8 + 56-round
//! map about three times faster, which is what a prover that spends ~95 %
//! of its time in ~1.4 M permutations needs. Nothing here changes what is
//! hashed: digests, trees and proofs are bit-identical to the generic
//! path (`tests/stark_proof_kat.rs`, the `stark_poseidon_kernel` oracle).
//! A different permutation (ROADMAP item 2) replaces the body of this
//! module and keeps the callers.
//!
//! Three things make it fast (derivation in DESIGN §16, "hash kernel"):
//!
//! 1. **Sparse partial rounds.** A partial round only passes lane 0
//!    through the S-box, so the constants of lanes 1–2 commute with it and
//!    are pushed forward through the linear layer into the next round —
//!    each partial round adds one scalar, and what is left after the last
//!    one is folded into the first second-half round's constants. The MDS
//!    matrix is factored `M = Sp · diag(1, M̂)`; `diag(1, M̂)` commutes with
//!    a lane-0 S-box, moves backward into the previous round's matrix, and
//!    the factoring repeats, leaving one sparse matrix (5 multiplications,
//!    not 9) per partial round and one dense `A₀` on the last first-half
//!    full round. 816 → 592 multiplications.
//! 2. **Lazy reduction.** A dot product sums its three 128-bit products
//!    (counting carries out of bit 128, `2^128 ≡ −2^32`) and reduces once;
//!    intermediates are any `u64` congruent to the value, canonicalised
//!    only on the way out.
//! 3. **Four lanes in lock step.** One permutation is a serial chain of
//!    ~250 dependent multiply-reduce steps; [`hash2_x4`] walks four
//!    independent states through each round together so one lane's
//!    latency hides behind the other three. The lanes are four named
//!    locals expanded by a macro: a `[[u64; 3]; 4]` looped inside each
//!    round has compiled to code slower than a single lane (DESIGN §16).
//!
//! The schedule is derived once ([`OnceLock`]) from
//! [`permutation_constants`]; there is no second copy of the numbers.
//!
//! The word helpers bypass `Goldilocks`'s per-operation trace hooks, so
//! under an op-stream session the kernel reports itself, one `poseidon`
//! region entry per permutation ("trace hook" below).

use std::sync::OnceLock;

use zkperf_circuit::poseidon::{permutation_constants, FULL_ROUNDS, PARTIAL_ROUNDS, T};
use zkperf_ff::{Field, Goldilocks};
use zkperf_trace::{self as trace, OpCost};

type F = Goldilocks;
type Matrix = [[F; T]; T];

/// `ε = 2^32 − 1 = 2^64 mod p`.
const EPSILON: u64 = 0xffff_ffff;

const HALF_FULL: usize = FULL_ROUNDS / 2;

/// A full round: add `rc`, S-box every lane, multiply by `mix`.
#[derive(Clone, Copy)]
struct FullRound {
    rc: [u64; T],
    mix: [[u64; T]; T],
}

/// A partial round: add `k` to lane 0, S-box it, multiply by the sparse
/// matrix with first row `row`, first column `(row[0], col)` and the
/// identity below and right of it.
#[derive(Clone, Copy)]
struct PartialRound {
    k: u64,
    row: [u64; T],
    col: [u64; T - 1],
}

struct Schedule {
    first_full: [FullRound; HALF_FULL],
    partial: [PartialRound; PARTIAL_ROUNDS],
    last_full: [FullRound; HALF_FULL],
}

fn words<const N: usize>(v: [F; N]) -> [u64; N] {
    v.map(F::as_canonical_u64)
}

fn mat_vec(m: &Matrix, v: [F; T]) -> [F; T] {
    std::array::from_fn(|i| (0..T).map(|j| m[i][j] * v[j]).sum())
}

fn mat_mul(a: &Matrix, b: &Matrix) -> Matrix {
    std::array::from_fn(|i| std::array::from_fn(|j| (0..T).map(|k| a[i][k] * b[k][j]).sum()))
}

/// `diag(1, m̂)` for the lower-right 2×2 block `m̂` of `m`.
fn lower_block(m: &Matrix) -> Matrix {
    let (o, z) = (F::one(), F::zero());
    [[o, z, z], [z, m[1][1], m[1][2]], [z, m[2][1], m[2][2]]]
}

/// The factor `Sp` of `m = Sp · diag(1, m̂)`: first column of `m`, first
/// row `(m₀₀, v·m̂⁻¹)`, identity elsewhere.
fn sparse_factor(m: &Matrix) -> Matrix {
    let (a, b, c, d) = (m[1][1], m[1][2], m[2][1], m[2][2]);
    let det_inv = (a * d - b * c)
        .inverse()
        .expect("the 2×2 blocks of the Cauchy MDS schedule are invertible");
    let inv = [[d * det_inv, -b * det_inv], [-c * det_inv, a * det_inv]];
    let (o, z) = (F::one(), F::zero());
    [
        [
            m[0][0],
            m[0][1] * inv[0][0] + m[0][2] * inv[1][0],
            m[0][1] * inv[0][1] + m[0][2] * inv[1][1],
        ],
        [m[1][0], o, z],
        [m[2][0], z, o],
    ]
}

impl Schedule {
    fn derive() -> Schedule {
        let (rc, mds) = permutation_constants::<F>();
        let partial_rc = &rc[HALF_FULL..HALF_FULL + PARTIAL_ROUNDS];

        // Constants forward: lanes 1–2 of what a partial round would add
        // skip its S-box, pass through M and join the next round's row.
        let mut scalars = [F::zero(); PARTIAL_ROUNDS];
        let mut pushed = [F::zero(); T];
        for (k, row) in scalars.iter_mut().zip(partial_rc) {
            let pending: [F; T] = std::array::from_fn(|i| row[i] + pushed[i]);
            *k = pending[0];
            pushed = mat_vec(mds, [F::zero(), pending[1], pending[2]]);
        }

        // Matrices backward: the dense layer after round p is
        // Sp_p · diag(1, M̂_p); the diagonal part moves before round p's
        // S-box and multiplies into the layer after round p − 1.
        let mut sparse = [*mds; PARTIAL_ROUNDS];
        let mut dense = *mds;
        for sp in sparse.iter_mut().rev() {
            *sp = sparse_factor(&dense);
            dense = mat_mul(&lower_block(&dense), mds);
        }

        let full = |round: usize, extra: [F; T], mix: &Matrix| FullRound {
            rc: words(std::array::from_fn(|i| rc[round][i] + extra[i])),
            mix: mix.map(words),
        };
        let zero = [F::zero(); T];
        let second_half = HALF_FULL + PARTIAL_ROUNDS;
        Schedule {
            first_full: std::array::from_fn(|r| {
                full(r, zero, if r + 1 == HALF_FULL { &dense } else { mds })
            }),
            partial: std::array::from_fn(|p| PartialRound {
                k: scalars[p].as_canonical_u64(),
                row: words(sparse[p][0]),
                col: words([sparse[p][1][0], sparse[p][2][0]]),
            }),
            last_full: std::array::from_fn(|r| {
                full(second_half + r, if r == 0 { pushed } else { zero }, mds)
            }),
        }
    }

    fn get() -> &'static Schedule {
        static SCHEDULE: OnceLock<Schedule> = OnceLock::new();
        SCHEDULE.get_or_init(Schedule::derive)
    }
}

// ----------------------------------------------------------- word kernel
//
// State words are any `u64` congruent to the lane's value; schedule words
// are canonical (`< p`). Every helper keeps its result in one word without
// a second correction, by the bounds noted on it.

/// Marks the branch it is called on as the unlikely one.
#[cold]
#[inline(never)]
fn unlikely() {}

/// `x + carries·2^128` reduced to one (non-canonical) word.
///
/// With `x = lo + 2^64·(hi_lo + 2^32·hi_hi)`: `2^64 ≡ ε`, `2^96 ≡ −1` and
/// `2^128 ≡ −2^32`, so the value is `lo − (hi_hi + carries·2^32) +
/// ε·hi_lo`. A borrow is repaid with `−ε` (the subtrahend is below 2^34, so
/// the wrapped difference is far above `ε`), a carry with `+ε`
/// (`ε·hi_lo ≤ 2^64 − 2^33 + 1`, so the wrapped sum is below `2^64 − 2^33`).
///
/// The borrow needs `lo < 2^34` — one product in 2^30 — so it is a branch
/// the predictor never misses, and is marked cold to keep it one: as a
/// conditional move it sits on every lane's dependency chain and costs the
/// four-lane kernel 10 %. The carry is a coin flip and stays arithmetic.
#[inline(always)]
fn reduce(x: u128, carries: u64) -> u64 {
    let lo = x as u64;
    let hi = (x >> 64) as u64;
    let (mut t, borrow) = lo.overflowing_sub((hi >> 32) + (carries << 32));
    if borrow {
        unlikely();
        t = t.wrapping_sub(EPSILON);
    }
    let (r, carry) = t.overflowing_add((hi & EPSILON) * EPSILON);
    r.wrapping_add(EPSILON * u64::from(carry))
}

#[inline(always)]
fn mul(a: u64, b: u64) -> u64 {
    reduce(u128::from(a) * u128::from(b), 0)
}

/// `a + c` for a canonical `c`: the wrapped sum is at most `p − 2`, so the
/// `+ε` that repays a carry cannot carry again.
#[inline(always)]
fn add_canonical(a: u64, c: u64) -> u64 {
    let (s, carry) = a.overflowing_add(c);
    s.wrapping_add(EPSILON * u64::from(carry))
}

#[inline(always)]
fn sbox(x: u64) -> u64 {
    let x2 = mul(x, x);
    mul(mul(x2, x2), x)
}

/// `m · s` with one reduction for the three products.
#[inline(always)]
fn dot(m: &[u64; T], s: [u64; T]) -> u64 {
    let product = |i: usize| u128::from(m[i]) * u128::from(s[i]);
    let (x, c1) = product(0).overflowing_add(product(1));
    let (x, c2) = x.overflowing_add(product(2));
    reduce(x, u64::from(c1) + u64::from(c2))
}

/// `c·x + y` for a canonical `c`: `(p − 1)(2^64 − 1) + 2^64 − 1 < 2^128`.
#[inline(always)]
fn mul_add(c: u64, x: u64, y: u64) -> u64 {
    reduce(u128::from(c) * u128::from(x) + u128::from(y), 0)
}

#[inline(always)]
fn full_round(s: [u64; T], round: &FullRound) -> [u64; T] {
    let s = [
        sbox(add_canonical(s[0], round.rc[0])),
        sbox(add_canonical(s[1], round.rc[1])),
        sbox(add_canonical(s[2], round.rc[2])),
    ];
    [
        dot(&round.mix[0], s),
        dot(&round.mix[1], s),
        dot(&round.mix[2], s),
    ]
}

#[inline(always)]
fn partial_round(s: [u64; T], round: &PartialRound) -> [u64; T] {
    let x = sbox(add_canonical(s[0], round.k));
    [
        dot(&round.row, [x, s[1], s[2]]),
        mul_add(round.col[0], x, s[1]),
        mul_add(round.col[1], x, s[2]),
    ]
}

/// Runs every named state through the whole schedule, round by round.
macro_rules! run_schedule {
    ($schedule:expr; $($s:ident),+) => {{
        let schedule: &Schedule = $schedule;
        for round in &schedule.first_full {
            $($s = full_round($s, round);)+
        }
        for round in &schedule.partial {
            $($s = partial_round($s, round);)+
        }
        for round in &schedule.last_full {
            $($s = full_round($s, round);)+
        }
    }};
}

fn permute_words(mut a: [u64; T]) -> [u64; T] {
    run_schedule!(Schedule::get(); a);
    a
}

fn permute_words_x4(states: [[u64; T]; 4]) -> [[u64; T]; 4] {
    let [mut a, mut b, mut c, mut d] = states;
    run_schedule!(Schedule::get(); a, b, c, d);
    [a, b, c, d]
}

// ------------------------------------------------------------ trace hook

/// Multiplications one permutation performs: per full round `T` S-boxes of
/// three and `T` dot products of `T`; per partial round one S-box, one dot
/// product and `T − 1` multiply-adds.
const MULS: u32 = (FULL_ROUNDS * (3 * T + T * T) + PARTIAL_ROUNDS * (3 + T + (T - 1))) as u32;

/// Additions one permutation performs: per full round `T` constants and
/// `T − 1` per dot product; per partial round one constant, the dot
/// product's `T − 1` and one per multiply-add.
const ADDS: u32 = (FULL_ROUNDS * (T + T * (T - 1)) + PARTIAL_ROUNDS * (1 + 2 * (T - 1))) as u32;

/// Reports the permutations the word kernel is about to run on `states()`
/// to a live op-stream session — the module's (and the crate's) only
/// `is_active` test, and all it guards is [`report_permutations`]. The
/// states come as a closure so that the array the reporter reads exists
/// only under a session: built up front, it is stored to the stack on
/// every call and the kernel's lanes are allocated around it.
#[inline(always)]
fn trace_permutations<const N: usize>(states: impl FnOnce() -> [[u64; T]; N]) {
    if trace::is_active() {
        report_permutations(&states());
    }
}

/// The hooks of [`trace_permutations`], nothing else: per permutation one
/// `poseidon` region entry retiring [`MULS`] multiplications and [`ADDS`]
/// additions, the state and every round record loaded where they lie, and
/// the state stored back where it was loaded (the kernel permutes in place).
#[cold]
#[inline(never)]
fn report_permutations(states: &[[u64; T]]) {
    let schedule = Schedule::get();
    let load = |addr: usize, bytes: usize| trace::load(addr, bytes as u32);
    for state in states {
        let _g = trace::region_profile("poseidon");
        load(state.as_ptr() as usize, std::mem::size_of_val(state));
        for round in schedule.first_full.iter().chain(&schedule.last_full) {
            load(round as *const FullRound as usize, std::mem::size_of::<FullRound>());
        }
        for round in &schedule.partial {
            load(round as *const PartialRound as usize, std::mem::size_of::<PartialRound>());
        }
        for cost in [OpCost::mont_mul(1).times(MULS), OpCost::mod_add(1).times(ADDS)] {
            trace::compute(cost.compute);
            trace::control(cost.control);
            trace::data_move(cost.data);
        }
        trace::store(state.as_ptr() as usize, std::mem::size_of_val(state) as u32);
    }
}

// ---------------------------------------------------------- entry points

/// The Poseidon permutation over Goldilocks; equal to
/// `circuit::poseidon::poseidon_permute::<Goldilocks>` on every input.
pub fn permute(state: [F; T]) -> [F; T] {
    trace_permutations(|| [words(state)]);
    permute_words(words(state)).map(F::from_u64)
}

/// Two-to-one compression: absorb `(l, r)` over a zero capacity lane and
/// squeeze the first rate lane.
pub fn hash2(l: F, r: F) -> F {
    permute([l, r, F::zero()])[0]
}

/// Four independent [`hash2`] calls, `out[i] = hash2(l[i], r[i])`, with
/// the four permutations interleaved round by round.
pub fn hash2_x4(l: [F; 4], r: [F; 4]) -> [F; 4] {
    let states = || std::array::from_fn(|i| words([l[i], r[i], F::zero()]));
    trace_permutations(states);
    permute_words_x4(states()).map(|s| F::from_u64(s[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use zkperf_circuit::poseidon::poseidon_permute;
    use zkperf_ff::goldilocks::MODULUS;
    use zkperf_ff::test_rng;

    fn matrix_of(sp: &PartialRound) -> Matrix {
        let (o, z) = (F::one(), F::zero());
        let f = F::from_u64;
        [
            [f(sp.row[0]), f(sp.row[1]), f(sp.row[2])],
            [f(sp.col[0]), o, z],
            [f(sp.col[1]), z, o],
        ]
    }

    #[test]
    fn derived_schedule_is_self_consistent() {
        let (rc, mds) = permutation_constants::<F>();
        let schedule = Schedule::get();
        // Walking backward, each sparse matrix times the diagonal block it
        // split off multiplies back to the dense layer it replaced; the
        // block left over at the front is A₀'s.
        let mut dense = *mds;
        for sp in schedule.partial.iter().rev() {
            let block = lower_block(&dense);
            assert_eq!(mat_mul(&matrix_of(sp), &block), dense);
            dense = mat_mul(&block, mds);
        }
        let a0 = schedule.first_full[HALF_FULL - 1]
            .mix
            .map(|row| row.map(F::from_u64));
        assert_eq!(a0, dense);
        for round in &schedule.first_full[..HALF_FULL - 1] {
            assert_eq!(round.mix.map(|row| row.map(F::from_u64)), *mds);
        }

        // Replaying the constant pushing: the scalar of round p is lane 0
        // of (its own row + what the previous round pushed), and the vector
        // folded into the first second-half round is M·(0, e′) for the
        // last round's leftover lanes e′.
        let mut pushed = [F::zero(); T];
        for (p, round) in schedule.partial.iter().enumerate() {
            let row = rc[HALF_FULL + p];
            assert_eq!(F::from_u64(round.k), row[0] + pushed[0]);
            pushed = mat_vec(mds, [F::zero(), row[1] + pushed[1], row[2] + pushed[2]]);
        }
        let second_half = HALF_FULL + PARTIAL_ROUNDS;
        for (r, round) in schedule.last_full.iter().enumerate() {
            let extra = if r == 0 { pushed } else { [F::zero(); T] };
            let want: [F; T] = std::array::from_fn(|i| rc[second_half + r][i] + extra[i]);
            assert_eq!(round.rc.map(F::from_u64), want);
            assert_eq!(round.mix.map(|row| row.map(F::from_u64)), *mds);
        }
    }

    #[test]
    fn word_helpers_agree_with_the_field_on_edge_words() {
        // Non-canonical words included: the helpers must accept any u64.
        let edge = [
            0,
            1,
            EPSILON,
            EPSILON + 1,
            1 << 63,
            MODULUS - 1,
            MODULUS,
            MODULUS + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let f = F::from_u64;
        for &a in &edge {
            for &b in &edge {
                assert_eq!(f(mul(a, b)), f(a) * f(b), "mul({a:#x}, {b:#x})");
                let c = f(b).as_canonical_u64();
                assert_eq!(f(add_canonical(a, c)), f(a) + f(b), "add({a:#x}, {c:#x})");
                for &y in &edge {
                    assert_eq!(f(mul_add(c, a, y)), f(c) * f(a) + f(y));
                    // Three maximal products overflow 2^128 twice.
                    let m = [c, f(y).as_canonical_u64(), MODULUS - 1];
                    let want = f(m[0]) * f(a) + f(m[1]) * f(b) + f(m[2]) * f(y);
                    assert_eq!(
                        f(dot(&m, [a, b, y])),
                        want,
                        "dot({m:x?}, [{a:#x}, {b:#x}, {y:#x}])"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_equals_the_generic_permutation() {
        let mut rng = test_rng();
        let top = F::from_u64(MODULUS - 1);
        let mut states = vec![[F::zero(); T], [top; T], [F::one(), F::zero(), top]];
        states.extend((0..500).map(|_| [(); T].map(|_| F::random(&mut rng))));
        for state in &states {
            let want = poseidon_permute(*state);
            assert_eq!(permute(*state), want, "one lane, state {state:?}");
        }
        // Four different states per call, every lane position, and the
        // same state in all four lanes.
        for group in states.chunks_exact(4) {
            let got = permute_words_x4(std::array::from_fn(|i| words(group[i])));
            for (lane, state) in group.iter().enumerate() {
                assert_eq!(
                    got[lane].map(F::from_u64),
                    poseidon_permute(*state),
                    "lane {lane}"
                );
            }
            let same = permute_words_x4([words(group[0]); 4]);
            assert!(same
                .iter()
                .all(|s| s.map(F::from_u64) == poseidon_permute(group[0])));
        }
    }

    #[test]
    fn hash2_x4_is_four_hash2_calls_and_canonical() {
        let mut rng = test_rng();
        for _ in 0..100 {
            let l: [F; 4] = [(); 4].map(|_| F::random(&mut rng));
            let r: [F; 4] = [(); 4].map(|_| F::from_u64(rng.gen()));
            let got = hash2_x4(l, r);
            for i in 0..4 {
                assert_eq!(got[i], poseidon_permute([l[i], r[i], F::zero()])[0]);
                assert_eq!(got[i], hash2(l[i], r[i]));
                assert!(got[i].as_canonical_u64() < MODULUS);
            }
        }
    }

    #[test]
    fn traced_entry_points_return_the_same_values() {
        let f = F::from_u64;
        let (l, r) = ([f(1), f(2), f(3), f(4)], [f(5), f(6), f(7), f(8)]);
        let state = [f(9), f(10), f(11)];
        let untraced = (permute(state), hash2_x4(l, r));
        let session = trace::Session::begin();
        let traced = (permute(state), hash2_x4(l, r));
        let report = session.finish();
        assert_eq!(traced, untraced);
        // One `poseidon` region entry per permutation — each lane of the
        // four-lane call on its own — holding the whole reported stream.
        let region = report.region("poseidon").expect("poseidon region");
        assert_eq!(region.calls, 5);
        assert_eq!(region.counts, report.counts);
        assert_eq!((MULS, ADDS), (592, 352));
        let mul = OpCost::mont_mul(1).times(MULS);
        let add = OpCost::mod_add(1).times(ADDS);
        assert_eq!(report.counts.compute_uops, 5 * u64::from(mul.compute + add.compute));
        let rounds = (FULL_ROUNDS + PARTIAL_ROUNDS) as u64;
        assert_eq!((report.counts.loads, report.counts.stores), (5 * (1 + rounds), 5));
    }
}
