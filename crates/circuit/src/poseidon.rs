//! A Poseidon-shaped sponge hash, natively and as a circuit gadget.
//!
//! Structure follows the Poseidon paper (t = 3 state, x⁵ S-box, 8 full +
//! 56 partial rounds, MDS mixing), which is the hash circom circuits use
//! for Merkle trees and commitments. The round constants and MDS matrix
//! are derived deterministically in-repo (xorshift stream / Cauchy matrix)
//! rather than copied from the reference instantiation — interoperability
//! with other Poseidon deployments is a non-goal; circuit shape and cost
//! (≈ 240 constraints per permutation) match the real thing.

use zkperf_ff::{Field, PrimeField};
use zkperf_trace as trace;

use crate::builder::CircuitBuilder;
use crate::lc::LinearCombination;

/// State width of the permutation (2 rate + 1 capacity).
pub const T: usize = 3;
/// Number of full rounds (S-box on the whole state).
pub const FULL_ROUNDS: usize = 8;
/// Number of partial rounds (S-box on one lane).
pub const PARTIAL_ROUNDS: usize = 56;

/// The derived permutation constants for one field instantiation.
///
/// Deriving them costs a few hundred field inversions and `BigUint`
/// reductions — irrelevant per circuit build, but witness generation runs
/// the permutation once per hash gadget, where rederivation would dominate
/// the hash itself. The registry below builds them once per field type and
/// serves a leaked static thereafter (same shape as the tower
/// Frobenius-coefficient cache in `zkperf-ff`).
///
/// This module is the only place the constants are defined. The STARK
/// backend hashes with its own Goldilocks-only implementation of the same
/// function (`zkperf_stark::poseidon`), which derives its round schedule
/// from [`permutation_constants`] and is pinned equal to
/// [`poseidon_permute`] by tests and a differential oracle.
struct PoseidonConstants<F: PrimeField> {
    round_constants: Vec<[F; T]>,
    mds: [[F; T]; T],
}

/// The permutation's parameters over `F`: the `FULL_ROUNDS +
/// PARTIAL_ROUNDS` round-constant rows in round order (row `r` is added
/// to the state at the start of round `r`), and the MDS matrix (`mds[i]`
/// is the row producing output lane `i`).
///
/// For a second implementation of [`poseidon_permute`] to derive its own
/// schedule from; it must not be a second source of the numbers.
pub fn permutation_constants<F: PrimeField>() -> (&'static [[F; T]], &'static [[F; T]; T]) {
    let cached = constants::<F>();
    (&cached.round_constants, &cached.mds)
}

fn constants<F: PrimeField>() -> &'static PoseidonConstants<F> {
    use std::any::{Any, TypeId};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Registry = Mutex<HashMap<TypeId, &'static (dyn Any + Send + Sync)>>;
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let key = TypeId::of::<F>();
    let lock = || registry.lock().expect("poseidon constants registry poisoned");
    if let Some(cached) = lock().get(&key) {
        return cached
            .downcast_ref::<PoseidonConstants<F>>()
            .expect("registry entries are keyed by field type");
    }
    // Built outside the lock (the build recurses into field arithmetic); a
    // race at first use builds twice and keeps one.
    let built: &'static PoseidonConstants<F> = Box::leak(Box::new(PoseidonConstants {
        round_constants: round_constants::<F>(),
        mds: mds_matrix::<F>(),
    }));
    let mut guard = lock();
    guard
        .entry(key)
        .or_insert(built as &'static (dyn Any + Send + Sync))
        .downcast_ref::<PoseidonConstants<F>>()
        .expect("just inserted with this type")
}

fn round_constants<F: PrimeField>() -> Vec<[F; T]> {
    // A fixed xorshift64* stream, domain-separated per position.
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..FULL_ROUNDS + PARTIAL_ROUNDS)
        .map(|_| {
            let mut row = [F::zero(); T];
            for slot in row.iter_mut() {
                // Two words give ~128 bits of entropy per constant.
                let lo = next();
                let hi = next();
                let v = zkperf_ff::BigUint::from_limbs(&[lo, hi]);
                *slot = F::from_biguint(&v);
            }
            row
        })
        .collect()
}

fn mds_matrix<F: PrimeField>() -> [[F; T]; T] {
    // Cauchy matrix m[i][j] = 1/(xᵢ + yⱼ) with disjoint small x, y: always
    // invertible over a prime field of large characteristic.
    let mut m = [[F::zero(); T]; T];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let denom = F::from_u64((i + 1) as u64) + F::from_u64((j + T + 1) as u64);
            *cell = denom.inverse().expect("small sums are non-zero");
        }
    }
    m
}

fn sbox<F: Field>(x: F) -> F {
    // x^5
    let x2 = x.square();
    x2.square() * x
}

/// Applies the Poseidon permutation to a state natively.
pub fn poseidon_permute<F: PrimeField>(mut state: [F; T]) -> [F; T] {
    let _g = trace::region_profile("poseidon");
    let cached = constants::<F>();
    let mds = &cached.mds;
    let half_full = FULL_ROUNDS / 2;
    for (round, rc) in cached.round_constants.iter().enumerate() {
        for (lane, c) in state.iter_mut().zip(rc) {
            *lane += *c;
        }
        let full = round < half_full || round >= half_full + PARTIAL_ROUNDS;
        if full {
            for lane in state.iter_mut() {
                *lane = sbox(*lane);
            }
        } else {
            state[0] = sbox(state[0]);
        }
        let mut mixed = [F::zero(); T];
        for (i, row) in mds.iter().enumerate() {
            for (j, coeff) in row.iter().enumerate() {
                mixed[i] += *coeff * state[j];
            }
        }
        state = mixed;
    }
    state
}

/// Two-to-one Poseidon compression: absorb `(l, r)` with a zero capacity
/// lane and squeeze the first rate lane.
pub fn poseidon_hash2<F: PrimeField>(l: F, r: F) -> F {
    poseidon_permute([l, r, F::zero()])[0]
}

/// The in-circuit S-box: 3 constraints.
fn sbox_gadget<F: PrimeField>(
    b: &mut CircuitBuilder<F>,
    x: &LinearCombination<F>,
) -> LinearCombination<F> {
    let x2 = b.mul(x, x);
    let x4 = b.mul(&x2, &x2);
    b.mul(&x4, x)
}

/// The Poseidon permutation as constraints over three input combinations.
pub fn poseidon_permute_gadget<F: PrimeField>(
    b: &mut CircuitBuilder<F>,
    state: [LinearCombination<F>; T],
) -> [LinearCombination<F>; T] {
    let cached = constants::<F>();
    let mds = &cached.mds;
    let half_full = FULL_ROUNDS / 2;
    let mut state = state;
    for (round, rc) in cached.round_constants.iter().enumerate() {
        for (lane, c) in state.iter_mut().zip(rc) {
            *lane = &*lane + &LinearCombination::constant(*c);
        }
        let full = round < half_full || round >= half_full + PARTIAL_ROUNDS;
        if full {
            for lane in state.iter_mut() {
                *lane = sbox_gadget(b, lane);
            }
        } else {
            state[0] = sbox_gadget(b, &state[0]);
        }
        let mut mixed: [LinearCombination<F>; T] =
            std::array::from_fn(|_| LinearCombination::zero());
        for (i, row) in mds.iter().enumerate() {
            for (j, coeff) in row.iter().enumerate() {
                mixed[i] = &mixed[i] + &state[j].scale(*coeff);
            }
        }
        state = mixed;
    }
    state
}

/// Two-to-one Poseidon compression as a gadget.
pub fn poseidon_hash2_gadget<F: PrimeField>(
    b: &mut CircuitBuilder<F>,
    l: &LinearCombination<F>,
    r: &LinearCombination<F>,
) -> LinearCombination<F> {
    let out = poseidon_permute_gadget(b, [l.clone(), r.clone(), LinearCombination::zero()]);
    let [first, _, _] = out;
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::bn254::Fr;

    #[test]
    fn permutation_is_deterministic_and_sensitive() {
        let a = poseidon_hash2(Fr::from_u64(1), Fr::from_u64(2));
        let b = poseidon_hash2(Fr::from_u64(1), Fr::from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, poseidon_hash2(Fr::from_u64(2), Fr::from_u64(1)));
        assert_ne!(a, poseidon_hash2(Fr::from_u64(1), Fr::from_u64(3)));
        assert!(!a.is_zero());
    }

    #[test]
    fn gadget_matches_native_evaluation() {
        let mut b = CircuitBuilder::<Fr>::new("poseidon");
        let l = b.private_input("l");
        let r = b.private_input("r");
        let h = poseidon_hash2_gadget(&mut b, &l.into(), &r.into());
        b.output("h", h);
        let circuit = b.finish();
        // ≈ 240 constraints per permutation plus the output row; the
        // first round's capacity lane is still a constant, so its S-box
        // constant-folds away (3 constraints saved).
        let expected = 3 * (FULL_ROUNDS * T + PARTIAL_ROUNDS) + 1 - 3;
        assert_eq!(circuit.r1cs().num_constraints(), expected);
        let (lv, rv) = (Fr::from_u64(123), Fr::from_u64(456));
        let w = circuit.generate_witness(&[], &[lv, rv]).unwrap();
        assert_eq!(w.public()[1], poseidon_hash2(lv, rv));
    }

    #[test]
    fn works_on_bls12_381_too() {
        type Fr381 = zkperf_ff::bls12_381::Fr;
        let h = poseidon_hash2(Fr381::from_u64(7), Fr381::from_u64(8));
        assert!(!h.is_zero());
        // Different field ⇒ different constants ⇒ unrelated digests.
        let h_bn = poseidon_hash2(Fr::from_u64(7), Fr::from_u64(8));
        assert_ne!(h.to_biguint(), {
            use zkperf_ff::PrimeField;
            h_bn.to_biguint()
        });
    }

    #[test]
    fn mds_matrix_is_invertible() {
        // Determinant of the 3×3 Cauchy matrix must be non-zero.
        let m = mds_matrix::<Fr>();
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        assert!(!det.is_zero());
    }
}
