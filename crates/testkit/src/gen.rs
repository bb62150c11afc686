//! Adversarial input generators.
//!
//! Uniform random inputs almost never hit the paths where optimized
//! kernels break: the signed-digit carry chain saturated by `p − 1`, the
//! batch-adder tangent case from duplicate bases, the Montgomery final
//! reduction at `2p − 1`, the size-crossover branches between the naive
//! and windowed MSM. Every generator here is *biased*: roughly half of
//! its draws come from a hand-curated edge pool, the rest are uniform.

use rand::Rng;
use zkperf_circuit::library::{exponentiate, multiplier_chain};
use zkperf_circuit::{Circuit, Witness};
use zkperf_ec::{Affine, CurveParams, Projective};
use zkperf_ff::lanes::LaneModulus;
use zkperf_ff::{BigUint, Fp, PrimeField};

use crate::rng::SplitRng;

/// The deterministic edge pool for a prime field: additive/multiplicative
/// identities, the extremes of the canonical range, limb-boundary values
/// (`2^64 ± 1`, `2^128`), and the values that flip the Montgomery final
/// reduction and the signed-window carry.
pub fn edge_fields<F: PrimeField>() -> Vec<F> {
    let p = F::modulus();
    let half = {
        let (q, _) = p.divrem_u64(2);
        F::from_biguint(&q)
    };
    vec![
        F::zero(),
        F::one(),
        F::from_u64(2),
        -F::one(),              // p − 1: saturates every window digit
        -F::from_u64(2),        // p − 2
        half,                   // (p−1)/2: the signed-digit pivot
        F::from_u64(u64::MAX),  // top of limb 0
        F::from_biguint(&BigUint::one().shl(64)),  // 2^64: limb carry
        F::from_biguint(&BigUint::one().shl(127)), // mid-limb boundary
        F::from_biguint(&BigUint::one().shl(128)), // 2-limb boundary
        -F::from_biguint(&BigUint::one().shl(64)), // p − 2^64
    ]
}

/// One field element: ~50% from [`edge_fields`], otherwise uniform.
pub fn adversarial_field<F: PrimeField>(rng: &mut SplitRng) -> F {
    let edges = edge_fields::<F>();
    if rng.gen_bool(0.5) {
        edges[rng.gen_range(0..edges.len() as u64) as usize]
    } else {
        F::random(rng)
    }
}

/// An element of a lane field (BN254 `Fq` or `Fr`, BLS12-381 `Fr`) aimed
/// at the 8-lane kernel of `zkperf_ff::lanes`: half the draws come from
/// `lanes::limb_edges` — Montgomery limbs where the kernel splits and
/// reduces: 0, 1, p − 1, R, and each 52-bit limb at 0 or 2⁵² − 1 — the
/// rest from [`adversarial_field`].
pub fn lane_edge<M: LaneModulus>(rng: &mut SplitRng) -> Fp<M, 4> {
    if rng.gen_bool(0.5) {
        return adversarial_field(rng);
    }
    let edges = zkperf_ff::lanes::limb_edges::<M>();
    edges[rng.gen_range(0..edges.len() as u64) as usize]
}

/// A scalar vector biased toward edge values **and** duplicates (duplicate
/// scalars land in the same Pippenger bucket, exercising the batch adder's
/// equal-point doubling branch).
pub fn adversarial_scalars<F: PrimeField>(rng: &mut SplitRng, n: usize) -> Vec<F> {
    let mut out: Vec<F> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_bool(0.15) {
            // Duplicate (or negated duplicate) of an earlier entry.
            let j = rng.gen_range(0..i as u64) as usize;
            out.push(if rng.gen_bool(0.5) { out[j] } else { -out[j] });
        } else {
            out.push(adversarial_field(rng));
        }
    }
    out
}

/// A base-point vector biased toward the identity, the generator, and
/// duplicated / negated earlier points (the adversarial cases for
/// batch-affine addition: P + P, P + (−P), ∞ + P).
pub fn adversarial_points<C: CurveParams>(rng: &mut SplitRng, n: usize) -> Vec<Affine<C>> {
    let mut out: Vec<Affine<C>> = Vec::with_capacity(n);
    for i in 0..n {
        let roll: f64 = rng.gen();
        let p = if roll < 0.08 {
            Affine::identity()
        } else if roll < 0.16 {
            Affine::generator()
        } else if roll < 0.30 && i > 0 {
            let j = rng.gen_range(0..i as u64) as usize;
            if rng.gen_bool(0.5) {
                out[j]
            } else {
                out[j].neg()
            }
        } else {
            Projective::<C>::random(rng).to_affine()
        };
        out.push(p);
    }
    out
}

/// An input length biased toward the sizes where kernels change strategy:
/// 0, 1, the naive→windowed MSM crossover (`n = 8`), the window-width
/// breakpoints (32, 256), non-powers-of-two, and `2^k ± 1` straddles —
/// capped at `max`.
pub fn adversarial_len(rng: &mut SplitRng, max: usize) -> usize {
    const EDGES: [usize; 14] = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 100, 255, 256, 257];
    let n = if rng.gen_bool(0.6) {
        EDGES[rng.gen_range(0..EDGES.len() as u64) as usize]
    } else {
        rng.gen_range(0..max.max(1) as u64) as usize
    };
    n.min(max)
}

/// A power-of-two NTT size `2^k` with `k` drawn from `0..=max_log`,
/// biased toward the extremes (size 1 and 2 degenerate the butterfly
/// network; the top sizes cross block/task thresholds).
pub fn adversarial_pow2(rng: &mut SplitRng, max_log: u32) -> usize {
    let log = if rng.gen_bool(0.4) {
        *[0u32, 1, max_log.saturating_sub(1), max_log]
            .get(rng.gen_range(0..4) as usize)
            .unwrap_or(&0)
    } else {
        rng.gen_range(0..(max_log + 1) as u64) as u32
    };
    1usize << log.min(max_log)
}

/// An evaluation-domain order: [`adversarial_pow2`]'s `2^k`, or `3·2^k`
/// half the time, so the radix-3 layer meets the same size edges.
pub fn adversarial_domain_order(rng: &mut SplitRng, max_log: u32) -> usize {
    let pow2 = adversarial_pow2(rng, max_log);
    if rng.gen_bool(0.5) {
        3 * pow2
    } else {
        pow2
    }
}

/// A randomly shaped benchmark circuit together with a satisfying witness.
///
/// Draws from the circuit library with adversarially small/awkward sizes
/// (1-constraint exponentiation, 2-factor chains) and edge-biased inputs;
/// the returned witness always satisfies the circuit.
pub fn adversarial_circuit<F: PrimeField>(rng: &mut SplitRng) -> (Circuit<F>, Witness<F>) {
    // Exponent/factor counts stay small: the fuzz tier runs full
    // setup+prove+verify per case.
    if rng.gen_bool(0.5) {
        let e = *[1usize, 2, 3, 4, 8, 16]
            .get(rng.gen_range(0..6) as usize)
            .unwrap_or(&4);
        let circuit = exponentiate::<F>(e);
        // Nonzero base: x = 0 is satisfiable too, but keep outputs distinct
        // from the one-wire so public-input mutations change the statement.
        let x = F::from_u64(2 + rng.gen_range(0..64));
        let w = circuit
            .generate_witness(&[x], &[])
            .expect("library circuit accepts any base");
        (circuit, w)
    } else {
        let k = 2 + rng.gen_range(0..4) as usize;
        let circuit = multiplier_chain::<F>(k);
        let factors: Vec<F> = (0..k).map(|_| F::from_u64(2 + rng.gen_range(0..64))).collect();
        let w = circuit
            .generate_witness(&[], &factors)
            .expect("library circuit accepts any factors");
        (circuit, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::bls12_381;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn edge_fields_are_distinct_and_in_range() {
        fn check<F: PrimeField>() {
            let edges = edge_fields::<F>();
            for (i, a) in edges.iter().enumerate() {
                for b in edges.iter().skip(i + 1) {
                    assert_ne!(a, b, "duplicate edge value");
                }
                assert!(a.to_biguint() < F::modulus());
            }
        }
        check::<Fr>();
        check::<zkperf_ff::bn254::Fq>();
        check::<bls12_381::Fr>();
        check::<bls12_381::Fq>();
    }

    #[test]
    fn scalar_vectors_contain_duplicates_and_edges() {
        let mut rng = SplitRng::from_seed(11);
        let xs = adversarial_scalars::<Fr>(&mut rng, 256);
        assert_eq!(xs.len(), 256);
        assert!(xs.contains(&Fr::zero()) || xs.contains(&-Fr::one()));
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert!(distinct.len() < xs.len(), "expected duplicated scalars");
    }

    #[test]
    fn point_vectors_hit_identity_and_stay_on_curve() {
        let mut rng = SplitRng::from_seed(12);
        let ps = adversarial_points::<zkperf_ec::bn254::G1Params>(&mut rng, 128);
        assert!(ps.iter().any(|p| p.infinity));
        for p in &ps {
            assert!(p.infinity || p.is_on_curve());
        }
    }

    #[test]
    fn lengths_respect_cap_and_hit_crossovers() {
        let mut rng = SplitRng::from_seed(13);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let n = adversarial_len(&mut rng, 64);
            assert!(n <= 64);
            seen.insert(n);
        }
        for must in [0usize, 1, 7, 8, 9] {
            assert!(seen.contains(&must), "never generated n = {must}");
        }
    }

    #[test]
    fn circuits_come_with_satisfying_witnesses() {
        let mut rng = SplitRng::from_seed(14);
        for _ in 0..8 {
            let (circuit, w) = adversarial_circuit::<Fr>(&mut rng);
            assert_eq!(circuit.r1cs().check_satisfied(w.full()), Ok(()));
        }
    }
}
