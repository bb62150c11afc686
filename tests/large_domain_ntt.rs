//! Integration: transforms on domains past the twiddle cache.
//!
//! Domains above 2^17 points carry no twiddle table, so every pass
//! advances running powers of its root, each pool task seeding its run
//! with one exponentiation. These tests pin that path on the three large
//! shapes the provers reach: BN254 `Fr` at 2^18 (Groth16's quotient domain
//! at 2^17 constraints) and 3·2^17 (a PLONK 4n coset), and Goldilocks at
//! 2^18 (a STARK LDE). Each is checked three ways: the same bytes at 1, 2
//! and 4 threads, a round trip through the plain and the coset transform,
//! and eight output slots of each against direct Horner evaluation at
//! `element(i)` — a check that shares no code with the butterflies.

use zkperf::ff::bn254::Fr;
use zkperf::ff::{Goldilocks, PrimeField};
use zkperf::poly::Radix2Domain;
use zkperf::pool;

/// Forward and coset transforms of `input` on a `threads`-thread pool,
/// each round-tripped back to `input` by its inverse.
fn transforms_at<F: PrimeField>(
    domain: &Radix2Domain<F>,
    input: &[F],
    threads: usize,
) -> (Vec<F>, Vec<F>) {
    pool::set_threads(threads);
    let mut fwd = input.to_vec();
    domain.fft_in_place(&mut fwd);
    let mut coset = input.to_vec();
    domain.coset_fft_in_place(&mut coset);
    let mut round = fwd.clone();
    domain.ifft_in_place(&mut round);
    let mut coset_round = coset.clone();
    domain.coset_ifft_in_place(&mut coset_round);
    pool::set_threads(1);
    assert!(round == input, "ifft(fft(x)) = x at {threads} threads");
    assert!(
        coset_round == input,
        "coset_ifft(coset_fft(x)) = x at {threads} threads"
    );
    (fwd, coset)
}

/// `Σ cᵢ·xⁱ` by Horner's rule.
fn horner<F: PrimeField>(coeffs: &[F], x: F) -> F {
    coeffs.iter().rev().fold(F::zero(), |acc, &c| acc * x + c)
}

fn check<F: PrimeField>(order: usize) {
    let domain = Radix2Domain::<F>::new(order)
        .filter(|d| d.size() == order)
        .expect("the field has a subgroup of this order");
    // Full-width pseudo-random coefficients at one multiplication each:
    // `random` reduces through a big integer, and drawing 2^18 of them
    // would cost more than the transforms under test.
    let mut rng = zkperf::ff::test_rng();
    let seeds: Vec<F> = (0..1024).map(|_| F::random(&mut rng)).collect();
    let input: Vec<F> = (0..order)
        .map(|i| seeds[i % 1024] * seeds[(i / 1024) % 1024])
        .collect();

    let (fwd, coset) = transforms_at(&domain, &input, 1);
    for threads in [2usize, 4] {
        let (f, c) = transforms_at(&domain, &input, threads);
        assert!(f == fwd, "forward at {threads} threads, order {order}");
        assert!(c == coset, "coset at {threads} threads, order {order}");
    }

    // Both ends, both halves' seams and a few slots in between.
    let n = order;
    let g = domain.coset_shift();
    for i in [0, 1, 2, n / 4 + 3, n / 2 - 1, n / 2, 3 * n / 4 + 5, n - 1] {
        let x = domain.element(i);
        assert!(
            fwd[i] == horner(&input, x),
            "forward slot {i}, order {order}"
        );
        assert!(
            coset[i] == horner(&input, g * x),
            "coset slot {i}, order {order}"
        );
    }
}

#[test]
fn bn254_2e18_matches_horner_and_is_thread_invariant() {
    check::<Fr>(1 << 18);
}

#[test]
fn bn254_3x2e17_matches_horner_and_is_thread_invariant() {
    check::<Fr>(3 << 17);
}

#[test]
fn goldilocks_2e18_matches_horner_and_is_thread_invariant() {
    check::<Goldilocks>(1 << 18);
}
