//! The prover reads the circuit's coset tables from the key, commits
//! nothing above n points and holds each of a, b, c, z once: a proof's
//! allocation high-water mark is the five 4n-row vectors of round 3 beside
//! four n-row ones, not fifteen rebuilt tables, not the scratch of a
//! 3n-point MSM and not values and coefficients side by side.
//!
//! The peak meter is process-wide, so this file holds one test and nothing
//! else allocates beside it.

use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::{bn254::Fr, Field};
use zkperf_plonk::{plonk_prove, plonk_setup, plonk_verify};
use zkperf_pool as pool;

#[test]
fn prove_peak_stays_below_the_old_quotient_round() {
    // MSM scratch is per worker; one worker is the shape a memory budget
    // reasons about.
    pool::set_threads(1);
    let circuit = exponentiate::<Fr>(1 << 12);
    let mut rng = zkperf_ff::test_rng();
    let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
    let n = pk.vk().n as u64;

    let before = pool::mem::live_bytes();
    pool::mem::reset_peak();
    let proof = plonk_prove(&pk, witness.full()).unwrap();
    let peak = pool::mem::peak_live_bytes() - before;
    assert!(plonk_verify(pk.vk(), &proof, witness.public()));

    // Before the key held the tables, round 3 alone kept nineteen 4n-row
    // vectors alive at once (fifteen coset tables, x, Z_H, 1/Z_H, and the
    // inversion prefix or t) — 76·n field elements — and the whole proof
    // peaked at 164·n·32 B. While the quotient was committed and opened
    // whole the peak sat in the 3n-point MSMs, at about 68·n·32 B. With
    // every MSM at n points it is back in round 3, which holds five
    // 4n-row vectors (a, b, c, z on the coset, and t) beside the four
    // coefficient forms — the vectors the wire values and the accumulator
    // were committed from, transformed in place: 24·n·32 B, and some MSM
    // and transform scratch on the way there.
    let bound = 28 * n * 32;
    assert!(
        peak < bound,
        "prove peaked at {peak} B ({}·n·32 B) above its inputs; the bound is {bound} B",
        peak / (n * 32)
    );
}
