//! `prove` frees the trace columns once they are extended and the
//! coefficient vectors once the out-of-domain point is evaluated, so its
//! allocation high-water mark is the LDE columns, the two commitment
//! trees and the FRI layers — not those plus everything built on the way.
//!
//! The peak meter is process-wide, so this file holds one test and nothing
//! else allocates beside it.

use zkperf_circuit::library::exponentiate;
use zkperf_ff::{Field, Goldilocks};
use zkperf_pool as pool;
use zkperf_stark::{prove, verify, StarkParams};

#[test]
fn prove_peak_stays_below_the_bound() {
    pool::set_threads(1);
    let circuit = exponentiate::<Goldilocks>(1 << 12);
    let witness = circuit
        .generate_witness(&[Goldilocks::from_u64(3)], &[])
        .unwrap();
    let params = StarkParams::default();

    let before = pool::mem::live_bytes();
    pool::mem::reset_peak();
    let proof = prove(circuit.r1cs(), witness.full(), &params).unwrap();
    let peak = pool::mem::peak_live_bytes() - before;
    verify(circuit.r1cs(), witness.public(), &proof, &params).unwrap();

    // In units of one LDE column (n_ext words of 8 B): five columns, two
    // commitment trees of two each, the FRI codewords (2) and their trees
    // (4), the openings and the pool's bookkeeping — 16.43 at this size.
    // Each of the two frees is worth at least half a column (the four trace
    // columns, or the four coefficient vectors; the quotient's a whole
    // one); with neither, `prove` peaked at 18.43.
    let column = proof.n * proof.blowup * 8;
    let bound = 67 * column / 4;
    assert!(
        peak < bound,
        "prove peaked at {peak} B ({:.2} LDE columns) above its inputs; the bound is {bound} B",
        peak as f64 / column as f64
    );
}
