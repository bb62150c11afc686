//! `contribute` scales the key in place: its allocation high-water mark is
//! a worker's chunk scratch, not a second copy of the query.
//!
//! The peak meter is process-wide, so this file holds one test and nothing
//! else allocates beside it.

use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::bn254::Fr;
use zkperf_groth16::{contribute, setup};
use zkperf_pool as pool;

#[test]
fn contribute_peak_stays_below_the_old_projective_buffer() {
    // Scratch is per worker; one worker is the shape a memory budget
    // reasons about.
    pool::set_threads(1);
    let circuit = exponentiate::<Fr>(1 << 12);
    let mut rng = zkperf_ff::test_rng();
    let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();

    let before = pool::mem::live_bytes();
    pool::mem::reset_peak();
    contribute::<Bn254, _>(&mut pk, &mut rng);
    let peak = pool::mem::peak_live_bytes() - before;

    // The per-point sweep collected one 96-byte Jacobian point per query
    // element before normalising the batch.
    let old_buffer = 96 * pk.l_query.len().max(pk.h_query.len()) as u64;
    assert!(
        peak < old_buffer,
        "contribute peaked at {peak} B above its inputs; the buffer it replaced was {old_buffer} B"
    );
}
