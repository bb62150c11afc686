//! `ChunkedKey` lends the key's own vectors: walking every chunk of every
//! query — and holding all of them at once — allocates the iterator
//! boxes and nothing the size of a query. `prove` reads a resident key
//! through it, so a per-chunk copy would put one query's worth of points
//! (2.2 MB for G2 at 2^14) on top of every proof's peak.
//!
//! The peak meter is process-wide, so this file holds one test and nothing
//! else allocates beside it.

use std::borrow::Cow;

use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::bn254::Fr;
use zkperf_groth16::{setup, ChunkedKey, QuerySource, G1_QUERIES};
use zkperf_pool as pool;

#[test]
fn walking_a_chunked_key_allocates_no_points() {
    let circuit = exponentiate::<Fr>(1 << 12);
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();
    let smallest_query = pk.l_query.len().min(pk.h_query.len()) * std::mem::size_of_val(&pk.l_query[0]);

    for chunk_points in [256usize, usize::MAX] {
        let src = ChunkedKey::new(&pk, chunk_points);
        let before = pool::mem::live_bytes();
        pool::mem::reset_peak();
        let mut held_g1 = Vec::new();
        for q in G1_QUERIES {
            held_g1.extend(src.g1_chunks(q).map(|c| c.unwrap()));
        }
        let held_g2: Vec<_> = src.g2_chunks().map(|c| c.unwrap()).collect();
        let peak = pool::mem::peak_live_bytes() - before;

        assert!(held_g1.iter().all(|c| matches!(c, Cow::Borrowed(_))));
        assert!(held_g2.iter().all(|c| matches!(c, Cow::Borrowed(_))));
        assert_eq!(held_g1[0].as_ptr(), pk.a_query.as_ptr());
        assert_eq!(held_g2[0].as_ptr(), pk.b_g2_query.as_ptr());
        assert!(
            peak < smallest_query as u64 / 2,
            "holding every chunk ({chunk_points} points each) peaked at {peak} B; \
             the smallest query is {smallest_query} B"
        );
    }
}
